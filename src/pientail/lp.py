"""Exact simplex for the one program shape the library builds.

Every program pientail solves is a homogeneous cone with ``int`` cells,
the canonical form ``minimise c.x subject to Ax >= 0, x >= 0`` (Chvatal
1983, ch. 2-3).  ``decide_lp`` minimises the conclusion's weights subject to
the premises' rows, and a critical-threshold probe minimises ``-1.lambda``
subject to ``(gamma C - W) lambda >= 0``, both with the weights times the
denominator of ``gamma``.  The origin is feasible and every right-hand side
is 0, so ``solve`` starts from the surplus basis, with no right-hand-side
column, no phase 1 and no artificial variable.

The tableau is condensed (the dictionary form): only the nonbasic columns
are stored, each labelled with its variable, and each row is labelled with
its basic variable, whose column is always ``D`` times a unit vector for one
positive common denominator ``D``.  A pivot on ``p`` is fraction-free
(Edmonds 1967, Bareiss 1968; as in Avis's ``lrs``): it swaps the two labels,
sends every other cell ``T[i][j]`` to the exact quotient ``(T[i][j] * p -
T[i][c] * T[r][j]) / D``, writes the leaving variable's column (``D`` in row
r, ``-T[i][c]`` elsewhere) over the entering one, and makes ``p`` the new
``D``.  Bland's rule reads labels: the smallest label with a negative
reduced cost enters.  Every ratio is 0, so the row that leaves is the one
with the smallest basic label among the rows with a positive entry in the
entering column, which is the row Bland's ratio test picks.  Every run
terminates and takes the pivots of the full rational tableau, and what it
reads off by label is that tableau's.

The tableau is stored in one of two layouts, picked from the program's
shape alone.  A program with at least as many rows as columns (every
critical-threshold probe: R ratio rows over k premises) keeps k column lists
of R + 1 cells, so a pivot rewrites k lists instead of R + 1 short ones.  A
wider program (most ``decide_lp`` programs: one row per premise, one column
per signature) keeps its row lists.  Both run the same Bareiss step on every
cell and share the Bland loop, so the pivots, rays, duals and denominator
are the same:

* ``Optimal``   - the optimum is 0, at the origin; ``row_duals[r]`` over
                  ``denominator`` is the dual ``y_r >= 0``, ``A^T y <= c``;
* ``Unbounded`` - ``ray`` over ``denominator`` is a recession ray along
                  which the objective decreases forever.

Both hold the final tableau's integer numerators over its ``D``: no
``Fraction`` is built here.  The ray is re-verified first: it must be
nonnegative, nonzero and strictly improving, and it is substituted into
every row, summed over its nonzero entries only.  A cell that is not an
``int`` (a float or a ``Fraction``) raises ``TypeError``.
The general two-phase simplex over rational cells, with equality rows and
any right-hand side, is kept with the tests as the reference this kernel is
compared with.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Sequence

from .model import _Frozen


class LinearProgram(_Frozen):
    """Minimise ``objective . x`` over ``x >= 0`` subject to ``row . x >= 0``
    for every row of ``constraints``, each a tuple of ``int``."""

    _fields = ("num_vars", "objective", "constraints")

    def __init__(
        self,
        num_vars: int,
        objective: tuple[int, ...],
        constraints: tuple[tuple[int, ...], ...],
    ) -> None:
        self.__dict__.update(
            num_vars=num_vars, objective=objective, constraints=constraints
        )
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for row in self.constraints:
            if len(row) != self.num_vars:
                raise ValueError("constraint length does not match num_vars")


class Optimal(_Frozen):
    _fields = ("row_duals", "denominator")

    def __init__(self, row_duals: tuple[int, ...], denominator: int) -> None:
        self.__dict__.update(row_duals=row_duals, denominator=denominator)


class Unbounded(_Frozen):
    _fields = ("ray", "denominator")

    def __init__(self, ray: tuple[int, ...], denominator: int) -> None:
        self.__dict__.update(ray=ray, denominator=denominator)


_INT = {int}


def _eliminate(
    line: list[int], pivot_line: list[int], f: int, p: int, d: int
) -> list[int]:
    """The Bareiss step on one row or column of the tableau: ``(line * p - f
    * pivot_line) / d``, exact, where ``f`` is the line's cell in the pivot
    column (or row); ``line`` itself when nothing changes."""
    if f:
        if d == 1:
            return [a * p - f * b for a, b in zip(line, pivot_line)]
        return [(a * p - f * b) // d for a, b in zip(line, pivot_line)]
    if p != d:
        return [a * p // d for a in line]
    return line


def _pivot(
    rows: list[list[int]], basic: list[int], nonbasic: list[int], r: int, c: int, d: int
) -> int:
    """Pivot on the positive ``rows[r][c]`` (the cost row is last), swap the
    labels ``basic[r]`` and ``nonbasic[c]``, and return the new denominator.

    The pivot row keeps its numerators, which over ``p`` read as the row
    divided by the pivot."""
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = row = _eliminate(row, pivot_row, f, p, d)
            row[c] = -f
    pivot_row[c] = d
    basic[r], nonbasic[c] = nonbasic[c], basic[r]
    return p


def _pivot_columns(
    cols: list[list[int]], basic: list[int], nonbasic: list[int], r: int, c: int, d: int
) -> int:
    """``_pivot`` on the tableau stored by columns (the cost cell last in
    each): the same step on every cell, one column list at a time."""
    pivot_col = cols[c]
    p = pivot_col[r]
    for j, col in enumerate(cols):
        if j != c:
            g = col[r]
            cols[j] = col = _eliminate(col, pivot_col, g, p, d)
            col[r] = g
    pivot_col = [-v for v in pivot_col]
    pivot_col[r] = d
    cols[c] = pivot_col
    basic[r], nonbasic[c] = nonbasic[c], basic[r]
    return p


def _check_ray(lp: LinearProgram, ray: dict[int, int]) -> None:
    """Exact substitution check of a recession ray given by its nonzero
    integer components (variable -> numerator, up to a positive factor);
    raises on solver bugs."""
    if not any(ray.values()) or min(ray.values()) < 0:
        raise RuntimeError("solver returned an invalid ray")
    entries = ray.items()
    for row in lp.constraints:
        if sum([row[j] * v for j, v in entries]) < 0:
            raise RuntimeError("solver ray escapes the feasible cone")
    if sum([lp.objective[j] * v for j, v in entries]) >= 0:
        raise RuntimeError("solver ray does not improve the objective")


def solve(lp: LinearProgram) -> Optimal | Unbounded:
    """Solve the homogeneous integer program ``lp`` exactly and return a
    verified outcome, on a tableau stored by columns when it has at least as
    many rows as columns and by rows otherwise."""
    if not set(map(type, chain(lp.objective, *lp.constraints))) <= _INT:
        raise TypeError("solve takes int cells only")
    if len(lp.constraints) >= lp.num_vars:
        return _solve_columns(lp)
    return _solve_rows(lp)


def _solve_rows(lp: LinearProgram) -> Optimal | Unbounded:
    """``solve`` on the tableau stored as m + 1 row lists of n cells."""
    rows = [[-v for v in row] for row in lp.constraints]
    rows.append(list(lp.objective))
    return _bland(
        lp,
        lambda: rows[-1],
        lambda c: [row[c] for row in rows],
        partial(_pivot, rows),
    )


def _solve_columns(lp: LinearProgram) -> Optimal | Unbounded:
    """``solve`` on the tableau stored as n column lists of m + 1 cells."""
    # each column ends in its cost cell, the objective's entry negated twice
    negated_cost = [-v for v in lp.objective]
    cols = [[-v for v in col] for col in zip(*lp.constraints, negated_cost)]
    return _bland(
        lp,
        lambda: [col[-1] for col in cols],
        cols.__getitem__,
        partial(_pivot_columns, cols),
    )


def _bland(
    lp: LinearProgram,
    cost: Callable[[], Sequence[int]],
    column: Callable[[int], Sequence[int]],
    pivot: Callable[[list[int], list[int], int, int, int], int],
) -> Optimal | Unbounded:
    """Bland's rule from the surplus basis, over a tableau read through
    ``cost`` (the reduced costs, by nonbasic position), ``column`` (a
    nonbasic column, by basic row, the cost cell after them) and ``pivot``
    (which returns the new denominator).

    Row r, ``g.x >= 0``, enters the tableau as ``-g``, the row of its
    surplus ``s_r = g.x`` (label n + r), which starts basic; the cost row,
    last, holds the reduced costs of the objective."""
    n, m = lp.num_vars, len(lp.constraints)
    basic = [n + r for r in range(m)]
    nonbasic = list(range(n))
    d = 1
    while True:
        improving = [label for label, v in zip(nonbasic, cost()) if v < 0]
        if not improving:
            break
        entering = nonbasic.index(min(improving))
        col = column(entering)
        blocking = [label for label, v in zip(basic, col) if v > 0]
        if not blocking:
            # Along the ray the entering variable grows by one unit of the
            # rational tableau, and each basic one by minus its column.
            label = nonbasic[entering]
            ray = {label: d} if label < n else {}
            for b, v in zip(basic, col):
                if b < n and v:
                    ray[b] = -v
            _check_ray(lp, ray)
            return Unbounded(tuple([ray.get(j, 0) for j in range(n)]), d)
        d = pivot(basic, nonbasic, basic.index(min(blocking)), entering, d)

    # The dual value of row r is the reduced cost of its surplus column over
    # d (0 while the surplus is basic).
    reduced = dict(zip(nonbasic, cost()))
    return Optimal(tuple([reduced.get(n + r, 0) for r in range(m)]), d)
