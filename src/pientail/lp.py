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

The tableau is held in one of two ways, picked from the program's shape
alone.  A program with at least as many rows as columns (every
critical-threshold probe: R ratio rows over k premises) keeps k column lists
of R + 1 cells, so a pivot rewrites k lists instead of R + 1 short ones.  A
wider program (most ``decide_lp`` programs: one row per premise, one column
per signature) runs the revised simplex (Dantzig and Orchard-Hays 1954): it
keeps only an integer row operator ``W`` of m + 1 rows, the full tableau
being ``W`` times the program's own ``[-G | I ; c | 0]``, prices columns
in label order only up to the first negative reduced cost, builds only the
entering column, and sends each row of ``W`` through the Bareiss step, so
a pivot rewrites m + 1 rows of m cells instead of m + 1 rows of n.  Both
apply Bland's rule to the same rational tableau, so the pivots, rays,
duals and denominator are the same:

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

from itertools import chain, compress, count, repeat
from operator import gt, mul, sub

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
        if len(objective) != num_vars:
            raise ValueError("objective length does not match num_vars")
        for row in constraints:
            if len(row) != num_vars:
                raise ValueError("constraint length does not match num_vars")
        self.__dict__.update(
            num_vars=num_vars, objective=objective, constraints=constraints
        )


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
    w: list[list[int]], basic: list[int], r: int, label: int, col: list[int], d: int
) -> int:
    """Pivot the revised tableau on the positive ``col[r]``, where ``col`` is
    the entering column (the cost cell last): send every row of the row
    operator ``w`` but the pivot row through the Bareiss step, make
    ``label`` row r's basic variable, and return the new denominator."""
    p = col[r]
    pivot_row = w[r]
    for i, f in enumerate(col):
        if i != r:
            w[i] = _eliminate(w[i], pivot_row, f, p, d)
    basic[r] = label
    return p


def _pivot_columns(
    cols: list[list[int]], basic: list[int], nonbasic: list[int], r: int, c: int, d: int
) -> int:
    """Pivot on the positive ``cols[c][r]`` of the tableau stored by columns
    (the cost cell last in each), swap the labels ``basic[r]`` and
    ``nonbasic[c]``, and return the new denominator: the Bareiss step on
    every other column, and the leaving variable's column (``d`` in row r,
    minus the old pivot column elsewhere) over the entering one."""
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
    many rows as columns and as a revised tableau otherwise."""
    if not set(map(type, chain(lp.objective, *lp.constraints))) <= _INT:
        raise TypeError("solve takes int cells only")
    if len(lp.constraints) >= lp.num_vars:
        return _solve_columns(lp)
    return _solve_revised(lp)


def _solve_revised(lp: LinearProgram) -> Optimal | Unbounded:
    """``solve`` on the revised tableau: the row operator ``w``, m + 1 rows
    of m cells, and the program's own rows ``g``.  The full tableau is ``w``
    times ``[-g | I ; c | 0]``, where ``w``'s unstored last column is 0 but
    for the cost row's ``d``, so the reduced cost of structural j is ``d
    c_j - w[m] . g[:, j]``, that of surplus ``n + r`` is ``w[m][r]`` (0
    while it is basic), and an entering column is built from its own cells
    alone.  Row r, ``g_r . x >= 0``, is the row of its surplus (label
    n + r), which starts basic."""
    n, m, c, g = lp.num_vars, len(lp.constraints), lp.objective, lp.constraints
    w = [[int(i == r) for r in range(m)] for i in range(m + 1)]
    basic = [n + r for r in range(m)]
    d = 1
    while True:
        # the structural costs in label order, lazily, up to the first negative
        y = w[m]
        costs = map(mul, c, repeat(d))
        for row, v in zip(g, y):
            if v:
                costs = map(sub, costs, map(mul, row, repeat(v)))
        label = next(compress(count(), map(gt, repeat(0), costs)), None)
        if label is not None:
            cells = [-row[label] for row in g]
            col = [sum(map(mul, row, cells)) for row in w]
            col[m] += d * c[label]
        else:
            r = next(compress(range(m), map(gt, repeat(0), y)), None)
            if r is None:
                # the dual value of row r is its surplus's reduced cost over d
                return Optimal(tuple(y), d)
            label, col = n + r, [row[r] for row in w]
        blocking = [b for b, v in zip(basic, col) if v > 0]
        if not blocking:
            return _unbounded(lp, basic, label, col, d)
        d = _pivot(w, basic, basic.index(min(blocking)), label, col, d)


def _solve_columns(lp: LinearProgram) -> Optimal | Unbounded:
    """``solve`` on the tableau stored as n column lists of m + 1 cells.

    Row r, ``g.x >= 0``, enters the tableau as ``-g``, the row of its
    surplus ``s_r = g.x`` (label n + r), which starts basic; each column
    ends in its cost cell, the objective's entry negated twice."""
    n, m = lp.num_vars, len(lp.constraints)
    negated_cost = [-v for v in lp.objective]
    cols = [[-v for v in col] for col in zip(*lp.constraints, negated_cost)]
    basic = [n + r for r in range(m)]
    nonbasic = list(range(n))
    d = 1
    while True:
        improving = [label for label, col in zip(nonbasic, cols) if col[-1] < 0]
        if not improving:
            break
        entering = nonbasic.index(min(improving))
        col = cols[entering]
        blocking = [label for label, v in zip(basic, col) if v > 0]
        if not blocking:
            return _unbounded(lp, basic, nonbasic[entering], col, d)
        r = basic.index(min(blocking))
        d = _pivot_columns(cols, basic, nonbasic, r, entering, d)

    # The dual value of row r is the reduced cost of its surplus column over
    # d (0 while the surplus is basic).
    reduced = dict(zip(nonbasic, [col[-1] for col in cols]))
    return Optimal(tuple([reduced.get(n + r, 0) for r in range(m)]), d)


def _unbounded(
    lp: LinearProgram, basic: list[int], label: int, col: list[int], d: int
) -> Unbounded:
    """The checked ray of an entering ``label`` whose column ``col`` has no
    positive entry: along it ``label`` grows by one unit of the rational
    tableau, and each basic variable by minus its column."""
    n = lp.num_vars
    ray = {label: d} if label < n else {}
    for b, v in zip(basic, col):
        if b < n and v:
            ray[b] = -v
    _check_ray(lp, ray)
    cells = [0] * n
    for b, v in ray.items():
        cells[b] = v
    return Unbounded(tuple(cells), d)
