"""Exact simplex for the homogeneous integer programs the library builds.

Every program pientail solves is homogeneous with ``int`` cells: ``decide_lp``
minimises ``c.x`` subject to ``Ax >= 0``, and a critical-threshold probe
maximises ``1.lambda`` subject to ``(W - gamma C) lambda <= 0``, both over
``x >= 0``, with the weights times the denominator of ``gamma``.  The origin
is feasible and every right-hand side is 0, so ``solve`` is a simplex for
that shape only: it starts from the surplus basis, with no right-hand-side
column, no phase 1 and no artificial variable.

The tableau is condensed (the dictionary form of Chvatal 1983, ch. 2-3):
only the nonbasic columns are stored, each labelled with its variable, and
each row is labelled with its basic variable, whose column is always ``D``
times a unit vector for one positive common denominator ``D``.  A pivot on
``p`` is fraction-free (Edmonds 1967, Bareiss 1968; as in Avis's ``lrs``):
it swaps the two labels, sends every other cell ``T[i][j]`` to the exact
quotient ``(T[i][j] * p - T[i][c] * T[r][j]) / D``, writes the leaving
variable's column (``D`` in row r, ``-T[i][c]`` elsewhere) over the entering
one, and makes ``p`` the new ``D``.  Bland's rule reads labels: the smallest
label with a negative reduced cost enters.  Every ratio is 0, so the row
that leaves is the one with the smallest basic label among the rows with a
positive entry in the entering column, which is the row Bland's ratio test
picks.  Every run terminates and takes the pivots of the full rational
tableau, and what it reads off by label is that tableau's:

* ``Optimal``   - the origin, with value 0, and for a minimisation over
                  ``>=`` rows only the dual value of each row;
* ``Unbounded`` - the origin plus a recession ray along which the objective
                  improves forever.

Before any ``Fraction`` is built, the ray is re-verified on its integer
numerators: it must be nonnegative, nonzero and strictly improving, and it
is substituted into every input row, summed over its nonzero entries only.
The origin and its value 0 need no such check once every right-hand side
is known to be 0.  A cell that is not an ``int`` (a float or a ``Fraction``)
raises ``TypeError``, and an equality row or a nonzero right-hand side
raises ``ValueError``.  The general two-phase simplex over rational cells,
with equality rows and any right-hand side, is kept with the tests as the
reference this kernel is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import NamedTuple


class Relation(Enum):
    GE = ">="
    LE = "<="
    EQ = "="


class Constraint(NamedTuple):
    """A single row ``coeffs . x  (rel)  rhs``.  A named tuple, because a
    program holds one per signature and a named tuple is built in half the
    time of a dataclass."""

    coeffs: tuple[int, ...]
    relation: Relation
    rhs: int


@dataclass(frozen=True)
class LinearProgram:
    """Optimise ``objective . x`` over ``x >= 0`` subject to ``constraints``."""

    num_vars: int
    objective: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    maximize: bool = False

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for row in self.constraints:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("constraint length does not match num_vars")


@dataclass(frozen=True)
class Optimal:
    point: tuple[Fraction, ...]
    value: Fraction
    # Dual value per constraint row, populated only for minimisation
    # programs whose rows are all >=; None otherwise.
    row_duals: tuple[Fraction, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Unbounded:
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]


_INT = {int}
_ZERO = Fraction(0)


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
        f = row[c]
        if i == r:
            continue
        if f:
            if d == 1:
                row = [a * p - f * b for a, b in zip(row, pivot_row)]
            else:
                row = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
            row[c] = -f
            rows[i] = row
        elif p != d:
            rows[i] = [a * p // d for a in row]
    pivot_row[c] = d
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
        coeffs = row.coeffs
        total = sum([coeffs[j] * v for j, v in entries])
        if total < 0 if row.relation is Relation.GE else total > 0:
            raise RuntimeError("solver ray escapes the feasible cone")
    gain = sum([lp.objective[j] * v for j, v in entries])
    if (gain <= 0) if lp.maximize else (gain >= 0):
        raise RuntimeError("solver ray does not improve the objective")


def solve(lp: LinearProgram) -> Optimal | Unbounded:
    """Solve the homogeneous integer program ``lp`` exactly and return a
    verified outcome."""
    n = lp.num_vars

    cells = [row.coeffs for row in lp.constraints]
    relations = [row.relation for row in lp.constraints]
    rhs = [row.rhs for row in lp.constraints]
    if not set(map(type, chain(lp.objective, rhs, *cells))) <= _INT:
        raise TypeError("solve takes int cells only")
    if any(rhs) or Relation.EQ in relations:
        raise ValueError("solve takes >= and <= rows with right-hand side 0")

    # Row r in >= form, ``g.x >= 0``, enters the tableau as the row ``-g``
    # of its surplus ``s_r = g.x`` (label n + r), which starts basic; the
    # cost row, last, holds the reduced costs of the minimised objective.
    ge = Relation.GE
    rows = [
        [-v for v in coeffs] if relation is ge else list(coeffs)
        for coeffs, relation in zip(cells, relations)
    ]
    m = len(rows)
    rows.append([-c for c in lp.objective] if lp.maximize else list(lp.objective))
    basic = [n + r for r in range(m)]
    nonbasic = list(range(n))
    d = 1

    while True:
        improving = [label for label, v in zip(nonbasic, rows[-1]) if v < 0]
        if not improving:
            break
        entering = nonbasic.index(min(improving))
        blocking = [label for label, row in zip(basic, rows) if row[entering] > 0]
        if not blocking:
            # Along the ray the entering variable grows by one unit of the
            # rational tableau, and each basic one by minus its column.
            label = nonbasic[entering]
            ray = {label: d} if label < n else {}
            for b, row in zip(basic, rows):
                if b < n and row[entering]:
                    ray[b] = -row[entering]
            _check_ray(lp, ray)
            components = [_ZERO] * n
            for j, v in ray.items():
                components[j] = Fraction(v, d)
            return Unbounded(point=(_ZERO,) * n, ray=tuple(components))
        d = _pivot(rows, basic, nonbasic, basic.index(min(blocking)), entering, d)

    row_duals = None
    if not lp.maximize and Relation.LE not in relations:
        # The dual value of row r is the reduced cost of its surplus column
        # over d (0 while the surplus is basic).
        reduced = dict(zip(nonbasic, rows[-1]))
        row_duals = tuple(
            Fraction(v, d) if (v := reduced.get(n + r, 0)) else _ZERO for r in range(m)
        )
    return Optimal(point=(_ZERO,) * n, value=_ZERO, row_duals=row_duals)
