"""The general two-phase integer simplex, kept as the reference for mixed
programs.

``pientail.lp.solve`` takes homogeneous programs with ``int`` cells only.
This solver takes any program over ``x >= 0``: rational cells, ``>=``,
``<=`` and ``=`` rows, and any right-hand side.  It pivots the same
condensed integer tableau as the library kernel (Chvatal 1983, ch. 2-3),
with a right-hand-side column, and each row, once put in ``>=`` form, is
scaled by the least common multiple of its denominators, so with one
positive common denominator ``D`` every entry is the integer ``D`` times
the entry of the rational tableau.  Bland's rule reads labels (the smallest
label with a negative reduced cost enters; ratio ties leave by the smallest
basic label), so it takes the pivots of the full Fraction tableau of
``test_lp.reference_solve``.

The simplex starts from the surplus basis and gives an artificial variable
only to rows whose right-hand side is positive in ``>=`` form, so phase 1 is
skipped for homogeneous programs.  Every witness is re-verified on its
integer numerators, before any ``Fraction`` is built, by exact substitution
into the constraints, each scaled to integers on its own:

* ``Optimal``    - an optimal point (and, for pure >=-row minimisation
                   programs, the dual values of the rows);
* ``Unbounded``  - a feasible point plus a recession ray along which the
                   objective improves forever;
* ``Infeasible`` - no witness to carry.

A float cell is refused with ``TypeError``.

Its input and outcome types are its own: the library's ``LinearProgram``
has ``>=`` rows with right-hand side 0 and is always minimised, and its
outcomes carry no point or value, since both are always the origin and 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import gt, lt, mul, ne
from typing import NamedTuple

from pientail.model import as_rational


class Relation(Enum):
    GE = ">="
    LE = "<="
    EQ = "="


class Constraint(NamedTuple):
    """A single row ``coeffs . x  (rel)  rhs``."""

    coeffs: tuple
    relation: Relation
    rhs: Fraction | int


@dataclass(frozen=True)
class LinearProgram:
    """Optimise ``objective . x`` over ``x >= 0`` subject to ``constraints``."""

    num_vars: int
    objective: tuple
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


@dataclass(frozen=True)
class Infeasible:
    pass


def _integers(values) -> tuple[list[int], int]:
    """Integer numerators of exact ``values`` over their least common
    denominator, and that denominator.

    Plain ``int`` values are returned as they are, ``Fraction`` values are
    read through ``numerator`` and ``denominator``, and anything else goes
    through ``as_rational``, which refuses floats."""
    if all(type(v) is int for v in values):
        return list(values), 1
    try:
        scale = lcm(*[v.denominator for v in values])
    except AttributeError:
        values = [as_rational(v) for v in values]
        scale = lcm(*[v.denominator for v in values])
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(
    rows: list[list[int]], basic: list[int], nonbasic: list[int], r: int, c: int, d: int
) -> int:
    """Pivot on ``rows[r][c]`` (the cost row is last), swap the labels
    ``basic[r]`` and ``nonbasic[c]``, and return the new denominator.

    The pivot row keeps its numerators, which over ``p`` read as the row
    divided by the pivot.  Only the drive-out of a leftover artificial can
    pivot on a negative entry; its row is negated first, which keeps the
    denominator positive."""
    pivot_row = rows[r]
    p = pivot_row[c]
    lead = d
    if p < 0:
        pivot_row = [-v for v in pivot_row]
        rows[r] = pivot_row
        p, lead = -p, -d
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
    pivot_row[c] = lead
    basic[r], nonbasic[c] = nonbasic[c], basic[r]
    return p


def _run_simplex(
    rows: list[list[int]], basic: list[int], nonbasic: list[int], d: int
) -> tuple[int | None, int]:
    """Minimise the cost row ``rows[-1]`` until optimal or unbounded.

    Returns the column of an unbounded direction (None when optimal) and
    the common denominator at the end.  Bland's rule on labels both for the
    entering column (the smallest label with a negative reduced cost) and
    for the leaving row (among the minimum ratios ``rhs / coeff``, compared
    by cross-multiplication, the one with the smallest basic label)."""
    while True:
        entering = -1
        for j, (label, reduced) in enumerate(zip(nonbasic, rows[-1])):
            if reduced < 0 and (entering < 0 or label < nonbasic[entering]):
                entering = j
        if entering < 0:
            return None, d
        best_row = -1
        best_num = best_coeff = best_label = 0
        for i, (label, row) in enumerate(zip(basic, rows)):
            coeff = row[entering]
            if coeff > 0:
                num = row[-1]
                if best_row >= 0:
                    lhs, rhs = num * best_coeff, best_num * coeff
                    if lhs > rhs or (lhs == rhs and label > best_label):
                        continue
                best_row, best_num, best_coeff, best_label = i, num, coeff, label
        if best_row < 0:
            return entering, d
        d = _pivot(rows, basic, nonbasic, best_row, entering, d)


def _dot(a: list[int], b: list[int]) -> int:
    return sum(map(mul, a, b))


# The comparison that a left-hand side failing each relation makes true.
_FAILS = {Relation.GE: lt, Relation.LE: gt, Relation.EQ: ne}


def _check(
    rows: list[tuple[list[int], Relation]], objective: list[int], obj_scale: int,
    maximize: bool, point: list[int], d: int,
    value: tuple[int, int] | None = None, ray: list[int] | None = None,
) -> None:
    """Exact substitution check of a witness; raises on solver bugs.

    ``rows`` are the constraints, each scaled to integers on its own with
    its right-hand side last, and ``objective`` is the objective times
    ``obj_scale``.  The point is ``point / d``, the value ``value[0] /
    value[1]`` and the ray ``ray`` up to a positive factor, so every
    comparison is between integers."""
    if any(v < 0 for v in point):
        raise RuntimeError("solver returned a negative component")
    for ints, relation in rows:
        if _FAILS[relation](_dot(ints, point), ints[-1] * d):
            raise RuntimeError("solver returned an infeasible point")
    if value is not None:
        if _dot(objective, point) * value[1] != value[0] * obj_scale * d:
            raise RuntimeError("solver value disagrees with its point")
    if ray is not None:
        if any(v < 0 for v in ray) or not any(ray):
            raise RuntimeError("solver returned an invalid ray")
        for ints, relation in rows:
            if _FAILS[relation](_dot(ints, ray), 0):
                raise RuntimeError("solver ray escapes the feasible cone")
        gain = _dot(objective, ray)
        if (gain >= 0) if not maximize else (gain <= 0):
            raise RuntimeError("solver ray does not improve the objective")


def _verify(lp: LinearProgram, outcome: Optimal | Unbounded | Infeasible) -> None:
    """``_check`` of a finished outcome, its point, value and ray read back
    as integer numerators."""
    if isinstance(outcome, Infeasible):
        return
    rows = [
        (_integers((*row.coeffs, row.rhs))[0], row.relation) for row in lp.constraints
    ]
    objective, obj_scale = _integers(lp.objective)
    point, d = _integers(outcome.point)
    value = ray = None
    if isinstance(outcome, Optimal):
        v = as_rational(outcome.value)
        value = (v.numerator, v.denominator)
    elif isinstance(outcome, Unbounded):
        ray, _ = _integers(outcome.ray)
    _check(rows, objective, obj_scale, lp.maximize, point, d, value, ray)


def _fractions(numerators: list[int], d: int) -> tuple[Fraction, ...]:
    zero = Fraction(0)
    return tuple(Fraction(v, d) if v else zero for v in numerators)


def solve(lp: LinearProgram) -> Optimal | Unbounded | Infeasible:
    """Solve ``lp`` exactly and return a verified outcome."""
    n = lp.num_vars
    objective, obj_scale = _integers(lp.objective)

    # Each input row, scaled to integers on its own (right-hand side last),
    # is kept for the final check.  Normalised to ``a.x >= b`` in input
    # order (<= rows negated, = rows split into a >= pair), it enters the
    # tableau as the row ``-a | -b`` of its surplus ``s_r = a.x - b``, with
    # the positive factor that scaled it.  ``pure_ge`` keeps track of
    # whether row r of the normalised system is row r of the input, which
    # is what makes the dual extraction below meaningful.
    inputs: list[tuple[list[int], Relation]] = []
    rows: list[list[int]] = []
    scales: list[int] = []
    pure_ge = not lp.maximize
    for row in lp.constraints:
        ints, scale = _integers((*row.coeffs, row.rhs))
        inputs.append((ints, row.relation))
        if row.relation is not Relation.LE:
            rows.append([-v for v in ints])
            scales.append(scale)
        if row.relation is not Relation.GE:
            rows.append(ints[:])
            scales.append(scale)
            pure_ge = False
    m = len(rows)

    # Labels: x is 0..n-1, the surplus of row r is n + r, artificials
    # follow from n + m.  The integer row stretches the surplus of the
    # rational row by the row's scale.  A row with -b >= 0 starts with its
    # surplus basic; a row with b > 0 starts with an artificial basic in
    # ``a.x - s_r + t_r = b``, and its surplus is a nonbasic column.  The
    # starting basis is the identity, so the common denominator is 1.
    art_rows = [r for r, line in enumerate(rows) if line[-1] < 0]
    art_start = n + m
    basic = [n + r for r in range(m)]
    nonbasic = [*range(n), *[n + r for r in art_rows]]
    d = 1
    if art_rows:
        for t, r in enumerate(art_rows):
            basic[r] = art_start + t
            rows[r] = [-v for v in rows[r]]
        for r, line in enumerate(rows):
            line[n:n] = [-1 if s == r else 0 for s in art_rows]

        # Phase 1: minimise the sum of the rational rows' artificials.  The
        # integer artificial of row r is the rational one times the row's
        # scale, so the costs are weighted by lcm / scale.
        phase1_scale = lcm(*[scales[r] for r in art_rows])
        cost = [0] * (len(nonbasic) + 1)
        for r in art_rows:
            w = phase1_scale // scales[r]
            cost = [a - w * v for a, v in zip(cost, rows[r])]
        rows.append(cost)
        entering, d = _run_simplex(rows, basic, nonbasic, d)
        if entering is not None:
            raise RuntimeError("phase 1 cannot be unbounded")
        if rows.pop()[-1] < 0:
            return Infeasible()

        # Drive leftover artificials (basic at zero) out of the basis: every
        # row has its own surplus, so the non-artificial columns have full
        # row rank, and the smallest label with a nonzero in the row enters.
        for r in range(m - 1, -1, -1):
            if basic[r] >= art_start:
                row = rows[r]
                candidates = [
                    (label, j)
                    for j, label in enumerate(nonbasic)
                    if label < art_start and row[j]
                ]
                if not candidates:
                    raise RuntimeError("no pivot column for a leftover artificial")
                d = _pivot(rows, basic, nonbasic, r, min(candidates)[1], d)

        # Drop the artificial columns, now all nonbasic.
        keep = [j for j, label in enumerate(nonbasic) if label < art_start]
        if len(keep) < len(nonbasic):
            nonbasic = [nonbasic[j] for j in keep]
            keep.append(-1)
            rows = [[row[j] for j in keep] for row in rows]

    # Phase 2: the reduced-cost row of the real objective as numerators
    # over d (c_j * d minus the basic costs times the column).
    costs = [-c for c in objective] if lp.maximize else objective
    cost = [costs[label] * d if label < n else 0 for label in nonbasic] + [0]
    for b, row in zip(basic, rows):
        f = costs[b] if b < n else 0
        if f:
            cost = [a - f * v for a, v in zip(cost, row)]
    rows.append(cost)
    entering, d = _run_simplex(rows, basic, nonbasic, d)
    cost = rows.pop()

    point = [0] * n
    for b, row in zip(basic, rows):
        if b < n:
            point[b] = row[-1]

    if entering is not None:
        # Along the ray the entering variable grows by one unit of the
        # rational tableau; a surplus column is stretched by its row's
        # scale, so its integer column is multiplied back by that scale.
        label = nonbasic[entering]
        stretch = 1 if label < n else scales[label - n]
        ray = [0] * n
        if label < n:
            ray[label] = d
        for b, row in zip(basic, rows):
            if b < n:
                ray[b] = -row[entering] * stretch
        _check(inputs, objective, obj_scale, lp.maximize, point, d, ray=ray)
        return Unbounded(point=_fractions(point, d), ray=_fractions(ray, d))

    # cost[-1] is minus d * obj_scale times the minimised objective.
    den = d * obj_scale
    value = cost[-1] if lp.maximize else -cost[-1]
    _check(inputs, objective, obj_scale, lp.maximize, point, d, value=(value, den))
    row_duals = None
    if pure_ge:
        # The dual value of row r is the reduced cost of its rational
        # surplus column (0 while basic): the integer one times the row's
        # scale, over d * obj_scale.
        reduced = dict(zip(nonbasic, cost))
        row_duals = tuple(
            Fraction(reduced.get(n + r, 0) * scales[r], den) for r in range(m)
        )
    return Optimal(
        point=_fractions(point, d), value=Fraction(value, den), row_duals=row_duals
    )


def feasible(
    constraints: tuple[Constraint, ...] | list[Constraint], num_vars: int
) -> tuple[Fraction, ...] | None:
    """A feasible point of ``constraints`` over ``x >= 0``, or None."""
    lp = LinearProgram(
        num_vars=num_vars,
        objective=tuple([Fraction(0)] * num_vars),
        constraints=tuple(constraints),
    )
    outcome = solve(lp)
    if isinstance(outcome, Infeasible):
        return None
    if not isinstance(outcome, Optimal):
        raise RuntimeError("a zero objective cannot be unbounded")
    return outcome.point
