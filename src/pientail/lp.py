"""Exact linear programming over the rationals, pivoted in integers.

A small dense simplex.  Each row, once put in ``>=`` form, is scaled by the
least common multiple of its denominators, so the tableau holds only
integers; with one positive common denominator ``D`` every entry is the
integer ``D`` times the entry of the rational tableau, and pivots are
fraction-free (Edmonds 1967, Bareiss 1968): a pivot on ``p`` sends
``T[i][j]`` to ``(T[i][j] * p - T[i][c] * T[r][j]) / D``, a division that
is always exact, and ``p`` becomes the new ``D``.  The rescaling only
stretches each surplus variable by a positive factor, so Bland's
smallest-index rule (which makes every run terminate) takes the pivots of
the rational tableau, and the points, rays, values and duals read off at the
end are those of the rational tableau.

The simplex starts from the surplus basis and gives an artificial variable
only to rows whose right-hand side is positive in ``>=`` form, so phase 1
works on those rows alone and is skipped outright for homogeneous programs,
whose origin is already feasible.  Every outcome carries a witness that is
re-verified before it is returned, by exact substitution into the original
constraints, each scaled to integers on its own:

* ``Optimal``    - an optimal point (and, for pure >=-row minimisation
                   programs, the dual values of the rows);
* ``Unbounded``  - a feasible point plus a recession ray along which the
                   objective improves forever;
* ``Infeasible`` - no witness to carry.

No float and no tolerance enters: coefficients are read as exact
numerator/denominator pairs, and a float is refused with ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul

from .model import as_rational


class Relation(Enum):
    GE = ">="
    LE = "<="
    EQ = "="


@dataclass(frozen=True)
class Constraint:
    """A single row ``coeffs . x  (rel)  rhs``."""

    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction

    @staticmethod
    def of(coeffs, relation: Relation, rhs) -> Constraint:
        return Constraint(
            tuple(as_rational(c) for c in coeffs), relation, as_rational(rhs)
        )


@dataclass(frozen=True)
class LinearProgram:
    """Optimise ``objective . x`` over ``x >= 0`` subject to ``constraints``."""

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    maximize: bool = False

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for row in self.constraints:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("constraint length does not match num_vars")


class LpOutcome:
    """Base class for solver results."""


@dataclass(frozen=True)
class Infeasible(LpOutcome):
    pass


@dataclass(frozen=True)
class Optimal(LpOutcome):
    point: tuple[Fraction, ...]
    value: Fraction
    # Dual value per constraint row, populated only for minimisation
    # programs whose rows are all >=; None otherwise.
    row_duals: tuple[Fraction, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Unbounded(LpOutcome):
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]


def _integers(values) -> tuple[list[int], int]:
    """Integer numerators of exact ``values`` over their least common
    denominator, and that denominator.

    ``Fraction`` and ``int`` are read through ``numerator`` and
    ``denominator``; anything else goes through ``as_rational``, which
    refuses floats.
    """
    try:
        scale = lcm(*[v.denominator for v in values])
    except AttributeError:
        values = [as_rational(v) for v in values]
        scale = lcm(*[v.denominator for v in values])
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _eliminate(row: list[int], pivot_row: list[int], p: int, c: int, d: int) -> list[int]:
    """``row`` after the fraction-free pivot on ``pivot_row[c] == p`` over
    the common denominator ``d``; every division is exact."""
    f = row[c]
    if f:
        if d == 1:
            return [a * p - f * b for a, b in zip(row, pivot_row)]
        return [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
    if p == d:
        return row
    return [a * p // d for a in row]


def _pivot(
    rows: list[list[int]], cost: list[int], basis: list[int], r: int, c: int, d: int
) -> int:
    """Pivot on ``rows[r][c]`` and return the new common denominator.

    The pivot row keeps its numerators: over the new denominator ``p`` it
    reads as itself divided by the pivot.  Only the drive-out of a leftover artificial can pivot on a negative
    entry; its row is negated first, which keeps the denominator positive.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    if p < 0:
        pivot_row = [-v for v in pivot_row]
        rows[r] = pivot_row
        p = -p
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, pivot_row, p, c, d)
    cost[:] = _eliminate(cost, pivot_row, p, c, d)
    basis[r] = c
    return p


def _run_simplex(
    rows: list[list[int]],
    cost: list[int],
    basis: list[int],
    num_cols: int,
    d: int,
) -> tuple[int | None, int]:
    """Minimise until optimal or unbounded.

    Returns the entering column of an unbounded direction (None when
    optimal) and the common denominator at the end.  Bland's rule both for
    the entering column (smallest index with a negative reduced cost) and
    for the leaving row (among the minimum ratios ``rhs / coeff``, compared
    by cross-multiplication, the one whose basic variable has the smallest
    index).
    """
    while True:
        entering = None
        for j in range(num_cols):
            if cost[j] < 0:
                entering = j
                break
        if entering is None:
            return None, d
        best_row = -1
        best_num = best_coeff = 0
        for i, row in enumerate(rows):
            coeff = row[entering]
            if coeff > 0:
                num = row[-1]
                if best_row >= 0:
                    lhs = num * best_coeff
                    rhs = best_num * coeff
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[best_row]):
                        continue
                best_row, best_num, best_coeff = i, num, coeff
        if best_row < 0:
            return entering, d
        d = _pivot(rows, cost, basis, best_row, entering, d)


def _dot(a: list[int], b: list[int]) -> int:
    return sum(map(mul, a, b))


def _verify(lp: LinearProgram, outcome: LpOutcome) -> None:
    """Exact substitution check of every witness; raises on solver bugs.

    Each constraint of ``lp`` is scaled to integers on its own, and the
    point and the ray are integer numerators over a common denominator, so
    every comparison is between integers.
    """
    if isinstance(outcome, Infeasible):
        return
    rows = []
    for row in lp.constraints:
        ints, _ = _integers((*row.coeffs, row.rhs))
        rows.append((ints[:-1], ints[-1], row.relation))
    objective, obj_scale = _integers(lp.objective)

    def holds(lhs: int, relation: Relation, rhs: int) -> bool:
        if relation is Relation.GE:
            return lhs >= rhs
        if relation is Relation.LE:
            return lhs <= rhs
        return lhs == rhs

    point, d = _integers(outcome.point)
    if any(v < 0 for v in point):
        raise RuntimeError("solver returned a negative component")
    for coeffs, rhs, relation in rows:
        if not holds(_dot(coeffs, point), relation, rhs * d):
            raise RuntimeError("solver returned an infeasible point")

    if isinstance(outcome, Optimal):
        value = as_rational(outcome.value)
        if (
            _dot(objective, point) * value.denominator
            != value.numerator * obj_scale * d
        ):
            raise RuntimeError("solver value disagrees with its point")
    elif isinstance(outcome, Unbounded):
        ray, _ = _integers(outcome.ray)
        if any(v < 0 for v in ray) or not any(ray):
            raise RuntimeError("solver returned an invalid ray")
        for coeffs, _, relation in rows:
            if not holds(_dot(coeffs, ray), relation, 0):
                raise RuntimeError("solver ray escapes the feasible cone")
        gain = _dot(objective, ray)
        if (gain >= 0) if not lp.maximize else (gain <= 0):
            raise RuntimeError("solver ray does not improve the objective")


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly and return a verified outcome."""
    n = lp.num_vars
    objective, obj_scale = _integers(lp.objective)
    if lp.maximize:
        objective = [-c for c in objective]

    # Normalise every row to >= with the original ordering retained: <=
    # rows are negated, = rows are split into a >= pair.  Each row is kept
    # as integers (right-hand side last) with the positive factor that
    # scaled it.  ``pure_ge`` keeps track of whether row r of the
    # normalised system is row r of the input, which is what makes the
    # dual extraction below meaningful.
    ge_rows: list[tuple[list[int], int]] = []
    pure_ge = not lp.maximize
    for row in lp.constraints:
        ints, scale = _integers((*row.coeffs, row.rhs))
        if row.relation is not Relation.LE:
            ge_rows.append((ints, scale))
        if row.relation is not Relation.GE:
            ge_rows.append(([-v for v in ints], scale))
            pure_ge = False

    m = len(ge_rows)

    # Equality form: a.x - s_r = b, where the integer row stretches the
    # surplus s_r of the rational row by the row's scale.  A row with
    # b <= 0 is negated, so its surplus starts basic at -b >= 0; only a row
    # with b > 0 needs an artificial variable to start.  Column layout:
    # x (n) | surplus (m) | artificial (one per b > 0 row) | rhs.
    # The starting basis is the identity, so the common denominator is 1.
    needs_art = [ints[-1] > 0 for ints, _ in ge_rows]
    art_start = n + m
    num_cols = art_start + sum(needs_art)
    rows: list[list[int]] = []
    basis: list[int] = []
    art = art_start
    for r, (ints, _) in enumerate(ge_rows):
        line = [0] * (num_cols + 1)
        if needs_art[r]:
            line[:n] = ints[:-1]
            line[n + r] = -1
            line[-1] = ints[-1]
            line[art] = 1
            basis.append(art)
            art += 1
        else:
            line[:n] = [-v for v in ints[:-1]]
            line[n + r] = 1
            line[-1] = -ints[-1]
            basis.append(n + r)
        rows.append(line)

    # Phase 1: minimise the sum of the rational rows' artificials.  The
    # integer artificial of row r is the rational one times the row's
    # scale, so the costs are weighted by lcm / scale; with no artificial,
    # the cost row is zero and phase 1 ends at once.
    cost = [0] * (num_cols + 1)
    art_scales = [scale for r, (_, scale) in enumerate(ge_rows) if needs_art[r]]
    if art_scales:
        phase1_scale = lcm(*art_scales)
        for r, line in enumerate(rows):
            if needs_art[r]:
                w = phase1_scale // ge_rows[r][1]
                for j in range(art_start):
                    if line[j]:
                        cost[j] -= w * line[j]
                cost[-1] -= w * line[-1]
    entering, d = _run_simplex(rows, cost, basis, num_cols, 1)
    if entering is not None:
        raise RuntimeError("phase 1 cannot be unbounded")
    if cost[-1] < 0:
        outcome: LpOutcome = Infeasible()
        _verify(lp, outcome)
        return outcome

    # Drive leftover artificials (basic at zero) out of the basis.  Every
    # row has its own surplus column, so the non-artificial columns have
    # full row rank and such a row always has a nonzero entry among them.
    for r in range(len(rows) - 1, -1, -1):
        if basis[r] >= art_start:
            pivot_col = next(
                (j for j in range(art_start) if rows[r][j] != 0), None
            )
            if pivot_col is None:
                raise RuntimeError("no pivot column for a leftover artificial")
            d = _pivot(rows, cost, basis, r, pivot_col, d)

    # Phase 2: drop artificial columns, rebuild the reduced-cost row for
    # the real objective as numerators over d (c_j * d minus the basic
    # costs times the column), and reoptimise.
    rows = [line[:art_start] + line[-1:] for line in rows]
    num_cols = art_start
    cost = [c * d for c in objective] + [0] * (m + 1)
    for i, b in enumerate(basis):
        f = objective[b] if b < n else 0
        if f:
            cost = [a - f * v for a, v in zip(cost, rows[i])]

    entering, d = _run_simplex(rows, cost, basis, num_cols, d)

    point_num = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            point_num[b] = rows[i][-1]
    zero = Fraction(0)
    point = tuple(Fraction(v, d) if v else zero for v in point_num)

    if entering is not None:
        # Along the ray the entering variable grows by one unit of the
        # rational tableau; a surplus column is stretched by its row's
        # scale, so its integer column is multiplied back by that scale.
        stretch = 1 if entering < n else ge_rows[entering - n][1]
        ray_num = [0] * n
        if entering < n:
            ray_num[entering] = d
        for i, b in enumerate(basis):
            if b < n:
                ray_num[b] = -rows[i][entering] * stretch
        outcome = Unbounded(
            point=point, ray=tuple(Fraction(v, d) if v else zero for v in ray_num)
        )
        _verify(lp, outcome)
        return outcome

    # cost[-1] is minus d * obj_scale times the minimised objective.
    value = Fraction(cost[-1] if lp.maximize else -cost[-1], d * obj_scale)
    row_duals = None
    if pure_ge:
        # The dual value of row r is the reduced cost of its rational
        # surplus column: the integer one times the row's scale, over
        # d * obj_scale.
        den = d * obj_scale
        row_duals = tuple(
            Fraction(cost[n + r] * ge_rows[r][1], den) for r in range(m)
        )
    outcome = Optimal(point=point, value=value, row_duals=row_duals)
    _verify(lp, outcome)
    return outcome


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
