"""Exact linear programming over the rationals.

A small dense simplex using ``fractions.Fraction`` throughout.  It starts
from the surplus basis and gives an artificial variable only to rows whose
right-hand side is positive in ``>=`` form, so phase 1 works on those rows
alone and is skipped outright for homogeneous programs, whose origin is
already feasible.  Bland's smallest-index rule makes every run terminate
(no cycling), and every outcome carries a witness that is re-verified
against the original constraints by exact substitution before it is
returned:

* ``Optimal``    - an optimal point (and, for pure >=-row minimisation
                   programs, the dual values of the rows);
* ``Unbounded``  - a feasible point plus a recession ray along which the
                   objective improves forever;
* ``Infeasible`` - no witness to carry.

The sizes that show up here are tiny (tens of rows and columns), so a
dense tableau of Fractions is both fast enough and immune to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

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


def _pivot(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int], r: int, c: int) -> None:
    pivot_row = rows[r]
    inv = Fraction(1) / pivot_row[c]
    new_row = [v * inv for v in pivot_row]
    rows[r] = new_row
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f:
                rows[i] = [a - f * b for a, b in zip(row, new_row)]
    f = cost[c]
    if f:
        cost[:] = [a - f * b for a, b in zip(cost, new_row)]
    basis[r] = c


def _run_simplex(
    rows: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    num_cols: int,
) -> int | None:
    """Minimise until optimal (return None) or unbounded (return entering column).

    Bland's rule both for the entering column (smallest index with a
    negative reduced cost) and for the leaving row (among the minimum
    ratios, the one whose basic variable has the smallest index).
    """
    while True:
        entering = None
        for j in range(num_cols):
            if cost[j] < 0:
                entering = j
                break
        if entering is None:
            return None
        best_key = None
        best_row = -1
        for i, row in enumerate(rows):
            coeff = row[entering]
            if coeff > 0:
                key = (row[-1] / coeff, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = i
        if best_row < 0:
            return entering
        _pivot(rows, cost, basis, best_row, entering)


def _verify(lp: LinearProgram, outcome: LpOutcome) -> None:
    """Exact substitution check of every witness; raises on solver bugs."""
    zero = Fraction(0)

    def dot(coeffs, vec):
        return sum((c * v for c, v in zip(coeffs, vec)), zero)

    def check_point(point):
        if any(v < 0 for v in point):
            raise RuntimeError("solver returned a negative component")
        for row in lp.constraints:
            lhs = dot(row.coeffs, point)
            ok = (
                lhs >= row.rhs
                if row.relation is Relation.GE
                else lhs <= row.rhs
                if row.relation is Relation.LE
                else lhs == row.rhs
            )
            if not ok:
                raise RuntimeError("solver returned an infeasible point")

    if isinstance(outcome, Optimal):
        check_point(outcome.point)
        if dot(lp.objective, outcome.point) != outcome.value:
            raise RuntimeError("solver value disagrees with its point")
    elif isinstance(outcome, Unbounded):
        check_point(outcome.point)
        ray = outcome.ray
        if any(v < 0 for v in ray) or not any(ray):
            raise RuntimeError("solver returned an invalid ray")
        for row in lp.constraints:
            lhs = dot(row.coeffs, ray)
            ok = (
                lhs >= 0
                if row.relation is Relation.GE
                else lhs <= 0
                if row.relation is Relation.LE
                else lhs == 0
            )
            if not ok:
                raise RuntimeError("solver ray escapes the feasible cone")
        gain = dot(lp.objective, ray)
        if (gain >= 0) if not lp.maximize else (gain <= 0):
            raise RuntimeError("solver ray does not improve the objective")


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly and return a verified outcome."""
    n = lp.num_vars
    objective = [as_rational(c) for c in lp.objective]
    if lp.maximize:
        objective = [-c for c in objective]

    # Normalise every row to >= with the original ordering retained: <=
    # rows are negated, = rows are split into a >= pair.  ``pure_ge`` keeps
    # track of whether row r of the normalised system is row r of the
    # input, which is what makes the dual extraction below meaningful.
    ge_rows: list[tuple[list[Fraction], Fraction]] = []
    pure_ge = not lp.maximize
    for row in lp.constraints:
        coeffs = [as_rational(c) for c in row.coeffs]
        rhs = as_rational(row.rhs)
        if row.relation is Relation.GE:
            ge_rows.append((coeffs, rhs))
        elif row.relation is Relation.LE:
            ge_rows.append(([-c for c in coeffs], -rhs))
            pure_ge = False
        else:
            ge_rows.append((coeffs, rhs))
            ge_rows.append(([-c for c in coeffs], -rhs))
            pure_ge = False

    m = len(ge_rows)
    zero = Fraction(0)
    one = Fraction(1)

    # Equality form: a.x - s_r = b.  A row with b <= 0 is negated, so its
    # surplus starts basic at -b >= 0; only a row with b > 0 needs an
    # artificial variable to start.  Column layout:
    # x (n) | surplus (m) | artificial (one per b > 0 row) | rhs.
    needs_art = [rhs > 0 for _, rhs in ge_rows]
    art_start = n + m
    num_cols = art_start + sum(needs_art)
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    art = art_start
    for r, (coeffs, rhs) in enumerate(ge_rows):
        line = [zero] * (num_cols + 1)
        sign = one if needs_art[r] else -one
        for j, c in enumerate(coeffs):
            line[j] = sign * c
        line[n + r] = -sign
        line[-1] = sign * rhs
        if needs_art[r]:
            line[art] = one
            basis.append(art)
            art += 1
        else:
            basis.append(n + r)
        rows.append(line)

    # Phase 1: minimise the sum of the artificials; with none, the cost row
    # is zero and phase 1 ends at once.
    cost = [zero] * (num_cols + 1)
    for r, line in enumerate(rows):
        if needs_art[r]:
            for j in range(art_start):
                if line[j]:
                    cost[j] -= line[j]
            cost[-1] -= line[-1]
    if _run_simplex(rows, cost, basis, num_cols) is not None:
        raise RuntimeError("phase 1 cannot be unbounded")
    if -cost[-1] > 0:
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
            _pivot(rows, cost, basis, r, pivot_col)

    # Phase 2: drop artificial columns, rebuild the reduced-cost row for
    # the real objective, and reoptimise.
    rows = [line[:art_start] + line[-1:] for line in rows]
    num_cols = art_start
    full_cost = objective + [zero] * m
    cost = full_cost + [zero]
    for i, b in enumerate(basis):
        f = cost[b]
        if f:
            cost = [a - f * v for a, v in zip(cost, rows[i])]

    entering = _run_simplex(rows, cost, basis, num_cols)

    point_full = [zero] * num_cols
    for i, b in enumerate(basis):
        point_full[b] = rows[i][-1]
    point = tuple(point_full[:n])

    if entering is not None:
        ray_full = [zero] * num_cols
        ray_full[entering] = one
        for i, b in enumerate(basis):
            ray_full[b] = -rows[i][entering]
        outcome = Unbounded(point=point, ray=tuple(ray_full[:n]))
        _verify(lp, outcome)
        return outcome

    value = sum((c * v for c, v in zip(lp.objective, point)), zero)
    row_duals = None
    if pure_ge:
        # Reduced cost of the surplus column of row r is exactly the dual
        # value of row r.
        row_duals = tuple(cost[n + r] for r in range(m))
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
