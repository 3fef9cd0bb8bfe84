"""The critical confidence threshold of a premise set against an antecedent.

Fix premises and a conclusion antecedent X0.  For multipliers ``lambda``
on the probability simplex, every transaction type Z not containing all of
X0 yields the ratio

    (sum of lambda over premises witnessed by Z)
    -------------------------------------------------
    (sum of lambda over premises covered by Z)

with 0/0 read as 0.  The critical threshold is the smallest worst-case
ratio any choice of multipliers can achieve.  Its role: the structural
combination conditions plus ``gamma`` at or above the critical threshold
of some premise subset characterise entailment for every ``gamma``
strictly between 0 and 1.

Whether a given ``gamma`` is at or above the critical threshold is a
single exact LP question (``feasible_at``, posed as a cone program that is
unbounded exactly when multipliers exist), so decisions never
depend on any numeric tolerance; bisection with ``feasible_at`` merely
reports a bracket for the value itself, which is in general irrational.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp
from .entailment import (
    EntailmentQuery,
    EntailmentVerdict,
    Regime,
    SignatureRow,
    _NOT_COVERED,
    _WITNESSED,
    _certificate_violation,
    _decide_lp_rows,
    _first_carrying,
    _integer_weights,
    _lp_failure,
    _project_rows,
    _query_rows,
    _tautology_verdict,
    signature_rows,
)
from .homogeneity import ImplicationSet
from .model import (
    AttrSet,
    DEFAULT_ENUMERATION_CAP,
    PartialImplication,
    UniverseMismatchError,
    as_rational,
)


@dataclass(frozen=True)
class ThresholdBracket:
    """An enclosing interval for the critical threshold.

    ``multipliers`` is a simplex point feasible at ``upper``.  ``lower ==
    upper == 0`` exactly when the critical threshold is 0; otherwise
    ``lower`` is a value at which no multipliers exist, which at a coarse
    tolerance may be 0 itself.
    """

    lower: Fraction
    upper: Fraction
    tolerance: Fraction
    multipliers: tuple[Fraction, ...]

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def _ratio_rows(
    premises: ImplicationSet, antecedent: AttrSet, max_attrs: int
) -> list[SignatureRow]:
    """Distinct premise status patterns over transaction types that do not
    contain all of ``antecedent``: the ratio of a row has the premises it
    witnesses over those it covers."""
    if premises.universe != antecedent.universe:
        raise UniverseMismatchError("premises and antecedent universes differ")
    if len(premises) < 1:
        raise ValueError("critical threshold needs at least one premise")
    probe = PartialImplication(antecedent, antecedent.universe.empty())
    rows = signature_rows([probe, *premises], premises.universe, max_attrs=max_attrs)
    return _project_ratio_rows(rows, range(len(premises)))


def _project_ratio_rows(
    rows: list[SignatureRow], indices: Sequence[int]
) -> list[SignatureRow]:
    """Ratio rows of the premises at ``indices`` from a signature table
    whose column 0 has the antecedent ``X0`` and column ``i + 1`` premise i.

    The rows are those whose column 0 is not covered (the transaction
    misses part of ``X0``), projected onto the chosen premises by
    ``_project_rows``, so they and their order are those of a table built
    for the subset alone.
    """
    eligible = [row for row in rows if row.codes[0] == _NOT_COVERED]
    return _project_rows(eligible, [i + 1 for i in indices])


def _cone_program(rows: list[SignatureRow], k: int, gamma: Fraction) -> lp.LinearProgram:
    """The cone program of ``_feasible``: minimise minus the sum of
    ``lambda`` subject to ``gamma * covered - witnessed >= 0`` on every row,
    each row times the denominator ``q`` of ``gamma = p/q`` so that its
    cells are integers: by status code, 0 not covered, ``p`` violated and
    ``p - q`` witnessed."""
    weight = tuple(-w for w in _integer_weights(gamma)).__getitem__
    return lp.LinearProgram(
        num_vars=k,
        objective=(-1,) * k,
        constraints=tuple([tuple(map(weight, row.codes)) for row in rows]),
    )


def _feasible(
    rows: list[SignatureRow], k: int, gamma: Fraction
) -> lp.Optimal | lp.Unbounded:
    """Whether multipliers with worst ratio over ``rows`` at most ``gamma`` exist.

    The ratio rows are homogeneous, so the question is posed as a cone
    program (``_cone_program``): it is ``Unbounded`` exactly when a nonzero
    ``lambda`` exists, and its verified ray's integer entries, divided by
    their sum (``_simplex_point``), are a simplex point.  Otherwise it is
    ``Optimal`` at 0, and its row duals are a Farkas certificate that there
    is none (``_farkas_bound``).
    """
    return lp.solve(_cone_program(rows, k, gamma))


def _positions(
    codes: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """The positions each sequence of status ``codes`` witnesses, and those
    it covers: per ratio row, the premises; per premise, the rows."""
    return (
        [[i for i, c in enumerate(seq) if c == _WITNESSED] for seq in codes],
        [[i for i, c in enumerate(seq) if c != _NOT_COVERED] for seq in codes],
    )


def _worst_ratio(
    witnessed: list[list[int]], covered: list[list[int]], numerators: Sequence[int]
) -> tuple[int, int]:
    """Worst witnessed/covered ratio, as an integer pair, of the nonnegative
    multipliers ``numerators`` (over any common denominator) over the rows
    whose premise positions are ``witnessed`` and ``covered``, with 0/0 read
    as 0 and 0/1 when no row is covered."""
    num, den = 0, 1
    for w, c in zip(witnessed, covered):
        a = sum([numerators[i] for i in w])
        b = sum([numerators[i] for i in c])
        if a * den > num * b:
            num, den = a, b
    return num, den


def _farkas_bound(
    witnessed: list[list[int]],
    covered: list[list[int]],
    p: int,
    q: int,
    y: Sequence[int],
) -> tuple[int, int]:
    """The value, as an integer pair, below which the row duals ``y`` of a
    bounded probe at ``gamma = p/q`` prove that no multipliers exist, each
    premise given by the rows that witness and cover it: ``y >= 0`` with
    ``y.(W - gamma C)_i > 0`` for every premise ``i`` (``W`` witnessed,
    ``C`` covered) leaves no nonzero ``lambda >= 0`` with ``(W - gamma C)
    lambda <= 0``, and the sums only grow as ``gamma`` falls."""
    if min(y) < 0:
        raise RuntimeError("probe duals are no Farkas certificate")
    num, den = 1, 0  # above every ratio: each premise lowers it
    for rows_w, rows_c in zip(witnessed, covered):
        w = sum([y[r] for r in rows_w])
        c = sum([y[r] for r in rows_c])
        if q * w <= p * c:
            raise RuntimeError("probe duals are no Farkas certificate")
        if w * den < num * c:
            num, den = w, c
    return num, den


def _simplex_point(ray: Sequence[int]) -> tuple[Fraction, ...]:
    """The nonnegative, nonzero integer ``ray`` divided by its sum."""
    total = sum(ray)
    return tuple([Fraction(v, total) for v in ray])


def feasible_at(
    gamma: Fraction | int | str,
    premises: ImplicationSet,
    antecedent: AttrSet,
    max_attrs: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Fraction, ...] | None:
    """Multipliers witnessing that the critical threshold is at most
    ``gamma``, or None when ``gamma`` lies strictly below it.

    The feasible set only grows with ``gamma``, and the infimum defining
    the critical threshold is attained, so this single feasibility test
    decides the comparison exactly.
    """
    g = as_rational(gamma)
    if not 0 <= g <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {g}")
    outcome = _feasible(_ratio_rows(premises, antecedent, max_attrs), len(premises), g)
    return _simplex_point(outcome.ray) if isinstance(outcome, lp.Unbounded) else None


def max_ratio(
    multipliers: Sequence[Fraction],
    premises: ImplicationSet,
    antecedent: AttrSet,
    max_attrs: int = DEFAULT_ENUMERATION_CAP,
) -> Fraction:
    """Worst-case witnessed/covered ratio of fixed simplex multipliers.

    Ratios with zero denominator count as 0, and with no eligible
    transaction types at all (empty ``antecedent`` is the only such case)
    the maximum is 0 by convention.
    """
    lams = [as_rational(lam) for lam in multipliers]
    if len(lams) != len(premises):
        raise ValueError("need one multiplier per premise")
    if any(lam < 0 for lam in lams):
        raise ValueError("multipliers must be nonnegative")
    if sum(lams) != 1:
        raise ValueError("multipliers must sum to 1")
    scale = math.lcm(*[lam.denominator for lam in lams])
    numerators = [lam.numerator * (scale // lam.denominator) for lam in lams]
    rows = _ratio_rows(premises, antecedent, max_attrs)
    witnessed, covered = _positions([row.codes for row in rows])
    return Fraction(*_worst_ratio(witnessed, covered, numerators))


def critical_threshold(
    premises: ImplicationSet,
    antecedent: AttrSet,
    tolerance: Fraction | int | str = Fraction(1, 100_000),
    max_attrs: int = DEFAULT_ENUMERATION_CAP,
) -> ThresholdBracket:
    """Bracket the critical threshold to within ``tolerance`` by bisection.

    Every probe is an exact feasibility test, so the bracket is certain:
    multipliers exist at ``upper`` and (unless the value is exactly 0,
    which is detected exactly) none exist at ``lower``.  A midpoint below
    an earlier bounded probe's ``_farkas_bound`` is not solved; the bracket
    and the ray at ``upper`` are still those of plain bisection.

    The loop runs in integers: ``lower`` and ``upper`` are numerators over
    ``2**depth``, the Farkas bound is an integer pair, and the ray and
    Farkas re-checks cross-multiply sums over the witnessed and covered
    positions of each row and each premise, found once per call.  A
    ``Fraction`` is built only for each probed ``gamma`` and for the result.
    """
    tol = as_rational(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rows = _ratio_rows(premises, antecedent, max_attrs)
    k = len(premises)
    codes = [row.codes for row in rows]
    row_witnessed, row_covered = _positions(codes)
    premise_witnessed, premise_covered = _positions(
        [[c[i] for c in codes] for i in range(k)]
    )
    below_num, below_den = 0, 1  # the largest Farkas bound so far

    def probe(p: int, q: int) -> tuple[int, ...] | None:
        """The ray of the probe at ``p/q``, or None with the bound raised."""
        nonlocal below_num, below_den
        outcome = _feasible(rows, k, Fraction(p, q))
        if isinstance(outcome, lp.Optimal):
            w, c = _farkas_bound(
                premise_witnessed, premise_covered, p, q, outcome.row_duals
            )
            if w * below_den > below_num * c:
                below_num, below_den = w, c
            return None
        w, c = _worst_ratio(row_witnessed, row_covered, outcome.ray)
        if w * q > p * c:
            raise RuntimeError("probe ray exceeds its threshold")
        return outcome.ray

    at_upper = probe(0, 1)
    if at_upper is not None:
        zero = Fraction(0)
        return ThresholdBracket(zero, zero, tol, _simplex_point(at_upper))
    at_upper = probe(1, 1)
    if at_upper is None:
        raise RuntimeError("no multipliers at 1, where every ratio is at most 1")
    # Bisect [0, 1]: lower is num / 2**depth and upper (num + 1) / 2**depth,
    # so upper - lower > tol reads 2**depth * tol < 1.
    num = depth = 0
    while tol.numerator << depth < tol.denominator:
        mid, depth = 2 * num + 1, depth + 1
        settled = mid * below_den < below_num << depth
        if settled or (at_mid := probe(mid, 1 << depth)) is None:
            num = mid
        else:
            num, at_upper = mid - 1, at_mid
    return ThresholdBracket(
        lower=Fraction(num, 1 << depth),
        upper=Fraction(num + 1, 1 << depth),
        tolerance=tol,
        multipliers=_simplex_point(at_upper),
    )


def decide_general(
    query: EntailmentQuery, max_attrs: int = DEFAULT_ENUMERATION_CAP
) -> EntailmentVerdict:
    """Decide entailment for any threshold strictly between 0 and 1.

    The entailment holds exactly when the conclusion is trivial or some
    nonempty premise subset satisfies the structural combination
    conditions and has critical threshold at most ``gamma``; in that case
    the feasibility multipliers of the subset, padded with zeros,
    certify the full entailment.  A subset's critical threshold only falls
    as premises join it, so the search of the other structural deciders
    (``_first_carrying``) can take the cone probe, run once per subset, as
    its test.  The query's signature table is enumerated once: each
    subset's ratio rows are projected from it, and the certificate check
    and the LP counterexample reuse it.
    """
    if query.k < 1:
        raise ValueError("general decider needs at least one premise")
    if not 0 < query.gamma < 1:
        raise ValueError(
            f"general decider needs gamma strictly between 0 and 1, got {query.gamma}"
        )
    if query.conclusion.consequent <= query.conclusion.antecedent:
        return _tautology_verdict(query)
    rows = _query_rows(query, max_attrs)

    @functools.cache
    def probe(indices: tuple[int, ...]) -> lp.Optimal | lp.Unbounded:
        return _feasible(_project_ratio_rows(rows, indices), len(indices), query.gamma)

    indices = _first_carrying(query, lambda s: isinstance(probe(s), lp.Unbounded))
    if indices is None:
        return _lp_failure(_decide_lp_rows(query, rows), Regime.GENERAL_GAMMA_STAR)
    ray = probe(indices).ray
    numerators = [0] * query.k
    for v, i in zip(ray, indices):
        numerators[i] = v
    if _certificate_violation(query, rows, numerators, sum(ray)) is not None:
        raise RuntimeError("subset multipliers fail the full constraint system")
    return EntailmentVerdict(
        holds=True,
        regime=Regime.GENERAL_GAMMA_STAR,
        certificate=_simplex_point(numerators),
    )
