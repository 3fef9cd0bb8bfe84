"""Shared fixtures: the two worked examples used throughout the suite."""

from fractions import Fraction
from typing import Iterator

import pytest

import pientail as pt
from pientail.cli import _rule_set


def make_query(premises_text: str, conclusion_text: str, gamma) -> pt.EntailmentQuery:
    """Build a query from rule-file syntax, sharing one universe: the
    loader's, with the conclusion's two sides as its extra groups."""
    premises, (lhs, rhs) = _rule_set(premises_text, *conclusion_text.split("->"))
    universe = premises.universe
    return pt.EntailmentQuery(
        premises=premises,
        conclusion=pt.PartialImplication(
            pt.AttrSet(universe, lhs), pt.AttrSet(universe, rhs)
        ),
        gamma=Fraction(gamma),
    )


def status_weights(gamma: Fraction) -> dict[pt.CoverStatus, Fraction]:
    """The constraint weight of each cover status at ``gamma``: the rational
    reference for the library's integer weights, which are these times the
    denominator of ``gamma``."""
    return {
        pt.CoverStatus.WITNESSED: 1 - gamma,
        pt.CoverStatus.VIOLATED: -gamma,
        pt.CoverStatus.NOT_COVERED: Fraction(0),
    }


def plain_bisection(premises, antecedent, tolerance) -> pt.ThresholdBracket:
    """The reference for ``critical_threshold``: bisection of [0, 1] that
    solves a probe at every midpoint and keeps no witness but the ray at
    ``upper``.  Its solves go through ``threshold._feasible`` too."""
    from pientail import lp, threshold

    tol = Fraction(tolerance)
    rows = threshold._ratio_rows(premises, antecedent)

    def ray(gamma):
        outcome = threshold._feasible(rows, len(premises), gamma)
        return outcome.ray if isinstance(outcome, lp.Unbounded) else None

    lower = upper = Fraction(0)
    at_upper = ray(upper)
    if at_upper is None:
        upper = Fraction(1)
        at_upper = ray(upper)
    while upper - lower > tol:
        mid = (lower + upper) / 2
        at_mid = ray(mid)
        if at_mid is None:
            lower = mid
        else:
            upper, at_upper = mid, at_mid
    total = sum(at_upper)
    return pt.ThresholdBracket(
        lower=lower,
        upper=upper,
        tolerance=tol,
        multipliers=tuple(Fraction(v, total) for v in at_upper),
    )


def band_edges(query: pt.EntailmentQuery) -> list[pt.EntailmentQuery]:
    """``query`` at the band edges ``1/k`` and ``(k-1)/k`` and 1/1000 below
    each, where they lie in [0, 1]; none without premises."""
    if not query.k:
        return []
    edges = set()
    for edge in (Fraction(1, query.k), Fraction(query.k - 1, query.k)):
        edges |= {edge, edge - Fraction(1, 1000)}
    return [
        pt.EntailmentQuery(query.premises, query.conclusion, g)
        for g in sorted(edges)
        if 0 <= g <= 1
    ]


def band_regime(query: pt.EntailmentQuery) -> pt.Regime:
    """The route ``decide`` labels ``query`` with under ``Method.AUTO``:
    the cases that need no search, then Horn closure at 1, then one
    premise, then the bands below ``1/k``, from ``(k-1)/k`` and between."""
    gamma, k, conclusion = query.gamma, query.k, query.conclusion
    if gamma == 0 or k == 0 or conclusion.consequent <= conclusion.antecedent:
        return pt.Regime.TAUTOLOGY
    if gamma == 1:
        return pt.Regime.HORN_CLOSURE
    if k == 1:
        return pt.Regime.ONE_PREMISE
    if gamma < Fraction(1, k):
        return pt.Regime.LOW_GAMMA
    if gamma >= Fraction(k - 1, k):
        return pt.Regime.HIGH_GAMMA
    return pt.Regime.GENERAL_GAMMA_STAR


def prune_reference(rules, gamma, method: pt.Method) -> pt.ImplicationSet:
    """The reference for ``prune``: its scan, with an independent
    ``decide(query, method)`` at every step, each enumerating its own
    table."""
    kept = []
    for i in range(len(rules)):
        others = kept + list(range(i + 1, len(rules)))
        query = pt.EntailmentQuery(rules.subset(others), rules[i], gamma)
        if not pt.decide(query, method).holds:
            kept.append(i)
    return rules.subset(kept)


def properly_entails_reference(
    query: pt.EntailmentQuery, method: pt.Method
) -> pt.ProperEntailmentResult:
    """The reference for ``properly_entails``: its greedy shrink, with an
    independent ``decide(query, method)`` at every step."""
    if not pt.decide(query, method).holds:
        return pt.ProperEntailmentResult(False, False, None)
    kept = list(range(query.k))
    for i in list(kept):
        trial = [j for j in kept if j != i]
        if pt.decide(query.with_premises(trial), method).holds:
            kept = trial
    return pt.ProperEntailmentResult(True, len(kept) == query.k, tuple(kept))


def carrying_walk(query: pt.EntailmentQuery) -> Iterator[tuple[int, ...]]:
    """The reference for ``entailment._first_carrying``: every premise
    subset that carries the conclusion, as an index tuple, in increasing
    bitmask order.  The antecedents must lie in ``X0`` and ``Y0 \\ X0`` in
    every consequent, which holds for a subset exactly when it holds for
    each member, so the walk visits the ``2**|E|`` submasks of the set E of
    premises that pass alone.  A subset carries when its spans also cover
    ``X0`` and it enforces homogeneity (as a single rule always does)."""
    x0 = query.conclusion.antecedent.bits
    needed = query.conclusion.consequent.bits & ~x0
    premises = query.premises
    eligible = 0
    for i, premise in enumerate(premises):
        if not premise.antecedent.bits & ~x0 and not needed & ~premise.consequent.bits:
            eligible |= 1 << i
    mask = 0
    while True:
        mask = (mask - eligible) & eligible  # the next submask of ``eligible``
        if not mask:
            return
        indices = tuple(i for i in range(len(premises)) if mask >> i & 1)
        spans = 0
        for i in indices:
            spans |= premises[i].span.bits
        if x0 & ~spans:
            continue
        if len(indices) == 1 or pt.enforces_homogeneity(premises.subset(indices)):
            yield indices


def nonempty_subsets(k: int) -> list[tuple[int, ...]]:
    """Every nonempty subset of ``range(k)`` as an index tuple, in
    increasing bitmask order."""
    return [
        tuple(i for i in range(k) if mask >> i & 1) for mask in range(1, 1 << k)
    ]


@pytest.fixture
def pair_query():
    """Two rules sharing an antecedent against a recombined conclusion;
    entails exactly for thresholds in [1/2, 1)."""
    return make_query("A -> B C\nA -> B D", "A C D -> B", Fraction(1, 2))


@pytest.fixture
def cycle_query():
    """Three rules forming a cycle; the conclusion holds exactly from the
    critical threshold (about 0.56984) upward."""
    return make_query(
        "B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", Fraction(57, 100)
    )


@pytest.fixture
def cycle_premises(cycle_query):
    return cycle_query.premises


@pytest.fixture
def cycle_antecedent(cycle_query):
    return cycle_query.conclusion.antecedent
