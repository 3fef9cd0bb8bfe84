"""Witness checks that share no code with the library.

A verdict that an entailment holds carries multipliers ``lambda``; it is
right when, for every transaction type ``Z`` over the attributes that occur,

    sum_i lambda_i * w_Z(premise_i)  <=  w_Z(conclusion)

with ``w_Z`` equal to ``1 - gamma`` when ``Z`` witnesses the rule, ``-gamma``
when it violates it and 0 when it does not cover it.  A verdict that it fails
carries a dataset; it is right when integer support counts show every
premise at confidence ``gamma`` or more and the conclusion below it.  By weak
duality no query has both witnesses, so a witness that passes proves its
verdict.

Transaction types are listed bit-parallel: over ``w`` occurring attributes,
type ``t`` (bit ``i`` of ``t`` set when attribute ``i`` is present) is bit
``t`` of a ``2**w``-bit integer, and one such integer per attribute marks the
types that contain it.  Covered, witnessed and violated sets of types are
then ANDs of those integers, and the inequality is checked once for each
nonempty class of types that agree on every rule.

Rules here are ``(antecedent, consequent)`` pairs of attribute-name
iterables; nothing is imported from the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Rule = tuple[Iterable[str], Iterable[str]]


class TypeSpace:
    """All transaction types over ``attrs``, one bit each."""

    def __init__(self, attrs: Iterable[str]) -> None:
        self.attrs = tuple(sorted(set(attrs)))
        count = 1 << len(self.attrs)
        self.everything = (1 << count) - 1
        self._masks: dict[str, int] = {}
        for i, name in enumerate(self.attrs):
            half = 1 << i
            mask = ((1 << half) - 1) << half
            period = 2 * half
            while period < count:
                mask |= mask << period
                period *= 2
            self._masks[name] = mask

    def containing(self, names: Iterable[str]) -> int:
        """Types that contain every attribute in ``names``."""
        out = self.everything
        for name in names:
            out &= self._masks[name]
        return out

    def split(self, rule: Rule) -> tuple[int, int]:
        """(covered, witnessed) types of ``rule``."""
        ante, cons = rule
        covered = self.containing(ante)
        return covered, covered & self.containing(cons)


def _min_slack(
    space: TypeSpace,
    terms: Sequence[tuple[Rule, Fraction, Fraction]],
    domain: int,
) -> Fraction | None:
    """Least value over types in ``domain`` of ``sum_j term_j(Z)``, where a
    term adds its first weight when ``Z`` witnesses its rule, its second
    when ``Z`` violates it, and nothing otherwise.  None when ``domain`` is
    empty."""
    splits = [(*space.split(rule), on_witness, on_violation)
              for rule, on_witness, on_violation in terms]
    worst = None
    stack = [(domain, 0, Fraction(0))]
    while stack:
        types, j, total = stack.pop()
        if j == len(splits):
            if worst is None or total < worst:
                worst = total
            continue
        covered, witnessed, on_witness, on_violation = splits[j]
        for part, add in (
            (types & witnessed, on_witness),
            (types & covered & ~witnessed, on_violation),
            (types & ~covered, 0),
        ):
            if part:
                stack.append((part, j + 1, total + add))
    return worst


def _occurring(rules: Iterable[Rule]) -> set[str]:
    return {name for ante, cons in rules for side in (ante, cons) for name in side}


def certificate_ok(
    premises: Sequence[Rule],
    conclusion: Rule,
    gamma: Fraction,
    multipliers: Sequence[Fraction],
) -> bool:
    """Do ``multipliers`` certify ``premises |= conclusion`` at ``gamma``?"""
    if len(multipliers) != len(premises):
        return False
    lams = [Fraction(m) for m in multipliers]
    if any(m < 0 for m in lams):
        return False
    space = TypeSpace(_occurring([*premises, conclusion]))
    terms = [(conclusion, 1 - gamma, -gamma)]
    terms += [(rule, -lam * (1 - gamma), lam * gamma)
              for rule, lam in zip(premises, lams) if lam]
    slack = _min_slack(space, terms, space.everything)
    return slack >= 0


def counterexample_ok(
    premises: Sequence[Rule],
    conclusion: Rule,
    gamma: Fraction,
    dataset: Iterable[tuple[Iterable[str], int]],
) -> bool:
    """Does ``dataset`` (transaction, count) satisfy every premise at
    ``gamma`` and violate ``conclusion``?  Integer counting only."""
    data = []
    for transaction, count in dataset:
        if not isinstance(count, int) or count <= 0:
            return False
        data.append((frozenset(transaction), count))
    p, q = gamma.numerator, gamma.denominator

    def confident(rule: Rule) -> bool:
        ante = frozenset(rule[0])
        span = ante | frozenset(rule[1])
        covered = sum(c for t, c in data if ante <= t)
        witnessed = sum(c for t, c in data if span <= t)
        return covered == 0 or witnessed * q >= p * covered

    return all(confident(rule) for rule in premises) and not confident(conclusion)


def threshold_multipliers_ok(
    premises: Sequence[Rule],
    antecedent: Iterable[str],
    multipliers: Sequence[Fraction],
    upper: Fraction,
) -> bool:
    """Are ``multipliers`` a point of the simplex whose witnessed/covered
    ratio is at most ``upper`` on every transaction type that lacks part of
    ``antecedent``?"""
    lams = [Fraction(m) for m in multipliers]
    if len(lams) != len(premises) or any(m < 0 for m in lams) or sum(lams) != 1:
        return False
    antecedent = tuple(antecedent)
    space = TypeSpace(_occurring(premises) | set(antecedent))
    domain = space.everything & ~space.containing(antecedent)
    terms = [(rule, lam * (upper - 1), lam * upper)
             for rule, lam in zip(premises, lams) if lam]
    slack = _min_slack(space, terms, domain)
    return slack is None or slack >= 0
