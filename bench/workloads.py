"""Seeded input generators for the benchmark workloads.

Every generator takes ``(seed, round_index)`` and returns plain data: rules
are pairs of attribute-name tuples and thresholds are ``Fraction``s.  Nothing
here imports the library, so the library only ever sees inputs that were
fixed before it ran.  The same seed and round always give the same inputs,
and every round of a workload has the same make-up (the same number of
operations of each shape), so runs that differ only in seed put the same kind
of load on the library.

Rules are built over attributes ``a0 .. a{n-1}`` with antecedent density 0.15
and consequent density 0.2, the setting of the baseline measurements; the
library's own ``random_query`` is not used because it caps at 10 attributes
and 4 premises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ANTECEDENT_DENSITY = 0.15
CONSEQUENT_DENSITY = 0.2

Rule = tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class Query:
    """One entailment question: premises and conclusion over ``names``."""

    names: tuple[str, ...]
    premises: tuple[Rule, ...]
    conclusion: Rule
    gamma: Fraction


@dataclass(frozen=True)
class RuleSet:
    """A rule set to prune at ``gamma``."""

    names: tuple[str, ...]
    rules: tuple[Rule, ...]
    gamma: Fraction


@dataclass(frozen=True)
class Cycle:
    """A premise file and an antecedent for ``pientail gamma-star``.

    ``conclusion`` is the attribute every premise concludes, so that the
    bracket can be checked through ``antecedent -> conclusion``;
    ``contains`` is a value the bracket must enclose, when one is known
    from the paper.
    """

    rules: tuple[Rule, ...]
    antecedent: tuple[str, ...]
    conclusion: str
    tolerance: Fraction
    contains: Fraction | None


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(n))


def _random_rule(rng: random.Random, pool: tuple[str, ...]) -> Rule:
    """A rule with a nonempty consequent disjoint from its antecedent."""
    ante = [a for a in pool if rng.random() < ANTECEDENT_DENSITY]
    if len(ante) == len(pool):
        ante.pop()
    cons = [a for a in pool if a not in ante and rng.random() < CONSEQUENT_DENSITY]
    if not cons:
        cons = [rng.choice([a for a in pool if a not in ante])]
    return tuple(ante), tuple(cons)


# ---------------------------------------------------------------- decide-mix

DECIDE_MIX_ATTRS = 10
# k = 7 and 8 are left out: their LPs gave 86% of the seed-to-seed variance
# of a round's time, and without them a run sees four times the rounds.
DECIDE_MIX_KS = range(2, 7)
# Just below a regime boundary: 1/k - 1/1000 and (k-1)/k - 1/1000.
_BELOW = Fraction(1, 1000)


def _gammas(rng: random.Random, k: int) -> list[Fraction]:
    """Thresholds on and just below ``1/k`` and ``(k-1)/k``, one interior
    value and 1."""
    low, high = Fraction(1, k), Fraction(k - 1, k)
    if k == 2:
        interior = Fraction(rng.randint(51, 99), 100)
    else:
        interior = Fraction(rng.randint(1, 99), 100) * (high - low) + low
    return [low - _BELOW, low, interior, high - _BELOW, high, Fraction(1)]


def _plant_cycle(
    rng: random.Random, names: tuple[str, ...], premises: list[Rule]
) -> Rule:
    """Rewrite two or three premises into a cycle ``c_i -> A c_{i+1}`` and
    return its conclusion ``c_1 .. c_m -> A``.

    A cycle is the smallest premise subset that meets the combination
    conditions jointly while none of its proper subsets does, so the
    verdict turns on the threshold rather than on a single premise.
    """
    m = min(len(premises), rng.choice((2, 3)))
    picked = rng.sample(names, m + 1)
    target, chain = picked[0], picked[1:]
    slots = rng.sample(range(len(premises)), m)
    for j, slot in enumerate(slots):
        premises[slot] = ((chain[j],), (target, chain[(j + 1) % m]))
    return tuple(sorted(chain, key=names.index)), (target,)


def decide_mix(seed: int, round_index: int) -> list[Query]:
    """30 queries: for each k in 2..6, each of the six thresholds of
    ``_gammas``, alternately with a planted-cycle conclusion and with a
    random one.  No conclusion is trivial."""
    rng = _rng("decide-mix", seed, round_index)
    names = _names(DECIDE_MIX_ATTRS)
    out = []
    for k in DECIDE_MIX_KS:
        for j, gamma in enumerate(_gammas(rng, k)):
            premises = [_random_rule(rng, names) for _ in range(k)]
            if (j + k) % 2 == 0:
                conclusion = _plant_cycle(rng, names, premises)
            else:
                conclusion = _random_rule(rng, names)
            out.append(Query(names, tuple(premises), conclusion, gamma))
    return out


# ----------------------------------------------------------------- wide-enum

WIDE_ENUM_ATTRS = 20
# (occurring attributes, premises, threshold band, conclusion shape).  The
# make-up is fixed so that every round costs about the same: enumeration
# time grows as 2**width times the number of rules.  AUTO answers the
# high band without enumerating, so the two narrowest queries make 8 of the
# round's 20 operations, all of them short.  The median operation then lies
# in the middle of the width-17 query's four, and the next query costs
# about three times as much, so the median does not jump between queries.
WIDE_ENUM_PLAN = (
    (15, 3, "low", "unreachable"),
    (16, 2, "high", "entailed"),
    (17, 3, "interior", "unreachable"),
    (18, 4, "interior", "entailed"),
    (19, 4, "interior", "entailed"),
)


def _band_gamma(rng: random.Random, k: int, band: str) -> Fraction:
    low, high = Fraction(1, k), Fraction(k - 1, k)
    if band == "low":
        return Fraction(rng.randint(1, 99), 100) * low
    if band == "high":
        return high + Fraction(rng.randint(0, 99), 100) * (1 - high)
    return low + Fraction(rng.randint(1, 99), 100) * (high - low)


def wide_enum(seed: int, round_index: int) -> list[Query]:
    """Five queries whose rules together mention 15 to 19 attributes.

    An ``entailed`` conclusion is drawn inside one premise (its antecedent
    contains the premise's antecedent and its span lies in the premise's
    span), so it holds at every threshold.  An ``unreachable`` conclusion
    asks for an attribute that no premise mentions, so it fails at every
    positive threshold.  Either way the LP route and ``check_certificate``
    look at every transaction type.
    """
    rng = _rng("wide-enum", seed, round_index)
    names = _names(WIDE_ENUM_ATTRS)
    plan = list(WIDE_ENUM_PLAN)
    rng.shuffle(plan)
    out = []
    for width, k, band, shape in plan:
        pool = tuple(sorted(rng.sample(names, width), key=names.index))
        if shape == "unreachable":
            lonely = rng.choice(pool)
            pool = tuple(a for a in pool if a != lonely)
        premises = [list(map(list, _random_rule(rng, pool))) for _ in range(k)]
        used = {a for ante, cons in premises for a in ante + cons}
        for a in pool:
            if a not in used:
                premises[rng.randrange(k)][1].append(a)
        rules = tuple(
            (tuple(sorted(ante, key=names.index)), tuple(sorted(cons, key=names.index)))
            for ante, cons in premises
        )
        if shape == "entailed":
            ante, cons = rules[rng.randrange(k)]
            x0 = set(ante) | {a for a in cons if rng.random() < 0.3}
            y0 = [a for a in cons if a not in x0]
            if not y0:
                x0.discard(cons[0])
                y0 = [cons[0]]
            conclusion = (
                tuple(sorted(x0, key=names.index)),
                tuple(sorted(rng.sample(y0, min(2, len(y0))), key=names.index)),
            )
        else:
            ante = tuple(a for a in pool if rng.random() < ANTECEDENT_DENSITY)
            conclusion = (ante, (lonely,))
        gamma = _band_gamma(rng, k, band)
        out.append(Query(names, rules, conclusion, gamma))
    return out


# --------------------------------------------------------------------- prune

PRUNE_ATTRS = 10
PRUNE_RULES = 5
PRUNE_SETS = 4
PRUNE_GAMMA = Fraction(3, 5)


def prune(seed: int, round_index: int) -> list[RuleSet]:
    """Four rule sets of five random rules each over 10 attributes.

    Larger sets are out of reach of a steady run here: one prune of 10 rules
    takes 1 to 7.5 s and of 12 rules 3.5 to 24 s, so a run would see too few
    of them for its figures to repeat across seeds.  Six rules took 0.09 s
    with a coefficient of variation of 0.46, five take 0.05 s with 0.30.
    """
    rng = _rng("prune", seed, round_index)
    names = _names(PRUNE_ATTRS)
    return [
        RuleSet(names, tuple(_random_rule(rng, names) for _ in range(PRUNE_RULES)), PRUNE_GAMMA)
        for _ in range(PRUNE_SETS)
    ]


# ---------------------------------------------------------------- gamma-star

GAMMA_STAR_TOLERANCE = Fraction(1, 1_000_000)
# The paper's three-rule cycle and the value its critical threshold is
# reported to round to.
PAPER_CYCLE = ((("B",), ("A", "C", "H")), (("C",), ("A", "D")), (("D",), ("A", "B")))
PAPER_ANTECEDENT = ("B", "C", "D", "H")
PAPER_GAMMA_STAR = Fraction("0.56984")
_LETTERS = tuple("EFGIJKLMNOPQRSTUVWXYZ")


def _cycle(rng: random.Random, length: int) -> Cycle:
    """``x_i -> A x_{i+1}`` over seeded names, starting at a seeded rule.

    Every rotation of a cycle lays its attributes out in the same pattern,
    so the seed changes the inputs without changing the work: Bland's rule
    follows column order, and a shuffled file order alone moves the cost
    of one bracket by about 15%.
    """
    picked = rng.sample(_LETTERS, length + 1)
    target, chain = picked[0], picked[1:]
    first = rng.randrange(length)
    rules = [
        ((chain[i % length],), (target, chain[(i + 1) % length]))
        for i in range(first, first + length)
    ]
    antecedent = list(chain)
    rng.shuffle(antecedent)
    return Cycle(tuple(rules), tuple(antecedent), target, GAMMA_STAR_TOLERANCE, None)


def gamma_star(seed: int, round_index: int) -> list[Cycle]:
    """The paper's cycle, as printed, and two cycles of length 3.

    Length 4 is left out: one bracket of it takes 3 to 4 s, so a run would
    hold too few operations for its figures to repeat.  Length 5 takes
    about a minute.
    """
    rng = _rng("gamma-star", seed, round_index)
    return [
        Cycle(PAPER_CYCLE, PAPER_ANTECEDENT, "A", GAMMA_STAR_TOLERANCE, PAPER_GAMMA_STAR),
        _cycle(rng, 3),
        _cycle(rng, 3),
    ]

