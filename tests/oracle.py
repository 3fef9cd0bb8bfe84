"""Brute-force cross-checks used by the test suite.

Nothing here participates in a decision.  ``search_counterexample`` looks
for small counterexample datasets by exhaustive enumeration and is
one-sided: finding one refutes an entailment outright, finding none means
nothing.  ``grid_min_max`` estimates the critical threshold by evaluating
the worst-case ratio on a grid over the multiplier simplex; every grid
point is feasible, so the estimate can only sit above the true value.
``brute_force_homogeneity`` checks homogeneity on every transaction type.
A seeded random instance generator lives here too.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from pientail.entailment import (
    EntailmentQuery, _NOT_COVERED, _WITNESSED, _integer_weights, _query_rows
)
from pientail.homogeneity import ImplicationSet
from pientail.model import (
    AttrSet,
    AttributeUniverse,
    Dataset,
    PartialImplication,
    rule_bitmasks,
)
from pientail.threshold import _ratio_rows


def search_counterexample(
    query: EntailmentQuery,
    max_mult: int = 4,
    max_support: int = 3,
) -> Dataset | None:
    """Smallest-first exhaustive search for a counterexample dataset.

    Candidate datasets are supported on representative transactions (one
    per distinct constraint signature; transactions with all-zero weights
    cannot matter and are skipped), with at most ``max_support`` distinct
    transactions of multiplicity 1..``max_mult`` each.  Candidates are
    scanned in a fixed order - support size, then transaction combination,
    then multiplicities, all lexicographic - so the first hit is
    deterministic.  Returns None when no candidate in the search space
    fails the conclusion while satisfying every premise.
    """
    if max_mult < 1 or max_support < 1:
        raise ValueError("max_mult and max_support must be at least 1")
    # Integer weights: the weights at gamma times its denominator.
    weights = _integer_weights(query.gamma)
    weighted: list[tuple[AttrSet, list[int]]] = []
    for row in _query_rows(query):
        vec = [weights[c] for c in row.codes]
        if any(vec):
            weighted.append((AttrSet(query.universe, row.bits), vec))
    if not weighted:
        return None
    bound = query.gamma.denominator * max_mult * max_support
    if bound >= 2**62:
        raise ValueError("gamma denominator too large for the integer search")

    try:
        import numpy as np  # only this search needs it
    except ImportError as exc:
        raise ImportError(
            "search_counterexample needs numpy, which pientail does not "
            "install; install it with `pip install numpy` or the `test` extra"
        ) from exc

    matrix = np.array([vec for _, vec in weighted], dtype=np.int64)
    negative_conclusion = matrix[:, 0] < 0
    index_pool = range(len(weighted))
    for size in range(1, max_support + 1):
        grid = np.array(
            list(product(range(1, max_mult + 1), repeat=size)), dtype=np.int64
        )
        combos = [
            c
            for c in combinations(index_pool, size)
            if negative_conclusion[list(c)].any()
        ]
        if not combos:
            continue
        stacked = matrix[np.array(combos)]            # (combos, size, k+1)
        sums = np.einsum("ms,csk->cmk", grid, stacked)
        hits = (sums[:, :, 0] < 0) & (sums[:, :, 1:] >= 0).all(axis=2)
        if hits.any():
            c, m = np.unravel_index(int(hits.argmax()), hits.shape)
            data = Dataset(
                query.universe,
                {
                    weighted[j][0]: int(mult)
                    for j, mult in zip(combos[c], grid[m])
                },
            )
            return data
    return None


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def grid_min_max(
    premises: ImplicationSet,
    antecedent: AttrSet,
    steps: int = 60,
) -> Fraction:
    """Minimum over a simplex grid of the worst-case ratio.

    The grid consists of all multiplier vectors with denominators
    ``steps``; each is feasible for the critical-threshold program, so the
    returned value is an upper estimate of the critical threshold that
    approaches it as ``steps`` grows.
    """
    k = len(premises)
    if k < 1:
        raise ValueError("grid estimate needs at least one premise")
    if not 1 <= k <= 4:
        raise ValueError("grid estimate is meant for up to four premises")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    patterns = [
        ([i for i, c in enumerate(row.codes) if c == _WITNESSED],
         [i for i, c in enumerate(row.codes) if c != _NOT_COVERED])
        for row in _ratio_rows(premises, antecedent)
    ]
    best_num, best_den = 1, 1  # the worst-case ratio never exceeds 1
    for lams in _compositions(steps, k):
        worst_num, worst_den = 0, 1
        for witnessed, covered in patterns:
            d = sum(lams[i] for i in covered)
            if d == 0:
                continue
            n = sum(lams[i] for i in witnessed)
            if n * worst_den > worst_num * d:
                worst_num, worst_den = n, d
        if worst_num * best_den < best_num * worst_den:
            best_num, best_den = worst_num, worst_den
    return Fraction(best_num, best_den)


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Shape of a random test instance: attribute count, premise count,
    seed, and the probability of each attribute joining each side."""

    num_attrs: int
    num_premises: int
    seed: int
    density: float = 0.4

    def __post_init__(self) -> None:
        if not 1 <= self.num_attrs <= 10:
            raise ValueError("oracle instances use between 1 and 10 attributes")
        if not 0 <= self.num_premises <= 4:
            raise ValueError("oracle instances use at most 4 premises")


def _random_attrs(rng: random.Random, universe: AttributeUniverse, density: float) -> AttrSet:
    bits = 0
    for i in range(universe.size):
        if rng.random() < density:
            bits |= 1 << i
    return AttrSet(universe, bits)


def random_implication_set(spec: RandomInstanceSpec) -> ImplicationSet:
    """Seeded random rules over the first ``num_attrs`` uppercase letters."""
    rng = random.Random(spec.seed)
    universe = AttributeUniverse(tuple(string.ascii_uppercase[: spec.num_attrs]))
    rules = tuple(
        PartialImplication(
            _random_attrs(rng, universe, spec.density),
            _random_attrs(rng, universe, spec.density),
        )
        for _ in range(spec.num_premises)
    )
    return ImplicationSet(universe, rules)


def random_query(spec: RandomInstanceSpec, gamma: Fraction) -> EntailmentQuery:
    """Seeded random query; half the time the conclusion is shaped to sit
    over the premises (antecedents below it, consequents feeding it), which
    keeps positive instances common enough to exercise certificates."""
    premises = random_implication_set(spec)
    universe = premises.universe
    rng = random.Random(spec.seed ^ 0x5EED)
    structured = spec.num_premises > 0 and rng.random() < 0.5
    if structured:
        count = rng.randint(1, spec.num_premises)
        chosen = rng.sample(range(spec.num_premises), count)
        x0 = universe.empty()
        common = universe.full()
        span = universe.empty()
        for i in chosen:
            x0 |= premises[i].antecedent
            common &= premises[i].consequent
            span |= premises[i].span
        x0 |= _random_attrs(rng, universe, 0.2) & span
        y0 = (common | x0) & _random_attrs(rng, universe, 0.6)
        if rng.random() < 0.3:
            y0 |= _random_attrs(rng, universe, 0.15)
    else:
        x0 = _random_attrs(rng, universe, spec.density)
        y0 = _random_attrs(rng, universe, spec.density)
    return EntailmentQuery(premises, PartialImplication(x0, y0), gamma)


def brute_force_homogeneity(rules: ImplicationSet) -> bool:
    """Transaction-level homogeneity check by exhaustive enumeration.

    Walks every subset of the occurring attributes and tests the defining
    property: a transaction violating no rule either witnesses all rules
    or covers none.  Exponential in the number of occurring attributes;
    an independent oracle for the closure-based ``enforces_homogeneity``.
    """
    occ, pairs = rule_bitmasks(rules, rules.universe)
    z = 0
    while True:
        covered = 0
        witnessed = 0
        violates = False
        for x, xy in pairs:
            if z & x == x:
                covered += 1
                if z & xy == xy:
                    witnessed += 1
                else:
                    violates = True
                    break
        if not violates and covered and witnessed < len(pairs):
            return False
        if z == occ:
            return True
        z = (z - occ) & occ  # the next subset of ``occ`` in increasing order
