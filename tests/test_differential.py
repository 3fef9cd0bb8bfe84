"""Differential gate: the structural routes, the LP route and AUTO
dispatch must reach the same verdict on a seeded corpus, right at and next
to the regime boundaries ``1/k`` and ``(k-1)/k``, and every witness they
return must check out on its own."""

import random
import time
from fractions import Fraction as F

import pientail as pt

METHODS = (pt.Method.AUTO, pt.Method.LP, pt.Method.CHARACTERIZATION)
QUERIES = 85
BUDGET_S = 30.0  # about 5 s on a 2-core machine; fails only on a blow-up


def _subset(rng, names, density):
    return [a for a in names if rng.random() < density]


def _random_query(rng):
    """n <= 8 attributes and 2 to 6 premises, some duplicated; half of the
    conclusions are built from the premises so that entailments occur."""
    n = rng.randint(3, 8)
    names = [f"a{i}" for i in range(n)]
    u = pt.AttributeUniverse(tuple(names))
    rules = []
    for _ in range(rng.randint(2, 6)):
        if rules and rng.random() < 0.15:
            rules.append(rng.choice(rules))
        else:
            rules.append((_subset(rng, names, 0.25), _subset(rng, names, 0.3)))
    if rng.random() < 0.5:
        picked = rng.sample(rules, rng.randint(1, len(rules)))
        lhs = sorted({a for r in picked for a in r[0]} | set(_subset(rng, names, 0.15)))
        rhs = sorted({a for r in picked for a in r[1]} - set(lhs))[:2]
    else:
        lhs, rhs = _subset(rng, names, 0.3), _subset(rng, names, 0.25)
    if set(rhs) <= set(lhs):  # keep most conclusions nontrivial
        rhs = [rng.choice([a for a in names if a not in lhs] or names)]
    premises = pt.ImplicationSet(
        u, tuple(pt.PartialImplication(u.attrs(*a), u.attrs(*c)) for a, c in rules)
    )
    return premises, pt.PartialImplication(u.attrs(*lhs), u.attrs(*rhs))


def _gammas(rng, k):
    edges = {F(1, k), F(k - 1, k)}
    near = {g + d for g in edges for d in (F(-1, 1000), F(0), F(1, 1000))}
    return sorted(near | {F(rng.randint(1, 19), 20)})


def _check_witness(query, verdict):
    if verdict.holds:
        assert pt.check_certificate(query, verdict.certificate)
    else:
        data = verdict.counterexample
        assert all(pt.satisfies(data, p, query.gamma) for p in query.premises)
        assert not pt.satisfies(data, query.conclusion, query.gamma)


def test_routes_agree_at_regime_boundaries():
    rng = random.Random(20150119)
    start = time.perf_counter()
    held = failed = 0
    for _ in range(QUERIES):
        premises, conclusion = _random_query(rng)
        for gamma in _gammas(rng, len(premises)):
            query = pt.EntailmentQuery(premises, conclusion, gamma)
            verdicts = [pt.decide(query, method=m) for m in METHODS]
            assert len({v.holds for v in verdicts}) == 1, (query, verdicts)
            for verdict in verdicts:
                _check_witness(query, verdict)
            held += verdicts[0].holds
            failed += not verdicts[0].holds
    assert held >= 20 and failed >= 20  # both outcomes are exercised
    assert time.perf_counter() - start < BUDGET_S
