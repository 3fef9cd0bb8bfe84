"""Differential gate: AUTO dispatch, through its structural routes, and
the LP route must reach the same verdict on a seeded corpus, right at and next
to the regime boundaries ``1/k`` and ``(k-1)/k``, and every witness they
return must check out on its own.  On the small queries the brute-force
``search_counterexample`` runs too: a dataset it finds refutes the
entailment, so every route must then say that it fails."""

import random
import time
from fractions import Fraction as F

import oracle
import pientail as pt

METHODS = (pt.Method.AUTO, pt.Method.LP)
QUERIES = 85
WIDE_QUERIES = 16
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


def _wide_query(rng):
    """15 to 18 occurring attributes out of 20 and 2 to 4 premises; half of
    the conclusions sit inside the premises' spans so that some hold."""
    names = [f"a{i}" for i in range(20)]
    u = pt.AttributeUniverse(tuple(names))
    pool = sorted(rng.sample(names, rng.randint(15, 18)), key=names.index)
    rules = [
        (_subset(rng, pool, 0.15), _subset(rng, pool, 0.3))
        for _ in range(rng.randint(2, 4))
    ]
    for a in pool:
        if not any(a in ante or a in cons for ante, cons in rules):
            rng.choice(rules)[1].append(a)
    if rng.random() < 0.5:
        picked = rng.sample(rules, rng.randint(1, len(rules)))
        lhs = sorted({a for r in picked for a in r[0]}, key=names.index)
        rhs = sorted({a for r in picked for a in r[1]} - set(lhs), key=names.index)[:2]
    else:
        lhs, rhs = _subset(rng, pool, 0.2), _subset(rng, pool, 0.15)
    if set(rhs) <= set(lhs):
        rhs = [rng.choice([a for a in pool if a not in lhs] or pool)]
    premises = pt.ImplicationSet(
        u, tuple(pt.PartialImplication(u.attrs(*a), u.attrs(*c)) for a, c in rules)
    )
    return premises, pt.PartialImplication(u.attrs(*lhs), u.attrs(*rhs))


def _gammas(rng, k):
    edges = {F(1, k), F(k - 1, k)}
    near = {g + d for g in edges for d in (F(-1, 1000), F(0), F(1, 1000))}
    return sorted(near | {F(rng.randint(1, 19), 20)})


def _check_counterexample(query, data):
    assert all(pt.satisfies(data, p, query.gamma) for p in query.premises)
    assert not pt.satisfies(data, query.conclusion, query.gamma)


def _check_witness(query, verdict):
    if verdict.holds:
        assert pt.check_certificate(query, verdict.certificate)
    else:
        _check_counterexample(query, verdict.counterexample)


def _agree(queries, rng, search=False):
    """Decide every query with every method at the boundary gammas, and
    with ``search`` look for a counterexample by brute force too; return
    how many held, how many failed and how many the search refuted."""
    held = failed = refuted = 0
    for premises, conclusion in queries:
        for gamma in _gammas(rng, len(premises)):
            query = pt.EntailmentQuery(premises, conclusion, gamma)
            verdicts = [pt.decide(query, method=m) for m in METHODS]
            assert len({v.holds for v in verdicts}) == 1, (query, verdicts)
            for verdict in verdicts:
                _check_witness(query, verdict)
            held += verdicts[0].holds
            failed += not verdicts[0].holds
            found = oracle.search_counterexample(query) if search else None
            if found is not None:
                _check_counterexample(query, found)
                assert not verdicts[0].holds, (query, found)  # nor any other route
                refuted += 1
    return held, failed, refuted


def test_routes_agree_at_regime_boundaries():
    rng = random.Random(20150119)
    start = time.perf_counter()
    queries = (_random_query(rng) for _ in range(QUERIES))
    held, failed, refuted = _agree(queries, rng, search=True)
    assert held >= 20 and failed >= 20  # both outcomes are exercised
    assert refuted >= 200  # the search refutes most of the failures
    assert time.perf_counter() - start < BUDGET_S


def test_routes_agree_on_wide_queries():
    rng = random.Random(19860801)
    start = time.perf_counter()
    queries = [_wide_query(rng) for _ in range(WIDE_QUERIES)]
    for premises, conclusion in queries:
        width = (premises.occurring | conclusion.span).bits.bit_count()
        assert 15 <= width <= 18
    held, failed, _ = _agree(queries, rng)
    assert held >= 5 and failed >= 5
    assert time.perf_counter() - start < BUDGET_S
