"""``gamma = 1`` by Horn closure.

At 1 a dataset satisfies a rule when each of its transactions does, so
``Method.AUTO`` decides by forward chaining from ``X0``, with no signature
table and no LP.  These tests hold its verdicts to those of ``Method.LP``
on a seeded corpus and check every witness it returns; they hold ``prune``
and ``properly_entails`` at 1, with no enumeration at all, to the same
scans over ``Method.LP`` decides; and they time a chain too wide to
enumerate.
"""

import random
import time
from fractions import Fraction as F

import pientail as pt
from conftest import properly_entails_reference, prune_reference
from test_differential import _check_witness
from test_signatures import _count_enumerations

CORPUS_BUDGET_S = 10.0


def _subset(rng, names, density):
    return [a for a in names if rng.random() < density]


def _rules(rng, names, count):
    """``count`` random rules, some repeated, some with an empty
    antecedent and some trivial (the consequent inside the antecedent)."""
    rules = []
    for _ in range(count):
        roll = rng.random()
        if rules and roll < 0.15:
            rules.append(rng.choice(rules))
        elif roll < 0.3:
            rules.append(([], _subset(rng, names, 0.2)))
        elif roll < 0.4:
            ante = _subset(rng, names, 0.4)
            rules.append((ante, _subset(rng, ante, 0.5)))
        else:
            rules.append((_subset(rng, names, 0.25), _subset(rng, names, 0.3)))
    return rules


def _implications(u, rules):
    return tuple(pt.PartialImplication(u.attrs(*a), u.attrs(*c)) for a, c in rules)


def _query(rng):
    """k 0-8 premises over 3-12 attributes at ``gamma = 1``.  Half of the
    conclusions start from a premise's antecedent and ask for attributes
    of the premises' consequents, so that chains of premises carry them."""
    names = [f"a{i}" for i in range(rng.randint(3, 12))]
    u = pt.AttributeUniverse(tuple(names))
    rules = _rules(rng, names, rng.randint(0, 8))
    if rules and rng.random() < 0.5:
        lhs = set(rng.choice(rules)[0]) | set(_subset(rng, names, 0.15))
        pool = sorted({a for _, cons in rules for a in cons} - lhs) or names
        rhs = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
    else:
        lhs, rhs = _subset(rng, names, 0.3), _subset(rng, names, 0.25)
    premises = pt.ImplicationSet(u, _implications(u, rules))
    return pt.EntailmentQuery(
        premises, pt.PartialImplication(u.attrs(*lhs), u.attrs(*rhs)), 1
    )


def test_auto_at_one_agrees_with_lp_on_a_corpus():
    rng = random.Random(1974)
    start = time.perf_counter()
    regimes = {}
    shapes = {"duplicate": 0, "empty antecedent": 0, "trivial": 0}
    for _ in range(2000):
        query = _query(rng)
        verdict = pt.decide(query)
        assert verdict.holds == pt.decide(query, pt.Method.LP).holds, query
        _check_witness(query, verdict)
        key = (verdict.regime, verdict.holds)
        regimes[key] = regimes.get(key, 0) + 1
        premises = list(query.premises)
        shapes["duplicate"] += len(set(premises)) < len(premises)
        shapes["empty antecedent"] += any(not p.antecedent.bits for p in premises)
        shapes["trivial"] += any(p.consequent <= p.antecedent for p in premises)
    assert time.perf_counter() - start < CORPUS_BUDGET_S
    horn = pt.Regime.HORN_CLOSURE
    assert min(regimes[horn, True], regimes[horn, False]) >= 400, regimes
    assert min(shapes.values()) >= 200, shapes


def _rule_set(rng):
    """2 to 12 rules over 3 to 10 attributes, shaped as in ``_rules``, with
    a chain through some of them so that rules follow from the others."""
    names = [f"a{i}" for i in range(rng.randint(3, 10))]
    u = pt.AttributeUniverse(tuple(names))
    rules = _rules(rng, names, rng.randint(2, 12))
    links = rng.sample(names, rng.randint(2, min(4, len(names))))
    rules += [([a], [b]) for a, b in zip(links, links[1:])]
    rules.append(([links[0]], [links[-1]]))
    rng.shuffle(rules)
    return pt.ImplicationSet(u, _implications(u, rules))


def test_prune_and_properly_entails_at_one_match_lp(monkeypatch):
    """Neither enumerates a signature table."""
    rng = random.Random(1984)
    calls = _count_enumerations(monkeypatch)
    dropped = minimal = 0
    for _ in range(200):
        rules = _rule_set(rng)
        query = pt.EntailmentQuery(rules.subset(range(1, len(rules))), rules[0], 1)
        pruned = pt.prune(rules, 1)
        proper = pt.properly_entails(query)
        assert calls == []
        assert pruned == prune_reference(rules, 1, pt.Method.LP)
        assert proper == properly_entails_reference(query, pt.Method.LP)
        calls.clear()
        dropped += len(pruned) < len(rules)
        minimal += proper.holds and not proper.proper
    assert min(dropped, minimal) >= 50, (dropped, minimal)


def test_a_thirty_attribute_chain_decides_at_once(monkeypatch):
    """Past the enumeration cap, in either rule order: forward chaining
    from ``x0`` reaches ``x29``, and from ``x1`` it never reaches ``x0``."""
    calls = _count_enumerations(monkeypatch)
    text = [f"x{i} -> x{i + 1}" for i in range(29)]
    for lines in (text, text[::-1]):
        rules = pt.parse_rules("\n".join(lines))
        u = rules.universe
        for lhs, rhs, holds in (("x0", "x29", True), ("x1", "x0 x29", False)):
            query = pt.EntailmentQuery(
                rules, pt.PartialImplication(u.attrs(lhs), u.attrs(*rhs.split())), 1
            )
            start = time.perf_counter()
            verdict = pt.decide(query)
            assert time.perf_counter() - start < 0.010
            assert verdict.holds is holds and verdict.regime is pt.Regime.HORN_CLOSURE
            if holds:
                assert verdict.certificate == (F(1),) * 29
            else:
                assert dict(verdict.counterexample.items()) == {
                    u.attrs(*[f"x{i}" for i in range(1, 30)]): 1
                }
    assert calls == []
