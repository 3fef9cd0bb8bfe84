"""The premise-subset scan behind the structural deciders.

Every structural decider reads the premise subsets that carry the
conclusion from one scan, ``entailment._carrying_subsets``.  These tests pin
it against a reference that tries every nonempty subset with ``AttrSet``
operations and brute-force homogeneity, pin the outputs of every decision
entry point to a digest, and bound the scan's work at large premise counts.
"""

import hashlib
import json
import random
import time
from fractions import Fraction as F

import pientail as pt
from conftest import make_query, nonempty_subsets
from pientail.entailment import _carrying_subsets

METHODS = (pt.Method.AUTO, pt.Method.LP, pt.Method.CHARACTERIZATION)
DIRECT = (
    pt.decide_one_premise,
    pt.decide_low_gamma,
    pt.decide_two_premise,
    pt.decide_high_gamma,
    pt.decide_general,
)


def _subset(rng, names, density):
    return [a for a in names if rng.random() < density]


def _random_query(rng, k, gamma=F(1, 2)):
    """k premises over 2 to 7 attributes, with empty sides and some
    duplicated rules; half of the conclusions are built from the premises
    so that subsets carry them."""
    names = [f"a{i}" for i in range(rng.randint(2, 7))]
    u = pt.AttributeUniverse(tuple(names))
    rules = []
    for _ in range(k):
        if rules and rng.random() < 0.15:
            rules.append(rng.choice(rules))
        else:
            rules.append((_subset(rng, names, 0.25), _subset(rng, names, 0.35)))
    if rules and rng.random() < 0.5:
        picked = rng.sample(rules, rng.randint(1, len(rules)))
        lhs = sorted({a for r in picked for a in r[0]} | set(_subset(rng, names, 0.15)))
        rhs = sorted(set.intersection(*[set(r[1]) for r in picked]) - set(lhs))
        if not rhs:  # keep most conclusions nontrivial
            rhs = _subset(rng, [a for a in names if a not in lhs], 0.5)
    else:
        lhs, rhs = _subset(rng, names, 0.3), _subset(rng, names, 0.3)
    premises = pt.ImplicationSet(
        u, tuple(pt.PartialImplication(u.attrs(*a), u.attrs(*c)) for a, c in rules)
    )
    return pt.EntailmentQuery(
        premises, pt.PartialImplication(u.attrs(*lhs), u.attrs(*rhs)), gamma
    )


def _gammas(rng, k):
    """0, 1, one interior value, and for k >= 1 the regime edges ``1/k``
    and ``(k-1)/k`` and 1/1000 below each, where they lie in [0, 1]."""
    values = {F(0), F(1), F(rng.randint(1, 19), 20)}
    if k:
        for edge in (F(1, k), F(k - 1, k)):
            values |= {edge, edge - F(1, 1000)}
    return sorted(g for g in values if 0 <= g <= 1)


def _verdict_key(verdict):
    certificate = (
        None if verdict.certificate is None else [str(m) for m in verdict.certificate]
    )
    counterexample = (
        None
        if verdict.counterexample is None
        else sorted((t.bits, m) for t, m in verdict.counterexample.items())
    )
    return (verdict.holds, verdict.regime.value, certificate, counterexample)


def _outcome(call):
    try:
        return call()
    except ValueError:
        return "ValueError"


def _rule_bits(rules):
    return [(r.antecedent.bits, r.consequent.bits) for r in rules]


def _proper_key(result):
    return (result.holds, result.proper, result.minimal_premises)


def _outputs():
    """Every decision entry point on 63 seeded queries, k 0-8."""
    rng = random.Random(6061)
    for n in range(63):
        k = n % 9
        base = _random_query(rng, k)
        for gamma in _gammas(rng, k):
            query = pt.EntailmentQuery(base.premises, base.conclusion, gamma)
            for method in METHODS:
                yield _outcome(lambda: _verdict_key(pt.decide(query, method)))
            for decider in DIRECT:
                yield _outcome(lambda: _verdict_key(decider(query)))
        rules = pt.ImplicationSet(
            base.universe, (*base.premises, base.conclusion)
        )
        gamma = F(rng.randint(1, 19), 20)
        query = pt.EntailmentQuery(base.premises, base.conclusion, gamma)
        for method in METHODS:
            yield _outcome(lambda: _rule_bits(pt.prune(rules, gamma, method)))
            yield _outcome(lambda: _proper_key(pt.properly_entails(query, method)))


# The digest of ``_outputs`` as computed by the code before the deciders
# shared one subset scan.
PINNED_DIGEST = "c89e03512cbe47a2283ac0e7adba614ef96aefea787c72ee1c914720e36d40b6"


def test_outputs_are_byte_identical():
    h = hashlib.sha256()
    count = 0
    for output in _outputs():
        h.update(repr(output).encode() + b"\n")
        count += 1
    assert count >= 3000
    assert h.hexdigest() == PINNED_DIGEST, (count, h.hexdigest())


def _reference_carrying(query):
    """Every nonempty premise subset, in increasing bitmask order, that
    meets the combination conditions, tested with ``AttrSet`` operations
    and brute-force homogeneity."""
    x0, y0 = query.conclusion.antecedent, query.conclusion.consequent
    out = []
    for indices in nonempty_subsets(query.k):
        antecedents = spans = query.universe.empty()
        common = query.universe.full()
        for i in indices:
            antecedents |= query.premises[i].antecedent
            spans |= query.premises[i].span
            common &= query.premises[i].consequent
        if (
            antecedents <= x0
            and x0 <= spans
            and y0 <= x0 | common
            and pt.brute_force_homogeneity(query.premises.subset(indices))
        ):
            out.append(indices)
    return out


def test_scan_matches_the_reference():
    rng = random.Random(2010)
    shapes = {"several": 0, "carried": 0, "duplicate": 0, "empty side": 0}
    for n in range(360):
        query = _random_query(rng, n % 9)
        want = _reference_carrying(query)
        assert list(_carrying_subsets(query)) == want, query
        for size in (1, 2):
            assert list(_carrying_subsets(query, max_size=size)) == [
                s for s in want if len(s) <= size
            ], (query, size)
        rules = list(query.premises)
        shapes["several"] += any(len(s) > 1 for s in want)
        shapes["carried"] += bool(want)
        shapes["duplicate"] += len(set(rules)) < len(rules)
        shapes["empty side"] += any(
            not r.antecedent or not r.consequent for r in rules
        )
    assert min(shapes.values()) >= 30, shapes

    # At k = 2 the two-premise decider is the high-gamma one, label aside.
    held = 0
    for _ in range(150):
        gamma = F(1, 2) + F(rng.randrange(50), 100)
        query = _random_query(rng, 2, gamma)
        two = _verdict_key(pt.decide_two_premise(query))
        high = _verdict_key(pt.decide_high_gamma(query))
        assert two[:1] + two[2:] == high[:1] + high[2:], query
        if two[1] != "tautology":
            assert (two[1], high[1]) == ("two-premise", "high-gamma")
        held += two[0]
    assert 20 <= held <= 130


# A cycle whose critical threshold is about 0.56984, among 21 rules whose
# antecedents reach outside the conclusion antecedent: 24 premises, of
# which only the cycle's three can belong to a carrying subset.
CYCLE = ["B -> A C H", "C -> A D", "D -> A B"]
FILLERS = [
    f"{a} -> {c}"
    for a in ("E", "F", "E F")
    for c in ("A", "B", "C", "D", "H", "A B", "C D")
]
WIDE_RULES = FILLERS[:7] + CYCLE[:1] + FILLERS[7:15] + CYCLE[1:2] + FILLERS[15:] + CYCLE[2:]
WIDE_CONCLUSION = "B C D H -> A"
SCAN_BUDGET_S = 10.0  # about 0.05 s on a 2-core machine; 2**24 subsets take minutes


def test_characterization_scans_only_the_eligible_premises():
    cycle_at = [WIDE_RULES.index(rule) for rule in CYCLE]
    start = time.perf_counter()
    for gamma, holds in ((F(57, 100), True), (F(1, 2), False)):
        query = make_query("\n".join(WIDE_RULES), WIDE_CONCLUSION, gamma)
        assert query.k == 24
        verdict = pt.decide(query, pt.Method.CHARACTERIZATION)
        assert verdict.regime is pt.Regime.GENERAL_GAMMA_STAR
        assert verdict.holds is holds
        if holds:
            assert pt.check_certificate(query, verdict.certificate)
            support = [i for i, m in enumerate(verdict.certificate) if m]
            assert support == cycle_at
        else:
            data = verdict.counterexample
            assert all(pt.satisfies(data, p, gamma) for p in query.premises)
            assert not pt.satisfies(data, query.conclusion, gamma)
        auto = pt.decide(query)
        assert (auto.regime, auto.holds) == (pt.Regime.LP_DIRECT, holds)
    assert time.perf_counter() - start < SCAN_BUDGET_S


def test_cli_characterization_scans_only_the_eligible_premises(tmp_path, capsys):
    path = tmp_path / "wide.rules"
    path.write_text("\n".join(WIDE_RULES) + "\n")
    start = time.perf_counter()
    code = pt.run(
        ["entail", "--gamma", "57/100", "--premises", str(path),
         "--conclusion", WIDE_CONCLUSION, "--method", "charact", "--json"]
    )
    assert time.perf_counter() - start < SCAN_BUDGET_S
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["regime"] == "general-gamma-star"


def test_single_premise_scan_is_linear_in_the_eligible_premises():
    """30 eligible premises, none of whose spans covers the conclusion
    antecedent: the single-premise scan tries each once instead of walking
    the 2**30 subsets."""
    query = make_query("A -> C\n" * 30, "A B -> C", F(1, 100))
    start = time.perf_counter()
    assert list(_carrying_subsets(query, max_size=1)) == []
    assert list(_carrying_subsets(query, max_size=2)) == []
    verdict = pt.decide_low_gamma(query)
    assert (verdict.holds, verdict.regime) == (False, pt.Regime.LOW_GAMMA)
    assert time.perf_counter() - start < SCAN_BUDGET_S


def test_scan_ends_when_no_subset_can_cover_the_antecedent():
    """24 copies of ``A -> C`` against ``A B -> C`` at ``(k-1)/k``: every
    premise is eligible and no span covers ``B``, so no subset can carry the
    conclusion.  The scan must see that from the union of all spans instead
    of walking the ``2**24`` submasks, and AUTO must give the LP verdict."""
    k = 24
    query = make_query("A -> C\n" * k, "A B -> C", F(k - 1, k))
    start = time.perf_counter()
    assert list(_carrying_subsets(query)) == []
    auto = pt.decide(query)
    assert time.perf_counter() - start < 2.0
    lp = pt.decide(query, pt.Method.LP)
    assert auto.regime is pt.Regime.HIGH_GAMMA and not auto.holds
    assert (auto.holds, auto.counterexample) == (lp.holds, lp.counterexample)
