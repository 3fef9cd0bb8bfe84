"""The premise-subset search behind the structural routes of ``decide``.

Every structural route reads the first premise subset that carries the
conclusion, and that its test accepts, from one search,
``entailment._first_carrying``.  These tests pin it against the walk over
all candidate subsets (``conftest.carrying_walk``), which is itself pinned
against a reference that tries every nonempty subset with ``AttrSet``
operations and brute-force homogeneity.  They also pin the outputs of
``decide`` under each method, ``decide_general``, ``prune`` and
``properly_entails`` to a digest, and bound the search's work at large
premise counts.
"""

import hashlib
import json
import random
import time
from fractions import Fraction as F

import oracle
import pientail as pt
from conftest import carrying_walk, make_query, nonempty_subsets
from test_differential import _check_witness
from pientail.entailment import _first_carrying

METHODS = (pt.Method.AUTO, pt.Method.LP)
DIRECT = (pt.decide_general,)


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


def _cases():
    """63 seeded queries, k 0-8, each with the thresholds of ``_gammas``
    and one threshold for ``prune`` and ``properly_entails``."""
    rng = random.Random(6061)
    for n in range(63):
        k = n % 9
        base = _random_query(rng, k)
        yield base, _gammas(rng, k), F(rng.randint(1, 19), 20)


def _outputs():
    """Every decision entry point on the queries of ``_cases``, but for
    ``Method.AUTO`` at ``gamma = 1``: ``test_auto_at_one_agrees_with_lp``
    checks those."""
    for base, gammas, gamma in _cases():
        for g in gammas:
            query = pt.EntailmentQuery(base.premises, base.conclusion, g)
            for method in METHODS:
                if method is not pt.Method.AUTO or g != 1:
                    yield _outcome(lambda: _verdict_key(pt.decide(query, method)))
            for decider in DIRECT:
                yield _outcome(lambda: _verdict_key(decider(query)))
        rules = pt.ImplicationSet(
            base.universe, (*base.premises, base.conclusion)
        )
        query = pt.EntailmentQuery(base.premises, base.conclusion, gamma)
        yield _outcome(lambda: _rule_bits(pt.prune(rules, gamma)))
        yield _outcome(lambda: _proper_key(pt.properly_entails(query)))


# The digest of ``_outputs`` as computed by the code before ``prune`` and
# ``properly_entails`` lost their ``method`` parameter; their calls under
# ``Method.LP`` are left out.
PINNED_DIGEST = "6fd74608e2d2346469db82abf3e6eac146cc5bdbdcff23ced07eb154262db3bd"


def test_outputs_are_byte_identical():
    h = hashlib.sha256()
    count = 0
    for output in _outputs():
        h.update(repr(output).encode() + b"\n")
        count += 1
    assert count == 1197
    assert h.hexdigest() == PINNED_DIGEST, (count, h.hexdigest())


def test_auto_at_one_agrees_with_lp():
    """The outputs ``_outputs`` leaves out: at ``gamma = 1``,
    ``Method.AUTO`` gives the verdict of ``Method.LP``, with a witness
    that checks."""
    for base, _, _ in _cases():
        query = pt.EntailmentQuery(base.premises, base.conclusion, 1)
        verdict = pt.decide(query)
        assert verdict.holds == pt.decide(query, pt.Method.LP).holds, query
        _check_witness(query, verdict)


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
            and oracle.brute_force_homogeneity(query.premises.subset(indices))
        ):
            out.append(indices)
    return out


def _accept_all(indices):
    return True


def _cone_probe(query):
    """The test of ``decide_general``: is the critical threshold of the
    subset at most ``gamma``?  Posed through the public ``feasible_at``."""
    x0 = query.conclusion.antecedent

    def feasible(indices):
        subset = query.premises.subset(indices)
        return pt.feasible_at(query.gamma, subset, x0) is not None

    return feasible


def _support(verdict):
    return tuple(i for i, m in enumerate(verdict.certificate) if m)


def test_scan_matches_the_reference():
    """The walk against the brute-force reference, and the search's first
    subset against the walk's: with every subset accepted, with the cone
    probe, and with single premises only (the low-gamma route of
    ``decide``)."""
    rng = random.Random(2010)
    shapes = {"several": 0, "carried": 0, "duplicate": 0, "empty side": 0}
    for n in range(360):
        query = _random_query(rng, n % 9)
        want = _reference_carrying(query)
        assert list(carrying_walk(query)) == want, query
        assert _first_carrying(query, _accept_all) == next(iter(want), None), query
        feasible = _cone_probe(query)
        probed = next((s for s in want if feasible(s)), None)
        assert _first_carrying(query, feasible) == probed, query
        conclusion = query.conclusion
        if query.k and not conclusion.consequent <= conclusion.antecedent:
            low = pt.decide(
                pt.EntailmentQuery(query.premises, conclusion, F(1, 10 * query.k))
            )
            single = next((s for s in want if len(s) == 1), None)
            assert (_support(low) if low.holds else None) == single, query
        rules = list(query.premises)
        shapes["several"] += any(len(s) > 1 for s in want)
        shapes["carried"] += bool(want)
        shapes["duplicate"] += len(set(rules)) < len(rules)
        shapes["empty side"] += any(
            not r.antecedent or not r.consequent for r in rules
        )
    assert min(shapes.values()) >= 30, shapes

    # At k = 2 from 1/2 on, ``decide`` takes the high-gamma route.
    held = 0
    for _ in range(150):
        gamma = F(1, 2) + F(rng.randrange(50), 100)
        query = _random_query(rng, 2, gamma)
        verdict = pt.decide(query)
        assert verdict.holds == pt.decide(query, pt.Method.LP).holds, query
        _check_witness(query, verdict)
        if verdict.regime is not pt.Regime.TAUTOLOGY:
            assert verdict.regime is pt.Regime.HIGH_GAMMA, query
        held += verdict.holds
    assert 20 <= held <= 130


def _chain_cycle_query(rng):
    """2 to 20 premises ``x -> A y`` over 3 to 6 attributes ``x0 ...``:
    the rules of cycles through a random sequence of them (homogeneous
    sets), of chains (not homogeneous) and repeats, shuffled.  Most
    conclusions put the attributes of one or two of the cycles on the
    left and ``A`` on the right, so that cycles carry them."""
    names = [f"x{i}" for i in range(rng.randint(3, 6))]
    k = rng.randint(2, 20)
    rules, cycles = [], []
    while len(rules) < k:
        roll = rng.random()
        seq = rng.sample(names, rng.randint(2, len(names)))
        if roll < 0.55:
            cycles.append(seq)
            rules += [f"{a} -> A {b}" for a, b in zip(seq, seq[1:] + seq[:1])]
        elif roll < 0.8:
            rules += [f"{a} -> A {b}" for a, b in zip(seq, seq[1:])]
        elif rules:
            rules.append(rng.choice(rules))
    rules = rules[:k]
    rng.shuffle(rules)
    if cycles and rng.random() < 0.8:
        x0 = set(rng.choice(cycles))
        if rng.random() < 0.3:
            x0 |= set(rng.choice(cycles))
    else:
        x0 = set(rng.sample(names, rng.randint(1, len(names))))
    return make_query("\n".join(rules), " ".join(sorted(x0)) + " -> A", F(1, 2))


def test_search_matches_the_walk_on_chains_and_cycles():
    """A seeded differential where many first subsets have several
    premises: 40 chain and cycle queries, k up to 20, at thresholds on and
    just below ``1/k`` and ``(k-1)/k`` and between them.  ``decide``
    reaches the ``Method.LP`` verdict, and every witness checks out.  Where the walk is affordable, the search's first subset
    is the walk's: with every subset accepted at most 12 eligible premises,
    and with the cone probe, between the edges, at most 8."""
    rng = random.Random(2121)
    walked = several = probed = 0
    for _ in range(40):
        base = _chain_cycle_query(rng)
        k, x0, y0 = base.k, base.conclusion.antecedent, base.conclusion.consequent
        eligible = [
            p for p in base.premises if p.antecedent <= x0 and y0 - x0 <= p.consequent
        ]
        walk = list(carrying_walk(base)) if len(eligible) <= 12 else None
        first = _first_carrying(base, _accept_all)
        if walk is not None:
            assert first == next(iter(walk), None), base
            walked += 1
        several += first is not None and len(first) > 1
        low, high = F(1, k), F(k - 1, k)
        edges = {low - F(1, 1000), low, (low + high) / 2, high - F(1, 1000), high}
        for gamma in sorted(g for g in edges if 0 < g < 1):
            query = pt.EntailmentQuery(base.premises, base.conclusion, gamma)
            want = pt.decide(query, pt.Method.LP)
            _check_witness(query, want)
            got = pt.decide(query)
            assert got.holds == want.holds, query
            _check_witness(query, got)
            if len(eligible) <= 8 and low <= gamma < high:
                feasible = _cone_probe(query)
                hit = next((s for s in walk if feasible(s)), None)
                assert _first_carrying(query, feasible) == hit, query
                probed += hit is not None and len(hit) > 1
    assert walked >= 25 and several >= 15 and probed >= 10, (walked, several, probed)


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


def test_characterization_scans_only_the_eligible_premises(monkeypatch):
    """Only the cycle carries the conclusion, so the search makes one cone
    probe, of the cycle, as the walk did, and reuses it for the ray."""
    from pientail import threshold

    probed = []
    real = threshold._feasible
    monkeypatch.setattr(
        threshold, "_feasible", lambda rows, k, g: probed.append(k) or real(rows, k, g)
    )
    cycle_at = [WIDE_RULES.index(rule) for rule in CYCLE]
    start = time.perf_counter()
    for gamma, holds in ((F(57, 100), True), (F(1, 2), False)):
        query = make_query("\n".join(WIDE_RULES), WIDE_CONCLUSION, gamma)
        assert query.k == 24
        probed.clear()
        verdict = pt.decide(query)
        assert probed == [3]
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
    assert time.perf_counter() - start < SCAN_BUDGET_S


def test_cli_characterization_scans_only_the_eligible_premises(tmp_path, capsys):
    path = tmp_path / "wide.rules"
    path.write_text("\n".join(WIDE_RULES) + "\n")
    start = time.perf_counter()
    code = pt.run(
        ["entail", "--gamma", "57/100", "--premises", str(path),
         "--conclusion", WIDE_CONCLUSION, "--json"]
    )
    assert time.perf_counter() - start < SCAN_BUDGET_S
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["regime"] == "general-gamma-star"


def test_single_premise_scan_is_linear_in_the_eligible_premises():
    """30 eligible premises against ``A B -> C``, and the search peels once
    per premise instead of walking the 2**30 subsets: with no span covering
    ``B`` nothing carries, and with the last premise ``A -> B C`` that
    premise alone carries, as the low-gamma route finds."""
    start = time.perf_counter()
    query = make_query("A -> C\n" * 30, "A B -> C", F(1, 100))
    assert _first_carrying(query, _accept_all) is None
    verdict = pt.decide(query)
    assert (verdict.holds, verdict.regime) == (False, pt.Regime.LOW_GAMMA)
    query = make_query("A -> C\n" * 29 + "A -> B C", "A B -> C", F(1, 100))
    verdict = pt.decide(query)
    assert (verdict.holds, verdict.regime) == (True, pt.Regime.LOW_GAMMA)
    assert _support(verdict) == (29,)
    assert time.perf_counter() - start < SCAN_BUDGET_S


def test_scan_ends_when_no_subset_can_cover_the_antecedent():
    """Against ``A B -> C`` at ``(k-1)/k``, with every premise eligible and
    no subset carrying: 24 copies of ``A -> C``, whose spans miss ``B``,
    and 20 copies each of ``A -> C`` and ``B -> C``, where every subset
    that covers ``A B`` mixes the two rules and fails homogeneity.  A walk
    over the ``2**k`` submasks took 6.8 s on the second family at k = 18;
    the search must settle both at once and give the LP verdict."""
    for rules in ("A -> C\n" * 24, "A -> C\nB -> C\n" * 20):
        k = rules.count("\n")
        query = make_query(rules, "A B -> C", F(k - 1, k))
        lp = pt.decide(query, pt.Method.LP)
        start = time.perf_counter()
        assert _first_carrying(query, _accept_all) is None
        verdict = pt.decide(query)
        assert time.perf_counter() - start < 2.0, k
        assert verdict.regime is pt.Regime.HIGH_GAMMA and not verdict.holds
        assert verdict.counterexample == lp.counterexample
        _check_witness(query, verdict)
