"""Signature tables: the frontier enumeration against an exhaustive walk
over every transaction type, one table per ``decide_general`` query and at
most one per ``prune`` or ``properly_entails`` call, and none for the
decides of ``prune`` and ``properly_entails`` that need no rows."""

import random
import time
from fractions import Fraction as F

import pytest

import oracle
import pientail as pt
from conftest import (
    make_query,
    nonempty_subsets,
    properly_entails_reference,
    prune_reference,
)
from pientail import entailment, lp, threshold
from pientail.entailment import signature_rows
from pientail.model import bit_positions

CORPUS_BUDGET_S = 10.0  # about 3 s on a 2-core machine, nearly all reference


def reference_rows(implications):
    """Every subset of the occurring attributes in increasing bitmask order,
    keeping each cover pattern's first transaction: ``(codes, witness)``
    with code 0 not covered, 1 violated, 2 witnessed."""
    occ = 0
    for imp in implications:
        occ |= imp.span.bits
    positions = bit_positions(occ)
    place = {p: i for i, p in enumerate(positions)}

    def compress(bits):
        return sum(1 << place[p] for p in bit_positions(bits))

    def expand(small):
        return sum(1 << positions[i] for i in bit_positions(small))

    pairs = [
        (compress(imp.antecedent.bits), compress(imp.span.bits))
        for imp in implications
    ]
    seen = {}
    order = []
    for z in range(1 << len(positions)):
        code = []
        for x, xy in pairs:
            if z & x != x:
                code.append(0)
            elif z & xy == xy:
                code.append(2)
            else:
                code.append(1)
        key = tuple(code)
        if key not in seen:
            seen[key] = z
            order.append(key)
    return [(key, expand(seen[key])) for key in order]


def _instance(rng, width):
    """1 to 9 rules whose spans mention exactly ``width`` of ``width + 2``
    attributes; sides may be empty and rules may repeat."""
    names = [f"a{i}" for i in range(width + 2)]
    u = pt.AttributeUniverse(tuple(names))
    pool = rng.sample(names, width)
    rules = []
    for _ in range(rng.randint(1, 9)):
        if rules and rng.random() < 0.2:
            rules.append(rng.choice(rules))
            continue
        ante_density = rng.choice([0.0, 0.1, 0.2, 0.35])
        cons_density = rng.choice([0.0, 0.15, 0.3])
        rules.append((
            [a for a in pool if rng.random() < ante_density],
            [a for a in pool if rng.random() < cons_density],
        ))
    missing = [a for a in pool if not any(a in r[0] or a in r[1] for r in rules)]
    if missing:
        rules[-1] = (rules[-1][0], rules[-1][1] + missing)
    implications = [
        pt.PartialImplication(u.attrs(*a), u.attrs(*c)) for a, c in rules
    ]
    return u, implications


def test_frontier_matches_exhaustive_walk():
    rng = random.Random(19861107)
    widths = [i % 15 for i in range(394)] + [15, 16, 17, 18, 19, 20]
    start = time.perf_counter()
    seen_widths = set()
    shapes = {"empty side": 0, "duplicate": 0}
    for width in widths:
        u, implications = _instance(rng, width)
        rows = signature_rows(implications, u)
        got = [(tuple(s.value for s in row.statuses), row.bits) for row in rows]
        assert got == reference_rows(implications), implications
        occ = 0
        for imp in implications:
            occ |= imp.span.bits
        seen_widths.add(occ.bit_count())
        shapes["empty side"] += any(
            not imp.antecedent.bits or not imp.consequent.bits for imp in implications
        )
        shapes["duplicate"] += len(set(implications)) < len(implications)
    assert seen_widths == set(range(21))
    assert min(shapes.values()) >= 50
    assert time.perf_counter() - start < CORPUS_BUDGET_S


def _many_rules(rng, count):
    """``count`` rules over at most 10 of 12 attributes; sides may be empty
    and rules may repeat.  Sides are unions of groups of 1 to 3 attributes
    at random positions, so that classes of several attributes whose bit
    ranges interleave arise at any rule count."""
    names = [f"a{i}" for i in range(12)]
    u = pt.AttributeUniverse(tuple(names))
    pool = rng.sample(names, rng.randint(0, 10))
    groups = []
    while pool:
        cut = rng.randint(1, 3)
        groups.append(pool[:cut])
        pool = pool[cut:]

    def side(density):
        return u.attrs(*[a for g in groups if rng.random() < density for a in g])

    rules = []
    for _ in range(count):
        if rules and rng.random() < 0.2:
            rules.append(rng.choice(rules))
        else:
            ante_density = rng.choice([0.0, 0.1, 0.2])
            rules.append(pt.PartialImplication(
                side(ante_density), side(rng.choice([0.0, 0.15, 0.3]))
            ))
    return u, rules


def _interleaved(implications):
    """Whether two attribute classes (attributes in exactly the same
    antecedents and spans) have interleaving bit ranges, so that their
    lowest bits and their top bits order them differently."""
    occ = 0
    for imp in implications:
        occ |= imp.span.bits
    classes = {}
    for p in bit_positions(occ):
        key = tuple((imp.antecedent.bits >> p & 1, imp.span.bits >> p & 1)
                    for imp in implications)
        classes.setdefault(key, []).append(p)
    ranges = [(ps[0], ps[-1]) for ps in classes.values()]
    return any(lo < top2 and lo2 < top for lo, top in ranges for lo2, top2 in ranges
               if (lo, top) != (lo2, top2))


def test_frontier_matches_exhaustive_walk_at_every_rule_count():
    """0 to 21 rules, so that the status codes of up to six bytes of a
    frontier state are decoded, each table against the walk."""
    rng = random.Random(20260531)
    start = time.perf_counter()
    shapes = {"empty side": 0, "duplicate": 0, "interleaved": 0}
    for count in range(22):
        for _ in range(12):
            u, implications = _many_rules(rng, count)
            rows = signature_rows(implications, u)
            assert [(row.codes, row.bits) for row in rows] == reference_rows(
                implications
            ), implications
            shapes["empty side"] += any(
                not imp.antecedent.bits or not imp.consequent.bits
                for imp in implications
            )
            shapes["duplicate"] += len(set(implications)) < len(implications)
            shapes["interleaved"] += _interleaved(implications)
    assert min(shapes.values()) >= 80, shapes
    assert time.perf_counter() - start < CORPUS_BUDGET_S


def test_frontier_without_rules_or_attributes():
    u = pt.AttributeUniverse(("A", "B"))
    assert [(r.statuses, r.bits) for r in signature_rows([], u)] == [((), 0)]
    empty_rule = pt.PartialImplication(u.empty(), u.empty())
    rows = signature_rows([empty_rule, empty_rule], u)
    assert [r.statuses for r in rows] == [(pt.CoverStatus.WITNESSED,) * 2]


def test_signature_row_reads_its_fields_and_leaves_the_universe_out_of_repr():
    u = pt.AttributeUniverse(("A", "B"))
    rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
    rows = signature_rows([rule, rule], u)
    assert [repr(row) for row in rows] == [
        "SignatureRow(codes=(0, 0), bits=0)",
        "SignatureRow(codes=(1, 1), bits=1)",
        "SignatureRow(codes=(2, 2), bits=3)",
    ]
    violator, witness = rows[1], rows[2]
    assert witness.bits == u.attrs("A", "B").bits
    assert witness.statuses == (pt.CoverStatus.WITNESSED,) * 2
    assert violator.signature() == entailment.ConstraintSignature(
        witnessed=frozenset(), violated=frozenset({0, 1})
    )
    assert witness == entailment.SignatureRow((2, 2), 3)
    assert entailment.SignatureRow._fields == ("codes", "bits")


def _count_enumerations(monkeypatch):
    calls = []
    original = entailment.signature_rows

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # ``threshold`` imports the name too; both bindings are watched.
    monkeypatch.setattr(entailment, "signature_rows", counting)
    monkeypatch.setattr(threshold, "signature_rows", counting)
    return calls


def test_decide_general_enumerates_once(monkeypatch, cycle_query):
    calls = _count_enumerations(monkeypatch)
    held = pt.decide_general(cycle_query)  # 57/100, above the critical value
    assert held.holds and held.regime is pt.Regime.GENERAL_GAMMA_STAR
    assert len(calls) == 1
    calls.clear()
    below = pt.EntailmentQuery(cycle_query.premises, cycle_query.conclusion, F(1, 2))
    failed = pt.decide_general(below)
    assert not failed.holds and failed.regime is pt.Regime.GENERAL_GAMMA_STAR
    assert failed.counterexample is not None
    assert len(calls) == 1


def test_projected_ratio_rows_match_a_table_per_subset(cycle_query):
    """Each premise subset's ratio rows, projected from the query's table,
    are the rows of a table built for the subset alone, in the same order."""
    rng = random.Random(7141)
    queries = [cycle_query] + [
        oracle.random_query(
            oracle.RandomInstanceSpec(rng.randint(1, 10), rng.randint(1, 4), rng.randrange(10**9)),
            F(1, 2),
        )
        for _ in range(60)
    ]
    for query in queries:
        rows = entailment._query_rows(query)
        x0 = query.conclusion.antecedent
        for indices in nonempty_subsets(query.k):
            sub = query.premises.subset(indices)
            projected = threshold._project_ratio_rows(rows, indices)
            assert projected == threshold._ratio_rows(sub, x0), (query, indices)


def test_sliced_ratio_rows_match_the_projection():
    """``_ratio_rows`` drops column 0 of the table of ``X0 -> {}`` and the
    premises by slicing; on 300 seeded premise sets (sides may be empty,
    rules may repeat, ``X0`` may be empty) its rows, order and witnesses
    are those ``_project_ratio_rows`` projects from that table."""
    rng = random.Random(2603)
    shapes = {"empty side": 0, "duplicate": 0, "empty X0": 0}
    for width in [i % 9 for i in range(300)]:
        u, implications = _instance(rng, width)
        premises = pt.ImplicationSet(u, tuple(implications))
        x0 = u.attrs(*[a for a in u.names if rng.random() < 0.3])
        table = signature_rows([pt.PartialImplication(x0, u.empty()), *premises], u)
        projected = threshold._project_ratio_rows(table, range(len(premises)))
        assert threshold._ratio_rows(premises, x0) == projected, (implications, x0)
        shapes["empty side"] += any(
            not imp.antecedent.bits or not imp.consequent.bits for imp in implications
        )
        shapes["duplicate"] += len(set(implications)) < len(implications)
        shapes["empty X0"] += not x0.bits
    assert min(shapes.values()) >= 20, shapes


def test_projected_table_matches_a_table_for_the_chosen_rules():
    """``_project_rows`` onto any list of columns, repeats and reorders
    allowed, gives the rows, order and witnesses of a table enumerated
    for the rules at those columns alone."""
    rng = random.Random(4471)
    for width in [i % 13 for i in range(150)]:
        u, implications = _instance(rng, width)
        rows = signature_rows(implications, u)
        columns = [rng.randrange(len(implications)) for _ in range(rng.randint(1, 6))]
        chosen = [implications[c] for c in columns]
        projected = entailment._project_rows(rows, columns)
        assert projected == signature_rows(chosen, u), (implications, columns)


def test_prune_enumerates_one_table(monkeypatch):
    """The first decide of a 5-rule prune at 3/5 probes a carrying subset,
    so it enumerates rows over its 5 rules, and every later decide that
    needs rows projects that table.  The prune keeps what the LP route
    keeps."""
    rules = pt.parse_rules("A -> B C\nA -> B D\nA C D -> B\nB -> E\nC E -> D")
    reference = prune_reference(rules, F(3, 5), pt.Method.LP)
    calls = _count_enumerations(monkeypatch)
    assert pt.prune(rules, F(3, 5)) == reference
    assert len(calls) == 1
    assert len(calls[0][0]) == 5  # the first query's conclusion and 4 premises


def test_prune_matches_a_decide_per_query():
    """On seeded rule sets, ``prune`` keeps what a loop of independent
    decides keeps, under every method."""
    rng = random.Random(2718)
    dropped = 0
    for _ in range(110):
        names = [f"a{i}" for i in range(rng.randint(2, 8))]
        u = pt.AttributeUniverse(tuple(names))
        rules = []
        for _ in range(rng.randint(2, 6)):
            if rules and rng.random() < 0.15:
                rules.append(rng.choice(rules))
                continue
            rules.append(pt.PartialImplication(
                u.attrs(*[a for a in names if rng.random() < 0.25]),
                u.attrs(*[a for a in names if rng.random() < 0.35]),
            ))
        rule_set = pt.ImplicationSet(u, tuple(rules))
        k = len(rules) - 1
        gamma = rng.choice([F(1, 2), F(3, 5), F(k - 1, k) if k > 1 else F(2, 3), F(rng.randint(1, 19), 20)])
        kept = pt.prune(rule_set, gamma)
        for method in pt.Method:
            assert kept == prune_reference(rule_set, gamma, method), (
                rule_set, gamma, method
            )
        dropped += len(rules) - len(kept)
    assert dropped >= 50


def _wide_rule_set(first_trivial):
    """22 attributes; rule 0 mentions 21 of them, so with it the rules
    pass the enumeration cap of 20, and without it they mention 4."""
    names = tuple(f"a{i}" for i in range(22))
    u = pt.AttributeUniverse(names)
    wide = u.attrs(*names[:21])
    first = pt.PartialImplication(wide, u.attrs("a0" if first_trivial else "a21"))
    others = [
        pt.PartialImplication(u.attrs("a0"), u.attrs("a1", "a2")),
        pt.PartialImplication(u.attrs("a1"), u.attrs("a2")),
        pt.PartialImplication(u.attrs("a0"), u.attrs("a1", "a3")),
        pt.PartialImplication(u.attrs("a0"), u.attrs("a1")),
    ]
    return pt.ImplicationSet(u, (first, *others))


@pytest.mark.parametrize("method", [pt.Method.AUTO])
def test_prune_enumerates_only_when_a_decide_needs_rows(method):
    """A trivial rule 0 is decided without rows, so no table includes it
    and the prune succeeds.  (The LP route enumerates for every decide,
    so there the first decide raises.)"""
    rules = _wide_rule_set(first_trivial=True)
    kept = pt.prune(rules, F(3, 5))
    assert kept == prune_reference(rules, F(3, 5), method)
    assert rules[0] not in kept.implications and len(kept) >= 2
    with pytest.raises(pt.AttributeCapError):
        prune_reference(rules, F(3, 5), pt.Method.LP)


@pytest.mark.parametrize("method", [pt.Method.AUTO])
def test_prune_raises_for_a_kept_rule_past_the_cap(method):
    """A wide rule that is kept is too wide for the first table that
    includes it, in ``prune`` and in its decides one by one."""
    rules = _wide_rule_set(first_trivial=False)
    with pytest.raises(pt.AttributeCapError):
        pt.prune(rules, F(3, 5))
    with pytest.raises(pt.AttributeCapError):
        prune_reference(rules, F(3, 5), method)


def _count_solves(monkeypatch):
    solved = []
    original = lp.solve

    def counting(program):
        solved.append(program)
        return original(program)

    monkeypatch.setattr(lp, "solve", counting)
    return solved


def _properly_corpus(rng, count):
    """Seeded queries with k from 1 to 6 at 0, 1, 1/k, (k-1)/k and two
    interior thresholds, and for k >= 3 at four general-band thresholds
    just below (k-1)/k, where a decide that holds needs rows, over random
    premises, some repeated.  In a third of them some premises entail the
    conclusion only together: a fan of ``A -> B c`` against ``A c... -> B``
    (from (j-1)/j on) or the cycle of ``cycle_query`` (from about 0.57 on).
    In another third the conclusion sits over some premises: their
    antecedents below it, their spans covering its consequent."""
    u = pt.AttributeUniverse(tuple("ABCDEFG"))

    def rule(x, y):
        return pt.PartialImplication(u.attrs(*x), u.attrs(*y))

    def attrs(p, within=u.names):
        return u.attrs(*[a for a in within if rng.random() < p])

    queries = []
    while len(queries) < count:
        k = rng.randint(1, 6)
        premises = []
        for _ in range(k):
            if premises and rng.random() < 0.15:
                premises.append(rng.choice(premises))
            else:
                premises.append(pt.PartialImplication(attrs(0.3), attrs(0.4)))
        shape = rng.randrange(3)
        if shape == 0 and k >= 3 and rng.random() < 0.5:
            premises[:3] = [rule("B", "ACE"), rule("C", "AD"), rule("D", "AB")]
            conclusion = rule("BCDE", "A")
        elif shape == 0 and k >= 2:
            cs = "CDEFG"[: rng.randint(2, min(k, 5))]
            premises[: len(cs)] = [rule("A", "B" + c) for c in cs]
            conclusion = rule("A" + cs, "B")
        elif shape == 1:
            chosen = rng.sample(premises, rng.randint(1, k))
            spans = sorted({a for p in chosen for a in p.span.names})
            x0 = u.attrs(*[a for p in chosen for a in p.antecedent.names])
            x0 = x0 | attrs(0.5, spans)
            rest = [a for a in spans if a not in x0.names] or ["G"]
            y0 = attrs(0.7, rest) | u.attrs(rng.choice(rest))
            conclusion = pt.PartialImplication(x0, y0)
        else:
            conclusion = pt.PartialImplication(attrs(0.3), attrs(0.4))
        rng.shuffle(premises)
        rules = pt.ImplicationSet(u, tuple(premises))
        interior = [F(3, 5), F(rng.randint(1, 29), 30)]
        band = [F(k - 1, k) - F(i, 8 * k) for i in range(1, 5) if k >= 3]
        for gamma in [F(0), F(1), F(1, k), F(k - 1, k), *interior, *band]:
            queries.append(pt.EntailmentQuery(rules, conclusion, gamma))
    return queries


def test_properly_entails_shares_one_table(monkeypatch):
    """On seeded queries, ``properly_entails`` gives what a loop of public
    decides gives under every method, and its decides enumerate at most
    one table per call: every trial projects the query's table."""
    queries = _properly_corpus(random.Random(1913), 600)
    calls = _count_enumerations(monkeypatch)
    shared = 0
    for query in queries:
        calls.clear()
        result = pt.properly_entails(query)
        assert len(calls) <= 1, query
        shared += bool(calls) and result.holds and query.k >= 2
        for method in pt.Method:
            assert result == properly_entails_reference(query, method), (query, method)
    assert len(queries) >= 200 and shared >= 60


@pytest.mark.parametrize(
    "text, gamma",
    [
        ("A -> B\nB -> C\nC -> D\nD -> E", F(1, 2)),  # general band, k = 3
        ("A -> B C\nA -> B D\nA C D -> B", F(1, 2)),  # high band, rule 2 held
        ("A -> B C\nA -> B D\nA C D -> B", F(1, 5)),  # low band
    ],
)
@pytest.mark.parametrize("method", [pt.Method.AUTO])
def test_prune_without_rows_solves_nothing(monkeypatch, text, gamma, method):
    """Decides that fail because no premise subset carries the rule, or
    hold through uniform multipliers, enumerate no table and solve no
    program inside ``prune``, which keeps what public decides keep."""
    rules = pt.parse_rules(text)
    reference = prune_reference(rules, gamma, method)
    calls, solved = _count_enumerations(monkeypatch), _count_solves(monkeypatch)
    assert pt.prune(rules, gamma) == reference
    assert calls == [] and solved == []


def test_properly_entails_without_rows_solves_nothing(monkeypatch, pair_query):
    """The same inside ``properly_entails``: the pair entails at 1/2 with
    uniform multipliers and neither premise alone carries the conclusion;
    below 1/2, and for the chain in the general band, nothing carries it."""
    chain = make_query("A -> B\nB -> C\nC -> D", "A -> D", F(1, 2))
    below = pt.EntailmentQuery(pair_query.premises, pair_query.conclusion, F(49, 100))
    queries = [pair_query, below, chain]
    references = [properly_entails_reference(q, pt.Method.AUTO) for q in queries]
    assert references[0] == pt.ProperEntailmentResult(True, True, (0, 1))
    calls, solved = _count_enumerations(monkeypatch), _count_solves(monkeypatch)
    assert [pt.properly_entails(q) for q in queries] == references
    assert calls == [] and solved == []


def test_public_decide_keeps_its_counterexample(pair_query, cycle_query):
    """The verdict-only context of ``prune`` and ``properly_entails`` ends
    with the call, also when the call raises: afterwards a public decide
    that fails structurally, in the low band and in the general band,
    still returns its LP counterexample."""
    failing = [
        pt.EntailmentQuery(pair_query.premises, pair_query.conclusion, F(49, 100)),
        pt.EntailmentQuery(cycle_query.premises, cycle_query.conclusion, F(1, 2)),
    ]

    def check():
        for query in failing:
            verdict = pt.decide(query)
            assert not verdict.holds and verdict.counterexample is not None

    wide = _wide_rule_set(first_trivial=False)
    pt.prune(pt.parse_rules("A -> B C\nA -> B D\nA C D -> B"), F(1, 2))
    check()
    pt.properly_entails(pair_query)
    check()
    with pytest.raises(pt.AttributeCapError):
        pt.prune(wide, F(3, 5))
    check()
    with pytest.raises(pt.AttributeCapError):
        pt.properly_entails(pt.EntailmentQuery(wide.subset(range(4)), wide[4], F(3, 5)))
    check()


@pytest.mark.parametrize("method", [pt.Method.AUTO])
def test_prune_past_the_cap_when_no_decide_needs_rows(method):
    """Over 22 attributes, a prune and a ``properly_entails`` whose decides
    all fail structurally enumerate nothing, so the cap does not stop
    them.  Outside them a failing decide enumerates for its counterexample,
    and the LP route for its first decide, and both raise."""
    rules = _wide_rule_set(first_trivial=False).subset([0, 1, 2])
    assert pt.prune(rules, F(3, 5)) == rules
    query = pt.EntailmentQuery(rules.subset([1, 2]), rules[0], F(3, 5))
    assert not pt.properly_entails(query).holds
    with pytest.raises(pt.AttributeCapError):
        pt.decide(query, method)
    with pytest.raises(pt.AttributeCapError):
        prune_reference(rules, F(3, 5), pt.Method.LP)


CHAIN = "".join(f"x{i} -> x{i + 1}\n" for i in range(29))  # over x0 .. x29


@pytest.mark.parametrize("method", [pt.Method.AUTO])
def test_a_thirty_attribute_chain_needs_no_rows(monkeypatch, method):
    """The universe takes any number of attributes, and only an enumeration
    is capped: over the 30 attributes of a chain, homogeneity, a
    one-premise decide and a prune read no signature table."""
    rules = pt.parse_rules(CHAIN)
    u = rules.universe
    assert u.names == tuple(f"x{i}" for i in range(30))
    calls = _count_enumerations(monkeypatch)
    assert not pt.enforces_homogeneity(rules)
    conclusion = pt.PartialImplication(u.attrs("x0"), u.attrs("x1"))
    one = pt.decide(pt.EntailmentQuery(rules.subset([0]), conclusion, F(1, 2)), method)
    assert one.holds and one.regime is pt.Regime.ONE_PREMISE
    assert one.certificate == (F(1),)
    assert pt.prune(rules, F(3, 5)) == rules
    assert calls == []


def test_an_enumeration_past_the_cap_still_raises():
    """Over the chain's universe, a decide that needs rows over more than
    20 occurring attributes raises: ``Method.LP``, at ``gamma = 1`` too,
    and the cone probe of a carrying subset, the paper cycle, whose query
    also holds the chain.  ``Method.AUTO`` decides ``gamma = 1`` by Horn
    closure, without rows."""
    rules = pt.parse_rules(CHAIN)
    u = rules.universe
    reach = pt.EntailmentQuery(
        rules.subset(range(22)), pt.PartialImplication(u.attrs("x0"), u.attrs("x22")), 1
    )
    held = pt.decide(reach)
    assert held.holds and held.regime is pt.Regime.HORN_CLOSURE
    assert held.certificate == (F(1),) * 22
    cycle = pt.parse_rules("B -> A C H\nC -> A D\nD -> A B\n" + CHAIN)
    v = cycle.universe
    head = pt.PartialImplication(v.attrs("B", "C", "D", "H"), v.attrs("A"))
    alone = pt.EntailmentQuery(cycle.subset(range(3)), head, F(57, 100))
    assert pt.decide(alone).regime is pt.Regime.GENERAL_GAMMA_STAR
    for query, method, width in [
        (reach, pt.Method.LP, 23),
        (pt.EntailmentQuery(reach.premises, reach.conclusion, F(1, 2)), pt.Method.LP, 23),
        (pt.EntailmentQuery(cycle, head, F(57, 100)), pt.Method.AUTO, 35),
    ]:
        message = f"{width} occurring attributes exceed the enumeration cap of 20"
        with pytest.raises(pt.AttributeCapError, match=message):
            pt.decide(query, method)
