"""Signature tables: the frontier enumeration against an exhaustive walk
over every transaction type, and one table per ``decide_general`` query."""

import random
import time
from fractions import Fraction as F

import pientail as pt
from pientail import entailment, threshold
from pientail.entailment import signature_rows
from pientail.model import bit_positions

CORPUS_BUDGET_S = 10.0  # about 3 s on a 2-core machine, nearly all reference


def reference_rows(implications, extra=None):
    """Every subset of the occurring attributes in increasing bitmask order,
    keeping each cover pattern's first transaction: ``(codes, witness)``
    with code 0 not covered, 1 violated, 2 witnessed."""
    occ = extra.bits if extra is not None else 0
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
    """1 to 9 rules whose spans, plus ``extra`` when there is one, mention
    exactly ``width`` of ``width + 2`` attributes; sides may be empty and
    rules may repeat."""
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
    extra = None
    if rng.random() < 0.5:
        extra = u.attrs(*missing, *[a for a in pool if rng.random() < 0.2])
    elif missing:
        rules[-1] = (rules[-1][0], rules[-1][1] + missing)
    implications = [
        pt.PartialImplication(u.attrs(*a), u.attrs(*c)) for a, c in rules
    ]
    return u, implications, extra


def test_frontier_matches_exhaustive_walk():
    rng = random.Random(19861107)
    widths = [i % 15 for i in range(394)] + [15, 16, 17, 18, 19, 20]
    start = time.perf_counter()
    seen_widths = set()
    shapes = {"extra": 0, "empty side": 0, "duplicate": 0}
    for width in widths:
        u, implications, extra = _instance(rng, width)
        rows = signature_rows(implications, u, extra=extra)
        got = [
            (tuple(s.value for s in row.statuses), row.witness.bits) for row in rows
        ]
        assert got == reference_rows(implications, extra), (implications, extra)
        occ = extra.bits if extra is not None else 0
        for imp in implications:
            occ |= imp.span.bits
        seen_widths.add(occ.bit_count())
        shapes["extra"] += extra is not None
        shapes["empty side"] += any(
            not imp.antecedent.bits or not imp.consequent.bits for imp in implications
        )
        shapes["duplicate"] += len(set(implications)) < len(implications)
    assert seen_widths == set(range(21))
    assert min(shapes.values()) >= 50
    assert time.perf_counter() - start < CORPUS_BUDGET_S


def test_frontier_without_rules_or_attributes():
    u = pt.AttributeUniverse(("A", "B"))
    assert [(r.statuses, r.witness) for r in signature_rows([], u)] == [((), u.empty())]
    extra_only = signature_rows([], u, extra=u.attrs("B"))
    assert [(r.statuses, r.witness) for r in extra_only] == [((), u.empty())]
    empty_rule = pt.PartialImplication(u.empty(), u.empty())
    rows = signature_rows([empty_rule, empty_rule], u)
    assert [r.statuses for r in rows] == [(pt.CoverStatus.WITNESSED,) * 2]


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
        pt.random_query(
            pt.RandomInstanceSpec(rng.randint(1, 10), rng.randint(1, 4), rng.randrange(10**9)),
            F(1, 2),
        )
        for _ in range(60)
    ]
    for query in queries:
        rows = entailment._query_rows(query, 20)
        x0 = query.conclusion.antecedent
        for indices in entailment._nonempty_subsets(query.k):
            sub = query.premises.subset(indices)
            projected = threshold._project_ratio_rows(rows, indices)
            assert projected == threshold._ratio_rows(sub, x0, 20), (query, indices)
