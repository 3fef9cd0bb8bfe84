"""Property-based differential gate: on generated queries with up to 8
attributes and 8 premises, empty sides and duplicate rules, AUTO and the LP
route reach the same verdict at and next to the regime boundaries ``1/k``
and ``(k-1)/k`` and at an interior threshold, and so does the structural
route strictly inside (0, 1).  Every certificate and counterexample is
checked here in ``Fraction`` arithmetic over all ``2**n`` transactions,
with nothing taken from the library but the names of a dataset's
transactions."""

import time
from collections import Counter
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings, strategies as st

import pientail as pt

MAX_ATTRS = 8
MAX_PREMISES = 8
MAX_EXAMPLES = 200
BUDGET_S = 10.0  # about 3.5 s on a 2-core machine; fails only on a blow-up
NEAR = F(1, 1000)


@st.composite
def cases(draw):
    """``(n, rules, interior)``: ``rules[0]`` is the conclusion and the rest
    are premises, each an (antecedent, consequent) pair of bitmasks over
    ``n`` attributes; about one rule in five repeats an earlier one, and
    three conclusions in four are made nontrivial where they can be."""
    n = draw(st.integers(1, MAX_ATTRS))
    k = draw(st.integers(1, MAX_PREMISES))
    side = st.frozensets(st.integers(0, n - 1)).map(lambda s: sum(1 << i for i in s))
    rules = []
    for _ in range(k + 1):
        if rules and draw(st.integers(0, 4)) == 0:
            rules.append(rules[draw(st.integers(0, len(rules) - 1))])
        else:
            rules.append((draw(side), draw(side)))
    ante, cons = rules[0]
    outside = [i for i in range(n) if not (ante | cons) >> i & 1]
    if not cons & ~ante and outside and draw(st.integers(0, 3)):
        rules[0] = (ante, cons | 1 << draw(st.sampled_from(outside)))
    interior = F(draw(st.integers(1, 59)), 60)
    return n, rules, interior


def _gammas(k, interior):
    """``1/k`` and ``(k-1)/k``, ``NEAR`` either side of each, and
    ``interior``, all within [0, 1]."""
    edges = {F(1, k), F(k - 1, k)}
    near = {g + d for g in edges for d in (-NEAR, F(0), NEAR)}
    return sorted(g for g in near | {interior} if 0 <= g <= 1)


def _status(t, rule):
    """0 when transaction ``t`` misses part of the antecedent, 2 when it
    holds the whole span, 1 otherwise."""
    ante, cons = rule
    if ante & ~t:
        return 0
    return 2 if not (ante | cons) & ~t else 1


def _weight(status, gamma):
    return (F(0), -gamma, 1 - gamma)[status]


def _patterns(n, rules):
    """The status of every rule on each of the ``2**n`` transactions, as a
    set of tuples: a transaction's constraint depends on nothing else."""
    return {tuple(_status(t, rule) for rule in rules) for t in range(1 << n)}


def _certifies(patterns, gamma, lams):
    """Do ``lams`` satisfy ``sum_i lam_i w_t(premise_i) <= w_t(conclusion)``
    on every transaction ``t``, given the status ``patterns`` of them all?"""
    if any(len(lams) != len(p) - 1 for p in patterns) or any(lam < 0 for lam in lams):
        return False
    for conclusion, *premises in patterns:
        lhs = sum(
            (lam * _weight(s, gamma) for lam, s in zip(lams, premises) if s), F(0)
        )
        if lhs > _weight(conclusion, gamma):
            return False
    return True


def _confident(data, rule, gamma):
    """Confidence at least ``gamma``, or no transaction covering ``rule``."""
    covered = sum(c for t, c in data if _status(t, rule))
    witnessed = sum(c for t, c in data if _status(t, rule) == 2)
    return covered == 0 or witnessed >= gamma * covered


def _refutes(rules, gamma, data):
    conclusion, *premises = rules
    if not data or any(c < 1 for _, c in data):
        return False
    return all(_confident(data, p, gamma) for p in premises) and not _confident(
        data, conclusion, gamma
    )


def _transactions(dataset):
    """``(bitmask, count)`` pairs, read from the attribute names ``a<i>``."""
    return [
        (sum(1 << int(name[1:]) for name in t.names), c) for t, c in dataset.items()
    ]


def test_routes_agree_on_generated_queries():
    seen = Counter()
    widths, premise_counts = set(), set()

    @settings(
        max_examples=MAX_EXAMPLES,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cases())
    def check(case):
        n, rules, interior = case
        u = pt.AttributeUniverse(tuple(f"a{i}" for i in range(n)))

        def attrs(bits):
            return u.attrs(*[f"a{i}" for i in range(n) if bits >> i & 1])

        conclusion, *premises = [
            pt.PartialImplication(attrs(a), attrs(c)) for a, c in rules
        ]
        premise_set = pt.ImplicationSet(u, tuple(premises))
        widths.add(n)
        premise_counts.add(len(premises))
        seen["duplicate"] += len(set(rules)) < len(rules)
        seen["empty side"] += any(not a or not c for a, c in rules)
        patterns = _patterns(n, rules)
        for gamma in _gammas(len(premises), interior):
            query = pt.EntailmentQuery(premise_set, conclusion, gamma)
            verdicts = [pt.decide(query, m) for m in pt.Method]
            assert len({v.holds for v in verdicts}) == 1, (query, verdicts)
            for verdict in verdicts:
                if verdict.holds:
                    lams = verdict.certificate
                    assert _certifies(patterns, gamma, lams), (query, verdict)
                else:
                    data = _transactions(verdict.counterexample)
                    assert _refutes(rules, gamma, data), (query, verdict)
            seen["held" if verdicts[0].holds else "failed"] += 1

    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < BUDGET_S
    assert widths == set(range(1, MAX_ATTRS + 1))
    assert premise_counts == set(range(1, MAX_PREMISES + 1))
    assert min(seen.values()) >= 5, seen
