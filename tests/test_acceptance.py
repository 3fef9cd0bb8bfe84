"""Acceptance gate: every shipped guarantee, one test and one printed
PASS/FAIL line per criterion, each with an enforced runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction as F

import oracle
import pientail as pt
from conftest import band_edges, band_regime, make_query

PAIR = "A -> B C\nA -> B D"
PAIR_CONCLUSION = "A C D -> B"
CYCLE = "B -> A C H\nC -> A D\nD -> A B"
CYCLE_CONCLUSION = "B C D H -> A"

BASE_SEED = 20260814


def run_criterion(n: int, description: str, budget_seconds: float, body) -> None:
    start = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion {n} [{elapsed:.2f}s/{budget_seconds:.0f}s]: {description}")
    assert elapsed < budget_seconds, (
        f"criterion {n} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def random_specs(count: int, rng: random.Random, max_attrs: int = 6, max_premises: int = 3):
    for _ in range(count):
        yield oracle.RandomInstanceSpec(
            num_attrs=rng.randint(2, max_attrs),
            num_premises=rng.randint(0, max_premises),
            seed=rng.randrange(10**9),
            density=rng.choice([0.3, 0.4, 0.5]),
        )


def regime_agreement_queries():
    """The shared corpus for criteria 6 and 7: 500 seeded random queries
    over at most 6 attributes and 3 premises, thresholds spanning every
    decision regime."""
    rng = random.Random(BASE_SEED + 6)
    gammas = [F(1, 10), F(1, 4), F(1, 2), F(57, 100), F(2, 3), F(9, 10)]
    return [
        oracle.random_query(spec, rng.choice(gammas))
        for spec in random_specs(500, rng)
    ]


def constructed_proper_queries(count: int, rng: random.Random):
    """Queries guaranteed to need every premise: rules sharing an
    antecedent, each contributing one private attribute, against the
    conclusion recombining all of them."""
    letters = ("A", "B", "C", "D", "E", "F")
    out = []
    for _ in range(count):
        u = pt.AttributeUniverse(letters)
        roles = list(letters)
        rng.shuffle(roles)
        k = rng.randint(2, 3)
        shared, common = roles[0], roles[1]
        private = roles[2 : 2 + k]
        rules = pt.ImplicationSet(
            u,
            tuple(
                pt.PartialImplication(u.attrs(shared), u.attrs(common, s))
                for s in private
            ),
        )
        conclusion = pt.PartialImplication(u.attrs(shared, *private), u.attrs(common))
        gamma = F(k - 1, k) if rng.random() < 0.5 else F(9, 10)
        out.append(pt.EntailmentQuery(rules, conclusion, gamma))
    return out


def assert_proper_instance_properties(q, lams):
    """On an entailment needing all its premises, any certificate puts
    positive weight on every premise and sums to one, each antecedent
    sits inside the conclusion antecedent without being settled by it,
    each consequent feeds the conclusion, the spans cover it, and the
    premises enforce homogeneity."""
    assert all(lam > 0 for lam in lams)
    assert sum(lams) == 1
    x0 = q.conclusion.antecedent
    y0 = q.conclusion.consequent
    span_union = q.universe.empty()
    for premise in q.premises:
        assert premise.antecedent <= x0
        assert not premise.span <= x0
        assert y0 <= x0 | premise.consequent
        span_union |= premise.span
    assert q.conclusion.span <= span_union
    assert pt.enforces_homogeneity(q.premises)


def test_criterion_01_pair_example_verdicts():
    def body():
        for gamma in (F(1, 2), F(3, 4)):
            q = make_query(PAIR, PAIR_CONCLUSION, gamma)
            assert pt.decide_lp(q).holds
            verdict = pt.decide(q)
            assert verdict.holds and verdict.regime is pt.Regime.HIGH_GAMMA
        q = make_query(PAIR, PAIR_CONCLUSION, F(49, 100))
        verdict = pt.decide_lp(q)
        assert not verdict.holds
        cx = verdict.counterexample
        assert cx is not None and cx.total() > 0
        for premise in q.premises:
            assert pt.satisfies(cx, premise, q.gamma)
        assert not pt.satisfies(cx, q.conclusion, q.gamma)

    run_criterion(
        1,
        "shared-antecedent pair entails its recombination at 1/2 and 3/4 "
        "(LP and structural routes) and fails at 49/100 with a verified "
        "counterexample",
        1.0,
        body,
    )


def test_criterion_02_cycle_critical_threshold():
    def body():
        q = make_query(CYCLE, CYCLE_CONCLUSION, F(57, 100))
        bracket = pt.critical_threshold(
            q.premises, q.conclusion.antecedent, tolerance=F(1, 100000)
        )
        assert abs(bracket.midpoint - F(56984, 100000)) < F(1, 10000)
        assert pt.decide_lp(q).holds
        below = make_query(CYCLE, CYCLE_CONCLUSION, F(14, 25))
        assert not pt.decide_lp(below).holds

    run_criterion(
        2,
        "three-rule cycle: critical threshold brackets 0.56984 to 1e-4 and "
        "the LP verdict flips between 14/25 and 57/100",
        5.0,
        body,
    )


def test_criterion_03_tuned_multipliers_meet_threshold():
    def body():
        gamma_hat = F(5699, 10000)
        lams = [
            1 - gamma_hat,
            (1 - gamma_hat) ** 2 / gamma_hat,
            (1 - gamma_hat) ** 3 / gamma_hat**2,
        ]
        total = sum(lams)
        lams = tuple(lam / total for lam in lams)
        q = make_query(CYCLE, CYCLE_CONCLUSION, gamma_hat)
        ratio = pt.max_ratio(lams, q.premises, q.conclusion.antecedent)
        assert ratio <= gamma_hat + F(1, 1000)

    run_criterion(
        3,
        "normalized geometric multipliers at 5699/10000 achieve worst-case "
        "ratio within 1e-3 of that threshold on the cycle",
        1.0,
        body,
    )


def test_criterion_04_uniform_certificate_check():
    def body():
        uniform = (F(1, 3), F(1, 3), F(1, 3))
        at_two_thirds = make_query(CYCLE, CYCLE_CONCLUSION, F(2, 3))
        assert pt.check_certificate(at_two_thirds, uniform)
        at_three_fifths = make_query(CYCLE, CYCLE_CONCLUSION, F(3, 5))
        violation = pt.find_certificate_violation(at_three_fifths, uniform)
        assert violation is not None
        u = at_three_fifths.universe
        assert violation.witness == u.attrs("A", "B", "C", "D")

    run_criterion(
        4,
        "uniform multipliers certify the cycle at 2/3 and are refuted at "
        "3/5 with the expected witness transaction",
        1.0,
        body,
    )


def test_criterion_05_homogeneity_agreement():
    def body():
        cycle = pt.parse_rules(CYCLE)
        assert pt.enforces_homogeneity(cycle)
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert not pt.enforces_homogeneity(cycle.subset(pair))
        rng = random.Random(BASE_SEED)
        for spec in random_specs(500, rng, max_attrs=10, max_premises=4):
            rules = oracle.random_implication_set(spec)
            assert pt.enforces_homogeneity(rules) == oracle.brute_force_homogeneity(rules)

    run_criterion(
        5,
        "closure-based homogeneity check matches exhaustive enumeration on "
        "the cycle, its two-rule subsets, and 500 random rule sets",
        10.0,
        body,
    )


def test_criterion_06_cross_regime_agreement():
    def body():
        routes = set()
        for q in regime_agreement_queries():
            reference = pt.decide_lp(q).holds
            assert pt.decide(q).holds == reference
            if q.k >= 1:
                assert pt.decide_general(q).holds == reference
            for edge in band_edges(q):
                verdict = pt.decide(edge)
                assert verdict.regime is band_regime(edge), edge
                assert verdict.holds == pt.decide_lp(edge).holds, edge
                routes.add((verdict.regime, verdict.holds))
        bands = (
            pt.Regime.ONE_PREMISE,
            pt.Regime.LOW_GAMMA,
            pt.Regime.HIGH_GAMMA,
            pt.Regime.GENERAL_GAMMA_STAR,
            pt.Regime.HORN_CLOSURE,
        )
        assert routes >= {(r, h) for r in bands for h in (True, False)}, routes

    run_criterion(
        6,
        "every decision route agrees with the LP in its regime on 500 "
        "seeded random queries and at their band edges",
        60.0,
        body,
    )


def test_criterion_07_witnesses_always_verify():
    def body():
        proper_seen = 0
        extra = constructed_proper_queries(50, random.Random(BASE_SEED + 7))
        for q in regime_agreement_queries() + extra:
            verdict = pt.decide(q)
            if verdict.holds:
                assert verdict.certificate is not None
                assert pt.check_certificate(q, verdict.certificate)
            else:
                cx = verdict.counterexample
                assert cx is not None
                for premise in q.premises:
                    assert pt.satisfies(cx, premise, q.gamma)
                assert not pt.satisfies(cx, q.conclusion, q.gamma)
            if (
                verdict.holds
                and q.k >= 1
                and 0 < q.gamma < 1
                and not q.conclusion.consequent <= q.conclusion.antecedent
                and pt.properly_entails(q).proper
            ):
                proper_seen += 1
                assert_proper_instance_properties(q, verdict.certificate)
        assert proper_seen >= 50

    run_criterion(
        7,
        "every verdict carries an independently re-verified witness, and "
        "properly-held instances satisfy all structural multiplier "
        "properties",
        60.0,
        body,
    )


def test_criterion_08_single_premise_threshold_independence():
    def body():
        rng = random.Random(BASE_SEED + 8)
        for _ in range(150):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 6),
                num_premises=1,
                seed=rng.randrange(10**9),
            )
            answers = {
                pt.decide(oracle.random_query(spec, g)).holds
                for g in (F(1, 10), F(1, 2), F(9, 10))
            }
            assert len(answers) == 1

    run_criterion(
        8,
        "single-premise verdicts are identical at thresholds 1/10, 1/2, "
        "and 9/10 across 150 random queries",
        5.0,
        body,
    )


def test_criterion_09_brute_force_never_contradicts():
    def body():
        rng = random.Random(BASE_SEED + 9)
        for spec in random_specs(200, rng, max_attrs=5):
            gamma = rng.choice([F(1, 4), F(1, 2), F(3, 5), F(3, 4)])
            q = oracle.random_query(spec, gamma)
            holds = pt.decide_lp(q).holds
            found = oracle.search_counterexample(q, max_mult=4, max_support=3)
            if holds:
                assert found is None
            if found is not None:
                for premise in q.premises:
                    assert pt.satisfies(found, premise, q.gamma)
                assert not pt.satisfies(found, q.conclusion, q.gamma)

    run_criterion(
        9,
        "exhaustive bounded search never contradicts the LP verdict on 200 "
        "random queries",
        60.0,
        body,
    )


def test_criterion_10_grid_estimate_brackets_cycle():
    def body():
        rules = pt.parse_rules(CYCLE)
        x = rules.universe.attrs("B", "C", "D", "H")
        estimate = oracle.grid_min_max(rules, x, steps=200)
        assert F(56984, 100000) - F(1, 10000) <= estimate <= F(576, 1000)

    run_criterion(
        10,
        "simplex-grid estimate of the cycle's critical threshold lands "
        "between the certified value and 0.576",
        5.0,
        body,
    )
