"""Entailment: the LP route, the structural routes of ``decide``,
certificates, counterexamples, proper entailment, and pruning."""

import random
from fractions import Fraction as F

import pytest

import oracle
import pientail as pt
from conftest import band_edges, band_regime, make_query, status_weights


def verify_verdict(query, verdict):
    """Every verdict must carry a witness that independently checks out."""
    if verdict.holds:
        assert verdict.certificate is not None
        assert pt.check_certificate(query, verdict.certificate)
    else:
        cx = verdict.counterexample
        assert cx is not None
        for premise in query.premises:
            assert pt.satisfies(cx, premise, query.gamma)
        assert not pt.satisfies(cx, query.conclusion, query.gamma)


class TestDecideLp:
    def test_pair_example_holds_at_half(self, pair_query):
        verdict = pt.decide_lp(pair_query)
        assert verdict.holds
        assert verdict.regime is pt.Regime.LP_DIRECT
        verify_verdict(pair_query, verdict)

    def test_pair_example_fails_just_below_half(self):
        q = make_query("A -> B C\nA -> B D", "A C D -> B", F(49, 100))
        verdict = pt.decide_lp(q)
        assert not verdict.holds
        verify_verdict(q, verdict)
        u = q.universe
        assert verdict.counterexample == pt.Dataset(
            u,
            {
                u.attrs("A", "B", "C"): 49,
                u.attrs("A", "B", "D"): 49,
                u.attrs("A", "C", "D"): 2,
            },
        )

    def test_cycle_example_around_critical_threshold(self, cycle_query):
        assert pt.decide_lp(cycle_query).holds  # 57/100
        below = make_query(
            "B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", F(14, 25)
        )
        verdict = pt.decide_lp(below)
        assert not verdict.holds
        verify_verdict(below, verdict)

    def test_augmentation_fails(self):
        # enlarging both sides of a rule is not sound for partial implications
        q = make_query("A -> B", "A C -> B C", F(1, 2))
        verdict = pt.decide_lp(q)
        assert not verdict.holds
        verify_verdict(q, verdict)

    def test_boundary_thresholds(self):
        anything = make_query("A -> B", "C -> D", F(0))
        assert pt.decide_lp(anything).holds
        classical = make_query("A -> B\nB -> C", "A -> C", F(1))
        assert pt.decide_lp(classical).holds
        assert not pt.decide_lp(make_query("A -> B", "B -> A", F(1))).holds

    def test_no_premises(self):
        assert pt.decide_lp(make_query("", "A -> A", F(1, 2))).holds
        verdict = pt.decide_lp(make_query("", "A -> B", F(1, 2)))
        assert not verdict.holds
        verify_verdict(make_query("", "A -> B", F(1, 2)), verdict)


class TestDecideOnePremise:
    def test_containment_entailment(self):
        q = make_query("A -> B C", "A C -> B", F(1, 2))
        verdict = pt.decide(q)
        assert verdict.holds
        assert verdict.regime is pt.Regime.ONE_PREMISE
        assert verdict.certificate == (F(1),)
        verify_verdict(q, verdict)

    def test_antecedent_must_shrink(self):
        q = make_query("A B -> C", "A -> C", F(1, 2))
        verdict = pt.decide(q)
        assert not verdict.holds
        assert verdict.regime is pt.Regime.ONE_PREMISE
        verify_verdict(q, verdict)

    def test_verdict_is_threshold_independent(self):
        rng = random.Random(23)
        for _ in range(100):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 6), num_premises=1, seed=rng.randrange(10**9)
            )
            answers = {
                pt.decide(oracle.random_query(spec, g)).holds
                for g in (F(1, 10), F(1, 2), F(9, 10))
            }
            assert len(answers) == 1


class TestDecideTwoPremise:
    def test_pair_example_holds(self, pair_query):
        verdict = pt.decide(pair_query)
        assert verdict.holds
        assert verdict.regime is pt.Regime.HIGH_GAMMA
        assert verdict.certificate == (F(1, 2), F(1, 2))
        verify_verdict(pair_query, verdict)

    def test_extra_attribute_breaks_combination(self):
        q = make_query("A -> B C\nA -> B D", "A C D E -> B", F(1, 2))
        verdict = pt.decide(q)
        assert not verdict.holds
        assert verdict.regime is pt.Regime.HIGH_GAMMA
        assert pt.decide_lp(q).holds == verdict.holds
        verify_verdict(q, verdict)

    def test_single_premise_escape(self):
        q = make_query("A -> B\nC -> D", "A B -> B", F(3, 4))
        assert pt.decide(q).regime is pt.Regime.TAUTOLOGY
        q = make_query("A -> B C\nC -> D", "A -> B", F(3, 4))
        verdict = pt.decide(q)
        assert verdict.holds
        assert verdict.certificate == (F(1), F(0))

    def test_low_threshold_routes_to_low_gamma(self):
        q = make_query("A -> B C\nA -> B D", "A C D -> B", F(2, 5))
        verdict = pt.decide(q)
        assert not verdict.holds
        assert verdict.regime is pt.Regime.LOW_GAMMA
        assert pt.decide_lp(q).holds == verdict.holds


class TestDecideLowGamma:
    def test_single_premise_carries(self):
        q = make_query("A -> B C\nC -> D", "A -> B", F(1, 3))
        verdict = pt.decide(q)
        assert verdict.holds
        assert verdict.regime is pt.Regime.LOW_GAMMA
        assert verdict.certificate == (F(1), F(0))
        verify_verdict(q, verdict)

    def test_combination_is_impossible_below_one_over_k(self):
        # holds from 1/2 on, so it must fail below the combination band
        q = make_query("A -> B C\nA -> B D", "A C D -> B", F(2, 5))
        verdict = pt.decide(q)
        assert not verdict.holds
        assert verdict.regime is pt.Regime.LOW_GAMMA
        verify_verdict(q, verdict)


class TestDecideHighGamma:
    def test_pair_example_both_thresholds(self):
        for gamma in (F(1, 2), F(3, 4)):
            q = make_query("A -> B C\nA -> B D", "A C D -> B", gamma)
            verdict = pt.decide(q)
            assert verdict.holds
            assert verdict.regime is pt.Regime.HIGH_GAMMA
            assert verdict.certificate == (F(1, 2), F(1, 2))
            verify_verdict(q, verdict)

    def test_cycle_example_at_two_thirds(self):
        q = make_query("B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", F(2, 3))
        verdict = pt.decide(q)
        assert verdict.holds
        assert verdict.regime is pt.Regime.HIGH_GAMMA
        assert verdict.certificate == (F(1, 3), F(1, 3), F(1, 3))
        verify_verdict(q, verdict)

    def test_disjoint_premises_do_not_combine(self):
        q = make_query("A -> B\nC -> D", "A C -> B D", F(1, 2))
        verdict = pt.decide(q)
        assert not verdict.holds
        assert verdict.regime is pt.Regime.HIGH_GAMMA
        assert pt.decide_lp(q).holds == verdict.holds
        verify_verdict(q, verdict)


class TestDispatch:
    def test_regimes_chosen_by_auto(self):
        cases = [
            ("A -> B", "A B -> A", F(1, 2), pt.Regime.TAUTOLOGY),
            ("A -> B C", "A C -> B", F(1, 2), pt.Regime.ONE_PREMISE),
            ("A -> B C\nA -> B D", "A C D -> B", F(2, 5), pt.Regime.LOW_GAMMA),
            ("A -> B C\nA -> B D", "A C D -> B", F(3, 4), pt.Regime.HIGH_GAMMA),
            (
                "B -> A C H\nC -> A D\nD -> A B",
                "B C D H -> A",
                F(57, 100),
                pt.Regime.GENERAL_GAMMA_STAR,
            ),
        ]
        for premises, conclusion, gamma, regime in cases:
            verdict = pt.decide(make_query(premises, conclusion, gamma))
            assert verdict.regime is regime, (premises, conclusion, gamma)

    def test_method_lp_forces_lp(self, pair_query):
        verdict = pt.decide(pair_query, pt.Method.LP)
        assert verdict.regime is pt.Regime.LP_DIRECT
        for method in ("lp", None):  # not a ``Method``: refused, not AUTO
            with pytest.raises(TypeError, match="method must be a Method"):
                pt.decide(pair_query, method)

    def test_boundary_thresholds_auto(self):
        assert pt.decide(make_query("A -> B", "C -> D", F(0))).holds
        v = pt.decide(make_query("A -> B\nB -> C", "A -> C", F(1)))
        assert v.holds and v.regime is pt.Regime.HORN_CLOSURE

    def test_agrees_with_lp_across_regimes(self):
        """Auto dispatch, ``decide_general`` and the LP must return the
        same yes/no everywhere, also at the band edges ``1/k`` and
        ``(k-1)/k`` and 1/1000 below each, where ``decide`` takes the
        route of each edge's band."""
        rng = random.Random(777)
        gammas = [F(1, 10), F(1, 4), F(1, 2), F(3, 5), F(2, 3), F(9, 10)]
        for _ in range(200):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 6),
                num_premises=rng.randint(0, 3),
                seed=rng.randrange(10**9),
                density=rng.choice([0.3, 0.4, 0.5]),
            )
            gamma = rng.choice(gammas)
            q = oracle.random_query(spec, gamma)
            ref = pt.decide_lp(q)
            assert pt.decide(q).holds == ref.holds
            if q.k >= 1:
                assert pt.decide_general(q).holds == ref.holds
            for edge in band_edges(q):
                verdict = pt.decide(edge)
                assert verdict.regime is band_regime(edge), edge
                assert verdict.holds == pt.decide_lp(edge).holds, edge

    def test_holds_is_monotone_in_gamma(self):
        rng = random.Random(31)
        grid = [F(1, 10), F(1, 4), F(1, 2), F(3, 5), F(2, 3), F(9, 10)]
        for _ in range(80):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
            )
            answers = [pt.decide_lp(oracle.random_query(spec, g)).holds for g in grid]
            seen = False
            for holds in answers:
                assert holds or not seen
                seen = seen or holds


class TestCertificates:
    def test_uniform_multipliers_on_cycle(self, cycle_query):
        uniform = (F(1, 3), F(1, 3), F(1, 3))
        at_two_thirds = make_query(
            "B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", F(2, 3)
        )
        assert pt.check_certificate(at_two_thirds, uniform)
        at_three_fifths = make_query(
            "B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", F(3, 5)
        )
        violation = pt.find_certificate_violation(at_three_fifths, uniform)
        assert violation is not None
        u = at_three_fifths.universe
        assert violation.witness == u.attrs("A", "B", "C", "D")
        assert violation.signature.violated == {1}
        assert violation.signature.witnessed == {2, 3}

    def test_violations_match_the_rational_check(self):
        """The integer check reports the same first broken row, with the
        same ``lhs`` and ``rhs``, as a check in ``Fraction`` arithmetic over
        the rows in enumeration order."""
        from pientail.entailment import CertificateViolation, _query_rows

        def reference(query, lams):
            weight = status_weights(query.gamma)
            for row in _query_rows(query):
                rhs = weight[row.statuses[0]]
                lhs = sum(
                    (lam * weight[s] for lam, s in zip(lams, row.statuses[1:])),
                    F(0),
                )
                if lhs > rhs:
                    witness = pt.AttrSet(query.universe, row.bits)
                    return CertificateViolation(row.signature(), witness, lhs, rhs)
            return None

        rng = random.Random(2610)
        found = 0
        for _ in range(200):
            spec = oracle.RandomInstanceSpec(rng.randint(2, 8), rng.randint(1, 4), rng.randrange(10**9))
            gamma = rng.choice([F(0), F(1), F(1, 2), F(rng.randint(1, 99), 100), F(7, 9)])
            query = oracle.random_query(spec, gamma)
            lams = [F(rng.randint(0, 6), rng.randint(1, 7)) for _ in range(query.k)]
            want = reference(query, lams)
            got = pt.find_certificate_violation(query, lams)
            assert repr(got) == repr(want), (query, lams)
            found += got is not None
        assert found >= 100

    def test_descending_multipliers_certify_above_critical(self):
        """The multipliers tuned to a rational threshold just above the
        critical value certify the cycle example at exactly that value."""
        gamma_hat = F(5699, 10000)
        lams = [
            1 - gamma_hat,
            (1 - gamma_hat) ** 2 / gamma_hat,
            (1 - gamma_hat) ** 3 / gamma_hat**2,
        ]
        total = sum(lams)
        lams = tuple(lam / total for lam in lams)
        q = make_query("B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", gamma_hat)
        assert pt.check_certificate(q, lams)

    def test_validation(self, pair_query):
        with pytest.raises(ValueError):
            pt.check_certificate(pair_query, (F(1),))
        with pytest.raises(ValueError):
            pt.check_certificate(pair_query, (F(-1), F(1)))

    def test_all_verdict_witnesses_verify(self):
        rng = random.Random(101)
        for _ in range(150):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(0, 3),
                seed=rng.randrange(10**9),
            )
            gamma = rng.choice([F(1, 4), F(1, 2), F(3, 5), F(3, 4)])
            q = oracle.random_query(spec, gamma)
            verify_verdict(q, pt.decide(q))


class TestProperEntailment:
    def test_pair_example_is_proper(self, pair_query):
        res = pt.properly_entails(pair_query)
        assert res.holds and res.proper
        assert res.minimal_premises == (0, 1)

    def test_redundant_premise_detected(self):
        q = make_query("A -> B\nC -> D", "A -> B", F(1, 2))
        res = pt.properly_entails(q)
        assert res.holds and not res.proper
        assert res.minimal_premises == (0,)

    def test_tautology_needs_nothing(self):
        q = make_query("A -> B", "A B -> A", F(1, 2))
        res = pt.properly_entails(q)
        assert res.holds and not res.proper
        assert res.minimal_premises == ()

    def test_failing_query(self):
        q = make_query("A -> B", "B -> A", F(1, 2))
        res = pt.properly_entails(q)
        assert not res.holds and res.minimal_premises is None

    def test_proper_certificates_use_every_premise(self):
        """On properly holding queries, any certificate has positive
        multipliers summing to one, premise antecedents sit below the
        conclusion antecedent, no premise span is inside it, the premise
        spans cover the conclusion, and each consequent feeds it."""
        rng = random.Random(2468)
        checked = 0
        queries = [make_query("A -> B C\nA -> B D", "A C D -> B", F(1, 2))]
        for _ in range(250):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
            )
            queries.append(
                oracle.random_query(spec, rng.choice([F(1, 2), F(3, 5), F(2, 3)]))
            )
        for q in queries:
            if q.k < 1 or q.conclusion.consequent <= q.conclusion.antecedent:
                continue
            res = pt.properly_entails(q)
            if not (res.holds and res.proper):
                continue
            checked += 1
            lams = pt.decide(q).certificate
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
        assert checked >= 5


class TestPrune:
    def test_drops_entailed_rule(self):
        rules = pt.parse_rules("A -> B C\nA -> B D\nA C D -> B")
        kept = pt.prune(rules, F(1, 2))
        assert [str(r) for r in kept] == ["A -> B C", "A -> B D"]

    def test_keeps_stronger_rule(self):
        rules = pt.parse_rules("A -> B C\nA -> B")
        kept = pt.prune(rules, F(1, 2))
        assert [str(r) for r in kept] == ["A -> B C"]

    def test_duplicates_collapse(self):
        rules = pt.parse_rules("A -> B\nA -> B\nA -> B")
        kept = pt.prune(rules, F(1, 2))
        assert len(kept) == 1

    def test_survivors_entail_everything_dropped(self):
        rng = random.Random(55)
        for _ in range(40):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 4),
                seed=rng.randrange(10**9),
            )
            rules = oracle.random_implication_set(spec)
            gamma = rng.choice([F(1, 2), F(3, 4)])
            kept = pt.prune(rules, gamma)
            for rule in rules:
                q = pt.EntailmentQuery(kept, rule, gamma)
                assert pt.decide(q).holds


class TestSelfChecks:
    """Every witness is re-checked before it is returned: a corrupted
    solver output or witness raises the check's ``RuntimeError``."""

    @staticmethod
    def _solve_returning(monkeypatch, corrupt):
        """Route ``entailment``'s LP solves through ``corrupt``, which gets
        each program and its true outcome."""
        from pientail import entailment

        solve = entailment.lp.solve
        monkeypatch.setattr(
            entailment.lp, "solve", lambda program: corrupt(program, solve(program))
        )

    def test_lp_duals_of_the_wrong_length(self, monkeypatch, pair_query):
        from pientail import lp

        def drop_a_dual(program, outcome):
            assert isinstance(outcome, lp.Optimal)
            return lp.Optimal(outcome.row_duals[:-1], outcome.denominator)

        self._solve_returning(monkeypatch, drop_a_dual)
        with pytest.raises(RuntimeError, match="no dual value per premise"):
            pt.decide_lp(pair_query)

    def test_lp_duals_that_certify_nothing(self, monkeypatch, pair_query):
        # one premise alone does not carry the pair's conclusion
        from pientail import lp

        self._solve_returning(monkeypatch, lambda program, outcome: lp.Optimal((1, 0), 1))
        with pytest.raises(RuntimeError, match="fail their own constraints"):
            pt.decide_lp(pair_query)

    @pytest.mark.parametrize(
        "code, message",
        [
            # a transaction that violates a premise
            (1, "counterexample fails a premise on re-verification"),
            # a transaction that covers no rule at all
            (0, "counterexample satisfies the conclusion"),
        ],
    )
    def test_lp_rays_that_refute_nothing(self, monkeypatch, code, message):
        from pientail import entailment, lp

        query = make_query("A -> B C\nA -> B D", "A C D -> B", F(49, 100))
        rows = entailment._query_rows(query)
        # the first row whose premise statuses are all ``code``
        row = next(
            j for j, r in enumerate(rows) if set(r.codes[1:]) == {code}
        )
        ray = tuple(int(j == row) for j in range(len(rows)))
        self._solve_returning(monkeypatch, lambda program, outcome: lp.Unbounded(ray, 1))
        with pytest.raises(RuntimeError, match=message):
            pt.decide_lp(query)

    def test_an_lp_that_certifies_an_uncarried_query(self, monkeypatch):
        # gamma * k < 1: no single premise carries the conclusion, so the
        # low band fails, and its counterexample comes from the LP
        from pientail import entailment

        query = make_query("A -> B C\nA -> B D", "A C D -> B", F(49, 100))
        assert pt.decide(query).regime is pt.Regime.LOW_GAMMA
        monkeypatch.setattr(
            entailment,
            "decide_lp",
            lambda q: pt.EntailmentVerdict(
                True, pt.Regime.LP_DIRECT, certificate=(F(1, 2), F(1, 2))
            ),
        )
        with pytest.raises(RuntimeError, match="certifies a query no premise subset"):
            pt.decide(query)

    def test_subset_multipliers_that_fail_the_query(self, monkeypatch, cycle_query):
        # the cycle holds at 57/100 in the general band; a unit ray on its
        # first premise does not certify it
        from pientail import lp, threshold

        feasible = threshold._feasible

        def unit_ray(rows, k, gamma):
            outcome = feasible(rows, k, gamma)
            if isinstance(outcome, lp.Unbounded):
                return lp.Unbounded((1,) + (0,) * (k - 1), 1)
            return outcome

        assert pt.decide(cycle_query).regime is pt.Regime.GENERAL_GAMMA_STAR
        monkeypatch.setattr(threshold, "_feasible", unit_ray)
        with pytest.raises(RuntimeError, match="subset multipliers fail"):
            pt.decide(cycle_query)
