"""Critical-threshold machinery: feasibility at a fixed threshold,
bisection bracketing, multiplier ratio evaluation, and the general
decision procedure built on them."""

import importlib
import itertools
import math
import operator
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracle
import pientail as pt
from conftest import make_query, plain_bisection, status_weights
from pientail.entailment import SignatureRow


class TestFeasibleAt:
    def test_cycle_feasible_above_critical(self, cycle_premises, cycle_antecedent):
        lams = pt.feasible_at(F(3, 5), cycle_premises, cycle_antecedent)
        assert lams is not None
        assert sum(lams) == 1
        assert all(lam >= 0 for lam in lams)
        assert pt.max_ratio(lams, cycle_premises, cycle_antecedent) <= F(3, 5)

    def test_cycle_infeasible_below_critical(self, cycle_premises, cycle_antecedent):
        assert pt.feasible_at(F(1, 2), cycle_premises, cycle_antecedent) is None

    def test_single_premise(self):
        rules = pt.parse_rules("A -> B C")
        x = rules.universe.attrs("A", "C")
        # witnessing the premise forces both B and C, hence all of X:
        # no eligible transaction type ever witnesses, so any threshold works
        assert pt.feasible_at(F(1, 2), rules, x) == (F(1),)
        u = pt.AttributeUniverse(("A", "B", "C"))
        tight = pt.ImplicationSet(
            u, (pt.PartialImplication(u.attrs("A"), u.attrs("B")),)
        )
        y = u.attrs("A", "C")
        # transaction type AB witnesses the premise while missing X,
        # so its ratio is 1 whatever the single multiplier is
        assert pt.feasible_at(F(1, 2), tight, y) is None
        assert pt.feasible_at(F(1), tight, y) == (F(1),)

    def test_feasibility_is_upward_closed(self, cycle_premises, cycle_antecedent):
        grid = [F(i, 20) for i in range(1, 21)]
        feasible = [
            pt.feasible_at(g, cycle_premises, cycle_antecedent) is not None
            for g in grid
        ]
        seen = False
        for flag in feasible:
            assert flag or not seen
            seen = seen or flag

    def test_random_upward_closure(self):
        rng = random.Random(909)
        for _ in range(60):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
            )
            q = oracle.random_query(spec, F(1, 2))
            x = q.conclusion.antecedent
            low, high = sorted(
                (F(rng.randint(1, 19), 20), F(rng.randint(1, 19), 20))
            )
            if pt.feasible_at(low, q.premises, x) is not None:
                assert pt.feasible_at(high, q.premises, x) is not None

    def test_cone_form_matches_simplex_form(self):
        """``feasible_at`` poses each probe as a cone program with no
        equality row.  Cross-check it against the direct form, a sum-to-one
        row plus the ratio rows through the general simplex's ``feasible``
        (``general_simplex``, the kernel takes no equality row), on the exact
        critical values 1/2, 2/3 and 3/4 of fans ``A -> B x_i`` with 2, 3
        and 4 premises and of cycles ``x_i -> x_{i+1}`` of length 3, 4
        and 5, 1/1000 either side of each, and on seeded random instances.
        The length-5 cycle, the slowest, is only checked at its own value."""
        import general_simplex as general
        from pientail.threshold import _ratio_rows

        def simplex_form(gamma, premises, antecedent):
            k = len(premises)
            Constraint, Relation = general.Constraint, general.Relation
            constraints = [Constraint((F(1),) * k, Relation.EQ, F(1))]
            for row in _ratio_rows(premises, antecedent):
                coeffs = [F(0)] * k
                for i, status in enumerate(row.statuses):
                    if status is not pt.CoverStatus.NOT_COVERED:
                        coeffs[i] -= gamma
                    if status is pt.CoverStatus.WITNESSED:
                        coeffs[i] += 1
                constraints.append(Constraint(tuple(coeffs), Relation.LE, F(0)))
            return general.feasible(constraints, k)

        critical = [F(1, 2), F(2, 3), F(3, 4)]
        grid = sorted(
            {c + d for c in critical for d in (F(-1, 1000), F(0), F(1, 1000))}
            | {F(0), F(1, 4), F(1)}
        )
        cases = []
        for k, c in zip((2, 3, 4), critical):
            fan = pt.parse_rules("\n".join(f"A -> B x{i}" for i in range(k)))
            ring = pt.parse_rules(
                "\n".join(f"x{i} -> x{(i + 1) % (k + 1)}" for i in range(k + 1))
            )
            for rules, names in (
                (fan, ["A", *(f"x{i}" for i in range(k))]),
                (ring, [f"x{i}" for i in range(k + 1)]),
            ):
                x = rules.universe.attrs(*names)
                assert pt.feasible_at(c, rules, x) is not None
                assert pt.feasible_at(c - F(1, 1000), rules, x) is None
                if len(rules) <= 4:
                    cases.append((rules, x))
        rng = random.Random(2718)
        for _ in range(40):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 6),
                num_premises=rng.randint(1, 4),
                seed=rng.randrange(10**9),
            )
            q = oracle.random_query(spec, F(1, 2))
            cases.append((q.premises, q.conclusion.antecedent))
        feasible_count = 0
        for premises, x in cases:
            for g in grid:
                lams = pt.feasible_at(g, premises, x)
                assert (lams is None) == (simplex_form(g, premises, x) is None)
                if lams is not None:
                    assert sum(lams) == 1 and all(lam >= 0 for lam in lams)
                    assert pt.max_ratio(lams, premises, x) <= g
                    feasible_count += 1
        assert 0 < feasible_count < len(cases) * len(grid)


class TestCriticalThreshold:
    def test_cycle_bracket(self, cycle_premises, cycle_antecedent):
        bracket = pt.critical_threshold(
            cycle_premises, cycle_antecedent, tolerance=F(1, 100000)
        )
        assert bracket.upper - bracket.lower <= F(1, 100000)
        assert bracket.lower <= F(56985, 100000) <= bracket.upper + F(1, 100000)
        assert abs(bracket.midpoint - F(56984, 100000)) < F(1, 10000)
        # the returned multipliers are feasible at the upper endpoint
        ratio = pt.max_ratio(bracket.multipliers, cycle_premises, cycle_antecedent)
        assert ratio <= bracket.upper

    def test_bracket_endpoints_are_correct(self, cycle_premises, cycle_antecedent):
        bracket = pt.critical_threshold(
            cycle_premises, cycle_antecedent, tolerance=F(1, 4096)
        )
        assert pt.feasible_at(bracket.upper, cycle_premises, cycle_antecedent)
        assert (
            pt.feasible_at(bracket.lower, cycle_premises, cycle_antecedent) is None
        )

    def test_pair_example_critical_value_is_half(self):
        rules = pt.parse_rules("A -> B C\nA -> B D")
        x = rules.universe.attrs("A", "C", "D")
        bracket = pt.critical_threshold(rules, x, tolerance=F(1, 1024))
        assert bracket.lower < F(1, 2) <= bracket.upper
        exact = pt.feasible_at(F(1, 2), rules, x)
        assert exact is not None

    def test_empty_antecedent_is_exactly_zero(self):
        # every transaction type contains the empty antecedent, so no
        # transaction type is eligible and the threshold is exactly 0
        rules = pt.parse_rules("A -> B")
        x = rules.universe.empty()
        bracket = pt.critical_threshold(rules, x)
        assert bracket.lower == bracket.upper == 0
        assert pt.max_ratio(bracket.multipliers, rules, x) == 0

    def test_outside_input_is_rejected(self, cycle_premises, cycle_antecedent):
        """A tolerance that is not positive, an antecedent from another
        universe and an empty premise set raise before any table is built."""
        for tol in (0, F(-1, 2)):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                pt.critical_threshold(cycle_premises, cycle_antecedent, tol)
        other = pt.AttributeUniverse(("X", "Y")).attrs("X")
        uniform = (F(1, 3),) * 3
        calls = [
            lambda: pt.critical_threshold(cycle_premises, other),
            lambda: pt.feasible_at(F(1, 2), cycle_premises, other),
            lambda: pt.max_ratio(uniform, cycle_premises, other),
        ]
        for call in calls:
            with pytest.raises(pt.UniverseMismatchError):
                call()
        empty = pt.ImplicationSet(cycle_premises.universe, ())
        message = "critical threshold needs at least one premise"
        with pytest.raises(ValueError, match=message):
            pt.critical_threshold(empty, cycle_antecedent)
        with pytest.raises(ValueError, match=message):
            pt.feasible_at(F(1, 2), empty, cycle_antecedent)

    def test_tolerance_respected(self, cycle_premises, cycle_antecedent):
        for tol in (F(1, 100), F(1, 10000)):
            bracket = pt.critical_threshold(
                cycle_premises, cycle_antecedent, tolerance=tol
            )
            assert bracket.upper - bracket.lower <= tol
            assert bracket.tolerance == tol

    def test_coarse_brackets_keep_no_multipliers_at_lower(self):
        """At a coarse tolerance bisection can stop with ``lower`` 0 though
        the threshold is 1/2: ``lower == upper == 0`` only when the
        threshold is 0, and otherwise no multipliers exist at ``lower``."""
        rules = pt.parse_rules("A -> B C\nA -> B D")
        x = rules.universe.attrs("A", "C", "D")
        for tol in (F(1, 2), F(1)):
            bracket = pt.critical_threshold(rules, x, tolerance=tol)
            assert (bracket.lower, bracket.upper) == (0, tol)
            assert pt.feasible_at(bracket.lower, rules, x) is None
        assert pt.feasible_at(F(1, 2), rules, x) is not None
        assert pt.feasible_at(F(1, 2) - F(1, 10**6), rules, x) is None

    def test_bounded_probes_carry_a_farkas_witness(
        self, monkeypatch, cycle_premises, cycle_antecedent
    ):
        """Every probe that finds no multipliers comes back ``Optimal``, and
        its row duals ``y >= 0`` satisfy ``sum_r y_r q (W - gamma C)_{r,i}
        >= 1`` for every premise ``i`` (``W`` witnessed, ``C`` covered,
        ``q`` the denominator of ``gamma``): no nonzero ``lambda >= 0``
        keeps every row's ``(W - gamma C) lambda`` at most 0.  Checked in
        Fractions from each row's statuses and ``gamma``, on every probe
        solved for the tolerance 1e-6 brackets of the paper's cycle and of
        ``x_i -> A x_{i+1}`` cycles of length 3 to 5, by ``critical_threshold``
        and by plain bisection, which solves all 22 bisection steps."""
        from pientail import lp, threshold

        cases = [(cycle_premises, cycle_antecedent)]
        for length in (3, 4, 5):
            rules = pt.parse_rules(
                "\n".join(f"x{i} -> A x{(i + 1) % length}" for i in range(length))
            )
            cases.append((rules, rules.universe.attrs(*[f"x{i}" for i in range(length)])))
        probes = []
        real_feasible, real_solve = threshold._feasible, lp.solve

        def feasible(rows, k, gamma):
            probes.append([rows, k, gamma])
            return real_feasible(rows, k, gamma)

        def solve(program):
            outcome = real_solve(program)
            probes[-1].append(outcome)
            return outcome

        counts = []
        for (premises, antecedent), run in itertools.product(
            cases, (pt.critical_threshold, plain_bisection)
        ):
            probes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_feasible", feasible)
                patch.setattr(lp, "solve", solve)
                run(premises, antecedent, F(1, 10**6))
            bounded = 0
            for rows, k, gamma, outcome in probes:
                if isinstance(outcome, lp.Unbounded):
                    continue
                bounded += 1
                # numerators over the denominator: raw numerators would
                # clear ``>= 1`` more easily
                y = [F(v, outcome.denominator) for v in outcome.row_duals]
                assert len(y) == len(rows) and all(v >= 0 for v in y)
                weight = status_weights(gamma)
                for i in range(k):
                    total = sum(
                        v * gamma.denominator * weight[row.statuses[i]]
                        for v, row in zip(y, rows)
                    )
                    assert total >= 1
            counts.append((len(probes), bounded))
        # (probes solved, those below the threshold), by critical_threshold,
        # which settles gamma = 0 from the table, and then by plain bisection
        assert counts == [
            (4, 2), (22, 8), (1, 0), (22, 20), (2, 0), (22, 11), (1, 0), (22, 20)
        ]

    def test_pinned_cycle_bracket(self):
        """The paper's cycle at tolerance 1/1000000, pinned to the last
        probe's exact multipliers, so any change of pivot path shows."""
        rules = pt.parse_rules("B -> A C H\nC -> A D\nD -> A B")
        x = rules.universe.attrs("B", "C", "D", "H")
        bracket = pt.critical_threshold(rules, x, tolerance=F(1, 1000000))
        assert bracket.lower == F(37345, 65536)
        assert bracket.upper == F(597521, 1048576)
        assert bracket.multipliers == (
            F(357031345441, 829996793121),
            F(269514834655, 829996793121),
            F(203450613025, 829996793121),
        )

    def test_pinned_cycle_bracket_at_1e_12(self):
        """The same cycle 20 bisection steps deeper, pinned likewise."""
        rules = pt.parse_rules("B -> A C H\nC -> A D\nD -> A B")
        x = rules.universe.attrs("B", "C", "D", "H")
        bracket = pt.critical_threshold(rules, x, tolerance=F(1, 10**12))
        assert bracket.lower == F(626546025927, 1099511627776)
        assert bracket.upper == F(78318253241, 137438953472)
        denominator = 14259235959001875656113
        assert bracket.multipliers == (
            F(6133748790721407004081, denominator),
            F(4630229972476705198671, denominator),
            F(3495257195803763453361, denominator),
        )


class TestMaxRatio:
    def test_uniform_multipliers_on_cycle(self, cycle_premises, cycle_antecedent):
        uniform = (F(1, 3), F(1, 3), F(1, 3))
        assert pt.max_ratio(uniform, cycle_premises, cycle_antecedent) == F(2, 3)

    def test_tuned_multipliers_meet_their_threshold_exactly(
        self, cycle_premises, cycle_antecedent
    ):
        gamma_hat = F(5699, 10000)
        lams = [
            1 - gamma_hat,
            (1 - gamma_hat) ** 2 / gamma_hat,
            (1 - gamma_hat) ** 3 / gamma_hat**2,
        ]
        total = sum(lams)
        lams = tuple(lam / total for lam in lams)
        assert pt.max_ratio(lams, cycle_premises, cycle_antecedent) == gamma_hat

    def test_single_premise_ratio_vanishes(self):
        rules = pt.parse_rules("A -> B C")
        x = rules.universe.attrs("A", "C")
        assert pt.max_ratio((F(1),), rules, x) == 0

    def test_validation(self, cycle_premises, cycle_antecedent):
        with pytest.raises(ValueError):
            pt.max_ratio((F(1, 2), F(1, 2)), cycle_premises, cycle_antecedent)
        with pytest.raises(ValueError):
            pt.max_ratio(
                (F(1, 2), F(1, 4), F(1, 8)), cycle_premises, cycle_antecedent
            )
        with pytest.raises(ValueError):
            pt.max_ratio(
                (F(-1, 2), F(1), F(1, 2)), cycle_premises, cycle_antecedent
            )

    def test_ratio_bounds_feasibility(self):
        """Any valid multiplier vector's ratio is an upper bound for the
        critical value: feasibility holds at that ratio."""
        rng = random.Random(4242)
        for _ in range(40):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
            )
            q = oracle.random_query(spec, F(1, 2))
            x = q.conclusion.antecedent
            weights = [F(rng.randint(1, 5)) for _ in range(q.k)]
            total = sum(weights)
            lams = tuple(w / total for w in weights)
            ratio = pt.max_ratio(lams, q.premises, x)
            if 0 < ratio <= 1:
                assert pt.feasible_at(ratio, q.premises, x) is not None


TOLERANCES = (F(1, 10), F(1, 10**3), F(1, 10**6), F(1, 10**12))
# 2 and 1 run no bisection step; at 2**-20 the last step's width equals the
# tolerance; 1/3 and 3/7 are not dyadic; 10**-30 goes 100 steps deep.
EDGE_TOLERANCES = (F(2), F(1), F(1, 2**20), F(1, 3), F(3, 7), F(1, 10**30))


def _cycle(length):
    rules = pt.parse_rules(
        "\n".join(f"x{i} -> A x{(i + 1) % length}" for i in range(length))
    )
    return rules, rules.universe.attrs(*[f"x{i}" for i in range(length)])


def _fan(width):
    rules = pt.parse_rules("\n".join(f"A -> B x{i}" for i in range(width)))
    return rules, rules.universe.attrs("A", *[f"x{i}" for i in range(width)])


def _structured_cases():
    rules = pt.parse_rules("B -> A C H\nC -> A D\nD -> A B")
    cases = {"paper cycle": (rules, rules.universe.attrs("B", "C", "D", "H"))}
    cases.update({f"cycle {n}": _cycle(n) for n in (3, 4, 5, 6)})
    cases.update({f"fan {n}": _fan(n) for n in (2, 3, 4)})
    return cases


@pytest.fixture(scope="module")
def structured_brackets():
    """Plain bisection's bracket of each structured case at each
    tolerance, computed once for the tests that compare with it."""
    return {
        (name, tol): plain_bisection(premises, antecedent, tol)
        for name, (premises, antecedent) in _structured_cases().items()
        for tol in TOLERANCES + EDGE_TOLERANCES
    }


def _most_solves(tolerance):
    """Plain bisection's solves: the probes at 0 and 1 and one per step.
    ``critical_threshold`` probes no 0, so it may solve one fewer."""
    return 2 + (tolerance.denominator - 1).bit_length()


class TestWitnessPrunedBisection:
    """``critical_threshold`` probes where ``_predict`` points and skips
    what an earlier probe's Farkas vector settles; its bracket, multipliers
    included, must be plain bisection's, and it must solve no more probes
    than plain bisection."""

    def _solves(self, monkeypatch, premises, antecedent, tolerance):
        from pientail import threshold

        calls = []
        real = threshold._feasible

        def feasible(rows, k, gamma):
            calls.append(gamma)
            return real(rows, k, gamma)

        with monkeypatch.context() as patch:
            patch.setattr(threshold, "_feasible", feasible)
            bracket = pt.critical_threshold(premises, antecedent, tolerance=tolerance)
        return bracket, len(calls)

    def test_structured_cases_match_plain_bisection(
        self, monkeypatch, structured_brackets
    ):
        solves = {}
        for name, (premises, antecedent) in _structured_cases().items():
            for tol in TOLERANCES + EDGE_TOLERANCES:
                bracket, solves[name, tol] = self._solves(
                    monkeypatch, premises, antecedent, tol
                )
                assert bracket == structured_brackets[name, tol], (name, tol)
                assert solves[name, tol] <= _most_solves(tol) - 1, (name, tol)
        # rational values (1/2 for the 3-cycle, 3/4 for the 5-cycle and the
        # 4-fan) are settled by witnesses, and the irrational ones of the
        # paper's cycle and the 4- and 6-cycles by predicted probes: a finer
        # tolerance costs no more solves
        fine, coarse = F(1, 10**12), F(1, 10**6)
        for name in ("cycle 3", "cycle 5", "fan 4"):
            assert solves[name, fine] == solves[name, coarse], name
        for name in ("paper cycle", "cycle 4", "cycle 6"):
            assert solves[name, fine] <= solves[name, coarse], name
        assert solves["paper cycle", coarse] == 4
        assert solves["paper cycle", F(2)] == solves["paper cycle", F(1)] == 1

    def test_probe_sequences_are_pinned(self, monkeypatch):
        """Each probe of a tolerance 1e-6 bracket, as its grid point, the
        rows of the table it is solved on and its outcome: the paper's
        cycle (4 undominated rows of 12) and ``x_i -> A x_{i+1}`` over
        three attributes (4 of 10) and six (7 of 108).  None solves ``gamma
        = 0``; the 6-cycle's ``lower`` comes from the table's Farkas vector
        at 0, so only its closing probe reads the full table."""
        from pientail import lp, threshold

        opt, unb = lp.Optimal, lp.Unbounded
        pinned = {
            "paper cycle": (
                _structured_cases()["paper cycle"],
                [(524288, 12, opt), (786432, 4, unb), (597520, 4, opt),
                 (597521, 12, unb)],
            ),
            "cycle 3": (_cycle(3), [(524288, 10, unb)]),
            "cycle 6": (_cycle(6), [(917504, 7, unb), (838861, 108, unb)]),
        }
        real = threshold._feasible
        for name, ((premises, antecedent), want) in pinned.items():
            probes = []

            def feasible(rows, k, gamma):
                outcome = real(rows, k, gamma)
                probes.append((gamma * 2**20, len(rows), type(outcome)))
                return outcome

            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_feasible", feasible)
                pt.critical_threshold(premises, antecedent, F(1, 10**6))
            assert probes == want, name

    def test_gamma_zero_is_settled_from_the_table(self, monkeypatch):
        """``critical_threshold`` solves no probe at ``gamma = 0`` and lands
        on the side of ``_feasible(rows, k, 0)``: on the structured cases,
        200 seeded random premise sets and 100 seeded random graphs.  Where
        that probe is feasible the bracket is ``[0, 0]`` with its unit
        multipliers; elsewhere the all-ones vector of the undominated rows
        sets ``lower``, and, zero on the dropped rows, it passes a Farkas
        check in Fractions over the full table."""
        from pientail import lp, threshold

        rng = random.Random(3030)
        cases = list(_structured_cases().values())
        cases += _random_premise_sets(rng, 200)
        cases += [_random_graph(rng) for _ in range(100)]
        real_feasible, real_bound = threshold._feasible, threshold._farkas_bound
        sides = {True: 0, False: 0}
        for premises, antecedent in cases:
            rows = threshold._ratio_rows(premises, antecedent)
            k = len(premises)
            kept = threshold._undominated(rows)
            at_zero = real_feasible(rows, k, F(0))
            gammas, duals_at_zero = [], []

            def feasible(rows, k, gamma):
                gammas.append(gamma)
                return real_feasible(rows, k, gamma)

            def bound(table, p, q, y):
                if p == 0:
                    duals_at_zero.append(list(y))
                return real_bound(table, p, q, y)

            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_feasible", feasible)
                patch.setattr(threshold, "_farkas_bound", bound)
                bracket = pt.critical_threshold(premises, antecedent, F(1, 1024))
            assert 0 not in gammas
            zero = isinstance(at_zero, lp.Unbounded)
            sides[zero] += 1
            if zero:
                assert (bracket.upper, gammas, duals_at_zero) == (0, [], [])
                assert bracket.multipliers == threshold._simplex_point(at_zero.ray)
                continue
            assert bracket.upper > 0 and duals_at_zero == [[1] * len(kept)]
            y = [F(row in kept) for row in rows]
            weight = status_weights(F(0))
            for i in range(k):
                total = sum(v * weight[row.statuses[i]] for v, row in zip(y, rows))
                assert total >= 1, (premises, antecedent)
        assert min(sides.values()) >= 50, sides

    def test_the_bench_tracer_counts_each_layer(self, monkeypatch):
        """The traced benchmark rebinds the library's layers by name
        (``bench/tracing.py``).  Under its ``Tracer`` the paper cycle's
        1e-6 bracket counts 4 probes and 4 ``lp.solve`` calls, so a layer
        renamed or bypassed fails here."""
        from pientail import threshold

        bench = Path(__file__).resolve().parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))
        tracer = importlib.import_module("tracing").Tracer(sys.modules)
        premises, antecedent = _structured_cases()["paper cycle"]
        with tracer:
            threshold.critical_threshold(premises, antecedent, F(1, 10**6))
        metrics = tracer.layer_metrics()
        assert metrics["threshold.critical_threshold.calls"] == 1
        assert metrics["threshold.critical_threshold.probes"] == 4
        assert metrics["lp.solve.calls"] == 4

    def test_predictions_only_choose_probes(self, monkeypatch, structured_brackets):
        """``_predict`` only chooses where to probe: with no prediction, or
        with one fixed cell named whenever it lies in ``[lower, upper)``
        (the cell just above the value, the cell just below it, or a cell
        drawn from a seeded stream), every bracket of every structured case
        and tolerance is plain bisection's, within plain bisection's
        solves."""
        from pientail import threshold

        rng = random.Random(8080)

        def fixed(point, offset=0):
            def predict(codes, ray, lower, upper, depth):
                cell = math.floor(point * 2**depth) + offset
                return cell if lower <= cell < upper else None

            return predict

        for name, (premises, antecedent) in _structured_cases().items():
            for tol in TOLERANCES + EDGE_TOLERANCES:
                want = structured_brackets[name, tol]
                predictors = {
                    "none": lambda *args: None,
                    "above": fixed(want.upper),
                    "below": fixed(want.upper, -2),
                    "random": fixed(F(rng.randrange(2**64), 2**64)),
                }
                for kind, predict in predictors.items():
                    with monkeypatch.context() as patch:
                        patch.setattr(threshold, "_predict", predict)
                        bracket, solves = self._solves(
                            monkeypatch, premises, antecedent, tol
                        )
                    assert bracket == want, (name, tol, kind)
                    assert solves <= _most_solves(tol), (name, tol, kind)

    def test_random_premise_sets_match_plain_bisection(self, monkeypatch):
        rng = random.Random(110011)
        for _ in range(200):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 6),
                num_premises=rng.randint(1, 4),
                seed=rng.randrange(10**9),
                density=rng.choice([0.3, 0.4, 0.5]),
            )
            q = oracle.random_query(spec, F(1, 2))
            x = q.conclusion.antecedent
            for tol in TOLERANCES + EDGE_TOLERANCES:
                bracket, solves = self._solves(monkeypatch, q.premises, x, tol)
                assert bracket == plain_bisection(q.premises, x, tol), (spec, tol)
                assert solves <= _most_solves(tol) - 1, (spec, tol)

    def test_random_graphs_match_plain_bisection(self, monkeypatch):
        """Most random premise sets have threshold 0 or 1.  Rules
        ``x_i ... -> A x_f(i) ...`` over a random map ``f`` (cycles and fans
        among them) reach values strictly inside, where Farkas vectors
        settle midpoints: 60 of those, drawn from a seeded stream.  No run
        solves more than one probe per bisection step and one more."""
        rng = random.Random(515151)
        cases = 0
        while cases < 60:
            rules, x = _random_graph(rng)
            coarse = plain_bisection(rules, x, F(1, 1024))
            if coarse.upper == 0 or coarse.lower == 1 - F(1, 1024):
                continue
            cases += 1
            for tol in TOLERANCES + EDGE_TOLERANCES:
                bracket, solves = self._solves(monkeypatch, rules, x, tol)
                assert bracket == plain_bisection(rules, x, tol), (rules, tol)
                assert solves <= _most_solves(tol) - 1, (rules, tol)

    def test_witnesses_are_rechecked(
        self, monkeypatch, cycle_premises, cycle_antecedent
    ):
        """A probe outcome that does not prove its side raises instead of
        settling midpoints: a ray of the undominated rows whose worst ratio
        exceeds the probed value, and row duals that are no Farkas
        certificate.  A forged ray of the full table would pass here:
        ``lp.solve`` checks that one (``lp._check_ray``)."""
        from pientail import lp, threshold

        real = threshold._feasible
        full = threshold._ratio_rows(cycle_premises, cycle_antecedent)
        at_one = real(full, 3, F(1))
        forged = {
            "exceeds its threshold": lambda rows, k, gamma: (
                real(rows, k, gamma) if len(rows) == len(full) else at_one
            ),
            "no Farkas certificate": lambda rows, k, gamma: lp.Optimal(
                (0,) * len(rows), 1
            ),
        }
        for message, feasible in forged.items():
            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_feasible", feasible)
                with pytest.raises(RuntimeError, match=message):
                    pt.critical_threshold(cycle_premises, cycle_antecedent)


def _farkas_value(rows, gamma, y):
    """The least ``y.W_i / y.C_i`` over the premises ``i`` (``W`` witnessed,
    ``C`` covered), summed in Fractions over every row from its statuses,
    or None when some premise has ``y.W_i <= gamma y.C_i``."""
    values = []
    for i in range(len(rows[0].statuses)):
        w = sum(
            F(v) for v, row in zip(y, rows)
            if row.statuses[i] is pt.CoverStatus.WITNESSED
        )
        c = sum(
            F(v) for v, row in zip(y, rows)
            if row.statuses[i] is not pt.CoverStatus.NOT_COVERED
        )
        if w <= gamma * c:
            return None
        values.append(w / c)
    return min(values)


class TestFarkasBound:
    """``_farkas_bound`` sums only the rows whose dual is nonzero; its bound
    must be the sum over every row of the probe's table."""

    def test_matches_a_sum_over_every_row(self, monkeypatch):
        """Every bounded probe that ``critical_threshold`` and plain
        bisection solve at tolerance 1e-6, on the structured cases and 200
        seeded premise sets, on the undominated rows and on the full table:
        its duals, nonzero on at most ``k`` rows, give the bound of
        ``_farkas_value``.  One negative dual, or the duals with every row
        that witnesses some premise zeroed, raise."""
        from pientail import lp, threshold

        rng = random.Random(4242)
        cases = list(_structured_cases().values())
        cases += _random_premise_sets(rng, 200)
        real = threshold._feasible
        counts = {"undominated": 0, "full": 0, "corrupted": 0}
        for premises, antecedent in cases:
            full = len(threshold._ratio_rows(premises, antecedent))
            probes = []

            def feasible(rows, k, gamma):
                outcome = real(rows, k, gamma)
                if isinstance(outcome, lp.Optimal):
                    probes.append((rows, gamma, outcome.row_duals))
                return outcome

            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_feasible", feasible)
                pt.critical_threshold(premises, antecedent, F(1, 10**6))
                plain_bisection(premises, antecedent, F(1, 10**6))
            for rows, gamma, y in probes:
                counts["full" if len(rows) == full else "undominated"] += 1
                p, q = gamma.numerator, gamma.denominator
                assert sum(1 for v in y if v) <= len(premises)
                want = _farkas_value(rows, gamma, y)
                assert want is not None
                assert F(*threshold._farkas_bound(rows, p, q, y)) == want
                negative = list(y)
                negative[rng.randrange(len(y))] = -1
                corrupted = [negative]
                for i in range(len(premises)):
                    corrupted.append([
                        0 if row.statuses[i] is pt.CoverStatus.WITNESSED else v
                        for v, row in zip(y, rows)
                    ])
                    assert _farkas_value(rows, gamma, corrupted[-1]) is None
                for bad in corrupted:
                    with pytest.raises(RuntimeError, match="no Farkas certificate"):
                        threshold._farkas_bound(rows, p, q, bad)
                    counts["corrupted"] += 1
        assert min(counts.values()) >= 50, counts


def _det(matrix):
    """The determinant of a square matrix of Fractions, by Gaussian
    elimination with row swaps."""
    m = [list(row) for row in matrix]
    det = F(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return F(0)
        if r != c:
            m[c], m[r], det = m[r], m[c], -det
        det *= m[c][c]
        for below in m[c + 1 :]:
            f = below[c] / m[c][c]
            below[:] = [a - f * b for a, b in zip(below, m[c])]
    return det


def _cells_at(codes, g):
    """A row of status codes as its cells at ``g``: 0, g and g - 1."""
    return [(F(0), g, g - 1)[c] for c in codes]


def _independent(rows, g):
    """The first rows of status codes that are independent at ``g``, in
    order: each kept row raises the rank of those kept before it."""
    kept = []
    for row in rows:
        matrix = [_cells_at(r, g) for r in kept + [row]]
        n = len(matrix)
        # rank n exactly when some n columns have a nonzero determinant
        if any(
            _det([[line[j] for j in cols] for line in matrix])
            for cols in itertools.combinations(range(len(row)), n)
        ):
            kept.append(row)
    return kept


def _cofactors(rows, g):
    """``(-1)**i`` times the determinant of the rows' cells at ``g`` without
    column ``i``: a vector in the kernel of ``len(rows) + 1`` columns."""
    matrix = [_cells_at(row, g) for row in rows]
    return [
        (-1) ** i * _det([line[:i] + line[i + 1 :] for line in matrix])
        for i in range(len(rows) + 1)
    ]


def _value(poly, x):
    """A polynomial (coefficients from degree 0) at ``x``, by powers."""
    return sum(c * x**j for j, c in enumerate(poly))


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for (i, u), (j, v) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] += u * v
    return out


def _scan_prediction(codes, ray, lower, upper, depth):
    """``_predict`` by brute force: the rows tight at ``upper``, projected
    onto the ray's support, give their first independent ones there; their
    cofactors, signed to agree with the ray at ``upper``, are evaluated at
    every grid point of ``(lower, upper)`` with every row's product, all in
    Fractions, and the largest point where one is negative is returned."""
    support = [i for i, v in enumerate(ray) if v]
    projected = [[c[i] for i in support] for c in codes]
    top = F(upper, 2**depth)
    tight = [
        row
        for row in projected
        if not sum(v * ray[i] for v, i in zip(_cells_at(row, top), support))
    ]
    chosen = _independent(tight, top)[: len(support) - 1]
    if len(chosen) < len(support) - 1:
        return None
    at_top = _cofactors(chosen, top)
    sign = 1 if sum(v * ray[i] for v, i in zip(at_top, support)) > 0 else -1
    best = lower
    for x in range(lower + 1, upper):
        g = F(x, 2**depth)
        lam = [sign * v for v in _cofactors(chosen, g)]
        products = [sum(map(operator.mul, _cells_at(row, g), lam)) for row in projected]
        if min(lam + products) < 0:
            best = x
    return best


class TestPrediction:
    """The integer polynomial helpers behind ``_predict``, each checked
    against Fraction arithmetic that shares no code with them."""

    def test_kernel_is_the_cofactor_vector(self):
        """``_kernel`` of seeded rows of status codes, up to six columns,
        is the cofactor vector of the first rows independent at its point,
        which it returns with it, up to one sign: compared at 20 rational
        points with Fraction determinants (the grid variable ``x = 2**depth
        * g`` scales each by ``2**(depth * (size - 1))``), and its signs at
        20 dyadic points."""
        from pientail import threshold

        rng = random.Random(2718)
        compared = 0
        for _ in range(100):
            size, depth = rng.randint(1, 6), rng.choice([2, 5, 20])
            # at g = 0 and g = 1 cells vanish and rows that are independent
            # as polynomials can be dependent
            x = rng.choice([0, 1 << depth, rng.randrange(1 << depth)])
            rows = [
                tuple(rng.choice((0, 1, 1, 2, 2)) for _ in range(size))
                for _ in range(size - 1 + rng.randint(0, 2))
            ]
            rows += rows[: rng.randint(0, 1)]  # a repeated row is dependent
            rng.shuffle(rows)
            cells = ((), (0, 1), (-1 << depth, 1))
            kernel = threshold._kernel(rows, size, cells, x)
            chosen = _independent(rows, F(x, 1 << depth))[: size - 1]
            if len(chosen) < size - 1:
                assert kernel is None, rows
                continue
            lam, used = kernel
            assert used == chosen, rows
            compared += 1
            scale = F(2) ** (depth * (size - 1))
            points = [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(20)]
            got = [[_value(v, g * 2**depth) / scale for v in lam] for g in points]
            want = [_cofactors(chosen, g) for g in points]
            sign = 1 if got[0] == want[0] else -1
            assert got == [[sign * v for v in vec] for vec in want], rows
            for y in [rng.randrange(1 << depth) for _ in range(20)]:
                cofactors = _cofactors(chosen, F(y, 1 << depth))
                signs = [threshold._sign(v, y) for v in lam]
                assert signs == [(v > 0) - (v < 0) for v in (sign * c for c in cofactors)]
        assert compared >= 50

    def test_signs_are_exact(self):
        """``_sign`` at integers far beyond float range, at and beside the
        roots of products of seeded linear factors, against Fractions."""
        from pientail import threshold

        rng = random.Random(31415)
        for _ in range(300):
            roots = [rng.randint(-(2**60), 2**60) for _ in range(rng.randint(0, 5))]
            poly = [rng.choice((-3, -1, 2))]
            for r in roots:
                poly = _times(poly, [-r, 1])
            for x in roots + [r + d for r in roots for d in (-1, 1)] + [rng.randint(-(2**70), 2**70)]:
                want = _value(poly, F(x))
                assert threshold._sign(poly, x) == (want > 0) - (want < 0)

    def test_last_negative_matches_a_scan(self):
        """``_last_negative`` names the largest grid point of ``(lo, hi)``
        where some polynomial is negative, as a scan of every point at
        depth up to 10 does: on products of seeded linear factors whose
        roots lie on the grid, between grid points, repeated, or two in
        one cell (a dip that no grid point sees), and on dense ones."""
        from pientail import threshold

        rng = random.Random(16180)
        for _ in range(400):
            top = 1 << rng.randint(1, 10)
            lo = rng.randrange(top)
            hi = rng.randint(lo + 1, top)
            polys = []
            for _ in range(rng.randint(1, 4)):
                poly = [rng.choice((-2, -1, 1, 3))]
                if rng.random() < 0.2:
                    poly = [rng.randint(-(top**3), top**3) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(0, 4)):
                    den = rng.choice((1, 2, 3))
                    # most roots in [lo - 1, hi + 1], where they matter
                    span = rng.choice([(lo - 1, hi + 2)] * 3 + [(-top, 2 * top)])
                    factor = [-rng.randrange(den * span[0], den * span[1]), den]
                    poly = _times(poly, factor)
                    if rng.random() < 0.3:
                        poly = _times(poly, factor)
                polys.append(poly)
            negative = [x for x in range(lo + 1, hi) if min(_value(p, x) for p in polys) < 0]
            assert threshold._last_negative(polys, lo, hi) == max(negative, default=lo)

    def test_kernel_matches_integer_cofactors(self):
        """``_kernel`` at integer points equals, up to one sign, the
        cofactors of the rows it chose, with the cells at each point as
        integers (0, ``x`` and ``x - 2**depth``) and each cofactor a plain
        Leibniz determinant.  Those rows are independent at the kernel's
        point, so its cofactors there are not all 0; when it returns None,
        every ``size - 1`` rows are dependent there."""
        from pientail import threshold

        def det(matrix):
            total = 0
            for perm in itertools.permutations(range(len(matrix))):
                term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                for line, col in zip(matrix, perm):
                    term *= line[col]
                total += term
            return total

        def cofactors(rows, x, top):
            matrix = [[(0, x, x - top)[c] for c in row] for row in rows]
            size = len(rows) + 1
            return [
                (-1) ** i * det([line[:i] + line[i + 1 :] for line in matrix])
                for i in range(size)
            ]

        rng = random.Random(5772)
        compared = 0
        for _ in range(300):
            size, depth = rng.randint(1, 5), rng.choice([2, 5, 20, 40])
            top = 1 << depth
            x = rng.choice([0, top, rng.randrange(top)])
            rows = [
                tuple(rng.choice((0, 1, 1, 2, 2)) for _ in range(size))
                for _ in range(size - 1 + rng.randint(0, 2))
            ]
            rows += rows[: rng.randint(0, 1)]
            rng.shuffle(rows)
            kernel = threshold._kernel(rows, size, ((), (0, 1), (-top, 1)), x)
            if kernel is None:
                for chosen in itertools.combinations(rows, size - 1):
                    assert not any(cofactors(chosen, x, top)), rows
                continue
            lam, chosen = kernel
            assert len(chosen) == size - 1 and set(chosen) <= set(rows)
            at_x = cofactors(chosen, x, top)
            assert any(at_x), rows
            sign = 1 if [_value(v, x) for v in lam] == at_x else -1
            for y in [x, 0, top, *(rng.randint(-top, 2 * top) for _ in range(8))]:
                want = [sign * v for v in cofactors(chosen, y, top)]
                assert [_value(v, y) for v in lam] == want, (rows, y)
            compared += 1
        assert compared >= 200

    def test_crossing_matches_a_scan(self):
        """``_crossing`` names the last point of ``[s, e)`` with the sign at
        ``s``, as a scan of every point does, on 600 seeded monotone integer
        polynomials of degree 1 to 4: a product of linear factors whose
        roots lie at or below ``s`` (so that it is monotone beyond them),
        less a constant that puts its sign change in ``(s, e]``, negated for
        half of them, with ``s`` near 0, ``2**20`` or ``2**40``."""
        from pientail import threshold

        rng = random.Random(6180)
        for _ in range(600):
            base = rng.choice([0, 1 << 20, 1 << 40]) + rng.randrange(1000)
            poly = [rng.randint(1, 3)]
            for _ in range(rng.randint(1, 4)):
                den = rng.choice((1, 2, 3))
                poly = _times(poly, [-rng.randint(den * (base - 500), den * base), den])
            s = base + rng.randrange(50)
            e = s + rng.randint(2, 300)
            poly[0] -= rng.randint(_value(poly, s) + 1, _value(poly, e))
            if rng.random() < 0.5:
                poly = [-c for c in poly]
            first = threshold._sign(poly, s)
            assert first != 0 and threshold._sign(poly, e) != first
            want = max(x for x in range(s, e) if threshold._sign(poly, x) == first)
            assert threshold._crossing(poly, s, e) == want, (poly, s, e)

    def test_predicted_cell_matches_a_scan(self):
        """``_predict`` from the ray of real probes at depth 8 or 10 equals
        ``_scan_prediction``, from the full table and from its undominated
        rows: on the structured cases up to five premises and on 30 seeded
        ``x_i ... -> A x_f(i) ...`` rule sets, at two seeded feasible grid
        points each, with a seeded lower end below."""
        from pientail import lp, threshold

        rng = random.Random(1414)
        cases = [case for name, case in _structured_cases().items() if name != "cycle 6"]
        while len(cases) < 38:
            cases.append(_random_graph(rng))
        predicted = 0
        for premises, antecedent in cases:
            rows = threshold._ratio_rows(premises, antecedent)
            undominated = threshold._undominated(rows)
            depth = rng.choice((8, 10))
            bracket = pt.critical_threshold(premises, antecedent, F(1, 1 << depth))
            least = int(bracket.upper * 2**depth)
            for upper in [rng.randint(max(least, 1), 1 << depth) for _ in range(2)]:
                outcome = threshold._feasible(rows, len(premises), F(upper, 1 << depth))
                assert isinstance(outcome, lp.Unbounded)
                lower = rng.randrange(upper)
                for table in (rows, undominated):
                    codes = [row.codes for row in table]
                    got = threshold._predict(table, outcome.ray, lower, upper, depth)
                    want = _scan_prediction(codes, outcome.ray, lower, upper, depth)
                    assert got == want
                    predicted += got is not None and got > lower
        assert predicted >= 20


_RANK = {
    pt.CoverStatus.VIOLATED: 0,
    pt.CoverStatus.NOT_COVERED: 1,
    pt.CoverStatus.WITNESSED: 2,
}


def _pairwise_undominated(rows):
    """The rows no other row dominates, by comparing every pair of rows'
    statuses by rank: violated < not covered < witnessed."""
    ranks = [[_RANK[s] for s in row.statuses] for row in rows]
    return [
        row
        for r, row in zip(ranks, rows)
        if not any(s != r and all(map(operator.ge, s, r)) for s in ranks)
    ]


def _random_premise_sets(rng, count):
    """Seeded random premise sets, each with its conclusion's antecedent."""
    for _ in range(count):
        spec = oracle.RandomInstanceSpec(
            num_attrs=rng.randint(2, 6),
            num_premises=rng.randint(1, 4),
            seed=rng.randrange(10**9),
            density=rng.choice([0.3, 0.4, 0.5]),
        )
        q = oracle.random_query(spec, F(1, 2))
        yield q.premises, q.conclusion.antecedent


def _random_tables(rng, count):
    """Ratio tables of seeded random premise sets, with their sizes."""
    from pientail import threshold

    for premises, antecedent in _random_premise_sets(rng, count):
        yield threshold._ratio_rows(premises, antecedent), len(premises)


def _random_graph(rng):
    """Seeded rules ``x_i ... -> A x_f(i) ...`` over a random map ``f``
    (cycles and fans among them), with the antecedent of every ``x_i``:
    their thresholds often lie strictly inside (0, 1)."""
    k = rng.randint(2, 4)
    names = [f"x{i}" for i in range(k)]
    lines = []
    for i in range(k):
        ante = [names[i]] + [v for v in names if rng.random() < 0.2]
        cons = ["A", rng.choice(names)] + [v for v in names if rng.random() < 0.2]
        lines.append(" ".join(ante) + " -> " + " ".join(cons))
    rules = pt.parse_rules("\n".join(lines))
    return rules, rules.universe.attrs(*names)


class TestUndominated:
    """``critical_threshold`` solves most probes on the ratio rows that no
    other row dominates; the rows it drops must be implied at every
    ``gamma``, and every returned result still comes from the full table."""

    def test_matches_a_pairwise_scan(self):
        """``_undominated`` keeps, in order, exactly the rows that the
        pairwise definition keeps: on the structured cases' tables, on 200
        seeded random premise sets' tables, and on 300 seeded tables of
        distinct random status codes, shuffled."""
        from pientail import threshold

        rng = random.Random(4711)
        tables = [
            threshold._ratio_rows(premises, antecedent)
            for premises, antecedent in _structured_cases().values()
        ]
        tables += [rows for rows, _ in _random_tables(rng, 200)]
        for _ in range(300):
            size = rng.randint(1, 8)
            codes = {
                tuple(rng.choice((0, 1, 2)) for _ in range(size))
                for _ in range(rng.randint(0, 40))
            }
            codes = rng.sample(sorted(codes), len(codes))
            tables.append([SignatureRow(c, 0) for c in codes])
        dropped = 0
        for rows in tables:
            kept = threshold._undominated(rows)
            assert kept == _pairwise_undominated(rows)
            dropped += len(rows) - len(kept)
        assert dropped >= 1000

    def test_filtered_probes_hold_for_the_full_table(self):
        """At ``gamma`` 0, 1/k, two interior rationals, (k-1)/k and 1, the
        undominated rows are feasible exactly when the full table is, their
        ray passes every full row, and their Farkas vector, zero on the
        dropped rows, proves the full table infeasible: checked in
        Fractions from the rows' statuses, on the structured cases, on 200
        seeded random premise sets and on 100 seeded random graphs.  At 0
        both rays give the same multipliers."""
        from pientail import lp, threshold

        rng = random.Random(9001)
        tables = [
            (threshold._ratio_rows(premises, antecedent), len(premises))
            for premises, antecedent in _structured_cases().values()
        ]
        tables += list(_random_tables(rng, 200))
        for _ in range(100):
            rules, antecedent = _random_graph(rng)
            tables.append((threshold._ratio_rows(rules, antecedent), len(rules)))
        outcomes = {lp.Optimal: 0, lp.Unbounded: 0}
        for rows, k in tables:
            kept = threshold._undominated(rows)
            for gamma in (F(0), F(1, k), F(3, 7), F(5, 8), F(k - 1, k), F(1)):
                filtered = threshold._feasible(kept, k, gamma)
                full = threshold._feasible(rows, k, gamma)
                assert type(filtered) is type(full), (rows, gamma)
                outcomes[type(filtered)] += 1
                weight = status_weights(gamma)
                if isinstance(filtered, lp.Unbounded):
                    lam = filtered.ray
                    if gamma == 0:  # where critical_threshold returns it
                        ray = full.ray
                        assert [v * sum(ray) for v in lam] == [v * sum(lam) for v in ray]
                    for row in rows:
                        cells = [weight[s] for s in row.statuses]
                        assert sum(map(operator.mul, cells, lam)) <= 0
                    continue
                duals = dict(zip(kept, filtered.row_duals))
                y = [F(duals.get(row, 0), filtered.denominator) for row in rows]
                assert min(y) >= 0
                for i in range(k):
                    total = sum(
                        v * gamma.denominator * weight[row.statuses[i]]
                        for v, row in zip(y, rows)
                    )
                    assert total >= 1, (rows, gamma)
        assert min(outcomes.values()) >= 200, outcomes

    def test_a_wrong_filter_never_changes_a_bracket(
        self, monkeypatch, structured_brackets
    ):
        """With ``_undominated`` made to drop one undominated row, in turn
        each row it keeps, ``critical_threshold`` either raises on a ray
        that fails the full table or returns plain bisection's bracket."""
        from pientail import threshold

        real = threshold._undominated
        raised = returned = 0
        for name, (premises, antecedent) in _structured_cases().items():
            if name == "cycle 6":
                continue
            tol = F(1, 10**6)
            want = structured_brackets[name, tol]
            count = len(real(threshold._ratio_rows(premises, antecedent)))
            for drop in range(count):

                def undominated(rows, drop=drop):
                    kept = real(rows)
                    return kept[:drop] + kept[drop + 1 :]

                with monkeypatch.context() as patch:
                    patch.setattr(threshold, "_undominated", undominated)
                    try:
                        bracket = pt.critical_threshold(premises, antecedent, tol)
                    except RuntimeError as error:
                        assert "exceeds its threshold" in str(error)
                        raised += 1
                        continue
                assert bracket == want, (name, drop)
                returned += 1
        assert raised >= 5 and returned >= 5, (raised, returned)

    def test_six_cycle_solves_the_full_table_at_most_twice(
        self, monkeypatch, structured_brackets
    ):
        """The 6-cycle's 108 ratio rows have 7 undominated ones; at 1e-6
        and 1e-30 at most 2 solves use the full table, and the brackets
        are plain bisection's."""
        from pientail import threshold

        premises, antecedent = _structured_cases()["cycle 6"]
        rows = threshold._ratio_rows(premises, antecedent)
        assert (len(rows), len(threshold._undominated(rows))) == (108, 7)
        real = threshold._feasible
        for tol in (F(1, 10**6), F(1, 10**30)):
            sizes = []

            def feasible(rows, k, gamma):
                sizes.append(len(rows))
                return real(rows, k, gamma)

            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_feasible", feasible)
                bracket = pt.critical_threshold(premises, antecedent, tol)
            assert bracket == structured_brackets["cycle 6", tol]
            assert sizes.count(108) <= 2 and set(sizes) <= {7, 108}, (tol, sizes)


def _random_premises(rng):
    """Seeded rules over 1 to 8 attributes, 1 to 6 of them, some repeated
    and some with an empty side, with a seeded antecedent."""
    u = pt.AttributeUniverse(tuple("ABCDEFGH"[: rng.randint(1, 8)]))

    def attrs(density):
        return u.attrs(*[a for a in u.names if rng.random() < density])

    rules = []
    for _ in range(rng.randint(1, 6)):
        if rules and rng.random() < 0.2:
            rules.append(rng.choice(rules))
        else:
            rules.append(pt.PartialImplication(attrs(0.3), attrs(0.4)))
    return pt.ImplicationSet(u, tuple(rules)), attrs(0.5)


class TestRayCheck:
    """``critical_threshold`` checks a ray solved on the full table only in
    ``lp.solve``, which substitutes it into the probe's rows, and a ray of
    the undominated rows also by its worst ratio over every row: the two
    checks must reject the same rays."""

    def test_substitution_rejects_what_the_worst_ratio_rejects(self):
        """On 300 seeded ratio tables, at ``gamma`` 0, 1, 1/k, (k-1)/k and
        three seeded values, ``lp._check_ray`` on the cone program raises
        for a nonnegative, nonzero integer ray exactly when its worst ratio
        over the same rows exceeds ``gamma``: for the probe's own ray (when
        there is one), each unit vector and seeded rays."""
        from pientail import lp, threshold

        rng = random.Random(6174)
        counts = {"rejected": 0, "passed": 0, "tight": 0, "duplicate": 0}
        for _ in range(300):
            premises, antecedent = _random_premises(rng)
            k = len(premises)
            counts["duplicate"] += len(set(premises)) < k
            rows = threshold._ratio_rows(premises, antecedent)
            gammas = [F(0), F(1), F(1, k), F(k - 1, k)]
            gammas += [F(rng.randint(0, q), q) for q in rng.sample(range(1, 12), 3)]
            for gamma in gammas:
                program = threshold._cone_program(rows, k, gamma)
                rays = [tuple(int(i == j) for i in range(k)) for j in range(k)]
                outcome = threshold._feasible(rows, k, gamma)
                if isinstance(outcome, lp.Unbounded):
                    rays.append(outcome.ray)
                for _ in range(4):
                    ray = [rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(k)]
                    ray[rng.randrange(k)] += 1
                    rays.append(tuple(ray))
                for ray in rays:
                    w, c = threshold._worst_ratio(rows, ray)
                    exceeds = w * gamma.denominator > gamma.numerator * c
                    try:
                        lp._check_ray(program, {j: v for j, v in enumerate(ray) if v})
                    except RuntimeError as error:
                        assert "escapes the feasible cone" in str(error)
                        assert exceeds, (premises, antecedent, gamma, ray)
                        counts["rejected"] += 1
                    else:
                        assert not exceeds, (premises, antecedent, gamma, ray)
                        counts["passed"] += 1
                        counts["tight"] += c > 0 and F(w, c) == gamma
        assert min(counts.values()) >= 50, counts


class TestDecideGeneral:
    def test_cycle_example(self, cycle_query):
        verdict = pt.decide_general(cycle_query)
        assert verdict.holds
        assert verdict.regime is pt.Regime.GENERAL_GAMMA_STAR
        assert pt.check_certificate(cycle_query, verdict.certificate)

    def test_cycle_fails_below_critical(self):
        q = make_query("B -> A C H\nC -> A D\nD -> A B", "B C D H -> A", F(14, 25))
        verdict = pt.decide_general(q)
        assert not verdict.holds
        cx = verdict.counterexample
        for premise in q.premises:
            assert pt.satisfies(cx, premise, q.gamma)
        assert not pt.satisfies(cx, q.conclusion, q.gamma)

    def test_agrees_with_lp_everywhere(self):
        rng = random.Random(13131)
        gammas = [F(1, 5), F(9, 20), F(57, 100), F(7, 10), F(9, 10)]
        for _ in range(300):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 6),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
                density=rng.choice([0.3, 0.4, 0.5]),
            )
            q = oracle.random_query(spec, rng.choice(gammas))
            assert pt.decide_general(q).holds == pt.decide_lp(q).holds

    def test_range_contract(self):
        with pytest.raises(ValueError):
            pt.decide_general(make_query("A -> B", "A -> B", F(0)))
        with pytest.raises(ValueError):
            pt.decide_general(make_query("A -> B", "A -> B", F(1)))
        with pytest.raises(ValueError):
            pt.decide_general(make_query("", "A -> B", F(1, 2)))


class TestGridAgainstBracket:
    def test_grid_estimate_is_a_certified_upper_bound(self):
        """Every grid point is an actual multiplier vector, so the grid
        minimum can only sit at or above the exact critical value: it
        exceeds any certified lower bound and is itself feasible."""
        rng = random.Random(6060)
        for _ in range(25):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
            )
            q = oracle.random_query(spec, F(1, 2))
            x = q.conclusion.antecedent
            bracket = pt.critical_threshold(q.premises, x, tolerance=F(1, 2048))
            grid = oracle.grid_min_max(q.premises, x, steps=60)
            assert bracket.lower <= grid <= 1
            if grid > 0:
                assert pt.feasible_at(grid, q.premises, x) is not None

    def test_bracket_multipliers_certify_the_upper_endpoint(self):
        rng = random.Random(8181)
        for _ in range(30):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(1, 3),
                seed=rng.randrange(10**9),
            )
            q = oracle.random_query(spec, F(1, 2))
            x = q.conclusion.antecedent
            bracket = pt.critical_threshold(q.premises, x, tolerance=F(1, 256))
            assert bracket.upper - bracket.lower <= F(1, 256) or bracket.upper == 0
            ratio = pt.max_ratio(bracket.multipliers, q.premises, x)
            assert ratio <= bracket.upper
