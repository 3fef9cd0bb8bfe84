"""Independent brute-force cross-checks: bounded counterexample search
and the coarse grid scan for the critical threshold."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracle
import pientail as pt
from conftest import make_query


class TestSearchCounterexample:
    def test_finds_augmentation_counterexample(self):
        q = make_query("A -> B", "A C -> B C", F(1, 2))
        found = oracle.search_counterexample(q)
        assert found is not None
        u = q.universe
        assert found == pt.Dataset(u, {u.attrs("A", "B"): 1, u.attrs("A", "C"): 1})
        for premise in q.premises:
            assert pt.satisfies(found, premise, q.gamma)
        assert not pt.satisfies(found, q.conclusion, q.gamma)

    def test_none_on_holding_query(self, pair_query):
        assert oracle.search_counterexample(pair_query) is None

    def test_none_on_tautology(self):
        q = make_query("A -> B", "A B -> A", F(1, 2))
        assert oracle.search_counterexample(q) is None

    def test_never_contradicts_exact_decision(self):
        """Whatever the bounded search returns must agree with the LP:
        a found dataset refutes, and on holding queries nothing exists."""
        rng = random.Random(31337)
        found_some = 0
        for _ in range(200):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(0, 3),
                seed=rng.randrange(10**9),
            )
            gamma = rng.choice([F(1, 4), F(1, 2), F(3, 5), F(3, 4)])
            q = oracle.random_query(spec, gamma)
            holds = pt.decide_lp(q).holds
            found = oracle.search_counterexample(q, max_mult=4, max_support=3)
            if holds:
                assert found is None
            if found is not None:
                found_some += 1
                for premise in q.premises:
                    assert pt.satisfies(found, premise, q.gamma)
                assert not pt.satisfies(found, q.conclusion, q.gamma)
        assert found_some >= 20

    def test_respects_multiplicity_bound(self):
        # the pair example needs multiplicity ~gamma/(1-gamma); at 49/100
        # a counterexample exists within small bounds
        q = make_query("A -> B C\nA -> B D", "A C D -> B", F(49, 100))
        assert oracle.search_counterexample(q, max_mult=1, max_support=2) is None
        found = oracle.search_counterexample(q, max_mult=49, max_support=3)
        assert found is not None

    def test_clear_import_error_without_numpy(self, monkeypatch):
        q = make_query("A -> B", "A C -> B C", F(1, 2))
        monkeypatch.setitem(sys.modules, "numpy", None)  # import now fails
        with pytest.raises(ImportError, match="search_counterexample needs numpy"):
            oracle.search_counterexample(q)


def test_import_leaves_numpy_unloaded():
    """numpy is a test extra, not a runtime dependency: the package and
    its CLI import without it."""
    src = str(Path(pt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pientail, pientail.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestGridMinMax:
    def test_cycle_estimate_bounds_critical_value(
        self, cycle_premises, cycle_antecedent
    ):
        estimate = oracle.grid_min_max(cycle_premises, cycle_antecedent, steps=200)
        assert estimate == F(65, 114)
        bracket = pt.critical_threshold(
            cycle_premises, cycle_antecedent, tolerance=F(1, 100000)
        )
        assert bracket.lower - F(1, 10000) <= estimate <= F(576, 1000)

    def test_pair_estimate_is_exact(self):
        rules = pt.parse_rules("A -> B C\nA -> B D")
        x = rules.universe.attrs("A", "C", "D")
        assert oracle.grid_min_max(rules, x, steps=60) == F(1, 2)

    def test_single_premise_is_zero(self):
        rules = pt.parse_rules("A -> B C")
        x = rules.universe.attrs("A", "C")
        assert oracle.grid_min_max(rules, x, steps=60) == 0

    def test_refinement_never_increases(self, cycle_premises, cycle_antecedent):
        coarse = oracle.grid_min_max(cycle_premises, cycle_antecedent, steps=60)
        medium = oracle.grid_min_max(cycle_premises, cycle_antecedent, steps=120)
        fine = oracle.grid_min_max(cycle_premises, cycle_antecedent, steps=240)
        assert coarse >= medium >= fine

    def test_premise_count_contract(self):
        rules = pt.parse_rules("A -> B\nC -> D\nE -> A\nB -> C\nD -> E")
        with pytest.raises(ValueError):
            oracle.grid_min_max(rules, rules.universe.attrs("A"), steps=10)


class TestRandomGenerators:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            oracle.RandomInstanceSpec(num_attrs=0, num_premises=1, seed=1)
        with pytest.raises(ValueError):
            oracle.RandomInstanceSpec(num_attrs=11, num_premises=1, seed=1)
        with pytest.raises(ValueError):
            oracle.RandomInstanceSpec(num_attrs=3, num_premises=5, seed=1)

    def test_generation_is_deterministic(self):
        spec = oracle.RandomInstanceSpec(num_attrs=4, num_premises=2, seed=99)
        a = oracle.random_query(spec, F(1, 2))
        b = oracle.random_query(spec, F(1, 2))
        assert str(a.premises) == str(b.premises)
        assert str(a.conclusion) == str(b.conclusion)

    def test_generated_queries_share_a_universe(self):
        rng = random.Random(606)
        for _ in range(50):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(1, 6),
                num_premises=rng.randint(0, 3),
                seed=rng.randrange(10**9),
            )
            q = oracle.random_query(spec, F(1, 2))
            assert q.k == spec.num_premises
            for premise in q.premises:
                assert premise.antecedent.universe == q.universe
