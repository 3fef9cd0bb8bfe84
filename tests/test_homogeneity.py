"""Homogeneity: Horn closures against the transaction-level definition."""

import random
from fractions import Fraction
from itertools import product

import pytest

import oracle
import pientail as pt
from conftest import make_query


@pytest.fixture
def cycle_rules(cycle_premises):
    return cycle_premises


def rules_over(names, *pairs):
    u = pt.AttributeUniverse(tuple(names))
    return pt.ImplicationSet(
        u,
        tuple(
            pt.PartialImplication(u.attrs(*lhs), u.attrs(*rhs)) for lhs, rhs in pairs
        ),
    )


class TestHornClosure:
    def test_cycle_closure_reaches_everything(self, cycle_rules):
        u = cycle_rules.universe
        closed = pt.horn_closure(u.attrs("B"), cycle_rules)
        assert closed == u.attrs("A", "B", "C", "D", "H")

    def test_no_rule_fires(self, cycle_rules):
        u = cycle_rules.universe
        assert pt.horn_closure(u.attrs("A"), cycle_rules) == u.attrs("A")

    def test_chain(self):
        rules = rules_over("ABC", ("A", "B"), ("B", "C"))
        u = rules.universe
        assert pt.horn_closure(u.attrs("A"), rules) == u.attrs("A", "B", "C")

    def test_extensive_monotone_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(1, 7),
                num_premises=rng.randint(0, 4),
                seed=rng.randrange(10**9),
            )
            rules = oracle.random_implication_set(spec)
            u = rules.universe
            small = pt.AttrSet(u, rng.randrange(1 << u.size))
            big = small | pt.AttrSet(u, rng.randrange(1 << u.size))
            c_small = pt.horn_closure(small, rules)
            c_big = pt.horn_closure(big, rules)
            assert small <= c_small
            assert c_small <= c_big
            assert pt.horn_closure(c_small, rules) == c_small


class TestEnforcesHomogeneity:
    def test_cycle_is_nice_but_its_pairs_are_not(self, cycle_rules):
        assert pt.enforces_homogeneity(cycle_rules)
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert not pt.enforces_homogeneity(cycle_rules.subset(pair))

    def test_common_antecedent_families_are_nice(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 7)
            spec = oracle.RandomInstanceSpec(
                num_attrs=n, num_premises=rng.randint(1, 4), seed=rng.randrange(10**9)
            )
            base = oracle.random_implication_set(spec)
            u = base.universe
            ante = pt.AttrSet(u, rng.randrange(1 << n))
            rules = pt.ImplicationSet(
                u,
                tuple(pt.PartialImplication(ante, imp.consequent) for imp in base),
            )
            assert pt.enforces_homogeneity(rules)
            assert oracle.brute_force_homogeneity(rules)

    def test_small_sets_trivially_nice(self):
        rules = rules_over("AB", ("A", "B"))
        assert pt.enforces_homogeneity(rules)
        assert oracle.brute_force_homogeneity(rules)
        empty = pt.ImplicationSet(pt.AttributeUniverse(("A",)), ())
        assert pt.enforces_homogeneity(empty)
        assert oracle.brute_force_homogeneity(empty)

    def test_disjoint_pair_is_not_nice(self):
        rules = rules_over("ABCD", ("A", "B"), ("C", "D"))
        assert not pt.enforces_homogeneity(rules)
        assert not oracle.brute_force_homogeneity(rules)

    def test_shared_antecedent_pair_is_nice(self):
        rules = rules_over("ABCD", ("A", "BC"), ("A", "BD"))
        assert pt.enforces_homogeneity(rules)
        assert oracle.brute_force_homogeneity(rules)

    def test_closure_test_matches_brute_force_on_random_sets(self):
        """The cheap closure condition and the exponential transaction
        check must agree everywhere."""
        rng = random.Random(20260814)
        for _ in range(500):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 10),
                num_premises=rng.randint(1, 4),
                seed=rng.randrange(10**9),
                density=rng.choice([0.2, 0.35, 0.5]),
            )
            rules = oracle.random_implication_set(spec)
            assert pt.enforces_homogeneity(rules) == oracle.brute_force_homogeneity(rules)

    def test_enumeration_cap(self):
        u = pt.AttributeUniverse(tuple(f"x{i}" for i in range(24)))
        rules = pt.ImplicationSet(
            u, (pt.PartialImplication(u.attrs("x0"), u.full() - u.attrs("x0")),)
        )
        with pytest.raises(pt.AttributeCapError):
            oracle.brute_force_homogeneity(rules)


def two_premise_nicety(first, second):
    """The pair lemma: two rules enforce homogeneity exactly when each
    antecedent lies in the other rule's span."""
    return first.antecedent <= second.span and second.antecedent <= first.span


class TestTwoPremiseNicety:
    def test_pair_examples(self):
        nice = rules_over("ABCD", ("A", "BC"), ("A", "BD"))
        assert two_premise_nicety(nice[0], nice[1])
        crossed = rules_over("ABCD", ("A", "B"), ("B", "A"))
        assert two_premise_nicety(crossed[0], crossed[1])
        disjoint = rules_over("ABCD", ("A", "B"), ("C", "D"))
        assert not two_premise_nicety(disjoint[0], disjoint[1])
        for pair in (nice, crossed, disjoint):
            assert pt.enforces_homogeneity(pair) == two_premise_nicety(*pair)

    def test_matches_general_test_exhaustively_n3(self):
        """All pairs of implications over three attributes."""
        u = pt.AttributeUniverse(("A", "B", "C"))
        implications = [
            pt.PartialImplication(pt.AttrSet(u, x), pt.AttrSet(u, y))
            for x, y in product(range(8), repeat=2)
        ]
        for first, second in product(implications, repeat=2):
            rules = pt.ImplicationSet(u, (first, second))
            assert two_premise_nicety(first, second) == pt.enforces_homogeneity(
                rules
            )

    def test_matches_general_test_sampled_n5(self):
        # the full cross product at five attributes is 2**20 pairs; sample
        rng = random.Random(17)
        u = pt.AttributeUniverse(("A", "B", "C", "D", "E"))
        for _ in range(3000):
            first = pt.PartialImplication(
                pt.AttrSet(u, rng.randrange(32)), pt.AttrSet(u, rng.randrange(32))
            )
            second = pt.PartialImplication(
                pt.AttrSet(u, rng.randrange(32)), pt.AttrSet(u, rng.randrange(32))
            )
            rules = pt.ImplicationSet(u, (first, second))
            assert two_premise_nicety(first, second) == pt.enforces_homogeneity(
                rules
            )


class TestNicetyAndEntailment:
    def test_premises_of_proper_entailments_are_nice(self):
        """Whenever an entailment needs all of its premises, those
        premises enforce homogeneity.

        Unconstrained random queries almost never need every premise, so
        half of the instances here are built to: rules sharing an
        antecedent whose consequents each contribute one private
        attribute, against the conclusion that recombines all of them."""
        rng = random.Random(97)
        found = 0
        queries = []
        letters = ("A", "B", "C", "D", "E", "F")
        for _ in range(100):
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
            conclusion = pt.PartialImplication(
                u.attrs(shared, *private), u.attrs(common)
            )
            gamma = Fraction(k - 1, k) if rng.random() < 0.5 else Fraction(9, 10)
            queries.append(pt.EntailmentQuery(rules, conclusion, gamma))
        for _ in range(100):
            spec = oracle.RandomInstanceSpec(
                num_attrs=rng.randint(2, 5),
                num_premises=rng.randint(2, 3),
                seed=rng.randrange(10**9),
            )
            gamma = rng.choice([Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)])
            queries.append(oracle.random_query(spec, gamma))
        for q in queries:
            if q.conclusion.consequent <= q.conclusion.antecedent:
                continue
            res = pt.properly_entails(q)
            if res.holds and res.proper:
                assert pt.enforces_homogeneity(q.premises)
                found += 1
        # the worked example is proper as well, so the property is never vacuous
        q = make_query("A -> B C\nA -> B D", "A C D -> B", Fraction(1, 2))
        assert pt.properly_entails(q).proper
        assert pt.enforces_homogeneity(q.premises)
        assert found >= 50
