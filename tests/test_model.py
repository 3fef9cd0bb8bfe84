"""Core model: attribute sets, implications, datasets, confidence."""

import random
from fractions import Fraction

import pytest

import oracle
import pientail as pt
from pientail.model import weight


@pytest.fixture
def u():
    return pt.AttributeUniverse(("A", "B", "C", "D"))


class TestAttrSet:
    def test_set_algebra(self, u):
        ab = u.attrs("A", "B")
        bc = u.attrs("B", "C")
        assert (ab | bc).names == ("A", "B", "C")
        assert (ab & bc).names == ("B",)
        assert (ab - bc).names == ("A",)
        assert u.attrs("B") <= ab
        assert not ab <= bc
        assert "A" in ab and "C" not in ab
        assert len(ab) == 2
        assert str(u.attrs("C", "A")) == "A C"

    def test_empty_and_full(self, u):
        assert u.empty().is_empty
        assert not u.full().is_empty
        assert u.empty() <= u.attrs("A")
        assert u.attrs("A") <= u.full()

    def test_universe_mismatch_rejected(self, u):
        other = pt.AttributeUniverse(("A", "B"))
        with pytest.raises(pt.UniverseMismatchError):
            u.attrs("A") | other.attrs("B")

    def test_universe_validation(self):
        with pytest.raises(ValueError):
            pt.AttributeUniverse(("A", "A"))
        with pytest.raises(ValueError):
            pt.AttributeUniverse(("A B",))

    def test_universe_takes_any_number_of_attributes(self):
        names = tuple(f"x{i}" for i in range(200))
        big = pt.AttributeUniverse(names)
        assert big.size == 200
        assert big.attrs("x199").bits == 1 << 199
        assert big.full().bits == (1 << 200) - 1
        assert str(big.attrs("x0", "x199")) == "x0 x199"

    def test_unknown_attribute(self, u):
        with pytest.raises(KeyError):
            u.attrs("Z")


class TestImplication:
    def test_span_is_built_once_and_left_out_of_equality(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B", "C"))
        assert rule.span == u.attrs("A", "B", "C")
        assert rule.span is rule.span
        fresh = pt.PartialImplication(u.attrs("A"), u.attrs("B", "C"))
        assert fresh == rule and hash(fresh) == hash(rule)  # one cached, one not
        assert repr(fresh) == repr(rule)
        with pytest.raises(AttributeError):
            rule.antecedent = u.empty()  # still frozen


class TestCoverStatus:
    def test_three_statuses(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
        assert pt.cover_status(u.attrs("C"), rule) is pt.CoverStatus.NOT_COVERED
        assert pt.cover_status(u.attrs("A", "C"), rule) is pt.CoverStatus.VIOLATED
        assert pt.cover_status(u.attrs("A", "B"), rule) is pt.CoverStatus.WITNESSED

    def test_empty_antecedent_always_covers(self, u):
        rule = pt.PartialImplication(u.empty(), u.attrs("B"))
        assert pt.cover_status(u.empty(), rule) is pt.CoverStatus.VIOLATED
        assert pt.cover_status(u.attrs("B"), rule) is pt.CoverStatus.WITNESSED

    def test_weight_values(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
        g = Fraction(3, 5)
        assert weight(u.attrs("A", "B"), rule, g) == Fraction(2, 5)
        assert weight(u.attrs("A"), rule, g) == Fraction(-3, 5)
        assert weight(u.attrs("B"), rule, g) == 0

    def test_weight_gamma_domain(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
        with pytest.raises(ValueError):
            weight(u.attrs("A"), rule, Fraction(3, 2))
        with pytest.raises(TypeError):
            weight(u.attrs("A"), rule, 0.5)


class TestDataset:
    def test_multiplicities(self, u):
        d = pt.Dataset(u, {u.attrs("A", "B"): 2, u.attrs("A"): 1, u.attrs("C"): 0})
        assert d.multiplicity(u.attrs("A", "B")) == 2
        assert d.multiplicity(u.attrs("C")) == 0
        assert d.total() == 3
        assert len(d) == 2

    def test_negative_multiplicity_rejected(self, u):
        with pytest.raises(ValueError):
            pt.Dataset(u, {u.attrs("A"): -1})

    def test_support(self, u):
        d = pt.Dataset(u, {u.attrs("A", "B"): 2, u.attrs("A", "B", "C"): 1, u.attrs("B"): 4})
        assert pt.support(d, u.attrs("A")) == 3
        assert pt.support(d, u.attrs("A", "B")) == 3
        assert pt.support(d, u.attrs("A", "C")) == 1
        assert pt.support(d, u.empty()) == 7

    def test_support_monotone_under_superset(self, u):
        rng = random.Random(5)
        for _ in range(200):
            d = pt.Dataset(
                u,
                {
                    pt.AttrSet(u, rng.randrange(16)): rng.randint(1, 5)
                    for _ in range(rng.randint(0, 5))
                },
            )
            small = pt.AttrSet(u, rng.randrange(16))
            big = small | pt.AttrSet(u, rng.randrange(16))
            assert pt.support(d, big) <= pt.support(d, small)


class TestSatisfies:
    def test_confidence_threshold(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
        d = pt.Dataset(u, {u.attrs("A", "B"): 1, u.attrs("A"): 1})
        assert pt.satisfies(d, rule, Fraction(1, 2))
        assert not pt.satisfies(d, rule, Fraction(51, 100))

    def test_vacuous_when_antecedent_absent(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
        d = pt.Dataset(u, {u.attrs("B", "C"): 3})
        assert pt.satisfies(d, rule, 1)

    def test_empty_dataset_satisfies_everything(self, u):
        rule = pt.PartialImplication(u.attrs("A"), u.attrs("B"))
        assert pt.satisfies(pt.Dataset(u), rule, 1)

    def test_satisfies_equals_weighted_sum_sign(self):
        """Satisfaction is exactly nonnegativity of the weighted sum, the
        equivalence every decision procedure is built on."""
        rng = random.Random(20260814)
        for _ in range(1000):
            n = rng.randint(1, 8)
            spec = oracle.RandomInstanceSpec(
                num_attrs=n, num_premises=1, seed=rng.randrange(10**9)
            )
            imp = oracle.random_implication_set(spec)[0]
            universe = imp.universe
            counts = {}
            for _ in range(rng.randint(0, 6)):
                t = pt.AttrSet(universe, rng.randrange(1 << n))
                counts[t] = counts.get(t, 0) + rng.randint(1, 10)
            d = pt.Dataset(universe, counts)
            gamma = Fraction(rng.randint(0, 20), 20)
            total = sum(weight(t, imp, gamma) * m for t, m in d.items())
            assert pt.satisfies(d, imp, gamma) == (total >= 0)

    def test_integer_comparison_equals_the_fraction_formula(self):
        """``satisfies`` compares ``both * q >= p * ante`` in integers; it
        must agree with ``Fraction(both, ante) >= gamma``, vacuously true at
        ``ante == 0``, on seeded datasets at gamma 0, 1 and in between."""
        rng = random.Random(20261018)
        vacuous = 0
        for _ in range(1000):
            n = rng.randint(1, 6)
            spec = oracle.RandomInstanceSpec(
                num_attrs=n, num_premises=1, seed=rng.randrange(10**9)
            )
            imp = oracle.random_implication_set(spec)[0]
            universe = imp.universe
            counts = {}
            for _ in range(rng.randint(0, 5)):
                t = pt.AttrSet(universe, rng.randrange(1 << n))
                counts[t] = counts.get(t, 0) + rng.randint(1, 10)
            d = pt.Dataset(universe, counts)
            ante = pt.support(d, imp.antecedent)
            both = pt.support(d, imp.span)
            vacuous += ante == 0
            for gamma in (
                Fraction(0),
                Fraction(1),
                Fraction(rng.randint(0, 12), 12),
                Fraction(rng.randint(1, 99), rng.randint(100, 200)),
            ):
                want = ante == 0 or Fraction(both, ante) >= gamma
                assert pt.satisfies(d, imp, gamma) == want
                assert pt.satisfies(d, imp, str(gamma)) == want
        assert vacuous >= 50


class TestRationalBoundary:
    def test_floats_refused(self):
        with pytest.raises(TypeError):
            pt.as_rational(0.57)

    def test_strings_and_ints_accepted(self):
        assert pt.as_rational("57/100") == Fraction(57, 100)
        assert pt.as_rational(1) == 1
        assert type(pt.as_rational(1)) is Fraction

    def test_fraction_is_passed_through(self):
        g = Fraction(57, 100)
        assert pt.as_rational(g) is g

        class Ratio(Fraction):
            pass

        converted = pt.as_rational(Ratio(1, 3))
        assert type(converted) is Fraction and converted == Fraction(1, 3)

    def test_implication_str_round_trips_through_parser(self, u):
        rule = pt.PartialImplication(u.attrs("A", "C"), u.attrs("B"))
        assert str(rule) == "A C -> B"
        empty_rhs = pt.PartialImplication(u.attrs("A"), u.empty())
        assert str(empty_rhs) == "A ->"
        empty_lhs = pt.PartialImplication(u.empty(), u.attrs("B"))
        assert str(empty_lhs) == "-> B"
