"""The immutable value classes: equality, hashing, reprs, immutability,
pickling, copying, pattern matching and construction, as the frozen
dataclasses they replace gave them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

import pientail as pt
from conftest import make_query
from pientail import entailment, lp
from pientail.cli import ParsedRule, scan_rule

PAIR_UNIVERSE = "AttributeUniverse(names=('A', 'B', 'C', 'D'))"
PAIR_RULES = (
    f"ImplicationSet(universe={PAIR_UNIVERSE}, implications="
    "(PartialImplication(A -> B C), PartialImplication(A -> B D)))"
)


def _pair(gamma):
    return make_query("A -> B C\nA -> B D", "A C D -> B", gamma)


def _cycle_bracket():
    rules = pt.parse_rules("B -> A C H\nC -> A D\nD -> A B\n")
    return pt.critical_threshold(rules, rules.universe.attrs("B", "C", "D", "H"))


def _violation():
    return pt.find_certificate_violation(_pair(F(1, 2)), (F(1, 10), F(1, 10)))


# A builder of one instance of every value class, fresh on each call.
VALUES = {
    "AttributeUniverse": lambda: pt.AttributeUniverse(("A", "B")),
    "AttrSet": lambda: pt.AttributeUniverse(("A", "B")).attrs("B"),
    "PartialImplication": lambda: _pair(F(1, 2)).conclusion,
    "ImplicationSet": lambda: _pair(F(1, 2)).premises,
    "EntailmentQuery": lambda: _pair(F(1, 2)),
    "EntailmentVerdict": lambda: pt.decide(_pair(F(1, 2))),
    "ConstraintSignature": lambda: pt.ConstraintSignature(
        frozenset({1}), frozenset({0})
    ),
    "CertificateViolation": _violation,
    "ProperEntailmentResult": lambda: pt.properly_entails(_pair(F(1, 2))),
    "ThresholdBracket": _cycle_bracket,
    "LinearProgram": lambda: lp.LinearProgram(2, (1, -1), ((1, 0), (0, 1))),
    "Optimal": lambda: lp.Optimal((1, 2), 3),
    "Unbounded": lambda: lp.Unbounded((1, 2), 3),
    "ParsedRule": lambda: scan_rule("A B -> C"),
}


def _fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


@pytest.fixture(params=sorted(VALUES))
def make(request):
    return VALUES[request.param]


def test_every_value_class_is_covered():
    classes = {type(make()).__name__ for make in VALUES.values()}
    assert classes == set(VALUES)


def test_equality_and_hash_by_fields(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a.__eq__(_fields(a)) is NotImplemented
    assert a != _fields(a)


def test_fields_and_match_args(make):
    value = make()
    cls = type(value)
    assert cls.__match_args__ == cls._fields
    assert cls(*_fields(value)) == value
    assert cls(**dict(zip(cls._fields, _fields(value)))) == value


def test_assignment_and_deletion_raise(make):
    value = make()
    name = type(value)._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


def test_pickle_and_copy_round_trips(make):
    value = make()
    for other in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)


def test_a_verdict_with_a_dataset_is_unhashable():
    """A ``Dataset`` is mutable and unhashable, and so is a verdict holding
    one, as it was as a dataclass; equality still compares fields."""
    verdict = pt.decide(_pair(F(49, 100)))
    assert verdict == pt.decide(_pair(F(49, 100)))
    assert pickle.loads(pickle.dumps(verdict)) == verdict == copy.deepcopy(verdict)
    with pytest.raises(TypeError, match="unhashable type: 'Dataset'"):
        hash(verdict)


def test_cached_property_survives_a_round_trip():
    rule = _pair(F(1, 2)).conclusion
    span = rule.span
    again = pickle.loads(pickle.dumps(rule))
    assert again.span == span
    assert copy.copy(rule).span is span


def test_reprs_are_the_dataclass_text():
    assert repr(_pair(F(1, 2))) == (
        f"EntailmentQuery(premises={PAIR_RULES}, "
        "conclusion=PartialImplication(A C D -> B), gamma=Fraction(1, 2))"
    )
    assert repr(pt.decide(_pair(F(1, 2)))) == (
        "EntailmentVerdict(holds=True, regime=<Regime.HIGH_GAMMA: 'high-gamma'>, "
        "certificate=(Fraction(1, 2), Fraction(1, 2)), counterexample=None)"
    )
    assert repr(pt.decide(_pair(F(49, 100)))) == (
        "EntailmentVerdict(holds=False, regime=<Regime.LOW_GAMMA: 'low-gamma'>, "
        "certificate=None, counterexample="
        "Dataset({A B C}: 49, {A B D}: 49, {A C D}: 2))"
    )
    assert repr(_cycle_bracket()) == (
        "ThresholdBracket(lower=Fraction(37345, 65536), "
        "upper=Fraction(74691, 131072), tolerance=Fraction(1, 100000), "
        "multipliers=(Fraction(5578745481, 12968715913), "
        "Fraction(4211153271, 12968715913), Fraction(3178817161, 12968715913)))"
    )
    assert repr(_violation()) == (
        "CertificateViolation(signature=ConstraintSignature(witnessed=frozenset(), "
        "violated=frozenset({0, 1, 2})), witness=AttrSet({A, C, D}), "
        "lhs=Fraction(-1, 10), rhs=Fraction(-1, 2))"
    )
    assert repr(pt.properly_entails(_pair(F(1, 2)))) == (
        "ProperEntailmentResult(holds=True, proper=True, minimal_premises=(0, 1))"
    )
    assert repr(_pair(F(1, 2)).premises) == PAIR_RULES
    assert repr(lp.Optimal((1, 2), 3)) == "Optimal(row_duals=(1, 2), denominator=3)"
    assert repr(lp.Unbounded((1, 2), 3)) == "Unbounded(ray=(1, 2), denominator=3)"
    assert repr(VALUES["LinearProgram"]()) == (
        "LinearProgram(num_vars=2, objective=(1, -1), constraints=((1, 0), (0, 1)))"
    )
    assert repr(scan_rule("A B -> C")) == "ParsedRule(lhs=('A', 'B'), rhs=('C',))"
    assert repr(VALUES["AttrSet"]()) == "AttrSet({B})"
    assert repr(VALUES["PartialImplication"]()) == "PartialImplication(A C D -> B)"


def test_classes_with_equal_fields_differ():
    assert lp.Optimal((1, 2), 3) != lp.Unbounded((1, 2), 3)
    assert not lp.Optimal((1, 2), 3) == lp.Unbounded((1, 2), 3)
    assert lp.Optimal((1, 2), 3) != lp.Optimal((1, 2), 4)


def test_positional_match_patterns():
    match pt.decide(_pair(F(1, 2))):
        case pt.EntailmentVerdict(True, pt.Regime.HIGH_GAMMA, certificate, None):
            assert certificate == (F(1, 2), F(1, 2))
        case _:
            pytest.fail("verdict did not match")
    query = _pair(F(1, 2))
    match pt.critical_threshold(query.premises, query.conclusion.antecedent):
        case pt.ThresholdBracket(lower, upper, _, multipliers):
            assert lower < F(1, 2) <= upper and len(multipliers) == 2
    match lp.solve(VALUES["LinearProgram"]()):
        case lp.Unbounded(ray, denominator):
            assert ray and denominator > 0
        case lp.Optimal():
            pytest.fail("the program is unbounded")
    match scan_rule("A B -> C"):
        case ParsedRule(lhs, rhs):
            assert (lhs, rhs) == (("A", "B"), ("C",))


def test_keyword_construction_with_defaults():
    verdict = pt.EntailmentVerdict(holds=False, regime=pt.Regime.LP_DIRECT)
    assert verdict.certificate is None and verdict.counterexample is None
    assert verdict == pt.EntailmentVerdict(False, pt.Regime.LP_DIRECT, None, None)
    held = pt.EntailmentVerdict(True, pt.Regime.TAUTOLOGY, certificate=())
    assert held.certificate == () and held.counterexample is None
    query = _pair(F(1, 2))
    assert pt.EntailmentQuery(
        premises=query.premises, conclusion=query.conclusion, gamma="1/2"
    ) == query


def test_validation_errors_are_unchanged():
    u = pt.AttributeUniverse(("A", "B"))
    with pytest.raises(ValueError, match="bitmask 0x4 outside universe"):
        pt.AttrSet(u, 4)
    with pytest.raises(ValueError, match="bitmask -0x1 outside universe"):
        pt.AttrSet(u, -1)
    with pytest.raises(ValueError, match="objective length does not match num_vars"):
        lp.LinearProgram(2, (1,), ())
    with pytest.raises(ValueError, match="constraint length does not match num_vars"):
        lp.LinearProgram(2, (1, 1), ((1, 0), (1,)))
    query = _pair(F(1, 2))
    with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\], got 3/2"):
        pt.EntailmentQuery(query.premises, query.conclusion, F(3, 2))
    with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\], got -1"):
        pt.EntailmentQuery(query.premises, query.conclusion, -1)
    with pytest.raises(TypeError, match="refusing float 0.5"):
        pt.EntailmentQuery(query.premises, query.conclusion, 0.5)
    v = query.universe
    for call in (
        lambda: pt.weight(v.empty(), query.conclusion, 2),
        lambda: pt.satisfies(pt.Dataset(v), query.conclusion, 2),
        lambda: pt.feasible_at(2, query.premises, query.conclusion.antecedent),
        lambda: pt.prune(pt.ImplicationSet(v, ()), 2),
    ):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\], got 2"):
            call()
    other = pt.AttributeUniverse(("A", "B", "C", "D", "E"))
    with pytest.raises(pt.UniverseMismatchError):
        pt.EntailmentQuery(
            query.premises, pt.PartialImplication(other.empty(), other.empty()), F(1, 2)
        )
    with pytest.raises(pt.UniverseMismatchError):
        pt.PartialImplication(u.empty(), other.empty())
    with pytest.raises(pt.UniverseMismatchError):
        pt.ImplicationSet(u, (pt.PartialImplication(other.empty(), other.empty()),))
    with pytest.raises(ValueError, match="duplicate attribute names"):
        pt.AttributeUniverse(["A", "A"])
    assert pt.AttributeUniverse(["A", "B"]).names == ("A", "B")


def test_query_gamma_is_coerced_to_a_fraction():
    pair = _pair(F(1, 2))
    query = pt.EntailmentQuery(pair.premises, pair.conclusion, "1/2")
    assert type(query.gamma) is F and query.gamma == F(1, 2)
    assert query == pair


def test_the_batch_is_a_plain_mutable_object():
    batch, other = entailment._Batch(), entailment._Batch()
    assert batch.rows is None and batch.column == {}
    batch.column[(1, 2)] = 0
    batch.rows = []
    assert other.column == {} and other.rows is None
