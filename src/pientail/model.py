"""Attribute universes, partial implications, and transaction multisets.

Attributes live in a fixed, ordered universe and are mapped to bit
positions, so attribute sets are plain integer bitmasks and all the set
algebra is machine arithmetic.  Everything that feeds a decision
(confidence comparisons, constraint weights, thresholds) is an exact
``fractions.Fraction``; floats are refused at the boundary so that no
approximation can leak into a verdict.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

# Decision procedures build one constraint per distinct cover pattern of a
# transaction type, up to 2**n rows for n attributes.  The universe may hold
# any number of attributes; this cap bounds how many of them one enumeration
# may touch, and only ``rule_bitmasks``, which every enumeration calls, reads
# it.
DEFAULT_ENUMERATION_CAP = 20


class UniverseMismatchError(ValueError):
    """Raised when values built against different universes are combined."""


class AttributeCapError(RuntimeError):
    """Raised when an enumeration would touch more attributes than
    ``DEFAULT_ENUMERATION_CAP``."""


def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce ``value`` to an exact ``Fraction``.

    Floats are rejected rather than converted: a binary float that "looks
    like" 0.57 is not 57/100, and silently accepting it would poison every
    exact comparison downstream.  A ``Fraction`` is returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass a Fraction, int, or string "
            f"such as '57/100'"
        )
    return Fraction(value)


def as_gamma(value: Fraction | int | str) -> Fraction:
    """``as_rational`` of a confidence threshold, which must lie in [0, 1]."""
    g = as_rational(value)
    if not 0 <= g <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {g}")
    return g


def bit_positions(bits: int) -> list[int]:
    """Positions of the set bits of ``bits``, ascending."""
    out = []
    pos = 0
    while bits:
        if bits & 1:
            out.append(pos)
        bits >>= 1
        pos += 1
    return out


class _Frozen:
    """Base of the value classes: what a frozen dataclass gives them, without
    importing ``dataclasses``.

    A subclass names its fields in ``_fields``, and its ``__init__`` checks
    and stores them.  Instances of one class are equal when their field
    tuples are, the hash is the field tuple's, the repr is the dataclass
    one, and assigning or deleting an attribute raises ``AttributeError``.
    The ``__dict__`` stays, for ``cached_property``, ``pickle`` and ``copy``.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls._fields
        get = attrgetter(*cls._fields)  # the bare value for a single name
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda o: (get(o),))

    def __eq__(self, other: object) -> bool:
        if other is self:  # equal field tuples, without building them
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class AttributeUniverse(_Frozen):
    """An ordered collection of distinct attribute names.

    The order fixes the bit position of each attribute and is preserved in
    every textual rendering (transactions print their attributes in
    universe order, not insertion order).
    """

    _fields = ("names",)

    def __init__(self, names: Iterable[str]) -> None:
        names = names if isinstance(names, tuple) else tuple(names)
        for name in names:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"invalid attribute name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        self.__dict__["names"] = names

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def attrs(self, *names: str) -> AttrSet:
        """Build the attribute set containing exactly ``names``."""
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return AttrSet(self, bits)

    def empty(self) -> AttrSet:
        return AttrSet(self, 0)

    def full(self) -> AttrSet:
        return AttrSet(self, (1 << self.size) - 1)


class AttrSet(_Frozen):
    """A subset of an attribute universe, stored as a bitmask."""

    _fields = ("universe", "bits")

    def __init__(self, universe: AttributeUniverse, bits: int) -> None:
        if not 0 <= bits < (1 << universe.size):
            raise ValueError(f"bitmask {bits:#x} outside universe")
        self.__dict__.update(universe=universe, bits=bits)

    def _check(self, other: AttrSet) -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError(
                "attribute sets belong to different universes"
            )

    def __or__(self, other: AttrSet) -> AttrSet:
        self._check(other)
        return AttrSet(self.universe, self.bits | other.bits)

    def __and__(self, other: AttrSet) -> AttrSet:
        self._check(other)
        return AttrSet(self.universe, self.bits & other.bits)

    def __sub__(self, other: AttrSet) -> AttrSet:
        self._check(other)
        return AttrSet(self.universe, self.bits & ~other.bits)

    def __le__(self, other: AttrSet) -> bool:
        """Subset test."""
        self._check(other)
        return self.bits & other.bits == self.bits

    def __lt__(self, other: AttrSet) -> bool:
        """Proper subset test."""
        return self <= other and self.bits != other.bits

    def __contains__(self, name: str) -> bool:
        return bool(self.bits >> self.universe.index(name) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.universe.names[i] for i in bit_positions(self.bits))

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __str__(self) -> str:
        return " ".join(self.names)

    def __repr__(self) -> str:
        return f"AttrSet({{{', '.join(self.names)}}})"


class PartialImplication(_Frozen):
    """A rule ``antecedent -> consequent`` between attribute sets.

    The rule is read probabilistically: among transactions containing the
    antecedent, at least a gamma fraction also contain the consequent.
    Either side may be empty.
    """

    _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: AttrSet, consequent: AttrSet) -> None:
        if antecedent.universe != consequent.universe:
            raise UniverseMismatchError(
                "antecedent and consequent belong to different universes"
            )
        self.__dict__.update(antecedent=antecedent, consequent=consequent)

    @property
    def universe(self) -> AttributeUniverse:
        return self.antecedent.universe

    @cached_property
    def span(self) -> AttrSet:
        """Union of antecedent and consequent: the attributes a witness must carry.

        Computed once per rule; the cached value is not a field, so
        equality and hashing still compare the two sides only.
        """
        return self.antecedent | self.consequent

    def __str__(self) -> str:
        return f"{self.antecedent} -> {self.consequent}".strip()

    def __repr__(self) -> str:
        return f"PartialImplication({self})"


def rule_bitmasks(
    implications: Iterable[PartialImplication], universe: AttributeUniverse
) -> tuple[int, list[tuple[int, int]]]:
    """Occurring attributes and the ``(antecedent, span)`` bitmasks of each rule.

    The occurring attributes are the union of the spans: the attributes an
    enumeration of transaction types has to look at.  Every enumeration
    calls this, and more than ``DEFAULT_ENUMERATION_CAP`` of them raise
    ``AttributeCapError``.
    """
    occ = 0
    pairs = []
    for imp in implications:
        if imp.universe != universe:
            raise UniverseMismatchError("implication belongs to a different universe")
        span = imp.span.bits
        occ |= span
        pairs.append((imp.antecedent.bits, span))
    width = occ.bit_count()
    if width > DEFAULT_ENUMERATION_CAP:
        raise AttributeCapError(
            f"{width} occurring attributes exceed the enumeration cap of "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    return occ, pairs


class CoverStatus(Enum):
    """How a transaction relates to one partial implication."""

    NOT_COVERED = 0  # transaction misses part of the antecedent
    VIOLATED = 1     # antecedent present, some consequent attribute absent
    WITNESSED = 2    # antecedent and consequent both present

    def __repr__(self) -> str:  # shorter in test diffs
        return self.name


def cover_status(transaction: AttrSet, implication: PartialImplication) -> CoverStatus:
    """Classify ``transaction`` against ``implication``."""
    transaction._check(implication.antecedent)
    z = transaction.bits
    x = implication.antecedent.bits
    if z & x != x:
        return CoverStatus.NOT_COVERED
    xy = x | implication.consequent.bits
    if z & xy == xy:
        return CoverStatus.WITNESSED
    return CoverStatus.VIOLATED


def weight(
    transaction: AttrSet,
    implication: PartialImplication,
    gamma: Fraction | int | str,
) -> Fraction:
    """Signed contribution of one copy of ``transaction`` to the rule's margin.

    A witness pushes the rule toward satisfaction by ``1 - gamma``, a
    violator pulls it down by ``gamma``, and an uncovered transaction is
    neutral.  A dataset satisfies the rule at ``gamma`` exactly when the
    multiplicity-weighted sum of these contributions is nonnegative.
    """
    g = as_gamma(gamma)
    status = cover_status(transaction, implication)
    if status is CoverStatus.WITNESSED:
        return 1 - g
    if status is CoverStatus.VIOLATED:
        return -g
    return Fraction(0)


class Dataset:
    """A multiset of transactions over a shared universe.

    Stored as a mapping from transaction to multiplicity; absent
    transactions have multiplicity zero, and zero entries are dropped on
    construction so that equality is well defined.
    """

    __slots__ = ("universe", "_mult")

    def __init__(
        self,
        universe: AttributeUniverse,
        multiplicities: Mapping[AttrSet, int] | None = None,
    ) -> None:
        self.universe = universe
        mult: dict[AttrSet, int] = {}
        for transaction, count in (multiplicities or {}).items():
            if transaction.universe != universe:
                raise UniverseMismatchError(
                    "transaction belongs to a different universe"
                )
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"multiplicity must be a nonnegative int, got {count!r}")
            if count:
                mult[transaction] = mult.get(transaction, 0) + count
        self._mult = mult

    def multiplicity(self, transaction: AttrSet) -> int:
        return self._mult.get(transaction, 0)

    def transactions(self) -> list[AttrSet]:
        """Distinct transactions with positive multiplicity, in bitmask order."""
        return sorted(self._mult, key=lambda t: t.bits)

    def items(self) -> list[tuple[AttrSet, int]]:
        return [(t, self._mult[t]) for t in self.transactions()]

    def total(self) -> int:
        """Total number of transactions, counting multiplicity."""
        return sum(self._mult.values())

    def __len__(self) -> int:
        return len(self._mult)

    def __bool__(self) -> bool:
        return bool(self._mult)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.universe == other.universe and self._mult == other._mult

    def __repr__(self) -> str:
        inner = ", ".join(f"{{{t}}}: {m}" for t, m in self.items())
        return f"Dataset({inner})"


def support(dataset: Dataset, attrs: AttrSet) -> int:
    """Number of transactions in ``dataset`` containing all of ``attrs``."""
    if dataset.universe != attrs.universe:
        raise UniverseMismatchError("dataset and attribute set universes differ")
    bits = attrs.bits
    return sum(
        count for t, count in dataset._mult.items() if t.bits & bits == bits
    )


def satisfies(
    dataset: Dataset,
    implication: PartialImplication,
    gamma: Fraction | int | str,
) -> bool:
    """Does ``dataset`` satisfy ``implication`` at confidence ``gamma``?

    True when the antecedent never occurs, or when the fraction of
    antecedent-carrying transactions that also carry the consequent is at
    least ``gamma``.  Computed in integers: with ``gamma = p/q``, the
    fraction ``both / ante`` is compared as ``both * q >= p * ante``.
    """
    g = as_gamma(gamma)
    if dataset.universe != implication.universe:
        raise UniverseMismatchError("dataset and implication universes differ")
    ante = support(dataset, implication.antecedent)
    if ante == 0:
        return True
    both = support(dataset, implication.span)
    return both * g.denominator >= g.numerator * ante
