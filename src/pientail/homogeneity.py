"""Homogeneity of rule sets, decided through Horn closures.

A set of partial implications *enforces homogeneity* when every
transaction that violates none of the rules is all-or-nothing about them:
it either witnesses every rule or covers none of them.  Equivalently (and
this is what makes the property cheap to decide), treating the rules as
classical implications, the closure of each antecedent must reach every
attribute occurring in the set.  A brute-force check over all transaction
types is kept alongside as an oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import (
    AttrSet,
    AttributeUniverse,
    DEFAULT_ENUMERATION_CAP,
    PartialImplication,
    UniverseMismatchError,
    rule_bitmasks,
)


@dataclass(frozen=True)
class ImplicationSet:
    """An ordered set of partial implications over one universe."""

    universe: AttributeUniverse
    implications: tuple[PartialImplication, ...]

    def __post_init__(self) -> None:
        for imp in self.implications:
            if imp.universe != self.universe:
                raise UniverseMismatchError(
                    "implication belongs to a different universe"
                )

    def __len__(self) -> int:
        return len(self.implications)

    def __iter__(self) -> Iterator[PartialImplication]:
        return iter(self.implications)

    def __getitem__(self, index: int) -> PartialImplication:
        return self.implications[index]

    @property
    def occurring(self) -> AttrSet:
        """All attributes mentioned by some rule."""
        bits = 0
        for imp in self.implications:
            bits |= imp.span.bits
        return AttrSet(self.universe, bits)

    def subset(self, indices: Sequence[int]) -> ImplicationSet:
        return ImplicationSet(
            self.universe, tuple(self.implications[i] for i in indices)
        )

    def __str__(self) -> str:
        return "\n".join(str(imp) for imp in self.implications)


def horn_closure(start: AttrSet, rules: ImplicationSet) -> AttrSet:
    """Forward-chaining closure of ``start`` under the rules read classically.

    Repeatedly adds the consequent of any rule whose antecedent is already
    present, until nothing changes.
    """
    if start.universe != rules.universe:
        raise UniverseMismatchError("start set and rules universes differ")
    pairs = [(imp.antecedent.bits, imp.consequent.bits) for imp in rules]
    return AttrSet(start.universe, _closure(start.bits, pairs))


def _closure(closed: int, pairs: list[tuple[int, int]]) -> int:
    """``horn_closure`` on bitmasks, with ``pairs`` the (antecedent,
    consequent) bitmasks of the rules."""
    changed = True
    while changed:
        changed = False
        for ante, cons in pairs:
            if closed & ante == ante and closed | cons != closed:
                closed |= cons
                changed = True
    return closed


def enforces_homogeneity(rules: ImplicationSet) -> bool:
    """Does every rule's antecedent classically derive all occurring attributes?

    This closure condition is equivalent to the transaction-level
    definition of homogeneity; ``brute_force_homogeneity`` checks the
    latter directly.
    """
    everything = rules.occurring.bits
    pairs = [(imp.antecedent.bits, imp.consequent.bits) for imp in rules]
    return all(
        _closure(ante, pairs) & everything == everything for ante, _ in pairs
    )


def brute_force_homogeneity(
    rules: ImplicationSet, max_attrs: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Transaction-level homogeneity check by exhaustive enumeration.

    Walks every subset of the occurring attributes and tests the defining
    property: a transaction violating no rule either witnesses all rules
    or covers none.  Exponential in the number of occurring attributes;
    exists as an independent oracle for the closure-based test.
    """
    occ, pairs = rule_bitmasks(rules, rules.universe, max_attrs=max_attrs)
    z = 0
    while True:
        covered = 0
        witnessed = 0
        violates = False
        for x, xy in pairs:
            if z & x == x:
                covered += 1
                if z & xy == xy:
                    witnessed += 1
                else:
                    violates = True
                    break
        if not violates and covered and witnessed < len(pairs):
            return False
        if z == occ:
            return True
        z = (z - occ) & occ  # the next subset of ``occ`` in increasing order


def two_premise_nicety(first: PartialImplication, second: PartialImplication) -> bool:
    """Homogeneity specialised to a pair of rules.

    A pair enforces homogeneity exactly when each antecedent is contained
    in the other rule's span.
    """
    if first.universe != second.universe:
        raise UniverseMismatchError("implications belong to different universes")
    return first.antecedent <= second.span and second.antecedent <= first.span
