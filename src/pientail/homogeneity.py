"""Homogeneity of rule sets, decided through Horn closures.

A set of partial implications *enforces homogeneity* when every
transaction that violates none of the rules is all-or-nothing about them:
it either witnesses every rule or covers none of them.  Equivalently (and
this is what makes the property cheap to decide), treating the rules as
classical implications, the closure of each antecedent must reach every
attribute occurring in the set.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .model import (
    AttrSet,
    AttributeUniverse,
    PartialImplication,
    UniverseMismatchError,
    _Frozen,
)


class ImplicationSet(_Frozen):
    """An ordered set of partial implications over one universe."""

    _fields = ("universe", "implications")

    def __init__(
        self,
        universe: AttributeUniverse,
        implications: tuple[PartialImplication, ...],
    ) -> None:
        for imp in implications:
            if imp.universe != universe:
                raise UniverseMismatchError(
                    "implication belongs to a different universe"
                )
        self.__dict__.update(universe=universe, implications=implications)

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
    definition of homogeneity, which the tests check by brute force.
    """
    everything = rules.occurring.bits
    pairs = [(imp.antecedent.bits, imp.consequent.bits) for imp in rules]
    return all(
        _closure(ante, pairs) & everything == everything for ante, _ in pairs
    )
