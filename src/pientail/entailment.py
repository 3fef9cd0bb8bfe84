"""Deciding entailment between partial implications at a confidence threshold.

The question: given premises ``X1 -> Y1, ..., Xk -> Yk`` and a conclusion
``X0 -> Y0``, does every dataset that satisfies all premises at confidence
``gamma`` also satisfy the conclusion at ``gamma``?

Each transaction type Z induces a linear constraint through the weights of
``model.weight`` (witness ``1 - gamma``, violator ``-gamma``, else 0), and
the whole question is linear-programming duality:

* the entailment holds exactly when there are multipliers ``lambda >= 0``,
  one per premise, with ``sum_i lambda_i * w_Z(premise_i) <= w_Z(conclusion)``
  for every Z - a certificate that can be re-checked independently;
* otherwise the corresponding primal program is unbounded, and scaling a
  rational recession ray to integers yields a finite counterexample
  dataset that satisfies every premise and breaks the conclusion.

Transactions only matter through their cover pattern against the k+1
rules involved, so the ``2**n`` transaction types collapse to at most
``3**(k+1)`` distinct constraint signatures before any program is built.
``signature_rows`` finds them with a frontier over classes of attributes
that lie in the same rules, so its cost grows with the number of
signatures, not with ``2**n``, and taking the classes in top-bit order
keeps it in witness order without a comparison or a sort.
``threshold.decide_general`` builds one such table per query, when a
premise subset first needs a cone probe, and reads it for every premise
subset, for the certificate check and for the LP counterexample.
``prune`` and ``properly_entails`` read only whether each decide holds,
so each runs its decides in one batch: a decide that no premise subset
carries fails without a counterexample and without rows, and at most one
table is built per call, which every later decide that needs rows
projects onto its own rules.

From the table to the verified witness the work is in integers.  A row
holds one status code per rule and the bitmask of a transaction, and with
``gamma = p/q`` in lowest terms the weights times ``q`` are
``(0, -p, q - p)`` by code, so the programs handed to ``lp.solve`` have
integer cells.  It returns integer numerators over one denominator:
certificates are checked as integer multipliers over one scale, and a ray
divided by the gcd of its entries is a counterexample's counts.
``Fraction``, ``AttrSet`` and ``Dataset`` are built once, for the result.

Besides the LP route, ``decide`` answers the same question from the
premise subsets that carry the conclusion, with one route per regime: at
most one premise (threshold-independent), ``gamma < 1/k`` (single
premises only) and ``gamma >= (k-1)/k`` (any subset), each certified by
uniform multipliers over the first subset found, and the band in between
in ``threshold`` by the critical-threshold characterisation over the same
subsets.  Every route takes the first carrying subset from
``_first_carrying``, at any k.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from enum import Enum
from fractions import Fraction
from operator import concat, getitem, itemgetter
from typing import Callable, NamedTuple, Sequence

from . import lp
from .homogeneity import ImplicationSet, _closure, enforces_homogeneity
from .model import (
    AttrSet,
    AttributeUniverse,
    CoverStatus,
    Dataset,
    PartialImplication,
    UniverseMismatchError,
    as_gamma,
    as_rational,
    bit_positions,
    _Frozen,
    rule_bitmasks,
    satisfies,
)

class Regime(Enum):
    """Which decision route produced a verdict."""

    TAUTOLOGY = "tautology"
    ONE_PREMISE = "one-premise"
    LOW_GAMMA = "low-gamma"
    HIGH_GAMMA = "high-gamma"
    GENERAL_GAMMA_STAR = "general-gamma-star"
    HORN_CLOSURE = "horn-closure"
    LP_DIRECT = "lp-direct"


class Method(Enum):
    """Dispatch policy for ``decide``."""

    AUTO = "auto"
    LP = "lp"


class EntailmentQuery(_Frozen):
    """Premises, conclusion, and the confidence threshold they share."""

    _fields = ("premises", "conclusion", "gamma")

    def __init__(
        self,
        premises: ImplicationSet,
        conclusion: PartialImplication,
        gamma: Fraction | int | str,
    ) -> None:
        if premises.universe != conclusion.universe:
            raise UniverseMismatchError("premises and conclusion universes differ")
        self.__dict__.update(
            premises=premises, conclusion=conclusion, gamma=as_gamma(gamma)
        )

    @property
    def k(self) -> int:
        return len(self.premises)

    @property
    def universe(self) -> AttributeUniverse:
        return self.premises.universe

    def with_premises(self, indices: Sequence[int]) -> EntailmentQuery:
        return EntailmentQuery(
            self.premises.subset(indices), self.conclusion, self.gamma
        )


class EntailmentVerdict(_Frozen):
    """Outcome of a decision, carrying a checkable witness.

    ``certificate`` (when the entailment holds) lists one multiplier per
    premise; ``counterexample`` (when it fails) is a dataset satisfying
    every premise and violating the conclusion; it is None only inside
    ``prune`` and ``properly_entails``, whose verdicts never leave them.
    """

    _fields = ("holds", "regime", "certificate", "counterexample")

    def __init__(
        self,
        holds: bool,
        regime: Regime,
        certificate: tuple[Fraction, ...] | None = None,
        counterexample: Dataset | None = None,
    ) -> None:
        self.__dict__.update(
            holds=holds, regime=regime, certificate=certificate,
            counterexample=counterexample,
        )


class ConstraintSignature(_Frozen):
    """Cover pattern of one transaction type against conclusion and premises.

    Index 0 refers to the conclusion, index i >= 1 to premise i.  Indices
    in neither set are not covered.
    """

    _fields = ("witnessed", "violated")

    def __init__(self, witnessed: frozenset[int], violated: frozenset[int]) -> None:
        self.__dict__.update(witnessed=witnessed, violated=violated)


# Status codes are the ``CoverStatus`` values; ``_STATUSES[code]`` is the status.
_STATUSES = tuple(CoverStatus)
_NOT_COVERED = CoverStatus.NOT_COVERED.value
_VIOLATED = CoverStatus.VIOLATED.value
_WITNESSED = CoverStatus.WITNESSED.value
# Codes of four rules per byte of a frontier state, two bits per rule: neither
# set broken, the span only, or both (a broken antecedent breaks its span).
_CODES_BY_BYTE = tuple(
    tuple((_WITNESSED, None, _VIOLATED, _NOT_COVERED)[b >> s & 3] for s in (0, 2, 4, 6))
    for b in range(256)
)


class SignatureRow(NamedTuple):
    """One distinct signature plus the first transaction realising it.

    ``codes`` holds the cover status of each rule as its ``CoverStatus``
    value (0 not covered, 1 violated, 2 witnessed), so that the decision
    paths can index integer weights by it; ``bits`` is the bitmask of the
    witness transaction.  A named tuple, because a table holds hundreds of
    rows and a named tuple is built in two thirds of the time of a value
    class.
    """

    codes: tuple[int, ...]
    bits: int

    @property
    def statuses(self) -> tuple[CoverStatus, ...]:
        return tuple(_STATUSES[c] for c in self.codes)

    def signature(self) -> ConstraintSignature:
        return ConstraintSignature(
            witnessed=frozenset(
                i for i, c in enumerate(self.codes) if c == _WITNESSED
            ),
            violated=frozenset(
                i for i, c in enumerate(self.codes) if c == _VIOLATED
            ),
        )


def signature_rows(
    implications: Sequence[PartialImplication], universe: AttributeUniverse
) -> list[SignatureRow]:
    """Distinct cover patterns over all transaction types, with witnesses.

    Only subsets of the attributes occurring in ``implications`` matter;
    any other transaction realises the same pattern as its restriction to
    those attributes.  Each row's witness is the
    smallest transaction bitmask realising its pattern, and rows appear in
    the order their first witness arises when transaction bitmasks are
    enumerated in increasing order, which keeps every downstream "first
    found" answer deterministic.

    The transactions are not enumerated one by one.  Attributes lying in
    exactly the same antecedents and spans form a class, and a pattern
    depends only on which sets a transaction breaks (misses an attribute
    of): bit ``2j`` of a state is rule j's antecedent, bit ``2j+1`` its
    span.  A frontier over the classes keeps, per state, the smallest
    transaction so far; a class is either kept whole or dropped whole,
    which ORs its sets into the state.  Classes own disjoint bits, so the
    smallest prefix of a state extends to the smallest witness of every
    pattern it leads to.  The work is the number of classes times the
    number of states, at most ``3**len(implications)``, instead of
    ``2**width``.

    No two witnesses are compared.  Classes are taken in increasing
    bitmask (top-bit) order, so every transaction of the frontier lies
    below the current class's top bit: every drop of the class is smaller
    than every keep.  The frontier is in ascending witness order, so a pass
    over the drops and then the keeps meets the candidates in ascending
    order: ``setdefault`` keeps each state's smallest witness and inserts
    the states in witness order, and the table needs no sort.
    """
    occ, pairs = rule_bitmasks(implications, universe)
    classes: dict[int, int] = {}
    for p in bit_positions(occ):
        bit = 1 << p
        sets = 0
        for j, (x, xy) in enumerate(pairs):
            if x & bit:
                sets |= 1 << 2 * j
            if xy & bit:
                sets |= 2 << 2 * j
        classes[sets] = classes.get(sets, 0) | bit
    frontier = {0: 0}
    for sets, bits in sorted(classes.items(), key=itemgetter(1)):
        step: dict[int, int] = {}
        add = step.setdefault
        for broken, z in frontier.items():
            add(broken | sets, z)
        for broken, z in frontier.items():
            add(broken, z | bits)
        frontier = step
    count = len(pairs)
    codes = [_CODES_BY_BYTE[b & 255] for b in frontier]
    for s in range(8, 2 * count, 8):
        byte = [_CODES_BY_BYTE[b >> s & 255] for b in frontier]
        codes = list(map(concat, codes, byte))
    new = tuple.__new__
    return [new(SignatureRow, (c[:count], z)) for c, z in zip(codes, frontier.values())]


def _integer_weights(gamma: Fraction) -> tuple[int, int, int]:
    """The constraint weights at ``gamma = p/q`` (``1 - gamma`` witnessed,
    ``-gamma`` violated, 0 not covered) times ``q``, indexed by status code:
    0 not covered, ``-p`` violated, ``q - p`` witnessed."""
    p, q = gamma.numerator, gamma.denominator
    return (0, -p, q - p)


class _Batch:
    """The decides of one ``prune`` or ``properly_entails`` call, which
    read only whether each decide holds.

    ``rows`` stays None until the first decide that needs rows enumerates
    them over its own rules; ``column`` maps a rule's (antecedent, span)
    bitmasks, which fix its statuses, to its column in ``rows``.
    """

    def __init__(self) -> None:
        self.rows: list[SignatureRow] | None = None
        self.column: dict[tuple[int, int], int] = {}


# Set by ``prune`` and ``properly_entails`` for the length of one call;
# read only by ``_query_rows`` and ``_lp_failure``.
_BATCH: ContextVar[_Batch | None] = ContextVar("_BATCH", default=None)


def _query_rows(query: EntailmentQuery) -> list[SignatureRow]:
    """The signature rows of ``query``, conclusion first.

    Outside a batch (``_BATCH``) every call enumerates.  Inside, the first
    call enumerates and later calls project its table (``_project_rows``):
    both batch callers guarantee that their rules are among the first's.
    """
    rules = [query.conclusion, *query.premises]
    batch = _BATCH.get()
    if batch is not None and batch.rows is not None:
        columns = [batch.column[r.antecedent.bits, r.span.bits] for r in rules]
        return _project_rows(batch.rows, columns)
    rows = signature_rows(rules, query.universe)
    if batch is not None:
        batch.rows = rows
        batch.column = {
            (r.antecedent.bits, r.span.bits): j for j, r in enumerate(rules)
        }
    return rows


def _project_rows(rows: list[SignatureRow], columns: list[int]) -> list[SignatureRow]:
    """The table of the rules at ``columns`` of the table ``rows``.

    Each pattern over those columns is kept at its first occurrence, with
    that row's witness.  Rows are sorted by witness, and a transaction
    restricted to the attributes of fewer rules realises the same pattern
    over them, so the first witness of a pattern is its smallest, and the
    rows, their order and their witnesses are those of a table enumerated
    for those rules alone.
    """
    seen: set[tuple[int, ...]] = set()
    out = []
    for row in rows:
        codes = row.codes
        key = tuple([codes[c] for c in columns])
        if key not in seen:
            seen.add(key)
            out.append(SignatureRow(key, row.bits))
    return out


def decide_lp(query: EntailmentQuery) -> EntailmentVerdict:
    """Decide by linear programming, for any ``gamma`` in [0, 1].

    One variable per distinct constraint signature; minimising the
    conclusion weight subject to nonnegative premise weights is bounded
    (at zero) exactly when the entailment holds.  Boundedness hands back
    the premise multipliers through the row duals; unboundedness hands
    back an integer ray whose primitive vector is a counterexample
    dataset.  Both witnesses are re-verified before being returned.
    """
    return _decide_lp_rows(query, _query_rows(query))


def _lp_program(rows: list[SignatureRow], gamma: Fraction) -> lp.LinearProgram:
    """The ``decide_lp`` program over ``rows``, one variable per row.

    Its cells are the integer weights of ``_integer_weights``: every
    nonzero row of the program in rational weights is this row divided by
    the denominator of ``gamma``, and so is its objective, so the simplex
    takes the same pivots and reads off the same row duals.
    """
    weight = _integer_weights(gamma).__getitem__
    conclusion, *premises = zip(*[map(weight, row.codes) for row in rows])
    return lp.LinearProgram(
        num_vars=len(rows), objective=conclusion, constraints=tuple(premises)
    )


def _decide_lp_rows(
    query: EntailmentQuery, rows: list[SignatureRow]
) -> EntailmentVerdict:
    """``decide_lp`` over the already enumerated signature rows of ``query``."""
    outcome = lp.solve(_lp_program(rows, query.gamma))
    if isinstance(outcome, lp.Optimal):
        duals, d = outcome.row_duals, outcome.denominator
        if len(duals) != query.k:
            raise RuntimeError("solver returned no dual value per premise")
        if _certificate_violation(query, rows, duals, d) is not None:
            raise RuntimeError("extracted multipliers fail their own constraints")
        return EntailmentVerdict(
            holds=True,
            regime=Regime.LP_DIRECT,
            certificate=tuple([Fraction(v, d) for v in duals]),
        )
    counterexample = _dataset_from_ray(query, rows, outcome.ray)
    return EntailmentVerdict(
        holds=False, regime=Regime.LP_DIRECT, counterexample=counterexample
    )


def _dataset_from_ray(
    query: EntailmentQuery, rows: list[SignatureRow], ray: Sequence[int]
) -> Dataset:
    """Divide an integer recession ray by the gcd of its entries and
    re-verify that the resulting dataset is a genuine counterexample.

    Only the nonzero components matter: a zero adds nothing to the greatest
    common divisor."""
    nonzero = [(row, c) for row, c in zip(rows, ray) if c]
    shrink = math.gcd(*[c for _, c in nonzero])
    universe = query.universe
    return _refuting(query, Dataset(
        universe, {AttrSet(universe, row.bits): c // shrink for row, c in nonzero}
    ))


def _refuting(query: EntailmentQuery, data: Dataset) -> Dataset:
    """``data``, once re-verified to satisfy every premise and break the
    conclusion."""
    for premise in query.premises:
        if not satisfies(data, premise, query.gamma):
            raise RuntimeError("counterexample fails a premise on re-verification")
    if satisfies(data, query.conclusion, query.gamma):
        raise RuntimeError("counterexample satisfies the conclusion")
    return data


class CertificateViolation(_Frozen):
    """A constraint broken by a claimed certificate, with its witness."""

    _fields = ("signature", "witness", "lhs", "rhs")

    def __init__(
        self,
        signature: ConstraintSignature,
        witness: AttrSet,
        lhs: Fraction,
        rhs: Fraction,
    ) -> None:
        self.__dict__.update(signature=signature, witness=witness, lhs=lhs, rhs=rhs)


def _certificate_violation(
    query: EntailmentQuery,
    rows: list[SignatureRow],
    numerators: Sequence[int],
    scale: int,
) -> CertificateViolation | None:
    # The multipliers are ``numerators`` over ``scale``, and everything is
    # over ``scale * q``, ``q`` that of ``gamma``.  ``terms[i][code]`` is
    # rule i's integer weight times its multiplier, the conclusion's
    # negated, so a row is broken exactly when its terms sum above 0.
    p, q = query.gamma.numerator, query.gamma.denominator
    terms = [(0, p * scale, (p - q) * scale)]
    for m in numerators:
        terms.append((0, -p * m, (q - p) * m))
    for row in rows:
        total = sum(map(getitem, terms, row.codes))
        if total > 0:
            rhs_num = -terms[0][row.codes[0]]
            return CertificateViolation(
                signature=row.signature(),
                witness=AttrSet(query.universe, row.bits),
                lhs=Fraction(total + rhs_num, scale * q),
                rhs=Fraction(rhs_num, scale * q),
            )
    return None


def find_certificate_violation(
    query: EntailmentQuery, multipliers: Sequence[Fraction]
) -> CertificateViolation | None:
    """First constraint signature (in enumeration order) broken by
    ``multipliers``, or None when they certify the entailment."""
    lams = [as_rational(lam) for lam in multipliers]
    if len(lams) != query.k:
        raise ValueError("need one multiplier per premise")
    if any(lam < 0 for lam in lams):
        raise ValueError("multipliers must be nonnegative")
    rows = _query_rows(query)
    scale = math.lcm(*[lam.denominator for lam in lams])
    numerators = [lam.numerator * (scale // lam.denominator) for lam in lams]
    return _certificate_violation(query, rows, numerators, scale)


def check_certificate(
    query: EntailmentQuery, multipliers: Sequence[Fraction]
) -> bool:
    """Do ``multipliers`` certify the entailment over every transaction type?"""
    return find_certificate_violation(query, multipliers) is None


def _tautology_verdict(query: EntailmentQuery) -> EntailmentVerdict:
    """Verdict for queries decided without looking at the premises:
    trivial conclusions and ``gamma = 0`` always hold; with no premises,
    anything else fails on the single-transaction dataset ``{X0}``."""
    if query.gamma == 0 or query.conclusion.consequent <= query.conclusion.antecedent:
        return EntailmentVerdict(
            holds=True, regime=Regime.TAUTOLOGY, certificate=(Fraction(0),) * query.k
        )
    if query.k != 0:
        raise RuntimeError("premises present for a premise-free verdict")
    data = Dataset(query.universe, {query.conclusion.antecedent: 1})
    return EntailmentVerdict(
        holds=False, regime=Regime.TAUTOLOGY, counterexample=_refuting(query, data)
    )


def _horn_verdict(query: EntailmentQuery) -> EntailmentVerdict:
    """Decide at ``gamma = 1``, where a dataset satisfies a rule when each
    of its transactions does, by forward chaining: no rows and no LP.

    The entailment holds exactly when ``Y0`` lies in the closure ``C`` of
    ``X0`` under the premises; otherwise ``{C: 1}`` refutes it.  Multiplier
    1 on each premise whose antecedent lies in ``C`` certifies it: a
    transaction violating the conclusion holds ``X0`` and misses some
    attribute of ``C``, so the first premise fired from ``X0`` whose
    consequent it misses is covered and violated, and the weighted sum is
    at most -1, the conclusion's weight.
    """
    x0, y0 = query.conclusion.antecedent.bits, query.conclusion.consequent.bits
    pairs = [(p.antecedent.bits, p.consequent.bits) for p in query.premises]
    closed = _closure(x0, pairs)
    if y0 & ~closed:
        data = Dataset(query.universe, {AttrSet(query.universe, closed): 1})
        return EntailmentVerdict(
            False, Regime.HORN_CLOSURE, counterexample=_refuting(query, data)
        )
    fired = [int(not ante & ~closed) for ante, _ in pairs]
    if y0 & ~_closure(x0, [pair for pair, m in zip(pairs, fired) if m]):
        raise RuntimeError("the premises given a multiplier do not derive Y0")
    return EntailmentVerdict(True, Regime.HORN_CLOSURE, tuple(map(Fraction, fired)))


def _first_carrying(
    query: EntailmentQuery, accept: Callable[[tuple[int, ...]], bool]
) -> tuple[int, ...] | None:
    """The first premise subset in increasing bitmask order that carries
    the conclusion and that ``accept`` takes, or None.  A subset carries it
    when its antecedents lie in ``X0``, its consequents hold ``Y0 \\ X0``,
    its spans cover ``X0`` and it enforces homogeneity.

    The homogeneous subsets of ``within`` that hold premise i have a
    largest one, their union, and a peel finds it: drop every premise whose
    span the closure of i's antecedent misses, or whose closure misses that
    antecedent, until none is left.  Covering grows with the subset, and
    acceptance must too, so a carrying, accepted subset between
    ``required`` and ``within`` exists exactly when the peel around a
    member of ``required`` is one.  Greedily, then: the smallest top
    premise t, then each lower premise, from the top, left out whenever
    the test still passes without it.
    """
    x0 = query.conclusion.antecedent.bits
    needed = query.conclusion.consequent.bits & ~x0
    pairs = [(p.antecedent.bits, p.consequent.bits) for p in query.premises]

    def carrier(required: int, within: int) -> int | None:
        ante_i = pairs[(required & -required).bit_length() - 1][0]
        held, kept = within, 0
        while held != kept:
            kept = held
            rules = [pairs[j] for j in bit_positions(kept)]
            reach = _closure(ante_i, rules)  # all of ``kept``'s spans, at the end
            for j, (ante, cons) in zip(bit_positions(kept), rules):
                if (ante | cons) & ~reach or ante_i & ~_closure(ante, rules):
                    held &= ~(1 << j)
        if required & ~held or x0 & ~reach or not accept(tuple(bit_positions(held))):
            return None
        return held

    within = 0
    for t, (ante, cons) in enumerate(pairs):
        if not ante & ~x0 and not needed & ~cons:
            within |= 1 << t
            if (held := carrier(1 << t, within)) is not None:
                break
    else:
        return None
    for b in reversed(bit_positions(held)[:-1]):
        if held >> b & 1:  # ``held`` holds the answer, which holds its premises above b
            held = carrier(held >> b + 1 << b + 1, held & ~(1 << b)) or held
    indices = tuple(bit_positions(held))
    if len(indices) > 1 and not enforces_homogeneity(query.premises.subset(indices)):
        raise RuntimeError("the carrying subset found does not enforce homogeneity")
    return indices


def _uniform_verdict(
    query: EntailmentQuery,
    regime: Regime,
    accept: Callable[[tuple[int, ...]], bool] = lambda indices: True,
) -> EntailmentVerdict:
    """The verdict where uniform multipliers suffice: the first carrying
    subset that ``accept`` takes, with equal multipliers over it,
    certifies the entailment, and with none the entailment fails
    (``_lp_failure``)."""
    indices = _first_carrying(query, accept)
    if indices is None:
        return _lp_failure(lambda: decide_lp(query), regime)
    certificate = [Fraction(0)] * query.k
    for i in indices:
        certificate[i] = Fraction(1, len(indices))
    return EntailmentVerdict(True, regime, certificate=tuple(certificate))


def _lp_failure(
    lp_verdict: Callable[[], EntailmentVerdict], regime: Regime
) -> EntailmentVerdict:
    """The failing verdict, under the structural route's ``regime``, of a
    query that no premise subset carries.  Its counterexample comes from
    the LP (``lp_verdict``), and an LP verdict that holds is a bug; inside
    a batch (``_BATCH``), which reads only ``holds``, no LP runs and the
    verdict carries no counterexample."""
    if _BATCH.get() is not None:
        return EntailmentVerdict(False, regime)
    verdict = lp_verdict()
    if verdict.holds:
        raise RuntimeError("the LP certifies a query no premise subset carries")
    return EntailmentVerdict(False, regime, counterexample=verdict.counterexample)


def decide(query: EntailmentQuery, method: Method = Method.AUTO) -> EntailmentVerdict:
    """Decide an entailment query.

    ``Method.LP`` always runs the LP route, and any ``method`` that is not
    a ``Method`` raises ``TypeError``.  ``Method.AUTO`` takes one
    route per regime, at any premise count: ``gamma = 0``, no premises and
    a trivial conclusion need no search, ``gamma = 1`` is Horn closure,
    and otherwise uniform multipliers over the first carrying subset
    settle one premise, ``gamma < 1/k`` (single premises only) and
    ``gamma >= (k-1)/k``, and ``threshold.decide_general`` the band
    between.
    """
    if method is not Method.AUTO:
        if method is Method.LP:
            return decide_lp(query)
        raise TypeError(f"method must be a Method, got {method!r}")
    k = query.k
    if (
        query.gamma == 0
        or k == 0
        or query.conclusion.consequent <= query.conclusion.antecedent
    ):
        return _tautology_verdict(query)
    if query.gamma == 1:
        return _horn_verdict(query)
    if k == 1:
        return _uniform_verdict(query, Regime.ONE_PREMISE)
    if query.gamma * k < 1:
        # Premises cannot combine below 1/k: the first carrying subset
        # that this takes is a single premise.
        x0, premises = query.conclusion.antecedent, query.premises
        return _uniform_verdict(
            query,
            Regime.LOW_GAMMA,
            lambda indices: any(x0 <= premises[i].span for i in indices),
        )
    if query.gamma * k >= k - 1:
        return _uniform_verdict(query, Regime.HIGH_GAMMA)
    from .threshold import decide_general

    return decide_general(query)


class ProperEntailmentResult(_Frozen):
    """Whether a held entailment needs all of its premises.

    ``minimal_premises`` lists 0-based indices of an inclusion-minimal
    entailing premise subset (None when the entailment fails); the
    entailment is proper when that subset is everything.
    """

    _fields = ("holds", "proper", "minimal_premises")

    def __init__(
        self, holds: bool, proper: bool, minimal_premises: tuple[int, ...] | None
    ) -> None:
        self.__dict__.update(
            holds=holds, proper=proper, minimal_premises=minimal_premises
        )


def properly_entails(query: EntailmentQuery) -> ProperEntailmentResult:
    """Decide the query and greedily shrink the premise set while it still
    entails.  Entailing subsets are upward closed, so single-removal
    passes reach an inclusion-minimal subset, and the entailment is proper
    exactly when no single premise can be dropped.  Like ``prune``, it
    runs its decides in one batch (``_BATCH``) and enumerates at most one
    table.  A trial drops one premise at the same ``gamma``, so a low- or
    high-band query's trials stay in its band, and rows are needed only in
    the general band (``gamma = 1`` is decided by Horn closure).  There the
    query's own decide has enumerated over every trial's rules, or has
    failed and ended the call."""
    token = _BATCH.set(_Batch())
    try:
        if not decide(query).holds:
            return ProperEntailmentResult(False, proper=False, minimal_premises=None)
        kept = list(range(query.k))
        for i in list(kept):
            trial = [j for j in kept if j != i]
            if decide(query.with_premises(trial)).holds:
                kept = trial
    finally:
        _BATCH.reset(token)
    return ProperEntailmentResult(
        holds=True,
        proper=len(kept) == query.k,
        minimal_premises=tuple(kept),
    )


def prune(rules: ImplicationSet, gamma: Fraction | int | str) -> ImplicationSet:
    """Drop rules entailed by the others at ``gamma``, scanning in order.

    Each rule is tested against all rules kept so far plus all rules not
    yet visited; because entailment is reflexive, monotone, and transitive
    at a fixed threshold, the surviving set still entails everything that
    was dropped.
    """
    g = as_gamma(gamma)
    kept: list[int] = []
    n = len(rules)
    # Query i involves the rules kept and the rules from i on, a subset of
    # those of every earlier query.  So in one batch (``_BATCH``) the first
    # decide that needs rows enumerates over a superset of every later
    # decide's rules, and the later ones project its table.  Only ``holds``
    # is read, so a decide that no premise subset carries fails without
    # rows, and ``gamma = 1`` is decided by Horn closure: only a cone probe
    # needs rows.  The first enumeration is the widest, so it is the only
    # one the enumeration cap can stop, and the decide that makes it is the
    # first to enumerate outside a batch too.
    token = _BATCH.set(_Batch())
    try:
        for i in range(n):
            others = kept + list(range(i + 1, n))
            query = EntailmentQuery(rules.subset(others), rules[i], g)
            if not decide(query).holds:
                kept.append(i)
    finally:
        _BATCH.reset(token)
    return rules.subset(kept)
