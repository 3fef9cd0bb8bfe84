"""The critical confidence threshold of a premise set against an antecedent.

Fix premises and a conclusion antecedent X0.  For multipliers ``lambda``
on the probability simplex, every transaction type Z not containing all of
X0 yields the ratio

    (sum of lambda over premises witnessed by Z)
    -------------------------------------------------
    (sum of lambda over premises covered by Z)

with 0/0 read as 0.  The critical threshold is the smallest worst-case
ratio any choice of multipliers can achieve.  Its role: the structural
combination conditions plus ``gamma`` at or above the critical threshold
of some premise subset characterise entailment for every ``gamma``
strictly between 0 and 1.

Whether a given ``gamma`` is at or above the critical threshold is a
single exact LP question (``feasible_at``, posed as a cone program that is
unbounded exactly when multipliers exist), so decisions never
depend on any numeric tolerance; ``critical_threshold`` merely reports a
dyadic bracket for the value itself, which is in general irrational, and
probes where cofactor polynomials of its last feasible ray predict it,
solving most probes on the ratio rows that no other row dominates and
none at 0, which the table settles.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from . import lp
from .entailment import (
    EntailmentQuery,
    EntailmentVerdict,
    Regime,
    SignatureRow,
    _NOT_COVERED,
    _VIOLATED,
    _WITNESSED,
    _certificate_violation,
    _decide_lp_rows,
    _first_carrying,
    _integer_weights,
    _lp_failure,
    _project_rows,
    _query_rows,
    _tautology_verdict,
    signature_rows,
)
from .homogeneity import ImplicationSet
from .model import (
    AttrSet,
    PartialImplication,
    UniverseMismatchError,
    _Frozen,
    as_gamma,
    as_rational,
)


class ThresholdBracket(_Frozen):
    """An enclosing interval for the critical threshold.

    ``multipliers`` is a simplex point feasible at ``upper``.  ``lower ==
    upper == 0`` exactly when the critical threshold is 0; otherwise
    ``lower`` is a value at which no multipliers exist, which at a coarse
    tolerance may be 0 itself.
    """

    _fields = ("lower", "upper", "tolerance", "multipliers")

    def __init__(
        self,
        lower: Fraction,
        upper: Fraction,
        tolerance: Fraction,
        multipliers: tuple[Fraction, ...],
    ) -> None:
        self.__dict__.update(
            lower=lower, upper=upper, tolerance=tolerance, multipliers=multipliers
        )

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def _ratio_rows(premises: ImplicationSet, antecedent: AttrSet) -> list[SignatureRow]:
    """Distinct premise status patterns over transaction types that do not
    contain all of ``antecedent``: the ratio of a row has the premises it
    witnesses over those it covers.

    The table's rows are distinct and every row kept has the same code in
    column 0, so dropping that column keeps them distinct and in order: the
    rows ``_project_ratio_rows`` would give, without its projection."""
    if premises.universe != antecedent.universe:
        raise UniverseMismatchError("premises and antecedent universes differ")
    if len(premises) < 1:
        raise ValueError("critical threshold needs at least one premise")
    probe = PartialImplication(antecedent, antecedent)  # covered exactly when witnessed
    rows = signature_rows([probe, *premises], premises.universe)
    new = tuple.__new__
    return [
        new(SignatureRow, (codes[1:], bits))
        for codes, bits in rows
        if codes[0] == _NOT_COVERED
    ]


def _project_ratio_rows(
    rows: list[SignatureRow], indices: Sequence[int]
) -> list[SignatureRow]:
    """Ratio rows of the premises at ``indices`` from a signature table
    whose column 0 has the antecedent ``X0`` and column ``i + 1`` premise i.

    The rows are those whose column 0 is not covered (the transaction
    misses part of ``X0``), projected onto the chosen premises by
    ``_project_rows``, so they and their order are those of a table built
    for the subset alone.
    """
    eligible = [row for row in rows if row.codes[0] == _NOT_COVERED]
    return _project_rows(eligible, [i + 1 for i in indices])


def _undominated(rows: list[SignatureRow]) -> list[SignatureRow]:
    """The ratio rows, in order, that no other row dominates: one whose
    codes all rank at least as high (violated < not covered < witnessed)
    has cells no larger at every ``gamma``, so it implies the dominated row
    (the dominated-row rule of LP presolve, Andersen-Andersen 1995).  Rows
    are taken by decreasing rank sum, so each is compared by its masks of
    witnessed and not violated positions with the kept rows only."""
    order = []
    for j, row in enumerate(rows):
        w = n = 0
        for i, c in enumerate(row.codes):
            if c != _VIOLATED:
                n |= 1 << i
                if c == _WITNESSED:
                    w |= 1 << i
        order.append((-w.bit_count() - n.bit_count(), j, w, n))
    kept: list[tuple[int, int, int]] = []
    for _, j, w, n in sorted(order):
        for _, a, b in kept:
            if not (w & ~a or n & ~b):
                break
        else:
            kept.append((j, w, n))
    return [rows[j] for j, _, _ in sorted(kept)]


def _cone_program(rows: list[SignatureRow], k: int, gamma: Fraction) -> lp.LinearProgram:
    """The cone program of ``_feasible``: minimise minus the sum of
    ``lambda`` subject to ``gamma * covered - witnessed >= 0`` on every row,
    each row times the denominator ``q`` of ``gamma = p/q`` so that its
    cells are integers: by status code, 0 not covered, ``p`` violated and
    ``p - q`` witnessed."""
    weight = tuple(-w for w in _integer_weights(gamma)).__getitem__
    return lp.LinearProgram(
        num_vars=k,
        objective=(-1,) * k,
        constraints=tuple([tuple(map(weight, row.codes)) for row in rows]),
    )


def _feasible(
    rows: list[SignatureRow], k: int, gamma: Fraction
) -> lp.Optimal | lp.Unbounded:
    """Whether multipliers with worst ratio over ``rows`` at most ``gamma`` exist.

    The ratio rows are homogeneous, so the question is posed as a cone
    program (``_cone_program``): it is ``Unbounded`` exactly when a nonzero
    ``lambda`` exists, and its verified ray's integer entries, divided by
    their sum (``_simplex_point``), are a simplex point.  Otherwise it is
    ``Optimal`` at 0, and its row duals are a Farkas certificate that there
    is none (``_farkas_bound``).
    """
    return lp.solve(_cone_program(rows, k, gamma))


def _worst_ratio(
    rows: list[SignatureRow], numerators: Sequence[int]
) -> tuple[int, int]:
    """Worst witnessed/covered ratio, as an integer pair, of the nonnegative
    multipliers ``numerators`` (over any common denominator) over the ratio
    ``rows``, each read from its status codes, with 0/0 read as 0 and 0/1
    when no row is covered."""
    num, den = 0, 1
    for row in rows:
        pairs = list(zip(numerators, row.codes))
        a = sum([v for v, c in pairs if c == _WITNESSED])
        b = sum([v for v, c in pairs if c != _NOT_COVERED])
        if a * den > num * b:
            num, den = a, b
    return num, den


def _farkas_bound(
    rows: list[SignatureRow], p: int, q: int, y: Sequence[int]
) -> tuple[int, int]:
    """The value, as an integer pair, below which the row duals ``y`` of a
    bounded probe of ``rows`` at ``gamma = p/q`` prove that no multipliers
    exist: ``y >= 0`` with ``y.(W - gamma C)_i > 0`` for every premise
    ``i`` (``W`` witnessed, ``C`` covered) leaves no nonzero ``lambda >=
    0`` with ``(W - gamma C) lambda <= 0``, and the sums only grow as
    ``gamma`` falls.  The sums read only the rows whose dual is nonzero."""
    if min(y) < 0:
        raise RuntimeError("probe duals are no Farkas certificate")
    used = [(v, row.codes) for v, row in zip(y, rows) if v]
    num, den = 1, 0  # above every ratio: each premise lowers it
    for i in range(len(rows[0].codes)):
        w = sum([v for v, codes in used if codes[i] == _WITNESSED])
        c = sum([v for v, codes in used if codes[i] != _NOT_COVERED])
        if q * w <= p * c:
            raise RuntimeError("probe duals are no Farkas certificate")
        if w * den < num * c:
            num, den = w, c
    return num, den


def _simplex_point(ray: Sequence[int]) -> tuple[Fraction, ...]:
    """The nonnegative, nonzero integer ``ray`` divided by its sum."""
    total = sum(ray)
    return tuple([Fraction(v, total) for v in ray])


def feasible_at(
    gamma: Fraction | int | str, premises: ImplicationSet, antecedent: AttrSet
) -> tuple[Fraction, ...] | None:
    """Multipliers witnessing that the critical threshold is at most
    ``gamma``, or None when ``gamma`` lies strictly below it.

    The feasible set only grows with ``gamma``, and the infimum defining
    the critical threshold is attained, so this single feasibility test
    decides the comparison exactly.
    """
    g = as_gamma(gamma)
    outcome = _feasible(_ratio_rows(premises, antecedent), len(premises), g)
    return _simplex_point(outcome.ray) if isinstance(outcome, lp.Unbounded) else None


def max_ratio(
    multipliers: Sequence[Fraction], premises: ImplicationSet, antecedent: AttrSet
) -> Fraction:
    """Worst-case witnessed/covered ratio of fixed simplex multipliers.

    Ratios with zero denominator count as 0, and with no eligible
    transaction types at all (empty ``antecedent`` is the only such case)
    the maximum is 0 by convention.
    """
    lams = [as_rational(lam) for lam in multipliers]
    if len(lams) != len(premises):
        raise ValueError("need one multiplier per premise")
    if any(lam < 0 for lam in lams):
        raise ValueError("multipliers must be nonnegative")
    if sum(lams) != 1:
        raise ValueError("multipliers must sum to 1")
    scale = math.lcm(*[lam.denominator for lam in lams])
    numerators = [lam.numerator * (scale // lam.denominator) for lam in lams]
    return Fraction(*_worst_ratio(_ratio_rows(premises, antecedent), numerators))


def _pmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b, i):
            out[j] += u * v
    return out


def _psub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [u - v for u, v in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _pdiv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient of ``a`` by ``b``, which divides it exactly."""
    a, n = list(a), len(b) - 1
    out = [0] * (len(a) - n)
    for i in reversed(range(len(out))):
        out[i] = t = a[i + n] // b[n]
        for j, v in enumerate(b):
            a[i + j] -= t * v
    return out


def _sign(poly: Sequence[int], x: int) -> int:
    """The sign of ``poly`` (coefficients from degree 0) at ``x``."""
    v = 0
    for c in reversed(poly):
        v = v * x + c
    return (v > 0) - (v < 0)


def _cuts(poly: Sequence[int], lo: int, hi: int) -> list[int]:
    """Sorted integers ``c`` in ``[lo, hi)``, the derivative's among them,
    with each point of ``(lo, hi)`` where ``poly`` changes sign in some
    ``[c, c + 1]``: ``poly`` is monotone between the derivative's cuts."""
    if len(poly) < 2:
        return []
    out = _cuts([i * c for i, c in enumerate(poly)][1:], lo, hi)
    for s, e in list(zip([lo] + [c + 1 for c in out], out + [hi])):
        if _sign(poly, s) * _sign(poly, e) < 0:
            out.append(_crossing(poly, s, e))
    return sorted(out)


def _crossing(poly: Sequence[int], s: int, e: int) -> int:
    """The last point of ``[s, e)`` with the sign of ``poly`` at ``s``, on
    a run where ``poly`` is monotone and has another sign at ``e``."""
    first = _sign(poly, s)
    while e - s > 1:
        mid = (s + e) // 2
        s, e = (mid, e) if _sign(poly, mid) == first else (s, mid)
    return s


def _last_negative(polys: Sequence[Sequence[int]], lo: int, hi: int) -> int:
    """The largest integer ``x`` with ``lo < x < hi`` at which some
    polynomial is negative, or ``lo`` if none is."""
    if hi - lo > 1 and any([_sign(poly, hi - 1) < 0 for poly in polys]):
        return hi - 1
    for poly in polys:
        cuts = _cuts([i * c for i, c in enumerate(poly)][1:], lo, hi)
        for s, e in reversed(list(zip([lo] + [c + 1 for c in cuts], cuts + [hi]))):
            s, e = max(s, lo + 1), min(e, hi - 1)
            if s <= e and _sign(poly, e) < 0:
                lo = e
                break
            if s <= e and _sign(poly, s) < 0:
                lo = _crossing(poly, s, e)
                break
    return lo


def _kernel(
    rows: Sequence[Sequence[int]], size: int, cells: Sequence[Sequence[int]], x: int
) -> tuple[list[list[int]], list[Sequence[int]]] | None:
    """A vector of polynomials spanning the kernel of the first ``size -
    1`` rows of status codes (``size`` columns, the polynomial ``cells[c]``
    for code ``c``) that are independent at ``x``, with those rows, or None
    if there are fewer.

    Fraction-free Gauss-Jordan elimination over the integer polynomials
    (Bareiss 1968): each entry of a pivot line in a column with no pivot is
    a minor, so the kernel is the vector of cofactors up to sign.  Its
    entries in the pivot columns, the common pivot ``d`` in its own and 0
    in the others, are read by no step, so only the others are computed."""
    pivots: list[tuple[int, list[list[int]]]] = []
    chosen: list[Sequence[int]] = []
    free = list(range(size))  # the columns with no pivot, ascending
    d: list[int] = [1]
    for codes in rows:
        if len(pivots) == size - 1:
            break
        line: list[list[int]] = [[]] * size
        for j in free:
            line[j] = _pmul(d, cells[codes[j]])
        for col, pivot_line in pivots:
            f = cells[codes[col]]
            if f:
                for j in free:
                    line[j] = _psub(line[j], _pmul(f, pivot_line[j]))
        col = next((j for j in free if _sign(line[j], x)), None)
        if col is not None:
            free.remove(col)
            f = line[col]
            for _, pivot_line in pivots:
                g = pivot_line[col]
                for j in free:
                    u = _psub(_pmul(f, pivot_line[j]), _pmul(g, line[j]))
                    pivot_line[j] = _pdiv(u, d)
            pivots.append((col, line))
            chosen.append(codes)
            d = f
    if len(pivots) < size - 1:
        return None
    entries = {col: [-c for c in line[free[0]]] for col, line in pivots}
    return [entries.get(i, d) for i in range(size)], chosen


def _predict(
    rows: list[SignatureRow], ray: Sequence[int], lower: int, upper: int, depth: int
) -> int | None:
    """The lower end of the grid cell in ``[lower, upper)`` where the ray
    at ``upper`` is predicted to stop being feasible (``lower`` if it stays
    feasible above ``lower``), or None.

    On the support S of the ray, ``|S| - 1`` of the ratio ``rows``
    projected onto S (``_project_rows``) that are tight and independent at
    ``upper`` have a kernel ``lambda`` of cofactor polynomials
    (``_kernel``), a positive multiple of the ray at ``upper``.
    Below ``upper`` it stays a certificate until some ``lambda_i``, or some
    row's product with ``lambda``, turns negative, so the critical
    threshold lies at or below that breakpoint (parametric programming in
    the line of Dinkelbach 1967 and Crouzeix-Ferland-Schaible 1985).  Rows
    witnessing no premise of S turn negative only where some ``lambda_i``
    does, and are left out.  The variable is ``x = 2**depth * g``.
    """
    cells = ((), (0, 1), (-1 << depth, 1))  # in x = 2**depth * g, by status code
    support = [i for i, v in enumerate(ray) if v]
    patterns = [row.codes for row in _project_rows(rows, support)]
    weights = [(ray[i] * upper, ray[i] << depth) for i in support]
    tight = [  # rows on which the ray's product is 0 at upper
        p
        for p in patterns
        if not sum([a - b * (c == _WITNESSED) for (a, b), c in zip(weights, p) if c])
    ]
    kernel = _kernel(tight, len(support), cells, upper)
    if kernel is None:
        return None
    lam, chosen = kernel
    neg = [[-c for c in v] for v in lam]
    if _sign(lam[0], upper) < 0:
        lam, neg = neg, lam
    polys = lam + [  # the chosen rows' products are identically 0
        functools.reduce(_psub, [_pmul(cells[c], v) for c, v in zip(p, neg)], [])
        for p in patterns
        if _WITNESSED in p and p not in chosen
    ]
    # a polynomial with no negative coefficient is not negative for x > 0
    return _last_negative([p for p in polys if min(p, default=0) < 0], lower, upper)


def critical_threshold(
    premises: ImplicationSet,
    antecedent: AttrSet,
    tolerance: Fraction | int | str = Fraction(1, 100_000),
) -> ThresholdBracket:
    """Bracket the critical threshold to within ``tolerance``.

    The bracket is the cell ``(U - 1, U] / 2**D`` of the dyadic grid that
    holds the value, ``D`` being the fewest bisection steps of [0, 1] that
    reach the tolerance, with the multipliers of the probe at ``U``: plain
    bisection's result, whichever probes find it.  Multipliers exist at
    ``upper`` and (unless the value is exactly 0) none at ``lower``.

    The loop keeps two checked facts on the grid, in integers: ``lower``,
    the largest point ruled out by an infeasible probe or its re-checked
    Farkas bound, and ``upper``, the smallest feasible point probed, with
    its ray checked on every row (1, where every ratio is at most 1, is
    feasible unprobed).  At 0, where a row's cells are -1 where it
    witnesses a premise and 0 elsewhere, the table decides: the first
    premise no row witnesses gives Bland's rule's unit ray, and else every
    undominated row, weighted 1, is a Farkas vector.  ``_predict`` chooses
    the next probes from that ray, or else (also with two bisection levels
    left) the next midpoint of plain bisection the facts leave open.  A
    poor prediction can cost solves but never change the result.

    Probes run on the rows no other row dominates (``_undominated``):
    feasible exactly where the full table is, with Farkas vectors that,
    zero elsewhere, are the full table's.  Only probes whose ray can close
    the bracket see the full table: at ``lower + 1`` and at ``upper`` last.
    A full-table ray is checked on every row by ``lp.solve``, which
    substitutes it into the probe's rows: row by row, ``(gamma C - W)
    lambda >= 0`` is the ratio check.  A ray of the undominated rows is
    also checked by its worst ratio (``_worst_ratio``) over every row, the
    only check that reads the rows they dropped.  Every step reads the
    tables' status codes directly: a probe's Farkas bound sums over the
    rows whose dual is nonzero, at most ``k`` of them (the surplus columns
    nonbasic at the optimum).
    """
    tol = as_rational(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rows = _ratio_rows(premises, antecedent)
    kept = _undominated(rows)
    k = len(premises)
    depth = (-(-tol.denominator // tol.numerator) - 1).bit_length()  # 2**-D <= tol
    lower, upper, at_upper, full = 0, 1 << depth, (), False

    def check(ray: Sequence[int], p: int, q: int) -> None:
        """Raise unless the ray of the undominated rows passes every row."""
        w, c = _worst_ratio(rows, ray)
        if w * q > p * c:
            raise RuntimeError("probe ray exceeds its threshold")

    def probe(x: int) -> bool:
        """Probe ``x / 2**depth`` and move ``lower`` or ``upper`` to it, on
        the full table where a feasible probe closes the bracket."""
        nonlocal lower, upper, at_upper, full
        gamma = Fraction(x, 1 << depth)
        p, q = gamma.numerator, gamma.denominator
        on_rows = x == lower + 1
        table = rows if on_rows else kept
        outcome = _feasible(table, k, gamma)
        if isinstance(outcome, lp.Optimal):
            w, c = _farkas_bound(table, p, q, outcome.row_duals)
            lower = max(lower, x, -((-w << depth) // c) - 1)
            return False
        if not on_rows:
            check(outcome.ray, p, q)
        upper, at_upper, full = x, outcome.ray, on_rows
        return True

    unwitnessed = [i for i in range(k) if all([r.codes[i] != _WITNESSED for r in kept])]
    if unwitnessed:  # Bland's rule returns the first all-zero column's ray
        at_upper = tuple([int(i == unwitnessed[0]) for i in range(k)])
        check(at_upper, 0, 1)
        upper, full = 0, True
    else:  # every undominated row, weighted 1, is a Farkas vector
        w, c = _farkas_bound(kept, 0, 1, [1] * len(kept))
        lower = max(0, -((-w << depth) // c) - 1)
    while upper - lower > 1:
        # plain bisection probes next the midpoint of the smallest dyadic
        # block of 2**levels cells holding lower + 1 .. upper; 1 is feasible
        # unprobed, and its ray, a unit vector, would predict only the top cell
        levels = (lower ^ (upper - 1)).bit_length()
        predict = levels > 2 and upper < 1 << depth
        cell = _predict(kept, at_upper, lower, upper, depth) if predict else None
        if cell is None:
            probe((lower >> levels << levels) + (1 << levels - 1))
        elif (cell == lower or not probe(cell)) and lower == cell < upper - 1:
            probe(cell + 1)  # the cell's lower end is ruled out, its upper open
    if not full and not probe(upper):
        raise RuntimeError("no multipliers at 1, where every ratio is at most 1")
    return ThresholdBracket(
        lower=Fraction(lower, 1 << depth),
        upper=Fraction(upper, 1 << depth),
        tolerance=tol,
        multipliers=_simplex_point(at_upper),
    )


def decide_general(query: EntailmentQuery) -> EntailmentVerdict:
    """Decide entailment for any threshold strictly between 0 and 1.

    The entailment holds exactly when the conclusion is trivial or some
    nonempty premise subset satisfies the structural combination
    conditions and has critical threshold at most ``gamma``; in that case
    the feasibility multipliers of the subset, padded with zeros,
    certify the full entailment.  A subset's critical threshold only falls
    as premises join it, so the search of the band routes of
    ``entailment.decide`` (``_first_carrying``) can take the cone probe,
    run once per subset, as its test.  The query's signature table is enumerated at most once,
    when the first subset is probed: each subset's ratio rows are
    projected from it, and the certificate check and the LP counterexample
    reuse it.
    """
    if query.k < 1:
        raise ValueError("general decider needs at least one premise")
    if not 0 < query.gamma < 1:
        raise ValueError(
            f"general decider needs gamma strictly between 0 and 1, got {query.gamma}"
        )
    if query.conclusion.consequent <= query.conclusion.antecedent:
        return _tautology_verdict(query)
    rows = functools.cache(lambda: _query_rows(query))

    @functools.cache
    def probe(indices: tuple[int, ...]) -> lp.Optimal | lp.Unbounded:
        ratio_rows = _project_ratio_rows(rows(), indices)
        return _feasible(ratio_rows, len(indices), query.gamma)

    indices = _first_carrying(query, lambda s: isinstance(probe(s), lp.Unbounded))
    if indices is None:
        return _lp_failure(
            lambda: _decide_lp_rows(query, rows()), Regime.GENERAL_GAMMA_STAR
        )
    ray = probe(indices).ray
    numerators = [0] * query.k
    for v, i in zip(ray, indices):
        numerators[i] = v
    if _certificate_violation(query, rows(), numerators, sum(ray)) is not None:
        raise RuntimeError("subset multipliers fail the full constraint system")
    return EntailmentVerdict(
        holds=True,
        regime=Regime.GENERAL_GAMMA_STAR,
        certificate=_simplex_point(numerators),
    )
