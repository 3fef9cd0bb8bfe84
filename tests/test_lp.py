"""Exact simplex: outcomes, witnesses, duality, termination, and agreement
(outcomes and pivot paths) with the full Fraction tableau that the condensed
integer one replaced."""

import random
import sys
from fractions import Fraction as F

import pytest

from conftest import nonempty_subsets, status_weights
from pientail import lp


def ge(coeffs, rhs=0):
    return lp.Constraint(tuple(F(c) for c in coeffs), lp.Relation.GE, F(rhs))


class TestOutcomes:
    def test_optimal_with_point(self):
        # min x + y  s.t.  x + y >= 2, x - y >= 0
        prog = lp.LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(ge([1, 1], 2), ge([1, -1], 0)),
        )
        out = lp.solve(prog)
        assert isinstance(out, lp.Optimal)
        assert out.value == 2
        assert sum(out.point) == 2

    def test_unbounded_with_ray(self):
        # min -x  s.t.  x - y >= 0 is unbounded along (1, 1) or (1, 0)
        prog = lp.LinearProgram(
            num_vars=2, objective=(F(-1), F(0)), constraints=(ge([1, -1]),)
        )
        out = lp.solve(prog)
        assert isinstance(out, lp.Unbounded)
        assert out.ray[0] > 0
        assert out.ray[0] - out.ray[1] >= 0

    def test_infeasible(self):
        # x >= 1 and -x >= 0 cannot both hold with x >= 0
        prog = lp.LinearProgram(
            num_vars=1,
            objective=(F(0),),
            constraints=(ge([1], 1), ge([-1], 0)),
        )
        assert isinstance(lp.solve(prog), lp.Infeasible)

    def test_equality_and_le_rows(self):
        # max x + y  s.t.  x + y = 1, x <= 1/3
        prog = lp.LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(
                lp.Constraint((F(1), F(1)), lp.Relation.EQ, F(1)),
                lp.Constraint((F(1), F(0)), lp.Relation.LE, F(1, 3)),
            ),
            maximize=True,
        )
        out = lp.solve(prog)
        assert isinstance(out, lp.Optimal)
        assert out.value == 1

    def test_zero_variable_edge_cases(self):
        sat = lp.LinearProgram(0, (), (lp.Constraint((), lp.Relation.GE, F(-1)),))
        assert isinstance(lp.solve(sat), lp.Optimal)
        unsat = lp.LinearProgram(0, (), (lp.Constraint((), lp.Relation.GE, F(1)),))
        assert isinstance(lp.solve(unsat), lp.Infeasible)

    def test_mixed_sign_right_hand_sides(self):
        # min x + 2y  s.t.  x + y >= 2 (needs an artificial),
        # -x + y >= -1 and x - y >= 0 (surplus starts basic)
        prog = lp.LinearProgram(
            num_vars=2,
            objective=(F(1), F(2)),
            constraints=(ge([1, 1], 2), ge([-1, 1], -1), ge([1, -1], 0)),
        )
        out = lp.solve(prog)
        assert isinstance(out, lp.Optimal)
        assert out.point == (F(3, 2), F(1, 2))
        assert out.value == F(5, 2)
        assert out.row_duals == (F(3, 2), F(1, 2), F(0))

    def test_infeasible_through_an_artificial(self):
        # x + y >= 3 needs an artificial; -x >= 0 and -y >= -1 do not
        prog = lp.LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(ge([1, 1], 3), ge([-1, 0], 0), ge([0, -1], -1)),
        )
        assert isinstance(lp.solve(prog), lp.Infeasible)

    def test_feasible_helper(self):
        point = lp.feasible([lp.Constraint((F(1),), lp.Relation.EQ, F(1))], 1)
        assert point == (F(1),)
        assert lp.feasible([ge([-1], 1)], 1) is None


class TestDuality:
    def test_strong_duality_on_random_programs(self):
        """min c.x, Ax >= b, x >= 0 against max b.y, A^T y <= c, y >= 0:
        equal optima when both are bounded, and the row duals returned with
        the primal must be a feasible dual point achieving that optimum."""
        rng = random.Random(42)

        def coef():
            return F(rng.randint(-4, 4), rng.randint(1, 3))

        both_optimal = 0
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = [[coef() for _ in range(n)] for _ in range(m)]
            b = [coef() for _ in range(m)]
            c = [coef() for _ in range(n)]
            primal = lp.LinearProgram(
                num_vars=n,
                objective=tuple(c),
                constraints=tuple(ge(row, rhs) for row, rhs in zip(A, b)),
            )
            dual = lp.LinearProgram(
                num_vars=m,
                objective=tuple(b),
                constraints=tuple(
                    lp.Constraint(
                        tuple(A[i][j] for i in range(m)), lp.Relation.LE, c[j]
                    )
                    for j in range(n)
                ),
                maximize=True,
            )
            pout = lp.solve(primal)
            dout = lp.solve(dual)
            if isinstance(pout, lp.Optimal):
                assert isinstance(dout, lp.Optimal)
                assert pout.value == dout.value
                y = pout.row_duals
                assert y is not None and all(v >= 0 for v in y)
                for j in range(n):
                    assert sum(A[i][j] * y[i] for i in range(m)) <= c[j]
                assert sum(bi * yi for bi, yi in zip(b, y)) == pout.value
                both_optimal += 1
            elif isinstance(pout, lp.Unbounded):
                assert isinstance(dout, lp.Infeasible)
        assert both_optimal >= 40  # the sample is not degenerate

    def test_homogeneous_optimum_has_feasible_duals(self):
        """Homogeneous programs start from the surplus basis with no phase 1;
        a bounded one has optimum 0 at the origin's value, and its row
        duals must still solve the dual system A^T y <= c, y >= 0."""
        # min x - y  s.t.  x - y >= 0: the single dual value is forced to 1
        out = lp.solve(
            lp.LinearProgram(2, (F(1), F(-1)), (ge([1, -1]),))
        )
        assert isinstance(out, lp.Optimal)
        assert out.value == 0
        assert out.row_duals == (F(1),)

        rng = random.Random(11)
        optimal = 0
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            c = [F(rng.randint(-2, 3)) for _ in range(n)]
            out = lp.solve(
                lp.LinearProgram(
                    num_vars=n,
                    objective=tuple(c),
                    constraints=tuple(ge(row) for row in A),
                )
            )
            assert not isinstance(out, lp.Infeasible)
            if isinstance(out, lp.Optimal):
                assert out.value == 0
                y = out.row_duals
                assert y is not None and all(v >= 0 for v in y)
                for j in range(n):
                    assert sum(A[i][j] * y[i] for i in range(m)) <= c[j]
                optimal += 1
        assert optimal >= 40  # the sample is not degenerate

    def test_entailment_dual_is_feasible_on_worked_example(self, pair_query):
        """The multiplier system of the shared-antecedent example admits
        (1/2, 1/2) at threshold 1/2; build its rows directly and check."""
        from pientail.entailment import _query_rows

        rows = _query_rows(pair_query, 20)
        weight = status_weights(pair_query.gamma)
        constraints = []
        for row in rows:
            coeffs = tuple(weight[s] for s in row.statuses[1:])
            rhs = weight[row.statuses[0]]
            constraints.append(lp.Constraint(coeffs, lp.Relation.LE, rhs))
        point = lp.feasible(constraints, 2)
        assert point is not None


class TestTermination:
    def test_degenerate_programs_terminate_and_verify(self):
        """Duplicated rows and zero right-hand sides force degenerate
        pivots; Bland's rule must still terminate, and the built-in
        substitution check validates every witness."""
        rng = random.Random(7)

        def coef():
            return F(rng.randint(-3, 3), rng.randint(1, 2))

        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            constraints = []
            for _ in range(m):
                coeffs = tuple(coef() for _ in range(n))
                rel = rng.choice(list(lp.Relation))
                rhs = rng.choice([F(0), F(0), coef()])
                constraints.append(lp.Constraint(coeffs, rel, rhs))
                if rng.random() < 0.3:
                    constraints.append(lp.Constraint(coeffs, rel, rhs))
            prog = lp.LinearProgram(
                num_vars=n,
                objective=tuple(coef() for _ in range(n)),
                constraints=tuple(constraints),
                maximize=rng.random() < 0.5,
            )
            lp.solve(prog)  # raises if any witness fails re-verification

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            lp.LinearProgram(2, (F(1),), ())
        with pytest.raises(ValueError):
            lp.LinearProgram(1, (F(1),), (ge([1, 2], 0),))


# --- reference: the dense Fraction simplex that ``lp.solve`` replaced ------
#
# The same labels, start basis and Bland's rule as ``lp.solve``, with every
# column of the tableau kept (a column's index is its label) and every entry
# a ``Fraction``.  The condensed integer tableau holds the nonbasic columns
# of this one times the common denominator, so both must take the same
# pivots and return identical outcomes.


def _reference_pivot(rows, cost, basis, r, c):
    pivot_row = rows[r]
    inv = F(1) / pivot_row[c]
    new_row = [v * inv for v in pivot_row]
    rows[r] = new_row
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f:
                rows[i] = [a - f * b for a, b in zip(row, new_row)]
    f = cost[c]
    if f:
        cost[:] = [a - f * b for a, b in zip(cost, new_row)]
    basis[r] = c


def _reference_run_simplex(rows, cost, basis, num_cols):
    while True:
        entering = next((j for j in range(num_cols) if cost[j] < 0), None)
        if entering is None:
            return None
        best_key = None
        best_row = -1
        for i, row in enumerate(rows):
            coeff = row[entering]
            if coeff > 0:
                key = (row[-1] / coeff, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = i
        if best_row < 0:
            return entering
        _reference_pivot(rows, cost, basis, best_row, entering)


def reference_solve(program):
    n = program.num_vars
    objective = [F(c) for c in program.objective]
    if program.maximize:
        objective = [-c for c in objective]
    ge_rows = []
    pure_ge = not program.maximize
    for row in program.constraints:
        coeffs = [F(c) for c in row.coeffs]
        rhs = F(row.rhs)
        if row.relation is lp.Relation.GE:
            ge_rows.append((coeffs, rhs))
        elif row.relation is lp.Relation.LE:
            ge_rows.append(([-c for c in coeffs], -rhs))
            pure_ge = False
        else:
            ge_rows.append((coeffs, rhs))
            ge_rows.append(([-c for c in coeffs], -rhs))
            pure_ge = False
    m = len(ge_rows)
    zero, one = F(0), F(1)
    needs_art = [rhs > 0 for _, rhs in ge_rows]
    art_start = n + m
    num_cols = art_start + sum(needs_art)
    rows, basis = [], []
    art = art_start
    for r, (coeffs, rhs) in enumerate(ge_rows):
        line = [zero] * (num_cols + 1)
        sign = one if needs_art[r] else -one
        for j, c in enumerate(coeffs):
            line[j] = sign * c
        line[n + r] = -sign
        line[-1] = sign * rhs
        if needs_art[r]:
            line[art] = one
            basis.append(art)
            art += 1
        else:
            basis.append(n + r)
        rows.append(line)
    cost = [zero] * (num_cols + 1)
    for r, line in enumerate(rows):
        if needs_art[r]:
            for j in range(art_start):
                cost[j] -= line[j]
            cost[-1] -= line[-1]
    if _reference_run_simplex(rows, cost, basis, num_cols) is not None:
        raise RuntimeError("phase 1 cannot be unbounded")
    if -cost[-1] > 0:
        return lp.Infeasible()
    for r in range(len(rows) - 1, -1, -1):
        if basis[r] >= art_start:
            pivot_col = next(j for j in range(art_start) if rows[r][j] != 0)
            _reference_pivot(rows, cost, basis, r, pivot_col)
    rows = [line[:art_start] + line[-1:] for line in rows]
    num_cols = art_start
    cost = objective + [zero] * (m + 1)
    for i, b in enumerate(basis):
        f = cost[b]
        if f:
            cost = [a - f * v for a, v in zip(cost, rows[i])]
    entering = _reference_run_simplex(rows, cost, basis, num_cols)
    point_full = [zero] * num_cols
    for i, b in enumerate(basis):
        point_full[b] = rows[i][-1]
    point = tuple(point_full[:n])
    if entering is not None:
        ray_full = [zero] * num_cols
        ray_full[entering] = one
        for i, b in enumerate(basis):
            ray_full[b] = -rows[i][entering]
        return lp.Unbounded(point=point, ray=tuple(ray_full[:n]))
    value = sum((F(c) * v for c, v in zip(program.objective, point)), zero)
    row_duals = tuple(cost[n + r] for r in range(m)) if pure_ge else None
    return lp.Optimal(point=point, value=value, row_duals=row_duals)


def _outcome_key(outcome):
    """Everything an outcome carries, ``row_duals`` included (it is left
    out of dataclass equality)."""
    fields = (type(outcome).__name__,)
    for name in ("point", "ray", "value", "row_duals"):
        fields += (getattr(outcome, name, None),)
    return fields


def _seeded_programs(seed, count):
    """Programs of every shape ``lp.solve`` meets, in turn: the homogeneous
    ``decide_lp`` shape (weights ``1 - g``, ``-g``, 0 in >= rows,
    minimised), the cone shape of critical-threshold probes (``<= 0`` rows,
    sum maximised), zero-objective feasibility over rows through a known
    point (phase 1 alone picks the vertex), and mixed GE/LE/EQ rows with
    positive and non-positive right-hand sides, min and max, duplicate rows,
    boxes and infeasible systems."""
    rng = random.Random(seed)

    def coef():
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    def gamma():
        return F(rng.randint(1, 15), 16) if rng.random() < 0.5 else F(
            rng.randint(1, 9), rng.randint(10, 12)
        )

    for index in range(count):
        shape = index % 5
        if shape == 0:  # decide_lp: one variable per signature row
            g = gamma()
            weight = (1 - g, -g, F(0))
            k, cols = rng.randint(1, 5), rng.randint(1, 14)
            table = [[rng.choice(weight) for _ in range(k + 1)] for _ in range(cols)]
            yield lp.LinearProgram(
                num_vars=cols,
                objective=tuple(w[0] for w in table),
                constraints=tuple(
                    lp.Constraint(tuple(w[i] for w in table), lp.Relation.GE, F(0))
                    for i in range(1, k + 1)
                ),
            )
        elif shape == 1:  # critical-threshold probe: a homogeneous cone
            g = F(rng.randint(1, 63), 64)
            k, count_rows = rng.randint(1, 5), rng.randint(1, 14)
            constraints = []
            for _ in range(count_rows):
                coeffs = []
                for _ in range(k):
                    status = rng.randrange(3)
                    coeffs.append((1 - g, -g, F(0))[status])
                constraints.append(
                    lp.Constraint(tuple(coeffs), lp.Relation.LE, F(0))
                )
            yield lp.LinearProgram(
                num_vars=k,
                objective=tuple([F(1)] * k),
                constraints=tuple(constraints),
                maximize=True,
            )
        elif shape == 2:  # lp.feasible on rows through a known point
            n = rng.randint(2, 5)
            x0 = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
            constraints = []
            for _ in range(rng.randint(2, 6)):
                coeffs = tuple(coef() for _ in range(n))
                lhs = sum(c * v for c, v in zip(coeffs, x0))
                slack = F(rng.randint(0, 2), rng.randint(1, 5))
                rel = rng.choice([lp.Relation.GE, lp.Relation.GE, lp.Relation.LE])
                rhs = lhs - slack if rel is lp.Relation.GE else lhs + slack
                constraints.append(lp.Constraint(coeffs, rel, rhs))
            yield lp.LinearProgram(
                num_vars=n,
                objective=tuple([F(0)] * n),
                constraints=tuple(constraints),
            )
        else:  # general rows; shape 4 adds duplicates and bounded boxes
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            constraints = []
            for _ in range(m):
                coeffs = tuple(coef() for _ in range(n))
                rel = rng.choice(list(lp.Relation))
                rhs = rng.choice([F(0), coef(), abs(coef()) + 1, -abs(coef())])
                constraints.append(lp.Constraint(coeffs, rel, rhs))
                if shape == 4 and rng.random() < 0.4:
                    constraints.append(lp.Constraint(coeffs, rel, rhs))
            if shape == 4 and rng.random() < 0.5:
                for j in range(n):
                    box = [F(0)] * n
                    box[j] = F(1)
                    constraints.append(
                        lp.Constraint(tuple(box), lp.Relation.LE, F(rng.randint(1, 6), 2))
                    )
            zero_objective = rng.random() < 0.25  # the ``lp.feasible`` shape
            yield lp.LinearProgram(
                num_vars=n,
                objective=tuple(F(0) if zero_objective else coef() for _ in range(n)),
                constraints=tuple(constraints),
                maximize=rng.random() < 0.5,
            )


class TestIntegerTableau:
    def test_matches_the_fraction_reference(self):
        """The integer tableau is the common denominator times the Fraction
        one, so on every program the outcome type, point, ray, value and
        row duals are identical."""
        seen = {"Optimal": 0, "Unbounded": 0, "Infeasible": 0}
        for program in _seeded_programs(seed=2024, count=600):
            out = lp.solve(program)
            assert _outcome_key(out) == _outcome_key(reference_solve(program))
            seen[type(out).__name__] += 1
        assert min(seen.values()) >= 100  # every outcome is well represented

    def test_negative_pivot_drives_out_a_leftover_artificial(self, monkeypatch):
        """``x1 = 1`` stated twice leaves an artificial basic at zero after
        phase 1, and driving it out pivots on a negative entry."""
        pivots = []
        real_pivot = lp._pivot

        def spy(rows, basic, nonbasic, r, c, d):
            pivots.append((rows[r][c], basic[r]))
            return real_pivot(rows, basic, nonbasic, r, c, d)

        monkeypatch.setattr(lp, "_pivot", spy)
        row = lp.Constraint((F(1),), lp.Relation.EQ, F(1))
        program = lp.LinearProgram(1, (F(1),), (row, row))
        out = lp.solve(program)
        # four >= rows, so labels 5 and 6 are the two artificials
        assert any(p < 0 and basic >= 5 for p, basic in pivots)
        assert isinstance(out, lp.Optimal)
        assert out.point == (F(1),)
        assert out.value == 1
        assert out.row_duals is None
        assert _outcome_key(out) == _outcome_key(reference_solve(program))

    def test_float_cells_are_refused(self):
        one = (F(1),)
        for program in (
            lp.LinearProgram(1, one, (lp.Constraint((0.5,), lp.Relation.GE, F(0)),)),
            lp.LinearProgram(1, one, (lp.Constraint(one, lp.Relation.LE, 0.5),)),
            lp.LinearProgram(1, (1.0,), (lp.Constraint(one, lp.Relation.GE, F(0)),)),
        ):
            with pytest.raises(TypeError):
                lp.solve(program)


def _pivot_paths(program, monkeypatch):
    """The (entering label, leaving label) pivots of ``lp.solve`` and of
    ``reference_solve`` on ``program``, whose full tableau labels each
    column by its index."""
    kernel, reference = [], []
    real_pivot, real_reference = lp._pivot, _reference_pivot

    def spy(rows, basic, nonbasic, r, c, d):
        kernel.append((nonbasic[c], basic[r]))
        return real_pivot(rows, basic, nonbasic, r, c, d)

    def reference_spy(rows, cost, basis, r, c):
        reference.append((c, basis[r]))
        return real_reference(rows, cost, basis, r, c)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_pivot", spy)
        patch.setattr(sys.modules[__name__], "_reference_pivot", reference_spy)
        lp.solve(program)
        reference_solve(program)
    return kernel, reference


class TestPivotPath:
    """The condensed tableau takes exactly the pivots of the full one, not
    only the same outcome."""

    def test_seeded_programs(self, monkeypatch):
        pivots = 0
        for program in _seeded_programs(seed=2024, count=600):
            kernel, reference = _pivot_paths(program, monkeypatch)
            assert kernel == reference
            pivots += len(kernel)
        assert pivots >= 1000

    def test_cycle_probes(self, monkeypatch, cycle_premises, cycle_antecedent):
        """Every bisection probe of a tolerance 1e-6 bracket, on the paper's
        cycle and on ``x_i -> A x_{i+1}`` cycles of length 3 to 5."""
        import pientail as pt

        cases = [(cycle_premises, cycle_antecedent)]
        for length in (3, 4, 5):
            rules = pt.parse_rules(
                "\n".join(f"x{i} -> A x{(i + 1) % length}" for i in range(length))
            )
            names = [f"x{i}" for i in range(length)]
            cases.append((rules, rules.universe.attrs(*names)))
        for premises, antecedent in cases:
            programs = []
            real_solve = lp.solve

            def record(program):
                programs.append(program)
                return real_solve(program)

            with monkeypatch.context() as patch:
                patch.setattr(lp, "solve", record)
                pt.critical_threshold(premises, antecedent, tolerance=F(1, 10**6))
            assert len(programs) == 22
            pivots = 0
            for program in programs:
                kernel, reference = _pivot_paths(program, monkeypatch)
                assert kernel == reference
                pivots += len(kernel)
            assert pivots >= 22


class TestVerification:
    """``_verify`` checks witnesses in integers; each corrupted witness below
    must still be caught."""

    def test_point_off_by_one_part_in_its_denominator(self):
        # min x + y  s.t.  7x + 7y >= 3: optimum 3/7
        program = lp.LinearProgram(2, (F(1), F(1)), (ge([7, 7], 3),))
        out = lp.solve(program)
        assert isinstance(out, lp.Optimal) and out.value == F(3, 7)
        lp._verify(program, out)
        x, y = out.point
        short = (x - F(1, 7), y) if x else (x, y - F(1, 7))
        bad = lp.Optimal(point=short, value=sum(short))
        with pytest.raises(RuntimeError, match="infeasible point"):
            lp._verify(program, bad)

    def test_optimal_value_off(self):
        program = lp.LinearProgram(2, (F(1), F(1)), (ge([7, 7], 3),))
        out = lp.solve(program)
        bad = lp.Optimal(point=out.point, value=out.value + F(1, 7))
        with pytest.raises(RuntimeError, match="value disagrees"):
            lp._verify(program, bad)

    def test_ray_with_a_negative_component(self):
        # min -x - y  s.t.  x - y >= 0
        program = lp.LinearProgram(2, (F(-1), F(-1)), (ge([1, -1]),))
        out = lp.solve(program)
        assert isinstance(out, lp.Unbounded)
        bad = lp.Unbounded(point=out.point, ray=(F(1), F(-1)))
        with pytest.raises(RuntimeError, match="invalid ray"):
            lp._verify(program, bad)

    def test_ray_leaving_the_cone(self):
        program = lp.LinearProgram(2, (F(-1), F(-1)), (ge([1, -1]),))
        out = lp.solve(program)
        # (1, 2) improves the objective but breaks x - y >= 0
        bad = lp.Unbounded(point=out.point, ray=(F(1), F(2)))
        with pytest.raises(RuntimeError, match="escapes the feasible cone"):
            lp._verify(program, bad)


def _rational_decide_program(rows, gamma, k):
    """The ``decide_lp`` program in rational weights ``1 - g``, ``-g`` and
    0, as it was built before its cells became integers."""
    weight = status_weights(gamma)
    weights = [[weight[s] for s in row.statuses] for row in rows]
    return lp.LinearProgram(
        num_vars=len(rows),
        objective=tuple(w[0] for w in weights),
        constraints=tuple(
            lp.Constraint(tuple(w[i] for w in weights), lp.Relation.GE, F(0))
            for i in range(1, k + 1)
        ),
    )


def _rational_cone_program(ratio_rows, k, gamma):
    """The critical-threshold cone program in rational weights."""
    zero, violated, witnessed = F(0), -gamma, 1 - gamma
    constraints = []
    for row in ratio_rows:
        coeffs = [zero] * k
        for i in row.covered:
            coeffs[i] = violated
        for i in row.witnessed:
            coeffs[i] = witnessed
        constraints.append(lp.Constraint(tuple(coeffs), lp.Relation.LE, F(0)))
    return lp.LinearProgram(k, tuple([F(1)] * k), tuple(constraints), maximize=True)


def _seeded_entailment_queries(seed, count):
    """n <= 10 attributes, 1 to 6 premises, about one rule in seven a
    duplicate of an earlier one, and sides that are often empty."""
    import pientail as pt

    rng = random.Random(seed)
    for _ in range(count):
        names = [f"a{i}" for i in range(rng.randint(1, 10))]
        u = pt.AttributeUniverse(tuple(names))

        def side(density):
            return u.attrs(*[a for a in names if rng.random() < density])

        rules = []
        for _ in range(rng.randint(2, 7)):
            if rules and rng.random() < 0.15:
                rules.append(rng.choice(rules))
            else:
                rules.append(pt.PartialImplication(side(0.25), side(0.3)))
        premises = pt.ImplicationSet(u, tuple(rules[1:]))
        yield pt.EntailmentQuery(premises, rules[0], F(1, 2))


def _boundary_gammas(k):
    """0, 1, ``1/k`` and ``(k-1)/k``, and 1/1000 either side of the last two."""
    edges = {F(1, k), F(k - 1, k)}
    near = {g + d for g in edges for d in (F(-1, 1000), F(0), F(1, 1000))}
    return sorted(g for g in near | {F(0), F(1)} if 0 <= g <= 1)


class TestIntegerCellPrograms:
    """The programs of ``decide_lp`` and of the critical-threshold probes
    have integer cells, each weight times the denominator of ``gamma``.
    Solved, they give what the programs in rational weights give."""

    def test_decide_program_matches_the_rational_one(self):
        """Identical outcome type, point, value and row duals on every
        program.  The ray is identical too, except where the simplex leaves
        along a surplus column: the rational program stretches that surplus
        by its row's scale, the denominator ``q`` of ``gamma``, so its ray
        is ``q`` times the integer program's.  Both scale to the same
        counterexample."""
        import pientail as pt
        from pientail.entailment import _dataset_from_ray, _lp_program, _query_rows

        queries = list(_seeded_entailment_queries(seed=1906, count=320))
        shapes = {"duplicate": 0, "empty side": 0, "k": set(), "width": set()}
        same_ray = scaled_ray = optimal = 0
        for query in queries:
            rules = [query.conclusion, *query.premises]
            shapes["duplicate"] += len(set(rules)) < len(rules)
            shapes["empty side"] += any(
                r.antecedent.is_empty or r.consequent.is_empty for r in rules
            )
            shapes["k"].add(query.k)
            shapes["width"].add(query.universe.size)
            rows = _query_rows(query, 20)
            for gamma in _boundary_gammas(query.k):
                got = lp.solve(_lp_program(rows, gamma))
                want = lp.solve(_rational_decide_program(rows, gamma, query.k))
                if isinstance(got, lp.Unbounded):
                    assert isinstance(want, lp.Unbounded)
                    assert got.point == want.point
                    if got.ray == want.ray:
                        same_ray += 1
                        continue
                    assert want.ray == tuple(gamma.denominator * v for v in got.ray)
                    scaled_ray += 1
                    at = pt.EntailmentQuery(query.premises, query.conclusion, gamma)
                    assert _dataset_from_ray(at, rows, got.ray) == _dataset_from_ray(
                        at, rows, want.ray
                    )
                else:
                    assert _outcome_key(got) == _outcome_key(want)
                    optimal += 1
        assert shapes["k"] == set(range(1, 7)) and shapes["width"] == set(range(1, 11))
        assert shapes["duplicate"] >= 30 and shapes["empty side"] >= 100
        assert optimal >= 300 and same_ray >= 300
        assert scaled_ray >= 1  # the surplus exit is exercised

    def test_cone_program_matches_the_rational_one(self):
        """Every probe program of every premise subset's projected ratio
        rows, at dyadic gammas: identical outcome type, point, ray, value
        and row duals."""
        from pientail.entailment import _query_rows
        from pientail.threshold import _cone_program, _project_ratio_rows

        rng = random.Random(1907)
        seen = {"Optimal": 0, "Unbounded": 0}
        for query in _seeded_entailment_queries(seed=1907, count=150):
            rows = _query_rows(query, 20)
            for indices in nonempty_subsets(query.k)[:6]:
                ratio_rows = _project_ratio_rows(rows, indices)
                for gamma in (F(0), F(1), F(rng.randint(1, 63), 64)):
                    k = len(indices)
                    got = lp.solve(_cone_program(ratio_rows, k, gamma))
                    want = lp.solve(_rational_cone_program(ratio_rows, k, gamma))
                    assert _outcome_key(got) == _outcome_key(want)
                    seen[type(got).__name__] += 1
        assert min(seen.values()) >= 300
