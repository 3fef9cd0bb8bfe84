"""Exact simplex: the homogeneous integer kernel ``lp.solve`` (minimise
``c.x`` subject to ``Ax >= 0``) and the general two-phase simplex kept in
``general_simplex`` as the reference for mixed programs, with its own
program types.  Outcomes, witnesses, duality, termination, agreement
(outcomes and pivot paths) with the full Fraction tableau, and the seam the
benchmark tracer binds."""

import importlib
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import general_simplex as general
from conftest import nonempty_subsets, plain_bisection, status_weights
from pientail import lp


GE, LE, EQ = general.Relation.GE, general.Relation.LE, general.Relation.EQ


def ge(coeffs, rhs=0):
    return general.Constraint(tuple(F(c) for c in coeffs), GE, F(rhs))


def _kernel_form(program):
    """A homogeneous general program with ``int`` cells in the kernel's
    shape: ``<=`` rows and a maximised objective negated.  The tableau is
    the same, so the pivots are too."""
    return lp.LinearProgram(
        program.num_vars,
        tuple(-c for c in program.objective) if program.maximize else program.objective,
        tuple(
            row.coeffs if row.relation is GE else tuple(-c for c in row.coeffs)
            for row in program.constraints
        ),
    )


def _over_denominator(values, outcome):
    """The kernel's integer ``values`` (a ray or row duals) as ``Fraction``s,
    each over the outcome's denominator: the rational tableau's entries."""
    return tuple(F(v, outcome.denominator) for v in values)


def _cone_form(program):
    """A kernel program in the form critical-threshold probes had before
    the kernel took one shape: maximise minus the objective subject to
    minus each row ``<= 0``."""
    return general.LinearProgram(
        program.num_vars,
        tuple(-c for c in program.objective),
        tuple(
            general.Constraint(tuple(-c for c in row), LE, 0)
            for row in program.constraints
        ),
        maximize=True,
    )


class TestOutcomes:
    def test_optimal_with_point(self):
        # min x + y  s.t.  x + y >= 2, x - y >= 0
        prog = general.LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(ge([1, 1], 2), ge([1, -1], 0)),
        )
        out = general.solve(prog)
        assert isinstance(out, general.Optimal)
        assert out.value == 2
        assert sum(out.point) == 2

    def test_unbounded_with_ray(self):
        # min -x  s.t.  x - y >= 0 is unbounded along (1, 1) or (1, 0)
        prog = general.LinearProgram(
            num_vars=2, objective=(-1, 0), constraints=(general.Constraint((1, -1), GE, 0),)
        )
        for solver, program in ((lp, _kernel_form(prog)), (general, prog)):
            out = solver.solve(program)
            assert isinstance(out, solver.Unbounded)
            assert out.ray[0] > 0
            assert out.ray[0] - out.ray[1] >= 0

    def test_infeasible(self):
        # x >= 1 and -x >= 0 cannot both hold with x >= 0
        prog = general.LinearProgram(
            num_vars=1,
            objective=(F(0),),
            constraints=(ge([1], 1), ge([-1], 0)),
        )
        assert isinstance(general.solve(prog), general.Infeasible)

    def test_equality_and_le_rows(self):
        # max x + y  s.t.  x + y = 1, x <= 1/3
        prog = general.LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(
                general.Constraint((F(1), F(1)), EQ, F(1)),
                general.Constraint((F(1), F(0)), LE, F(1, 3)),
            ),
            maximize=True,
        )
        out = general.solve(prog)
        assert isinstance(out, general.Optimal)
        assert out.value == 1

    def test_zero_variable_edge_cases(self):
        sat = general.LinearProgram(0, (), (general.Constraint((), GE, F(-1)),))
        assert isinstance(general.solve(sat), general.Optimal)
        unsat = general.LinearProgram(0, (), (general.Constraint((), GE, F(1)),))
        assert isinstance(general.solve(unsat), general.Infeasible)

    def test_mixed_sign_right_hand_sides(self):
        # min x + 2y  s.t.  x + y >= 2 (needs an artificial),
        # -x + y >= -1 and x - y >= 0 (surplus starts basic)
        prog = general.LinearProgram(
            num_vars=2,
            objective=(F(1), F(2)),
            constraints=(ge([1, 1], 2), ge([-1, 1], -1), ge([1, -1], 0)),
        )
        out = general.solve(prog)
        assert isinstance(out, general.Optimal)
        assert out.point == (F(3, 2), F(1, 2))
        assert out.value == F(5, 2)
        assert out.row_duals == (F(3, 2), F(1, 2), F(0))

    def test_infeasible_through_an_artificial(self):
        # x + y >= 3 needs an artificial; -x >= 0 and -y >= -1 do not
        prog = general.LinearProgram(
            num_vars=2,
            objective=(F(1), F(1)),
            constraints=(ge([1, 1], 3), ge([-1, 0], 0), ge([0, -1], -1)),
        )
        assert isinstance(general.solve(prog), general.Infeasible)

    def test_feasible_helper(self):
        point = general.feasible([general.Constraint((F(1),), EQ, F(1))], 1)
        assert point == (F(1),)
        assert general.feasible([ge([-1], 1)], 1) is None


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
            primal = general.LinearProgram(
                num_vars=n,
                objective=tuple(c),
                constraints=tuple(ge(row, rhs) for row, rhs in zip(A, b)),
            )
            dual = general.LinearProgram(
                num_vars=m,
                objective=tuple(b),
                constraints=tuple(
                    general.Constraint(tuple(A[i][j] for i in range(m)), LE, c[j])
                    for j in range(n)
                ),
                maximize=True,
            )
            pout = general.solve(primal)
            dout = general.solve(dual)
            if isinstance(pout, general.Optimal):
                assert isinstance(dout, general.Optimal)
                assert pout.value == dout.value
                y = pout.row_duals
                assert y is not None and all(v >= 0 for v in y)
                for j in range(n):
                    assert sum(A[i][j] * y[i] for i in range(m)) <= c[j]
                assert sum(bi * yi for bi, yi in zip(b, y)) == pout.value
                both_optimal += 1
            elif isinstance(pout, general.Unbounded):
                assert isinstance(dout, general.Infeasible)
        assert both_optimal >= 40  # the sample is not degenerate

    def test_homogeneous_optimum_has_feasible_duals(self):
        """The kernel starts from the surplus basis with no phase 1; a
        bounded program has optimum 0 at the origin, and its row duals must
        still solve the dual system A^T y <= c, y >= 0."""
        # min x - y  s.t.  x - y >= 0: the single dual value is forced to 1
        out = lp.solve(lp.LinearProgram(2, (1, -1), ((1, -1),)))
        assert isinstance(out, lp.Optimal)
        assert _over_denominator(out.row_duals, out) == (F(1),)

        rng = random.Random(11)
        optimal = 0
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            c = [rng.randint(-2, 3) for _ in range(n)]
            out = lp.solve(
                lp.LinearProgram(
                    num_vars=n,
                    objective=tuple(c),
                    constraints=tuple(map(tuple, A)),
                )
            )
            assert isinstance(out, (lp.Optimal, lp.Unbounded))
            if isinstance(out, lp.Optimal):
                y = _over_denominator(out.row_duals, out)
                assert all(v >= 0 for v in y)
                for j in range(n):
                    assert sum(A[i][j] * y[i] for i in range(m)) <= c[j]
                optimal += 1
        assert optimal >= 40  # the sample is not degenerate

    def test_entailment_dual_is_feasible_on_worked_example(self, pair_query):
        """The multiplier system of the shared-antecedent example admits
        (1/2, 1/2) at threshold 1/2; build its rows directly and check."""
        from pientail.entailment import _query_rows

        rows = _query_rows(pair_query)
        weight = status_weights(pair_query.gamma)
        constraints = []
        for row in rows:
            coeffs = tuple(weight[s] for s in row.statuses[1:])
            rhs = weight[row.statuses[0]]
            constraints.append(general.Constraint(coeffs, LE, rhs))
        point = general.feasible(constraints, 2)
        assert point is not None


class TestTermination:
    def test_degenerate_programs_terminate_and_verify(self):
        """Duplicated rows and zero right-hand sides force degenerate
        pivots; Bland's rule must still terminate, and the built-in
        substitution check validates every witness.  The general solver
        takes every program; the kernel takes the homogeneous >= and <=
        rows of each, times 2 so that its cells are integers, in its own
        shape, and must return the outcome of the Fraction reference on
        the general form."""
        rng = random.Random(7)

        def coef():
            return F(rng.randint(-3, 3), rng.randint(1, 2))

        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            constraints = []
            for _ in range(m):
                coeffs = tuple(coef() for _ in range(n))
                rel = rng.choice(list(general.Relation))
                rhs = rng.choice([F(0), F(0), coef()])
                constraints.append(general.Constraint(coeffs, rel, rhs))
                if rng.random() < 0.3:
                    constraints.append(general.Constraint(coeffs, rel, rhs))
            prog = general.LinearProgram(
                num_vars=n,
                objective=tuple(coef() for _ in range(n)),
                constraints=tuple(constraints),
                maximize=rng.random() < 0.5,
            )
            general.solve(prog)  # raises if any witness fails re-verification
            homogeneous = general.LinearProgram(
                num_vars=n,
                objective=tuple(int(2 * c) for c in prog.objective),
                constraints=tuple(
                    general.Constraint(
                        tuple(int(2 * c) for c in row.coeffs), row.relation, 0
                    )
                    for row in constraints
                    if row.relation is not EQ
                ),
                maximize=prog.maximize,
            )
            _assert_same_outcome(
                _kernel_form(homogeneous),
                lp.solve(_kernel_form(homogeneous)),
                reference_solve(homogeneous),
            )

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            lp.LinearProgram(2, (1,), ())
        with pytest.raises(ValueError):
            lp.LinearProgram(1, (1,), ((1, 2),))


# --- reference: the dense Fraction simplex ---------------------------------
#
# The same labels, start basis and Bland's rule as ``lp.solve`` and
# ``general_simplex.solve``, with every column of the tableau kept (a
# column's index is its label) and every entry a ``Fraction``, over the
# general program types.  The condensed integer tableaux hold the nonbasic
# columns of this one times the common denominator, so all three must take
# the same pivots and return identical outcomes.


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
        if row.relation is GE:
            ge_rows.append((coeffs, rhs))
        elif row.relation is LE:
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
        return general.Infeasible()
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
        return general.Unbounded(point=point, ray=tuple(ray_full[:n]))
    value = sum((F(c) * v for c, v in zip(program.objective, point)), zero)
    row_duals = tuple(cost[n + r] for r in range(m)) if pure_ge else None
    return general.Optimal(point=point, value=value, row_duals=row_duals)


def _outcome_key(outcome):
    """Everything an outcome carries, ``row_duals`` included (it is left
    out of dataclass equality)."""
    fields = (type(outcome).__name__,)
    for name in ("point", "ray", "value", "row_duals"):
        fields += (getattr(outcome, name, None),)
    return fields


def _assert_same_outcome(program, got, want):
    """The kernel's outcome ``got`` on ``program`` against a general
    solver's ``want`` on the same program in general form: the same outcome
    type, the origin with value 0 and the same ray.  The row duals equal
    the reference's wherever it reads them off (``>=`` rows, minimised), and
    always solve the dual system ``A^T y <= c``, ``y >= 0``."""
    assert type(got).__name__ == type(want).__name__
    assert not any(want.point)
    if isinstance(got, lp.Unbounded):
        assert _over_denominator(got.ray, got) == want.ray
        return
    assert want.value == 0
    y = _over_denominator(got.row_duals, got)
    if want.row_duals is not None:
        assert y == want.row_duals
    assert len(y) == len(program.constraints) and all(v >= 0 for v in y)
    for j, c in enumerate(program.objective):
        assert sum(v * row[j] for v, row in zip(y, program.constraints)) <= c


def _integer_cells(program):
    """``program`` with each row, and the objective, times the least common
    multiple of its denominators: the same pivots, with ``int`` cells."""

    def scaled(values):
        values = [F(v) for v in values]
        scale = math.lcm(*[v.denominator for v in values])
        return tuple(int(v * scale) for v in values)

    constraints = []
    for row in program.constraints:
        *coeffs, rhs = scaled((*row.coeffs, row.rhs))
        constraints.append(general.Constraint(tuple(coeffs), row.relation, rhs))
    return general.LinearProgram(
        program.num_vars,
        scaled(program.objective),
        tuple(constraints),
        program.maximize,
    )


def _homogeneous_shapes(programs):
    """The programs of shapes 0 and 1 of ``_seeded_programs`` (the shapes
    the library builds) with ``int`` cells, each as the kernel's input and
    in the general form it was generated in."""
    for index, program in enumerate(programs):
        if index % 5 < 2:
            program = _integer_cells(program)
            yield _kernel_form(program), program


def _seeded_programs(seed, count):
    """Programs of every shape the solvers meet, in turn: the homogeneous
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
            yield general.LinearProgram(
                num_vars=cols,
                objective=tuple(w[0] for w in table),
                constraints=tuple(
                    general.Constraint(tuple(w[i] for w in table), GE, F(0))
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
                    general.Constraint(tuple(coeffs), LE, F(0))
                )
            yield general.LinearProgram(
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
                rel = rng.choice([GE, GE, LE])
                rhs = lhs - slack if rel is GE else lhs + slack
                constraints.append(general.Constraint(coeffs, rel, rhs))
            yield general.LinearProgram(
                num_vars=n,
                objective=tuple([F(0)] * n),
                constraints=tuple(constraints),
            )
        else:  # general rows; shape 4 adds duplicates and bounded boxes
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            constraints = []
            for _ in range(m):
                coeffs = tuple(coef() for _ in range(n))
                rel = rng.choice(list(general.Relation))
                rhs = rng.choice([F(0), coef(), abs(coef()) + 1, -abs(coef())])
                constraints.append(general.Constraint(coeffs, rel, rhs))
                if shape == 4 and rng.random() < 0.4:
                    constraints.append(general.Constraint(coeffs, rel, rhs))
            if shape == 4 and rng.random() < 0.5:
                for j in range(n):
                    box = [F(0)] * n
                    box[j] = F(1)
                    constraints.append(
                        general.Constraint(tuple(box), LE, F(rng.randint(1, 6), 2))
                    )
            zero_objective = rng.random() < 0.25  # the ``lp.feasible`` shape
            yield general.LinearProgram(
                num_vars=n,
                objective=tuple(F(0) if zero_objective else coef() for _ in range(n)),
                constraints=tuple(constraints),
                maximize=rng.random() < 0.5,
            )


class TestIntegerTableau:
    def test_matches_the_fraction_reference(self):
        """The integer tableaux are the common denominator times the
        Fraction one, so the outcome type, point, ray, value and row duals
        are identical: the general solver's on every program, the kernel's
        on every homogeneous one in its own shape against the reference's
        on the general form."""
        seen = {"Optimal": 0, "Unbounded": 0, "Infeasible": 0}
        for program in _seeded_programs(seed=2024, count=600):
            out = general.solve(program)
            assert _outcome_key(out) == _outcome_key(reference_solve(program))
            seen[type(out).__name__] += 1
        assert min(seen.values()) >= 100  # every outcome is well represented
        seen = {"Optimal": 0, "Unbounded": 0}
        for program, general_form in _homogeneous_shapes(
            _seeded_programs(seed=2024, count=600)
        ):
            out = lp.solve(program)
            _assert_same_outcome(program, out, reference_solve(general_form))
            seen[type(out).__name__] += 1
        assert min(seen.values()) >= 80

    def test_negative_pivot_drives_out_a_leftover_artificial(self, monkeypatch):
        """``x1 = 1`` stated twice leaves an artificial basic at zero after
        phase 1, and driving it out pivots on a negative entry."""
        pivots = []
        real_pivot = general._pivot

        def spy(rows, basic, nonbasic, r, c, d):
            pivots.append((rows[r][c], basic[r]))
            return real_pivot(rows, basic, nonbasic, r, c, d)

        monkeypatch.setattr(general, "_pivot", spy)
        row = general.Constraint((F(1),), EQ, F(1))
        program = general.LinearProgram(1, (F(1),), (row, row))
        out = general.solve(program)
        # four >= rows, so labels 5 and 6 are the two artificials
        assert any(p < 0 and basic >= 5 for p, basic in pivots)
        assert isinstance(out, general.Optimal)
        assert out.point == (F(1),)
        assert out.value == 1
        assert out.row_duals is None
        assert _outcome_key(out) == _outcome_key(reference_solve(program))

    def test_float_cells_are_refused(self):
        one = (F(1),)
        for program in (
            general.LinearProgram(1, one, (general.Constraint((0.5,), GE, F(0)),)),
            general.LinearProgram(1, one, (general.Constraint(one, LE, 0.5),)),
            general.LinearProgram(1, (1.0,), (general.Constraint(one, GE, F(0)),)),
        ):
            with pytest.raises(TypeError):
                general.solve(program)
        for program in (
            lp.LinearProgram(1, (1,), ((0.5,),)),
            lp.LinearProgram(1, (1,), ((1,), (-0.5,))),
            lp.LinearProgram(1, (1.0,), ((1,),)),
        ):
            with pytest.raises(TypeError):
                lp.solve(program)


class TestKernelContract:
    """``lp.solve`` takes homogeneous >= rows with ``int`` cells, and checks
    each ray it returns on its own."""

    def test_non_int_cells_are_refused(self):
        for cell in (0.5, 1.0, F(1, 2), F(1)):
            for program in (
                lp.LinearProgram(2, (1, cell), ((1, 1),)),
                lp.LinearProgram(2, (1, 1), ((1, cell),)),
                lp.LinearProgram(2, (1, 1), ((1, 1), (-1, cell))),
            ):
                with pytest.raises(TypeError):
                    lp.solve(program)

    def test_every_returned_ray_is_checked(self, monkeypatch):
        checked = []
        real_check = lp._check_ray

        def spy(program, ray):
            checked.append((program, dict(ray)))
            return real_check(program, ray)

        monkeypatch.setattr(lp, "_check_ray", spy)
        rays = []
        for program, _ in _homogeneous_shapes(_seeded_programs(seed=2024, count=100)):
            out = lp.solve(program)
            if isinstance(out, lp.Unbounded):
                rays.append((program, out.ray))
        assert len(rays) >= 10
        assert [p for p, _ in checked] == [p for p, _ in rays]
        for (_, numerators), (_, ray) in zip(checked, rays):
            # the checked numerators are the returned ray's
            assert {j: v for j, v in enumerate(ray) if v} == {
                j: v for j, v in numerators.items() if v
            }

    def test_corrupted_rays_are_caught(self):
        # min -x - y  s.t.  x - y >= 0, and max x + y  s.t.  y - x <= 0 in
        # the kernel's shape
        for program in (
            lp.LinearProgram(2, (-1, -1), ((1, -1),)),
            _kernel_form(
                general.LinearProgram(
                    2, (1, 1), (general.Constraint((-1, 1), LE, 0),), maximize=True
                )
            ),
        ):
            out = lp.solve(program)
            assert isinstance(out, lp.Unbounded)
            ray = {j: v for j, v in enumerate(out.ray) if v}
            lp._check_ray(program, ray)
            for bad, message in (
                ({0: 1, 1: -1}, "invalid ray"),
                ({}, "invalid ray"),
                ({0: 0, 1: 0}, "invalid ray"),
                ({0: 1, 1: 2}, "escapes the feasible cone"),
                ({1: 1}, "escapes the feasible cone"),
            ):
                with pytest.raises(RuntimeError, match=message):
                    lp._check_ray(program, bad)
        # min x - y  s.t.  x >= 0 and y >= 0 rows: (1, 0) stays in the cone
        # and does not improve
        program = lp.LinearProgram(2, (1, -1), ((1, 0), (0, 1)))
        with pytest.raises(RuntimeError, match="does not improve"):
            lp._check_ray(program, {0: 1})
        lp._check_ray(program, {1: 3})


def _pivot_paths(program, general_form, monkeypatch, solver=lp):
    """The (entering label, leaving label) pivots of ``solver.solve`` (the
    kernel, on its revised or its column tableau, or the general solver) on
    ``program`` and of ``reference_solve`` on ``general_form``, whose full
    tableau labels each column by its index, followed by the two outcomes."""
    kernel, reference = [], []
    real_reference = _reference_pivot

    def by_position(lines, basic, nonbasic, r, c, d):
        return nonbasic[c], basic[r]

    def by_label(w, basic, r, label, col, d):
        return label, basic[r]

    def spy(real_pivot, labels):
        def pivot(*args):
            kernel.append(labels(*args))
            return real_pivot(*args)

        return pivot

    def reference_spy(rows, cost, basis, r, c):
        reference.append((c, basis[r]))
        return real_reference(rows, cost, basis, r, c)

    with monkeypatch.context() as patch:
        # the kernel's revised seam takes the entering label and column
        seams = {
            "_pivot": by_label if solver is lp else by_position,
            "_pivot_columns": by_position,
        }
        for name, labels in seams.items():
            if hasattr(solver, name):
                patch.setattr(solver, name, spy(getattr(solver, name), labels))
        patch.setattr(sys.modules[__name__], "_reference_pivot", reference_spy)
        outcome = solver.solve(program)
        reference_outcome = reference_solve(general_form)
    return kernel, reference, outcome, reference_outcome


class TestPivotPath:
    """The condensed tableaux take exactly the pivots of the full one, not
    only the same outcome."""

    def test_seeded_programs(self, monkeypatch):
        pivots = 0
        for program in _seeded_programs(seed=2024, count=600):
            path, reference, _, _ = _pivot_paths(program, program, monkeypatch, general)
            assert path == reference
            pivots += len(path)
        assert pivots >= 1000
        pivots = {"tall": 0, "wide": 0}
        for program, general_form in _homogeneous_shapes(
            _seeded_programs(seed=2024, count=600)
        ):
            kernel, reference, _, _ = _pivot_paths(program, general_form, monkeypatch)
            assert kernel == reference
            tall = len(program.constraints) >= program.num_vars
            pivots["tall" if tall else "wide"] += len(kernel)
        # both seams must record: a spy that misses one layout sees no pivots
        assert sum(pivots.values()) >= 300 and min(pivots.values()) >= 100, pivots

    def test_cycle_probes(self, monkeypatch, cycle_premises, cycle_antecedent):
        """Every probe solved for a tolerance 1e-6 bracket, on the paper's
        cycle and on ``x_i -> A x_{i+1}`` cycles of length 3 to 5, by
        ``critical_threshold`` (4, 1, 2 and 1 of them, most on the
        undominated rows: the table settles 0, predicted probes and earlier
        witnesses the rest, and 1 needs no solve) and by plain bisection
        (all 22 steps): the kernel on the ``>=`` rows it is handed, the
        reference on the ``<=`` rows and maximised sum that the probes were
        posed as before."""
        import pientail as pt

        cases = [(cycle_premises, cycle_antecedent)]
        for length in (3, 4, 5):
            rules = pt.parse_rules(
                "\n".join(f"x{i} -> A x{(i + 1) % length}" for i in range(length))
            )
            names = [f"x{i}" for i in range(length)]
            cases.append((rules, rules.universe.attrs(*names)))
        for (premises, antecedent), solved in zip(cases, (4, 1, 2, 1)):
            programs = {}  # each distinct program once, in order
            for run, count in ((pt.critical_threshold, solved), (plain_bisection, 22)):
                recorded = []
                real_solve = lp.solve

                def record(program):
                    recorded.append(program)
                    return real_solve(program)

                with monkeypatch.context() as patch:
                    patch.setattr(lp, "solve", record)
                    run(premises, antecedent, F(1, 10**6))
                assert len(recorded) == count
                programs.update(dict.fromkeys(recorded))
            pivots = 0
            for program in programs:
                kernel, reference, got, want = _pivot_paths(
                    program, _cone_form(program), monkeypatch
                )
                assert kernel == reference
                pivots += len(kernel)
                _assert_same_outcome(program, got, want)
            assert pivots >= len(programs)


def _edge_programs(seed):
    """Programs where the two tableau layouts meet: square ones (as many
    rows as columns), ones with no rows and ones with a single column, with
    small ``int`` cells."""
    rng = random.Random(seed)

    def cells(n):
        return tuple(rng.randint(-4, 4) for _ in range(n))

    for _ in range(200):
        n = rng.randint(1, 6)
        yield lp.LinearProgram(n, cells(n), tuple(cells(n) for _ in range(n)))
    for n in range(5):
        for _ in range(4):
            yield lp.LinearProgram(n, cells(n), ())
    for _ in range(200):
        m = rng.randint(0, 8)
        yield lp.LinearProgram(1, cells(1), tuple(cells(1) for _ in range(m)))


def _bench_programs(monkeypatch, tmp_path, seeds, rounds):
    """Every program that the first ``rounds`` rounds of each benchmark
    workload hand to ``lp.solve`` at ``seeds``, by workload."""
    import pientail as pt

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    run = importlib.import_module("run")
    programs = {}
    real_solve = lp.solve
    for workload, make_round in run.ROUNDS.items():
        recorded = programs[workload] = []

        def record(program):
            recorded.append(program)
            return real_solve(program)

        with monkeypatch.context() as patch:
            patch.setattr(lp, "solve", record)
            for seed in seeds:
                for r in range(rounds):
                    for op in make_round(pt, seed, r, tmp_path):
                        if op.prepare is not None:
                            op.prepare()
                        op.call()
    return programs


class TestLayouts:
    """``solve`` stores the tableau by columns when a program has at least
    as many rows as columns and as a revised tableau (a row operator over
    the program's own rows) otherwise; either layout gives the same
    outcome, numerators and denominator on every program."""

    def test_edge_shapes(self, monkeypatch):
        chosen = []
        for name in ("_solve_revised", "_solve_columns"):
            real = getattr(lp, name)
            monkeypatch.setattr(
                lp, name, lambda p, name=name, real=real: chosen.append(name) or real(p)
            )
        seen = {"Optimal": 0, "Unbounded": 0}
        for program in _edge_programs(seed=1311):
            chosen.clear()
            out = lp.solve(program)
            tall = len(program.constraints) >= program.num_vars
            assert chosen == ["_solve_columns" if tall else "_solve_revised"]
            revised, by_columns = lp._solve_revised(program), lp._solve_columns(program)
            assert revised == by_columns == out
            assert type(out) is type(revised)
            _assert_same_outcome(program, out, reference_solve(_cone_form(program)))
            seen[type(out).__name__] += 1
        assert min(seen.values()) >= 100

    def test_benchmark_programs(self, monkeypatch, tmp_path):
        programs = _bench_programs(monkeypatch, tmp_path, seeds=(11, 12, 13, 14), rounds=6)
        shapes = {"tall": 0, "wide": 0}
        for workload, recorded in programs.items():
            assert recorded, workload
            for program in recorded:
                revised, by_columns = lp._solve_revised(program), lp._solve_columns(program)
                assert type(revised) is type(by_columns), workload
                assert revised == by_columns, workload
                tall = len(program.constraints) >= program.num_vars
                shapes["tall" if tall else "wide"] += 1
        assert min(shapes.values()) >= 300, shapes


def _large_k_programs(monkeypatch, ks, seeds):
    """The programs ``decide(query, Method.LP)`` hands to ``lp.solve`` for
    seeded queries with k premises over 10 attributes, drawn at the
    benchmark generator's densities with a planted cycle of two or three
    premises whose conclusion is asked at a threshold in hundredths."""
    import pientail as pt

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    run = importlib.import_module("run")
    workloads = run.workloads
    programs = []
    real_solve = lp.solve

    def record(program):
        programs.append(program)
        return real_solve(program)

    names = tuple(f"a{i}" for i in range(10))
    for k in ks:
        for seed in seeds:
            rng = random.Random(f"large-k:{k}:{seed}")
            premises = [workloads._random_rule(rng, names) for _ in range(k)]
            conclusion = workloads._plant_cycle(rng, names, premises)
            gamma = F(rng.randint(1, 99), 100)
            query = workloads.Query(names, tuple(premises), conclusion, gamma)
            with monkeypatch.context() as patch:
                patch.setattr(lp, "solve", record)
                pt.decide(run._query(pt, query), pt.Method.LP)
    return programs


class TestLargeK:
    """``decide_lp`` programs at k = 12 to 16: one row per premise and
    hundreds of signature columns, so the revised tableau solves them.  It
    must return the column tableau's outcome, numerators and denominator,
    and the reference's outcome, taking the reference's pivots."""

    def test_matches_the_column_tableau_and_the_reference(self, monkeypatch):
        programs = _large_k_programs(monkeypatch, ks=range(12, 17), seeds=(1, 2))
        pivots, seen = 0, set()
        for program in programs:
            assert len(program.constraints) < program.num_vars
            kernel, reference, got, want = _pivot_paths(
                program, _cone_form(program), monkeypatch
            )
            assert kernel == reference
            by_columns = lp._solve_columns(program)
            assert type(got) is type(by_columns) and got == by_columns
            _assert_same_outcome(program, got, want)
            pivots += len(kernel)
            seen.add(type(got).__name__)
        assert len(programs) == 10 and pivots >= 100, pivots
        assert seen == {"Optimal", "Unbounded"}


class TestVerification:
    """``general_simplex._verify`` checks witnesses in integers; each
    corrupted witness below must still be caught."""

    def test_point_off_by_one_part_in_its_denominator(self):
        # min x + y  s.t.  7x + 7y >= 3: optimum 3/7
        program = general.LinearProgram(2, (F(1), F(1)), (ge([7, 7], 3),))
        out = general.solve(program)
        assert isinstance(out, general.Optimal) and out.value == F(3, 7)
        general._verify(program, out)
        x, y = out.point
        short = (x - F(1, 7), y) if x else (x, y - F(1, 7))
        bad = general.Optimal(point=short, value=sum(short))
        with pytest.raises(RuntimeError, match="infeasible point"):
            general._verify(program, bad)

    def test_optimal_value_off(self):
        program = general.LinearProgram(2, (F(1), F(1)), (ge([7, 7], 3),))
        out = general.solve(program)
        bad = general.Optimal(point=out.point, value=out.value + F(1, 7))
        with pytest.raises(RuntimeError, match="value disagrees"):
            general._verify(program, bad)

    def test_ray_with_a_negative_component(self):
        # min -x - y  s.t.  x - y >= 0
        program = general.LinearProgram(2, (F(-1), F(-1)), (ge([1, -1]),))
        out = general.solve(program)
        assert isinstance(out, general.Unbounded)
        bad = general.Unbounded(point=out.point, ray=(F(1), F(-1)))
        with pytest.raises(RuntimeError, match="invalid ray"):
            general._verify(program, bad)

    def test_ray_leaving_the_cone(self):
        program = general.LinearProgram(2, (F(-1), F(-1)), (ge([1, -1]),))
        out = general.solve(program)
        # (1, 2) improves the objective but breaks x - y >= 0
        bad = general.Unbounded(point=out.point, ray=(F(1), F(2)))
        with pytest.raises(RuntimeError, match="escapes the feasible cone"):
            general._verify(program, bad)


def _rational_decide_program(rows, gamma, k):
    """The ``decide_lp`` program in rational weights ``1 - g``, ``-g`` and
    0, as it was built before its cells became integers."""
    weight = status_weights(gamma)
    weights = [[weight[s] for s in row.statuses] for row in rows]
    return general.LinearProgram(
        num_vars=len(rows),
        objective=tuple(w[0] for w in weights),
        constraints=tuple(
            general.Constraint(tuple(w[i] for w in weights), GE, F(0))
            for i in range(1, k + 1)
        ),
    )


def _rational_cone_program(ratio_rows, k, gamma):
    """The critical-threshold cone program in rational weights, in the form
    it was built in before the kernel took one shape: maximise the sum of
    ``lambda`` subject to ``witnessed - gamma * covered <= 0``."""
    weight = status_weights(gamma)
    constraints = [
        general.Constraint(tuple(weight[s] for s in row.statuses), LE, F(0))
        for row in ratio_rows
    ]
    return general.LinearProgram(
        k, tuple([F(1)] * k), tuple(constraints), maximize=True
    )


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
        """Identical outcome type, the origin with value 0 and identical
        row duals on every program.  The ray is identical too, except where the simplex leaves
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
            rows = _query_rows(query)
            for gamma in _boundary_gammas(query.k):
                program = _lp_program(rows, gamma)
                got = lp.solve(program)
                want = general.solve(_rational_decide_program(rows, gamma, query.k))
                if isinstance(got, lp.Unbounded):
                    assert isinstance(want, general.Unbounded)
                    assert not any(want.point)
                    ray = _over_denominator(got.ray, got)
                    if ray == want.ray:
                        same_ray += 1
                        continue
                    assert want.ray == tuple(gamma.denominator * v for v in ray)
                    scaled_ray += 1
                    at = pt.EntailmentQuery(query.premises, query.conclusion, gamma)
                    scale = math.lcm(*[v.denominator for v in want.ray])
                    want_counts = [int(v * scale) for v in want.ray]
                    assert _dataset_from_ray(at, rows, got.ray) == _dataset_from_ray(
                        at, rows, want_counts
                    )
                else:
                    _assert_same_outcome(program, got, want)
                    optimal += 1
        assert shapes["k"] == set(range(1, 7)) and shapes["width"] == set(range(1, 11))
        assert shapes["duplicate"] >= 30 and shapes["empty side"] >= 100
        assert optimal >= 300 and same_ray >= 300
        assert scaled_ray >= 1  # the surplus exit is exercised

    def test_cone_program_matches_the_rational_one(self):
        """Every probe program of every premise subset's projected ratio
        rows, at dyadic gammas, against the rational program in its earlier
        ``<=`` form: identical outcome type and ray, the origin with value 0,
        and row duals that solve the dual system."""
        from pientail.entailment import _query_rows
        from pientail.threshold import _cone_program, _project_ratio_rows

        rng = random.Random(1907)
        seen = {"Optimal": 0, "Unbounded": 0}
        for query in _seeded_entailment_queries(seed=1907, count=150):
            rows = _query_rows(query)
            for indices in nonempty_subsets(query.k)[:6]:
                ratio_rows = _project_ratio_rows(rows, indices)
                for gamma in (F(0), F(1), F(rng.randint(1, 63), 64)):
                    k = len(indices)
                    program = _cone_program(ratio_rows, k, gamma)
                    got = lp.solve(program)
                    want = general.solve(_rational_cone_program(ratio_rows, k, gamma))
                    _assert_same_outcome(program, got, want)
                    seen[type(got).__name__] += 1
        assert min(seen.values()) >= 300


class TestTracerSeam:
    """The benchmark tracer rebinds ``pientail.lp.solve`` and reads each
    program's ``constraints`` and ``num_vars`` and the outcome's class name.
    Every program the library builds must reach the solver through that
    module attribute and come back as ``lp.Optimal`` or ``lp.Unbounded``."""

    def test_every_library_program_goes_through_the_module_attribute(
        self, monkeypatch, pair_query, cycle_query
    ):
        import pientail as pt

        built, solved = [], []

        class Recorded(lp.LinearProgram):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        real_solve = lp.solve

        def spy(program):
            solved.append(program)
            cells = len(program.constraints) * program.num_vars  # as the tracer counts
            assert isinstance(cells, int)
            result = real_solve(program)
            assert type(result) in (lp.Optimal, lp.Unbounded)
            return result

        monkeypatch.setattr(lp, "LinearProgram", Recorded)
        monkeypatch.setattr(lp, "solve", spy)
        routes = {
            "lp-direct": lambda: pt.decide(pair_query, pt.Method.LP),
            "general-gamma-star": lambda: pt.decide(cycle_query),
            # the cycle carries its conclusion, so that decide probes
            "prune": lambda: pt.prune(
                pt.ImplicationSet(
                    cycle_query.universe,
                    (*cycle_query.premises, cycle_query.conclusion),
                ),
                F(3, 5),
            ),
            "critical_threshold": lambda: pt.critical_threshold(
                cycle_query.premises, cycle_query.conclusion.antecedent
            ),
        }
        for name, route in routes.items():
            built.clear()
            solved.clear()
            result = route()
            if name in ("lp-direct", "general-gamma-star"):
                assert result.regime.value == name
            assert solved, name
            assert [id(p) for p in solved] == [id(p) for p in built], name
