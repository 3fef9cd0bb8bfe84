"""Exact simplex: outcomes, witnesses, duality, and termination."""

import random
from fractions import Fraction as F

import pytest

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
        from pientail.entailment import _query_rows, _status_weight

        rows = _query_rows(pair_query, 20)
        gamma = pair_query.gamma
        constraints = []
        for row in rows:
            coeffs = tuple(
                _status_weight(s, gamma) for s in row.statuses[1:]
            )
            rhs = _status_weight(row.statuses[0], gamma)
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
