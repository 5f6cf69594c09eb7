"""Unit tests for model construction and the big-M helper."""

import math

import pytest

from repro.errors import ModelError
from repro.ilp import Model, Sense, SolveStatus, VarType, quicksum


class TestModelConstruction:
    def test_variable_kinds(self):
        m = Model()
        b = m.add_binary("b")
        i = m.add_integer("i", lb=1, ub=5)
        c = m.add_continuous("c", lb=-1.0)
        assert b.vtype is VarType.BINARY and (b.lb, b.ub) == (0.0, 1.0)
        assert i.vtype is VarType.INTEGER and (i.lb, i.ub) == (1.0, 5.0)
        assert c.vtype is VarType.CONTINUOUS and c.ub == math.inf
        assert m.num_vars == 3 and m.num_integer_vars == 2

    def test_bad_bounds_rejected(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_integer("x", lb=5, ub=1)

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_binary("x")
        with pytest.raises(ModelError):
            m2.add_constr(x <= 1)

    def test_add_constr_requires_constraint(self):
        m = Model()
        m.add_binary("x")
        with pytest.raises(ModelError):
            m.add_constr(True)  # type: ignore[arg-type]

    def test_check_solution_reports_violations(self):
        m = Model()
        x = m.add_integer("x", ub=4)
        m.add_constr(x <= 2, "cap")
        assert m.check_solution({x: 2.0}) == []
        problems = m.check_solution({x: 3.5})
        assert any("integrality" in p for p in problems)
        assert any("constraint" in p for p in problems)
        assert any("bound" in p for p in m.check_solution({x: 9.0}))


class TestArrayExport:
    def test_senses_split_into_ub_and_eq(self):
        m = Model()
        x, y = m.add_continuous("x"), m.add_continuous("y")
        m.add_constr(x + y <= 5)
        m.add_constr(x - y >= 1)
        m.add_constr(x + 0 == 2)
        c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = m.to_arrays()
        assert a_ub.shape == (2, 2)  # GE row negated into LE
        assert b_ub.tolist() == [5.0, -1.0]
        assert a_eq.shape == (1, 2) and b_eq.tolist() == [2.0]

    def test_maximize_negates_objective(self):
        m = Model()
        x = m.add_continuous("x", ub=3)
        m.maximize(2 * x)
        c, *_ = m.to_arrays()
        assert c.tolist() == [-2.0]

    def test_bulk_rows_share_the_store_with_add_constr(self):
        m = Model()
        x, y = m.add_continuous("x"), m.add_continuous("y")
        m.add_constr(x + y <= 5, name="hand")
        m.add_rows(
            [0, 0, 1], [0, 1, 1], [1.0, -1.0, 2.0],
            [Sense.GE, Sense.EQ], [-1.0, 4.0], ["bulk_ge", "bulk_eq"],
        )
        m.add_constr(x + 0 == 2, name="hand_eq")
        _, a_ub, b_ub, a_eq, b_eq, _, _ = m.to_arrays()
        assert a_ub.tolist() == [[1.0, 1.0], [-1.0, 1.0]]
        assert b_ub.tolist() == [5.0, 1.0]
        assert a_eq.tolist() == [[0.0, 2.0], [1.0, 0.0]]
        assert b_eq.tolist() == [4.0, 2.0]
        assert [(c.name, c.sense, c.rhs) for c in m.constraints] == [
            ("hand", Sense.LE, 5.0),
            ("bulk_ge", Sense.GE, -1.0),
            ("bulk_eq", Sense.EQ, 4.0),
            ("hand_eq", Sense.EQ, 2.0),
        ]
        assert m.constraints[1].expr.terms == {x: 1.0, y: -1.0}
        assert m.check_solution({x: 2.0, y: 2.0}) == []

    def test_bulk_rows_are_range_checked(self):
        m = Model()
        m.add_binary("x")
        with pytest.raises(ModelError, match="column"):
            m.add_rows([0], [1], [1.0], [Sense.LE], [1.0], ["c"])
        with pytest.raises(ModelError, match="row index"):
            m.add_rows([1], [0], [1.0], [Sense.LE], [1.0], ["c"])
        with pytest.raises(ModelError, match="no variables"):
            m.add_rows([0], [0], [1.0], [Sense.LE] * 2, [1.0, 1.0], ["a", "b"])
        assert m.num_constrs == 0


class TestBigMDisjunction:
    def test_at_least_one_holds(self):
        # x >= 8 or x <= 2; minimizing x with x >= 5 forces x = 8.
        m = Model()
        x = m.add_integer("x", ub=10)
        m.add_big_m_disjunction(
            [x.to_expr() >= 8, x.to_expr() <= 2], big_m=100
        )
        m.add_constr(x >= 5)
        m.minimize(x)
        sol = m.solve(backend="branch_bound")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value(x) == pytest.approx(8.0)

    def test_relax_var_disables_disjunction(self):
        # Same disjunction, but a free c5 lets the solver ignore it.
        m = Model()
        x = m.add_integer("x", ub=10)
        c5 = m.add_binary("c5")
        m.add_big_m_disjunction(
            [x.to_expr() >= 8, x.to_expr() <= 2],
            big_m=100,
            relax_var=c5,
        )
        m.add_constr(x >= 5)
        m.minimize(x)
        sol = m.solve(backend="branch_bound")
        assert sol.value(x) == pytest.approx(5.0)
        assert sol.value(c5) == pytest.approx(1.0)

    def test_pinned_relax_var_restores_disjunction(self):
        m = Model()
        x = m.add_integer("x", ub=10)
        c5 = m.add_binary("c5")
        m.add_big_m_disjunction(
            [x.to_expr() >= 8, x.to_expr() <= 2],
            big_m=100,
            relax_var=c5,
        )
        m.add_constr(c5 <= 0)  # Algorithm 1: forbid the overlap again
        m.add_constr(x >= 5)
        m.minimize(x)
        sol = m.solve(backend="branch_bound")
        assert sol.value(x) == pytest.approx(8.0)

    def test_equality_terms_rejected(self):
        m = Model()
        x = m.add_integer("x")
        with pytest.raises(ModelError):
            m.add_big_m_disjunction([x + 0 == 3], big_m=10)

    def test_empty_disjunction_rejected(self):
        with pytest.raises(ModelError):
            Model().add_big_m_disjunction([], big_m=10)


class TestSolveDispatch:
    def test_unknown_backend(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            m.solve(backend="cplex")

    def test_value_requires_solution(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x >= 2)  # infeasible
        sol = m.solve(backend="branch_bound")
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            sol.value(x)
