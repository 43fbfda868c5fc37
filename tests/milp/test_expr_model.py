"""Unit tests for the MILP modeling layer."""

import pytest

from repro.milp.expr import LinExpr
from repro.milp.model import Constraint, Model, Sense, VarType


@pytest.fixture
def model():
    return Model("m")


class TestLinExpr:
    def test_arithmetic(self, model):
        x = model.add_var("x")
        y = model.add_var("y")
        expr = 2 * x + y - 3
        assert expr.coefs[x] == 2
        assert expr.coefs[y] == 1
        assert expr.constant == -3

    def test_nested_combination(self, model):
        x = model.add_var("x")
        y = model.add_var("y")
        expr = (x + y) * 2 - (x - 1) / 2
        assert expr.coefs[x] == pytest.approx(1.5)
        assert expr.coefs[y] == pytest.approx(2.0)
        assert expr.constant == pytest.approx(0.5)

    def test_negation_and_rsub(self, model):
        x = model.add_var("x")
        expr = 5 - x
        assert expr.coefs[x] == -1
        assert expr.constant == 5
        assert (-(x + 1)).constant == -1

    def test_total_linear_time_semantics(self, model):
        xs = [model.add_var(f"x{i}") for i in range(100)]
        expr = LinExpr.total(x * 2 for x in xs)
        assert len(expr.coefs) == 100
        assert all(c == 2 for c in expr.coefs.values())

    def test_total_mixed_terms(self, model):
        x = model.add_var("x")
        expr = LinExpr.total([x, 2 * x, 5, LinExpr(constant=1.0)])
        assert expr.coefs[x] == 3
        assert expr.constant == 6

    def test_total_rejects_garbage(self):
        with pytest.raises(TypeError):
            LinExpr.total(["nope"])

    def test_var_products_forbidden(self, model):
        x = model.add_var("x")
        with pytest.raises(TypeError, match="scalars"):
            (x + 1) * (x + 1)  # noqa: B018

    def test_value_evaluation(self, model):
        x = model.add_var("x")
        y = model.add_var("y")
        expr = 2 * x + 3 * y + 1
        assert expr.value({x: 2.0, y: 1.0}) == pytest.approx(8.0)

    def test_comparisons_build_constraints(self, model):
        x = model.add_var("x")
        le = x <= 5
        ge = x >= 1
        eq = x == 3
        assert isinstance(le, Constraint) and le.sense is Sense.LE
        assert isinstance(ge, Constraint) and ge.sense is Sense.GE
        assert isinstance(eq, Constraint) and eq.sense is Sense.EQ


class TestModel:
    def test_variable_kinds(self, model):
        x = model.add_var("x")
        b = model.add_binary("b")
        i = model.add_integer("i", 0, 9)
        assert x.var_type is VarType.CONTINUOUS
        assert b.var_type is VarType.BINARY and (b.lb, b.ub) == (0.0, 1.0)
        assert i.is_integral
        assert model.num_vars == 3
        assert model.num_integer_vars == 2

    def test_duplicate_names_rejected(self, model):
        model.add_var("x")
        with pytest.raises(ValueError, match="duplicate"):
            model.add_var("x")

    def test_anonymous_names(self, model):
        a = model.add_var()
        b = model.add_var()
        assert a.name != b.name

    def test_bad_bounds(self, model):
        with pytest.raises(ValueError):
            model.add_var("x", lb=2, ub=1)

    def test_lookup(self, model):
        x = model.add_var("x")
        assert model.var("x") is x
        with pytest.raises(KeyError):
            model.var("ghost")

    def test_add_constr_type_check(self, model):
        with pytest.raises(TypeError):
            model.add_constr(True)  # accidental boolean comparison

    def test_constraint_naming(self, model):
        x = model.add_var("x")
        c = model.add_constr(x <= 1, name="cap")
        assert c.name == "cap"

    def test_is_feasible(self, model):
        x = model.add_binary("x")
        y = model.add_var("y", 0, 10)
        model.add_constr(x + y <= 5)
        assert model.is_feasible({x: 1.0, y: 4.0})
        assert not model.is_feasible({x: 1.0, y: 5.0})  # violates constr
        assert not model.is_feasible({x: 0.5, y: 1.0})  # fractional binary
        assert not model.is_feasible({x: 0.0, y: 11.0})  # out of bounds

    def test_objective_value(self, model):
        x = model.add_var("x")
        model.minimize(3 * x + 2)
        assert model.objective_value({x: 2.0}) == pytest.approx(8.0)


class TestToArrays:
    def test_sparse_export_shapes(self, model):
        x = model.add_var("x", 0, 4)
        y = model.add_binary("y")
        model.add_constr(x + 2 * y <= 4)
        model.add_constr(x - y >= 1)
        model.add_constr(x + y == 3)
        model.minimize(x + y)
        c, a_ub, b_ub, a_eq, b_eq, bounds = model.to_arrays()
        assert c.tolist() == [1.0, 1.0]
        assert a_ub.shape == (2, 2)
        assert a_eq.shape == (1, 2)
        # GE row flipped: x - y >= 1 -> -x + y <= -1
        assert a_ub.toarray()[1].tolist() == [-1.0, 1.0]
        assert b_ub.tolist() == [4.0, -1.0]
        assert b_eq.tolist() == [3.0]
        assert bounds == [(0.0, 4.0), (0.0, 1.0)]

    def test_maximize_negates_objective(self, model):
        x = model.add_var("x")
        model.maximize(5 * x)
        c, *_ = model.to_arrays()
        assert c.tolist() == [-5.0]

    def test_empty_constraint_blocks_are_none(self, model):
        model.add_var("x")
        c, a_ub, b_ub, a_eq, b_eq, _bounds = model.to_arrays()
        assert a_ub is None and b_ub is None
        assert a_eq is None and b_eq is None
