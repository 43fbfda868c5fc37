"""Unit tests for the MILP modeling layer."""

import numpy as np
import pytest

from repro.milp.expr import LinExpr
from repro.milp.model import Constraint, Model, Sense, VarType
from repro.milp.presolve import PresolveCache, model_signature, presolve


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

    def test_add_binaries_is_one_contiguous_block(self, model):
        model.add_var("y")
        block = model.add_binaries(["a", "b", "c"])
        assert [v.index for v in block] == [1, 2, 3]
        assert all(v.var_type is VarType.BINARY for v in block)
        assert [(v.lb, v.ub) for v in block] == [(0.0, 1.0)] * 3
        assert model.var("b") is block[1]

    def test_add_binaries_rejects_duplicate_names(self, model):
        model.add_var("x")
        with pytest.raises(ValueError, match="duplicate variable name 'x'"):
            model.add_binaries(["a", "x"])
        with pytest.raises(ValueError, match="duplicate variable name 'b'"):
            model.add_binaries(["b", "c", "b"])
        assert model.num_vars == 1  # a rejected block adds nothing

    def test_num_constraints_counts_block_rows(self, model):
        x, y = model.add_binaries(["x", "y"])
        model.add_constr(x + y <= 1)
        model.add_rows(
            Sense.GE, [0, 1, 2], [0, 1, 0], [1.0, 1.0, 2.0], [0.5] * 3
        )
        assert model.num_constraints == 4


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

    def test_interleaved_rows_keep_insertion_order(self, model):
        x, y = model.add_binaries(["x", "y"])
        model.add_constr(x + y <= 2)  # ub 0
        model.add_rows(
            [Sense.GE, Sense.EQ, Sense.LE],  # ub 1, eq 0, ub 2
            [0, 1, 1, 2],
            [0, 0, 1, 1],
            [3.0, 1.0, 1.0, 4.0],
            [1.0, 1.0, 5.0],
        )
        model.add_constr(x - y == 0)  # eq 1
        model.add_rows(Sense.GE, [0, 0], [1, 0], [2.0, 1.0], [-3.0])  # ub 3
        _c, a_ub, b_ub, a_eq, b_eq, _bounds = model.to_arrays()
        assert a_ub.toarray().tolist() == [
            [1.0, 1.0],
            [-3.0, 0.0],  # GE flipped
            [0.0, 4.0],
            [-1.0, -2.0],  # GE flipped
        ]
        assert b_ub.tolist() == [2.0, -1.0, 5.0, 3.0]
        assert a_eq.toarray().tolist() == [[1.0, 1.0], [1.0, -1.0]]
        assert b_eq.tolist() == [1.0, 0.0]


def _rows_one_by_one():
    """A small MILP built one expression at a time."""
    model = Model("m")
    x = model.add_binaries(["x0", "x1", "x2", "x3"])
    y = model.add_var("y", 0, 10)
    model.add_constr(x[0] + 2 * x[1] + 3 * y <= 4, name="cap")
    model.add_constr(x[2] - x[3] >= -0.5, name="order")
    model.add_constr(x[0] + x[1] + x[2] + x[3] == 2, name="pick")
    model.add_constr(y - 2 * x[0] >= -1.5)
    model.maximize(3 * x[0] + 2 * x[1] + x[2] + y)
    return model


def _rows_as_block():
    """The same MILP with all four rows in one block, entries shuffled
    and one coefficient entered in two parts."""
    model = Model("m")
    x = model.add_binaries(["x0", "x1", "x2", "x3"])
    y = model.add_var("y", 0, 10)
    model.add_rows(
        [Sense.LE, Sense.GE, Sense.EQ, Sense.GE],
        [3, 0, 2, 1, 0, 2, 3, 2, 0, 1, 2, 0],
        [4, 4, 3, 2, 1, 0, 0, 1, 0, 3, 2, 4],
        [1.0, 1.0, 1.0, 1.0, 2.0, 1.0, -2.0, 1.0, 1.0, -1.0, 1.0, 2.0],
        [4.0, -0.5, 2.0, -1.5],
        names=["cap", "order", "pick", None],
    )
    model.maximize(3 * x[0] + 2 * x[1] + x[2] + y)
    return model


class TestRowBlocks:
    def test_same_export(self):
        one, block = _rows_one_by_one(), _rows_as_block()
        for left, right in zip(one.to_arrays(), block.to_arrays()):
            if hasattr(left, "toarray"):
                left, right = left.toarray(), right.toarray()
            assert np.array_equal(left, right)

    def test_same_rows_read_back(self):
        one, block = _rows_one_by_one(), _rows_as_block()
        assert list(one.rows()) == list(block.rows())
        first = next(block.rows())
        assert first.name == "cap" and first.sense is Sense.LE
        assert first.cols == [0, 1, 4]  # ascending; y's 1.0 + 2.0 summed
        assert first.coefs == [1.0, 2.0, 3.0]

    def test_same_signature_shares_presolve(self):
        one, block = _rows_one_by_one(), _rows_as_block()
        assert model_signature(one) == model_signature(block)
        cache = PresolveCache()
        cache.fetch(one)
        cache.fetch(block)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_same_presolve(self):
        one, block = presolve(_rows_one_by_one()), presolve(_rows_as_block())
        assert one.status == block.status
        assert one.stats == block.stats
        assert {v.name: x for v, x in one.fixed.items()} == {
            v.name: x for v, x in block.fixed.items()
        }
        for left, right in zip(one.model.to_arrays(), block.model.to_arrays()):
            if hasattr(left, "toarray"):
                left, right = left.toarray(), right.toarray()
            assert np.array_equal(left, right)

    @pytest.mark.parametrize(
        "point, feasible",
        [
            ((1, 0, 1, 0, 0.5), True),
            ((0, 1, 1, 0, 0.0), True),
            ((0, 0, 1, 1, 0.0), True),
            ((0, 1, 0, 1, 0.0), False),  # violates only "order"
            ((1, 1, 0, 0, 0.0), False),  # violates only the unnamed row
            ((1, 0, 1, 0, 2.0), False),  # violates only "cap"
            ((1, 0, 0, 0, 0.0), False),  # violates "pick" and the last
        ],
    )
    def test_same_feasibility(self, point, feasible):
        for model in (_rows_one_by_one(), _rows_as_block()):
            assignment = dict(zip(model.variables, point))
            assert model.is_feasible(assignment) is feasible

    def test_point_violating_only_a_block_row(self):
        model = _rows_one_by_one()
        point = dict(zip(model.variables, (1, 0, 1, 0, 0.5)))
        assert model.is_feasible(point)
        model.add_rows(Sense.LE, [0, 0], [0, 2], [1.0, 1.0], [1.0])
        assert not model.is_feasible(point)  # x0 + x2 <= 1 only
        assert model.is_feasible(dict(zip(model.variables, (0, 1, 1, 0, 0.0))))

    @pytest.mark.parametrize(
        "rows, cols, coefs, rhs, match",
        [
            ([0, 0], [0], [1.0, 1.0], [1.0], "differ in length"),
            ([0], [0, 1], [1.0], [1.0], "differ in length"),
            ([0, 1], [0, 1], [1.0, 1.0], [1.0], "outside the block"),
            ([-1], [0], [1.0], [1.0], "outside the block"),
            ([0], [2], [1.0], [1.0], "outside the model"),
            ([0], [-1], [1.0], [1.0], "outside the model"),
        ],
    )
    def test_malformed_block_rejected(
        self, model, rows, cols, coefs, rhs, match
    ):
        model.add_binaries(["x", "y"])
        with pytest.raises(ValueError, match=match):
            model.add_rows(Sense.LE, rows, cols, coefs, rhs)
        assert model.num_constraints == 0

    def test_names_and_senses_must_match_rhs(self, model):
        model.add_binaries(["x", "y"])
        with pytest.raises(ValueError, match="names"):
            model.add_rows(Sense.LE, [0], [0], [1.0], [1.0], names=["a", "b"])
        with pytest.raises(ValueError, match="senses"):
            model.add_rows([Sense.LE, Sense.GE], [0], [0], [1.0], [1.0])
        assert model.num_constraints == 0
