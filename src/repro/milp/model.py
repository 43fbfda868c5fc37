"""MILP model objects: variables, constraints, and the model container."""

from __future__ import annotations

import enum
import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.milp.expr import LinExpr, Number

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from scipy import sparse


class VarType(enum.Enum):
    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


class Var:
    """A decision variable.

    Variables are created through :meth:`Model.add_var`; each gets a
    stable index inside its model which the solver uses for columns.
    """

    __slots__ = ("name", "index", "var_type", "lb", "ub")

    def __init__(
        self,
        name: str,
        index: int,
        var_type: VarType,
        lb: float,
        ub: float,
    ) -> None:
        self.name = name
        self.index = index
        self.var_type = var_type
        self.lb = lb
        self.ub = ub

    @property
    def is_integral(self) -> bool:
        return self.var_type in (VarType.INTEGER, VarType.BINARY)

    # Arithmetic: delegate to LinExpr.
    def _expr(self) -> LinExpr:
        return LinExpr.from_term(self)

    def __add__(self, other: Union["Var", LinExpr, Number]) -> LinExpr:
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other: Union["Var", LinExpr, Number]) -> LinExpr:
        return self._expr() - other

    def __rsub__(self, other: Union["Var", LinExpr, Number]) -> LinExpr:
        return other - self._expr()

    def __mul__(self, factor: Number) -> LinExpr:
        return self._expr() * factor

    __rmul__ = __mul__

    def __neg__(self) -> LinExpr:
        return self._expr() * -1.0

    def __le__(self, other: Union["Var", LinExpr, Number]) -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other: Union["Var", LinExpr, Number]) -> "Constraint":
        return self._expr() >= other

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, int, float)):
            return self._expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Var({self.name!r})"


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` with an optional name.

    Stored in normalized form: all variable terms and the constant on
    the left, zero on the right.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(
        self, expr: LinExpr, sense: Sense, name: Optional[str] = None
    ) -> None:
        self.expr = expr
        self.sense = sense
        self.name = name

    def named(self, name: str) -> "Constraint":
        self.name = name
        return self

    def satisfied_by(
        self, assignment: Dict[Var, float], tol: float = 1e-6
    ) -> bool:
        value = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return value <= tol
        if self.sense is Sense.GE:
            return value >= -tol
        return abs(value) <= tol

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} 0{label})"


class Model:
    """An MILP model: variables, linear constraints, a linear objective.

    Usage:
        model = Model("deploy")
        x = model.add_binary("x")
        y = model.add_var("y", lb=0, ub=10)
        model.add_constr(x + y <= 5, name="cap")
        model.minimize(2 * x + y)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Var] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.maximize_objective = False
        self._names: Dict[str, Var] = {}
        self._anon = itertools.count()

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: Optional[str] = None,
        lb: float = 0.0,
        ub: float = float("inf"),
        var_type: VarType = VarType.CONTINUOUS,
    ) -> Var:
        if name is None:
            name = f"_v{next(self._anon)}"
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if var_type is VarType.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} exceeds ub {ub}")
        var = Var(name, len(self.variables), var_type, float(lb), float(ub))
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: Optional[str] = None) -> Var:
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_integer(
        self,
        name: Optional[str] = None,
        lb: float = 0.0,
        ub: float = float("inf"),
    ) -> Var:
        return self.add_var(name, lb, ub, VarType.INTEGER)

    def var(self, name: str) -> Var:
        try:
            return self._names[name]
        except KeyError:
            raise KeyError(f"model {self.name!r} has no variable {name!r}") from None

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integral)

    # ------------------------------------------------------------------
    # Constraints / objective
    # ------------------------------------------------------------------
    def add_constr(
        self, constraint: Constraint, name: Optional[str] = None
    ) -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (built from expression "
                f"comparisons), got {type(constraint).__name__}"
            )
        if name is not None:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add_constr(constraint)

    def minimize(self, expr: Union[LinExpr, Var, Number]) -> None:
        self.objective = LinExpr() + expr
        self.maximize_objective = False

    def maximize(self, expr: Union[LinExpr, Var, Number]) -> None:
        self.objective = LinExpr() + expr
        self.maximize_objective = True

    # ------------------------------------------------------------------
    # Standard-form export (for the LP solver)
    # ------------------------------------------------------------------
    def to_arrays(
        self,
    ) -> Tuple[
        np.ndarray,  # c
        Optional[sparse.csr_matrix],  # A_ub
        Optional[np.ndarray],  # b_ub
        Optional[sparse.csr_matrix],  # A_eq
        Optional[np.ndarray],  # b_eq
        List[Tuple[float, float]],  # bounds
    ]:
        """Export to ``scipy.optimize.linprog`` arrays (minimization).

        Constraint matrices are CSR-sparse — deployment models routinely
        reach 10^5 x 10^5 with a handful of nonzeros per row, far beyond
        dense storage.  A maximization objective is negated; callers
        must negate the optimum back.  GE rows are flipped into LE rows.
        """
        # Imported here, by the solvers' one call per solve, so that
        # building a model never loads numpy or scipy.
        import numpy as np
        from scipy import sparse

        n = len(self.variables)
        c = np.zeros(n)
        for var, coef in self.objective.coefs.items():
            c[var.index] += coef
        if self.maximize_objective:
            c = -c

        ub_data: List[float] = []
        ub_rows: List[int] = []
        ub_cols: List[int] = []
        ub_rhs: List[float] = []
        eq_data: List[float] = []
        eq_rows: List[int] = []
        eq_cols: List[int] = []
        eq_rhs: List[float] = []
        for constraint in self.constraints:
            rhs = -constraint.expr.constant
            if constraint.sense is Sense.EQ:
                row_idx = len(eq_rhs)
                for var, coef in constraint.expr.coefs.items():
                    eq_rows.append(row_idx)
                    eq_cols.append(var.index)
                    eq_data.append(coef)
                eq_rhs.append(rhs)
            else:
                sign = 1.0 if constraint.sense is Sense.LE else -1.0
                row_idx = len(ub_rhs)
                for var, coef in constraint.expr.coefs.items():
                    ub_rows.append(row_idx)
                    ub_cols.append(var.index)
                    ub_data.append(sign * coef)
                ub_rhs.append(sign * rhs)

        a_ub = (
            sparse.csr_matrix(
                (ub_data, (ub_rows, ub_cols)), shape=(len(ub_rhs), n)
            )
            if ub_rhs
            else None
        )
        b_ub = np.asarray(ub_rhs) if ub_rhs else None
        a_eq = (
            sparse.csr_matrix(
                (eq_data, (eq_rows, eq_cols)), shape=(len(eq_rhs), n)
            )
            if eq_rhs
            else None
        )
        b_eq = np.asarray(eq_rhs) if eq_rhs else None
        bounds = [(v.lb, v.ub) for v in self.variables]
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    def objective_value(self, assignment: Dict[Var, float]) -> float:
        return self.objective.value(assignment)

    def is_feasible(
        self, assignment: Dict[Var, float], tol: float = 1e-6
    ) -> bool:
        """Check an assignment against bounds, integrality, constraints."""
        for var in self.variables:
            value = assignment[var]
            if value < var.lb - tol or value > var.ub + tol:
                return False
            if var.is_integral and abs(value - round(value)) > tol:
                return False
        return all(c.satisfied_by(assignment, tol) for c in self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Model({self.name!r}, {self.num_vars} vars "
            f"({self.num_integer_vars} int), {self.num_constraints} constrs)"
        )
