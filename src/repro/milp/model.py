"""MILP model objects: variables, constraints, and the model container."""

from __future__ import annotations

import enum
import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
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
    the left, zero on the right.  :meth:`Model.add_constr` copies it
    into the model's row store.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(
        self, expr: LinExpr, sense: Sense, name: Optional[str] = None
    ) -> None:
        self.expr = expr
        self.sense = sense
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} 0{label})"


class Row(NamedTuple):
    """One stored row, ``sum(coefs[k] * x[cols[k]]) <sense> rhs``, as
    :meth:`Model.rows` reads it: columns ascending, a column entered
    twice summed into one coefficient."""

    sense: Sense
    rhs: float
    name: Optional[str]
    cols: List[int]
    coefs: List[float]


#: Nonzeros of the row store: parallel row, column and coefficient
#: sequences (lists or arrays), with model row indexes.
_Entries = Tuple[Sequence[int], Sequence[int], Sequence[float]]

#: Row senses as stored: the code is a sense's index here.
_SENSES = (Sense.LE, Sense.GE, Sense.EQ)
_SENSE_CODE = {sense: code for code, sense in enumerate(_SENSES)}
_GE = _SENSE_CODE[Sense.GE]
_EQ = _SENSE_CODE[Sense.EQ]


class Model:
    """An MILP model: variables, linear constraints, a linear objective.

    Usage:
        model = Model("deploy")
        x = model.add_binary("x")
        y = model.add_var("y", lb=0, ub=10)
        model.add_constr(x + y <= 5, name="cap")
        model.minimize(2 * x + y)

    Rows live in one insertion-ordered COO store: :meth:`add_constr`
    appends one row from an expression, :meth:`add_rows` a block of
    rows given as index arrays.  :meth:`rows` reads them back and
    :meth:`to_arrays` exports them.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Var] = []
        self.objective: LinExpr = LinExpr()
        self.maximize_objective = False
        self._names: Dict[str, Var] = {}
        self._anon = itertools.count()
        # The row store.  Nonzeros: add_constr appends to lists, and
        # add_rows keeps each block's arrays.  Then, per row, a sense
        # code, the right-hand side and the name.
        self._constr_entries: _Entries = ([], [], [])
        self._block_entries: List[_Entries] = []
        self._row_sense: List[int] = []
        self._row_rhs: List[float] = []
        self._row_name: List[Optional[str]] = []

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

    def add_binaries(self, names: Sequence[str]) -> List[Var]:
        """Add one contiguous block of binaries, one per name.

        The block's columns follow the model's last column in ``names``
        order, so ``block[i].index == block[0].index + i``.
        """
        start = len(self.variables)
        block = list(
            map(
                Var,
                names,
                range(start, start + len(names)),
                itertools.repeat(VarType.BINARY),
                itertools.repeat(0.0),
                itertools.repeat(1.0),
            )
        )
        by_name = dict(zip(names, block))
        if len(by_name) != len(block) or not self._names.keys().isdisjoint(
            by_name
        ):
            seen = set(self._names)
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate variable name {name!r}")
                seen.add(name)
        self.variables.extend(block)
        self._names.update(by_name)
        return block

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
        return len(self._row_rhs)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integral)

    # ------------------------------------------------------------------
    # Constraints / objective
    # ------------------------------------------------------------------
    def add_constr(
        self, constraint: Constraint, name: Optional[str] = None
    ) -> Constraint:
        """Append one row, ``constraint``, to the row store."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (built from expression "
                f"comparisons), got {type(constraint).__name__}"
            )
        if name is not None:
            constraint.name = name
        rows, cols, coefs = self._constr_entries
        row = len(self._row_rhs)
        for var, coef in constraint.expr.coefs.items():
            rows.append(row)
            cols.append(var.index)
            coefs.append(coef)
        self._row_sense.append(_SENSE_CODE[constraint.sense])
        self._row_rhs.append(-constraint.expr.constant)
        self._row_name.append(constraint.name)
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add_constr(constraint)

    def add_rows(
        self,
        sense: Union[Sense, Sequence[Sense]],
        rows: Sequence[int],
        cols: Sequence[int],
        coefs: Sequence[float],
        rhs: Sequence[float],
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        """Append a block of ``len(rhs)`` rows in COO form.

        Block row ``i`` is ``sum(coefs[k] * x[cols[k]] for k with
        rows[k] == i) <sense> rhs[i]``; entries may come in any order,
        and a column entered twice in one row adds up.  ``sense`` is
        one :class:`Sense` for the whole block or one per row.  Lists
        and NumPy arrays are both accepted.

        Raises:
            ValueError: If ``rows``, ``cols`` and ``coefs`` differ in
                length, ``names`` or a per-row ``sense`` does not match
                ``rhs``, or an entry names a row outside the block or a
                column outside the model.
        """
        import numpy as np

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=float)
        rhs = np.asarray(rhs, dtype=float).tolist()
        count = len(rhs)
        if not len(rows) == len(cols) == len(coefs):
            raise ValueError(
                f"add_rows: {len(rows)} rows, {len(cols)} cols and "
                f"{len(coefs)} coefs differ in length"
            )
        if isinstance(sense, Sense):
            codes = [_SENSE_CODE[sense]] * count
        else:
            codes = [_SENSE_CODE[s] for s in sense]
        if len(codes) != count:
            raise ValueError(
                f"add_rows: {len(codes)} senses for {count} rows"
            )
        if names is not None and len(names) != count:
            raise ValueError(f"add_rows: {len(names)} names for {count} rows")
        if len(rows):
            if rows.min() < 0 or rows.max() >= count:
                raise ValueError(
                    f"add_rows: row index outside the block's {count} rows"
                )
            if cols.min() < 0 or cols.max() >= len(self.variables):
                raise ValueError(
                    "add_rows: column index outside the model's "
                    f"{len(self.variables)} variables"
                )
        self._block_entries.append((rows + len(self._row_rhs), cols, coefs))
        self._row_sense.extend(codes)
        self._row_rhs.extend(rhs)
        self._row_name.extend([None] * count if names is None else names)

    def minimize(self, expr: Union[LinExpr, Var, Number]) -> None:
        self.objective = LinExpr() + expr
        self.maximize_objective = False

    def maximize(self, expr: Union[LinExpr, Var, Number]) -> None:
        self.objective = LinExpr() + expr
        self.maximize_objective = True

    # ------------------------------------------------------------------
    # Reading rows back
    # ------------------------------------------------------------------
    def _coo(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Every stored nonzero as ``(rows, cols, coefs)`` arrays."""
        import numpy as np

        entries = [self._constr_entries, *self._block_entries]
        return tuple(
            np.concatenate([np.asarray(e[k], dtype=dtype) for e in entries])
            for k, dtype in enumerate((np.int64, np.int64, float))
        )

    def rows(self) -> Iterator[Row]:
        """Every row in insertion order; see :class:`Row`."""
        if not self._row_rhs:
            return
        from scipy import sparse

        rows, cols, coefs = self._coo()
        matrix = sparse.csr_matrix(
            (coefs, (rows, cols)),
            shape=(len(self._row_rhs), len(self.variables)),
        )
        indptr = matrix.indptr.tolist()
        indices = matrix.indices.tolist()
        data = matrix.data.tolist()
        for i, (code, rhs, name) in enumerate(
            zip(self._row_sense, self._row_rhs, self._row_name)
        ):
            lo, hi = indptr[i], indptr[i + 1]
            yield Row(_SENSES[code], rhs, name, indices[lo:hi], data[lo:hi])

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
        must negate the optimum back.  GE rows are flipped into LE rows;
        LE and GE rows form ``A_ub`` and EQ rows ``A_eq``, each in
        insertion order.
        """
        # Imported here, by the solvers' one call per solve, so that
        # building a model never loads numpy or scipy.
        import numpy as np
        from scipy import sparse

        n = len(self.variables)
        c = np.zeros(n)
        terms = self.objective.coefs
        if terms:
            np.add.at(c, [var.index for var in terms], list(terms.values()))
        if self.maximize_objective:
            c = -c

        rows, cols, coefs = self._coo()
        codes = np.array(self._row_sense, dtype=np.int8)
        sign = np.where(codes == _GE, -1.0, 1.0)
        rhs = sign * np.array(self._row_rhs, dtype=float)

        def block(selected):
            """The selected rows, renumbered in order, and their rhs."""
            count = int(np.count_nonzero(selected))
            if not count:
                return None, None
            position = np.cumsum(selected) - 1
            keep = selected[rows]
            kept_rows = rows[keep]
            matrix = sparse.csr_matrix(
                (
                    sign[kept_rows] * coefs[keep],
                    (position[kept_rows], cols[keep]),
                ),
                shape=(count, n),
            )
            return matrix, rhs[selected]

        is_eq = codes == _EQ
        a_ub, b_ub = block(~is_eq)
        a_eq, b_eq = block(is_eq)
        bounds = [(v.lb, v.ub) for v in self.variables]
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    def objective_value(self, assignment: Dict[Var, float]) -> float:
        return self.objective.value(assignment)

    def is_feasible(
        self, assignment: Dict[Var, float], tol: float = 1e-6
    ) -> bool:
        """Check an assignment against bounds, integrality, constraints."""
        values = []
        for var in self.variables:
            value = assignment[var]
            if value < var.lb - tol or value > var.ub + tol:
                return False
            if var.is_integral and abs(value - round(value)) > tol:
                return False
            values.append(value)
        for row in self.rows():
            slack = (
                sum(coef * values[j] for j, coef in zip(row.cols, row.coefs))
                - row.rhs
            )
            if row.sense is Sense.LE:
                if slack > tol:
                    return False
            elif row.sense is Sense.GE:
                if slack < -tol:
                    return False
            elif abs(slack) > tol:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Model({self.name!r}, {self.num_vars} vars "
            f"({self.num_integer_vars} int), {self.num_constraints} constrs)"
        )
