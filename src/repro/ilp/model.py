"""The MILP model container and big-M helpers.

The modeling vocabulary here is deliberately close to the paper's
formulation (Section 3.2): binary selection variables, integer load
variables, linear constraints, a big-M disjunction helper implementing
eqs. (4)–(8), and the relaxable variant with the auxiliary binary ``c5``
of eq. (12).

Every row lives in one store: a per-row name, sense and right-hand
side, and the coefficients as coordinate triplets.
:meth:`Model.add_rows` writes whole blocks of rows from arrays (the
dynamic-device mapping builder's path) and :meth:`Model.add_constr`
one hand-built :class:`Constraint`.  :meth:`Model.to_arrays` scatters
the store; :attr:`Model.constraints` materializes :class:`Constraint`
views of it only when a caller reads them.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr
from repro.ilp.tolerances import CHECK_EPS
from repro.ilp.variable import Var, VarType


def quicksum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/constants into one :class:`LinExpr`.

    Unlike built-in :func:`sum`, this grows a single mutable accumulator,
    which keeps model construction linear in the number of terms.
    """
    terms: Dict[Var, float] = {}
    constant = 0.0
    for item in items:
        expr = LinExpr.coerce(item)
        constant += expr.constant
        for var, coef in expr.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
    return LinExpr({v: c for v, c in terms.items() if c != 0.0}, constant)


class ObjectiveSense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Model:
    """A mixed-integer linear program.

    Construction is solver-agnostic; call :meth:`solve` (or
    :func:`repro.ilp.solver.solve`) to optimize with either the
    from-scratch branch & bound or the scipy/HiGHS backend.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Var] = []
        # The row store: one entry per row in these three lists, the
        # coefficients as (row, column, value) array chunks.
        self._names: List[str] = []
        self._senses: List[Sense] = []
        self._rhs: List[float] = []
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._views: Tuple[Constraint, ...] = ()
        self.objective: LinExpr = LinExpr()
        self.objective_sense: ObjectiveSense = ObjectiveSense.MINIMIZE

    # -- variables -----------------------------------------------------------

    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Var:
        """Create and register a new decision variable."""
        index = len(self.variables)
        var = Var(name or f"x{index}", index, lb, ub, vtype)
        self.variables.append(var)
        return var

    def add_binary(self, name: str = "") -> Var:
        """A 0/1 variable — e.g. a selection variable ``s[x,y,k,i]``."""
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_integer(self, name: str = "", lb: float = 0.0, ub: float = math.inf) -> Var:
        """An integer variable — e.g. a valve load ``v[x,y]``."""
        return self.add_var(name, lb, ub, VarType.INTEGER)

    def add_continuous(
        self, name: str = "", lb: float = 0.0, ub: float = math.inf
    ) -> Var:
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    # -- constraints -----------------------------------------------------------

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                f"add_constr expects a Constraint, got {type(constraint).__name__}"
            )
        for var in constraint.expr.variables():
            owned = (
                var.index < len(self.variables)
                and self.variables[var.index] is var
            )
            if not owned:
                raise ModelError(
                    f"constraint uses variable {var.name} from another model"
                )
        if name:
            constraint.name = name
        terms = constraint.expr.terms
        self.add_rows(
            [0] * len(terms), [var.index for var in terms], list(terms.values()),
            [constraint.sense], [constraint.rhs], [constraint.name],
        )
        return constraint

    def add_rows(
        self,
        rows,
        cols,
        vals,
        senses: Sequence[Sense],
        rhs: Sequence[float],
        names: Sequence[str],
    ) -> None:
        """Append ``len(rhs)`` rows given as coordinate triplets.

        ``rows[k]`` numbers the new rows from 0 and ``cols[k]`` is a
        variable index; a (row, column) pair may not repeat, and every
        row needs a term, as a :class:`Constraint` does.
        """
        count = len(rhs)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if not (len(senses) == len(names) == count
                and rows.shape == cols.shape == vals.shape):
            raise ModelError("add_rows needs matching row, term and meta lengths")
        if cols.size and (cols.min() < 0 or cols.max() >= len(self.variables)):
            raise ModelError("add_rows uses a column outside this model")
        if rows.size and (rows.min() < 0 or rows.max() >= count):
            raise ModelError("add_rows uses a row index outside the block")
        if count and np.bincount(rows, minlength=count).min() == 0:
            raise ModelError("constraint has no variables")
        self._chunks.append((rows + len(self._rhs), cols, vals))
        self._names.extend(names)
        self._senses.extend(senses)
        self._rhs.extend(float(b) for b in rhs)

    def _triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored coefficient as (row, column, value), in insertion order."""
        if len(self._chunks) != 1:
            if not self._chunks:
                empty = np.zeros(0, dtype=np.intp)
                return empty, empty, np.zeros(0)
            merged = tuple(np.concatenate(part) for part in zip(*self._chunks))
            self._chunks = [merged]
        return self._chunks[0]

    def add_constrs(self, constraints: Iterable[Constraint], name: str = "") -> None:
        for i, con in enumerate(constraints):
            self.add_constr(con, f"{name}[{i}]" if name else "")

    def add_big_m_disjunction(
        self,
        constraints: Sequence[Constraint],
        big_m: float,
        name: str = "",
        relax_var: Optional[Var] = None,
    ) -> List[Var]:
        """Require at least one of ``constraints`` to hold (eqs. 4–8).

        Each constraint gets an auxiliary binary ``c_k`` that, when 1,
        relaxes its row by ``big_m`` (eqs. 4–7).  The cardinality row
        ``sum(c_k) == n - 1`` (eq. 8) forces at least one row to stay
        active.  When ``relax_var`` (the paper's ``c5``, eq. 12) is
        given, the row becomes ``sum(c_k) == n - 1 + relax_var`` so a
        solver may switch the whole disjunction off by setting
        ``relax_var = 1`` — the in-situ storage / parent-device overlap
        permission of Section 3.3.

        Returns the auxiliary binaries ``[c_1 .. c_n]``.
        """
        if not constraints:
            raise ModelError("disjunction needs at least one constraint")
        auxiliaries: List[Var] = []
        for k, con in enumerate(constraints):
            aux = self.add_binary(f"{name}.c{k + 1}" if name else f"c{k + 1}")
            auxiliaries.append(aux)
            if con.sense is Sense.LE:
                relaxed = con.expr - big_m * aux <= con.rhs
            elif con.sense is Sense.GE:
                relaxed = con.expr + big_m * aux >= con.rhs
            else:
                raise ModelError("disjunction terms must be inequalities")
            self.add_constr(relaxed, f"{name}.term{k + 1}" if name else "")
        cardinality = quicksum(auxiliaries)
        rhs: LinExpr = LinExpr({}, float(len(constraints) - 1))
        if relax_var is not None:
            rhs = rhs + relax_var
        self.add_constr(cardinality == rhs, f"{name}.card" if name else "")
        return auxiliaries

    # -- objective ------------------------------------------------------------

    def set_objective(
        self, expr, sense: ObjectiveSense = ObjectiveSense.MINIMIZE
    ) -> None:
        self.objective = LinExpr.coerce(expr)
        self.objective_sense = sense

    def minimize(self, expr) -> None:
        self.set_objective(expr, ObjectiveSense.MINIMIZE)

    def maximize(self, expr) -> None:
        self.set_objective(expr, ObjectiveSense.MAXIMIZE)

    # -- inspection -------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.vtype.is_integral)

    @property
    def num_constrs(self) -> int:
        return len(self._rhs)

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """The rows as :class:`Constraint` objects, in model order.

        Built from the row store on first read (and again after rows
        are added): the exact replays of :mod:`repro.certify`,
        :meth:`check_solution` and the LP export read rows one by one;
        the solver backends only read :meth:`to_arrays`.
        """
        if len(self._views) != len(self._rhs):
            rows, cols, vals = self._triplets()
            order = np.argsort(rows, kind="stable")
            ends = np.cumsum(np.bincount(rows, minlength=len(self._rhs)))
            cols = cols[order].tolist()
            vals = vals[order].tolist()
            variables = self.variables
            views: List[Constraint] = []
            start = 0
            for name, sense, rhs, end in zip(
                self._names, self._senses, self._rhs, ends.tolist()
            ):
                terms = {
                    variables[j]: v
                    for j, v in zip(cols[start:end], vals[start:end])
                }
                views.append(Constraint(LinExpr(terms), sense, rhs, name))
                start = end
            self._views = tuple(views)
        return self._views

    def check_solution(
        self, values: Dict[Var, float], tol: float = CHECK_EPS
    ) -> List[str]:
        """Names/reprs of constraints and bounds violated by ``values``."""
        problems: List[str] = []
        for var in self.variables:
            val = values.get(var, 0.0)
            if val < var.lb - tol or val > var.ub + tol:
                problems.append(f"bound violated: {var.name}={val}")
            if var.vtype.is_integral and abs(val - round(val)) > tol:
                problems.append(f"integrality violated: {var.name}={val}")
        for con in self.constraints:
            if not con.satisfied_by(values, tol):
                problems.append(f"constraint violated: {con!r}")
        return problems

    # -- matrix form --------------------------------------------------------------

    def to_arrays(
        self,
    ) -> Tuple[
        np.ndarray,  # c
        np.ndarray,  # A_ub
        np.ndarray,  # b_ub
        np.ndarray,  # A_eq
        np.ndarray,  # b_eq
        List[Tuple[float, float]],  # bounds
        np.ndarray,  # integrality flags (1 integral / 0 continuous)
    ]:
        """Export minimize-form dense arrays for the LP/MILP backends.

        Maximization is converted by negating the objective; callers that
        need the true objective value must negate back (both backends in
        this package do).
        """
        n = self.num_vars
        c = np.zeros(n)
        for var, coef in self.objective.terms.items():
            c[var.index] = coef
        if self.objective_sense is ObjectiveSense.MAXIMIZE:
            c = -c

        # Scatter the row store: each row goes to A_eq or A_ub (>= rows
        # negated into <= form), at its position among rows of its kind.
        rows, cols, vals = self._triplets()
        m = len(self._rhs)
        is_eq = np.fromiter(
            (s is Sense.EQ for s in self._senses), dtype=bool, count=m
        )
        sign = np.fromiter(
            (-1.0 if s is Sense.GE else 1.0 for s in self._senses),
            dtype=float, count=m,
        )
        rhs = np.asarray(self._rhs, dtype=float)
        n_eq = int(is_eq.sum())
        position = np.empty(m, dtype=np.intp)
        position[is_eq] = np.arange(n_eq)
        position[~is_eq] = np.arange(m - n_eq)
        on_eq = is_eq[rows]
        on_ub = ~on_eq
        a_eq = np.zeros((n_eq, n))
        a_eq[position[rows[on_eq]], cols[on_eq]] = vals[on_eq]
        b_eq = rhs[is_eq]
        a_ub = np.zeros((m - n_eq, n))
        a_ub[position[rows[on_ub]], cols[on_ub]] = (
            sign[rows[on_ub]] * vals[on_ub]
        )
        b_ub = sign[~is_eq] * rhs[~is_eq]
        bounds = [(v.lb, v.ub) for v in self.variables]
        integrality = np.array(
            [1 if v.vtype.is_integral else 0 for v in self.variables]
        )
        return c, a_ub, b_ub, a_eq, b_eq, bounds, integrality

    # -- solving ------------------------------------------------------------------

    def solve(self, backend: str = "auto", **kwargs):
        """Optimize the model; see :func:`repro.ilp.solver.solve`."""
        from repro.ilp.solver import solve as _solve

        return _solve(self, backend=backend, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Model({self.name}: {self.num_vars} vars "
            f"({self.num_integer_vars} integral), {self.num_constrs} constrs)"
        )
