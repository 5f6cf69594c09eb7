"""Independent LP/MILP certificates in exact rational arithmetic.

The checkers here never reuse solver internals: they take a claimed
answer plus the *original* problem data and re-verify the claim with
:class:`fractions.Fraction` arithmetic (``Fraction(float)`` is exact,
so the checker itself introduces zero rounding error — every tolerance
below exists only to absorb the *solver's* float error, never the
checker's).

Certificate math (DESIGN.md §10):

* **OPTIMAL** — primal feasibility is replayed row by row; dual
  feasibility and weak duality are checked from the returned row
  multipliers ``y``: with reduced costs ``d = c - y A`` the dual
  objective is ``g = y b + sum_j d_j * (lb_j if d_j > 0 else ub_j)``,
  and ``g <= c x`` always (weak duality), so ``|c x - g|`` small proves
  optimality.  Near-zero reduced costs are dropped into an explicit
  allowance instead of being multiplied by a bound.
* **INFEASIBLE** — a Farkas ray ``y`` (``y <= 0`` on the ``<=`` rows)
  aggregates the rows into ``q = y A``; if ``y b`` exceeds the maximum
  of ``q x`` over the variable box, no feasible point can exist.
* **MILP** — the incumbent is replayed against every original
  :class:`~repro.ilp.constraint.Constraint` (not the matrix export, so
  a ``to_arrays`` bug cannot blind both the solver and the checker),
  and the reported objective / best bound / gap are cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.certify.report import Violation
from repro.ilp.solution import SolveStatus
from repro.ilp.tolerances import CERT_EPS, GAP_EPS, MILP_GAP_RTOL

_ZERO = Fraction(0)


@dataclass
class Certificate:
    """Outcome of one independent certificate verification.

    ``status`` is ``"certified"`` (every runnable check passed),
    ``"failed"`` (at least one violation), or ``"skipped"`` (nothing
    could be verified — e.g. an INFEASIBLE verdict with no ray
    attached).  ``checks`` lists what actually ran.
    """

    kind: str
    status: str = "certified"
    checks: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def ran(self, check: str) -> None:
        if check not in self.checks:
            self.checks.append(check)

    def fail(
        self,
        kind: str,
        subject: str,
        detail: str,
        measured: Optional[float] = None,
        expected: Optional[float] = None,
    ) -> None:
        self.status = "failed"
        self.violations.append(Violation(kind, subject, detail, measured, expected))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "status": self.status,
            "checks": list(self.checks),
            "violations": [v.as_dict() for v in self.violations],
            "details": dict(self.details),
        }


def _frac(value: float) -> Fraction:
    """Exact rational of a finite float (callers gate infinities)."""
    return Fraction(float(value))


def _finite(value: float) -> bool:
    return math.isfinite(value)


# ---------------------------------------------------------------------------
# LP certificates
# ---------------------------------------------------------------------------


def certify_lp(
    result,
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    eps: Fraction = CERT_EPS,
) -> Certificate:
    """Verify an :class:`~repro.ilp.compiled.LpResult` against the data
    that produced it.

    OPTIMAL verdicts get a primal-feasibility replay plus (when the
    solve attached duals) a dual-feasibility / weak-duality proof;
    INFEASIBLE verdicts get a Farkas-ray check.  Other statuses are
    unverifiable here and return a ``skipped`` certificate.
    """
    n = len(c)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    if result.status is SolveStatus.OPTIMAL:
        return _certify_optimal(result, c, a_ub, b_ub, a_eq, b_eq, bounds, eps)
    if result.status is SolveStatus.INFEASIBLE:
        return _certify_infeasible(result, c, a_ub, b_ub, a_eq, b_eq, bounds, eps)
    cert = Certificate(kind="lp-other", status="skipped")
    cert.details["reason"] = f"status {result.status.value} carries no certificate"
    return cert


def _certify_optimal(
    result,
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    eps: Fraction,
) -> Certificate:
    cert = Certificate(kind="lp-optimal")
    x = [_frac(v) for v in result.x]
    cF = [_frac(v) for v in c]

    # Primal feasibility, exact row replay with a relative slack that
    # scales with the row's own magnitude (cancellation-aware).
    cert.ran("primal-feasibility")
    for label, mat, rhs, is_eq in (
        ("ub", a_ub, b_ub, False),
        ("eq", a_eq, b_eq, True),
    ):
        for i in range(mat.shape[0]):
            lhs = _ZERO
            mass = Fraction(1)
            for j in range(len(x)):
                if mat[i, j] != 0.0:
                    term = _frac(mat[i, j]) * x[j]
                    lhs += term
                    mass += abs(term)
            b_i = _frac(rhs[i])
            tol = eps * (mass + abs(b_i))
            resid = abs(lhs - b_i) if is_eq else lhs - b_i
            if resid > tol:
                cert.fail(
                    "lp-primal-infeasible",
                    f"{label}-row {i}",
                    "replayed row violates its right-hand side",
                    measured=float(lhs),
                    expected=float(b_i),
                )

    cert.ran("bounds")
    for j, (lo, hi) in enumerate(bounds):
        scale = eps * (1 + abs(x[j]))
        if _finite(lo) and x[j] < _frac(lo) - scale:
            cert.fail(
                "lp-bound-violated", f"x[{j}]",
                "value below its lower bound",
                measured=float(x[j]), expected=lo,
            )
        if _finite(hi) and x[j] > _frac(hi) + scale:
            cert.fail(
                "lp-bound-violated", f"x[{j}]",
                "value above its upper bound",
                measured=float(x[j]), expected=hi,
            )

    cert.ran("objective-report")
    cx = sum((cF[j] * x[j] for j in range(len(x))), _ZERO)
    reported = _frac(result.objective)
    if abs(cx - reported) > eps * (1 + abs(cx)):
        cert.fail(
            "lp-objective-mismatch", "objective",
            "reported optimum differs from the replayed c @ x",
            measured=float(reported), expected=float(cx),
        )

    if result.duals is None:
        cert.details["dual"] = "no multipliers attached; primal-only certificate"
        return cert

    y = [_frac(v) for v in result.duals]
    m_ub = a_ub.shape[0]

    # Dual sign: inequality-row multipliers must price <= rows, i.e.
    # y_i <= 0 in this minimize convention (tiny positives are noise).
    cert.ran("dual-sign")
    for i in range(m_ub):
        if y[i] > eps:
            cert.fail(
                "lp-dual-sign", f"ub-row {i}",
                "inequality multiplier has the wrong sign",
                measured=float(y[i]), expected=0.0,
            )
        elif y[i] > _ZERO:
            y[i] = _ZERO

    # Reduced costs d = c - y A, then the weak-duality bound
    # g = y b + sum_j d_j * (lb if d_j > 0 else ub) <= c x.  A near-zero
    # reduced cost contributes an explicit allowance (|d_j| times the
    # variable's reach) instead of poisoning g through a huge bound.
    cert.ran("dual-feasibility")
    cert.ran("weak-duality-gap")
    g = _ZERO
    for i in range(m_ub):
        g += y[i] * _frac(b_ub[i])
    for k in range(a_eq.shape[0]):
        g += y[m_ub + k] * _frac(b_eq[k])
    allowance = _ZERO
    for j in range(len(x)):
        d = cF[j]
        for i in range(m_ub):
            if a_ub[i, j] != 0.0:
                d -= y[i] * _frac(a_ub[i, j])
        for k in range(a_eq.shape[0]):
            if a_eq[k, j] != 0.0:
                d -= y[m_ub + k] * _frac(a_eq[k, j])
        lo, hi = bounds[j]
        reach = max(
            abs(_frac(lo)) if _finite(lo) else _ZERO,
            abs(_frac(hi)) if _finite(hi) else _ZERO,
            abs(x[j]),
            Fraction(1),
        )
        if abs(d) <= eps:
            allowance += abs(d) * reach
        elif d > _ZERO:
            if not _finite(lo):
                cert.fail(
                    "lp-dual-infeasible", f"x[{j}]",
                    "positive reduced cost on a variable with no lower bound",
                    measured=float(d),
                )
                return cert
            g += d * _frac(lo)
        else:
            if not _finite(hi):
                cert.fail(
                    "lp-dual-infeasible", f"x[{j}]",
                    "negative reduced cost on a variable with no upper bound",
                    measured=float(d),
                )
                return cert
            g += d * _frac(hi)
    gap = abs(cx - g)
    cert.details["duality_gap"] = float(gap)
    if gap > eps * (1 + abs(cx)) + allowance:
        cert.fail(
            "lp-duality-gap", "objective",
            "primal and dual objectives disagree beyond tolerance",
            measured=float(g), expected=float(cx),
        )
    return cert


def _certify_infeasible(
    result,
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    eps: Fraction,
) -> Certificate:
    cert = Certificate(kind="lp-infeasible")

    # An empty box needs no ray.
    cert.ran("trivial-bounds")
    for j, (lo, hi) in enumerate(bounds):
        if lo > hi:
            cert.details["reason"] = f"empty bound box on x[{j}]"
            return cert

    if result.farkas is None:
        cert.status = "skipped"
        cert.details["reason"] = "no Farkas ray attached to the INFEASIBLE verdict"
        return cert

    y = [_frac(v) for v in result.farkas]
    m_ub = a_ub.shape[0]

    cert.ran("farkas-sign")
    for i in range(m_ub):
        if y[i] > eps:
            cert.fail(
                "lp-farkas-sign", f"ub-row {i}",
                "Farkas multiplier on a <= row must be nonpositive",
                measured=float(y[i]), expected=0.0,
            )
            return cert
        if y[i] > _ZERO:
            y[i] = _ZERO
    bound_ray: List[Tuple[int, Fraction]] = []
    for j, mu_f in result.farkas_bounds or []:
        mu = _frac(mu_f)
        if mu > eps:
            cert.fail(
                "lp-farkas-sign", f"bound-row x[{j}]",
                "Farkas multiplier on an upper-bound row must be nonpositive",
                measured=float(mu), expected=0.0,
            )
            return cert
        bound_ray.append((j, min(mu, _ZERO)))

    # Aggregate: with y <= 0 on <= rows, any feasible x satisfies
    # q x >= y b where q = y A.  If max_{box} q x < y b, no x exists.
    cert.ran("farkas-margin")
    yb = _ZERO
    for i in range(m_ub):
        yb += y[i] * _frac(b_ub[i])
    for k in range(a_eq.shape[0]):
        yb += y[m_ub + k] * _frac(b_eq[k])
    q = [_ZERO] * len(bounds)
    for j in range(len(bounds)):
        acc = _ZERO
        for i in range(m_ub):
            if a_ub[i, j] != 0.0:
                acc += y[i] * _frac(a_ub[i, j])
        for k in range(a_eq.shape[0]):
            if a_eq[k, j] != 0.0:
                acc += y[m_ub + k] * _frac(a_eq[k, j])
        q[j] = acc
    for j, mu in bound_ray:
        q[j] += mu
        yb += mu * _frac(bounds[j][1])

    upper = _ZERO
    allowance = _ZERO
    for j, (lo, hi) in enumerate(bounds):
        reach = max(
            abs(_frac(lo)) if _finite(lo) else _ZERO,
            abs(_frac(hi)) if _finite(hi) else _ZERO,
            Fraction(1),
        )
        if abs(q[j]) <= eps:
            allowance += abs(q[j]) * reach
            continue
        if q[j] > _ZERO:
            if not _finite(hi):
                cert.fail(
                    "lp-farkas-unbounded", f"x[{j}]",
                    "ray needs an upper bound the variable does not have",
                    measured=float(q[j]),
                )
                return cert
            upper += q[j] * _frac(hi)
        else:
            if not _finite(lo):
                cert.fail(
                    "lp-farkas-unbounded", f"x[{j}]",
                    "ray needs a lower bound the variable does not have",
                    measured=float(q[j]),
                )
                return cert
            upper += q[j] * _frac(lo)
    margin = yb - upper
    cert.details["farkas_margin"] = float(margin)
    if margin <= allowance:
        cert.fail(
            "lp-farkas-weak", "ray",
            "Farkas ray does not separate the right-hand side from the box",
            measured=float(margin), expected=float(allowance),
        )
    return cert


# ---------------------------------------------------------------------------
# MILP certificates
# ---------------------------------------------------------------------------


def certify_solution(model, solution, eps: Fraction = CERT_EPS) -> Certificate:
    """Replay a MILP :class:`~repro.ilp.solution.Solution` against the
    original :class:`~repro.ilp.model.Model`, exactly.

    Works at the :class:`Constraint` level (the model's row views,
    never ``Model.to_arrays``), so a matrix-export bug cannot blind
    both the solver and this check.  Also audits the reported objective and —
    when the backend published one — the claimed best bound / gap.
    """
    from repro.ilp.model import ObjectiveSense

    cert = Certificate(kind="milp")
    if not solution.status.has_solution:
        cert.status = "skipped"
        cert.details["reason"] = f"status {solution.status.value} has no incumbent"
        return cert

    values = {var: _frac(solution.values.get(var, 0.0)) for var in model.variables}

    cert.ran("milp-bounds")
    cert.ran("milp-integrality")
    for var in model.variables:
        val = values[var]
        scale = eps * (1 + abs(val))
        if _finite(var.lb) and val < _frac(var.lb) - scale:
            cert.fail(
                "milp-bound", var.name, "value below its lower bound",
                measured=float(val), expected=var.lb,
            )
        if _finite(var.ub) and val > _frac(var.ub) + scale:
            cert.fail(
                "milp-bound", var.name, "value above its upper bound",
                measured=float(val), expected=var.ub,
            )
        if var.vtype.is_integral:
            nearest = Fraction(round(val))
            if abs(val - nearest) > eps:
                cert.fail(
                    "milp-integrality", var.name,
                    "integer variable carries a fractional value",
                    measured=float(val), expected=float(nearest),
                )

    cert.ran("milp-constraints")
    from repro.ilp.constraint import Sense

    for idx, con in enumerate(model.constraints):
        lhs = _ZERO
        mass = Fraction(1)
        for var, coef in con.expr.terms.items():
            term = _frac(coef) * values[var]
            lhs += term
            mass += abs(term)
        rhs = _frac(con.rhs)
        tol = eps * (mass + abs(rhs))
        if con.sense is Sense.LE:
            bad = lhs - rhs > tol
        elif con.sense is Sense.GE:
            bad = rhs - lhs > tol
        else:
            bad = abs(lhs - rhs) > tol
        if bad:
            cert.fail(
                "milp-constraint", con.name or f"constraint {idx}",
                "replayed incumbent violates this row",
                measured=float(lhs), expected=float(rhs),
            )

    cert.ran("milp-objective")
    obj = _frac(model.objective.constant)
    for var, coef in model.objective.terms.items():
        obj += _frac(coef) * values[var]
    reported = _frac(solution.objective)
    if abs(obj - reported) > eps * (1 + abs(obj)):
        cert.fail(
            "milp-objective", "objective",
            "reported objective differs from the replayed incumbent value",
            measured=float(reported), expected=float(obj),
        )

    # Gap audit: the claimed best bound must not beat the (replayed)
    # incumbent, and an OPTIMAL verdict must actually close the gap.
    obj_min = obj if model.objective_sense is ObjectiveSense.MINIMIZE else -obj
    best_bound = solution.stats.get(
        "best_bound", solution.stats.get("mip_dual_bound")
    )
    if best_bound is not None and _finite(best_bound):
        cert.ran("milp-gap")
        slack = MILP_GAP_RTOL * (1.0 + abs(float(obj_min)))
        if float(best_bound) > float(obj_min) + slack:
            cert.fail(
                "milp-bound-invalid", "best_bound",
                "claimed lower bound exceeds the replayed incumbent",
                measured=float(best_bound), expected=float(obj_min),
            )
        if solution.status is SolveStatus.OPTIMAL:
            gap_cap = solution.stats.get(
                "absolute_gap", solution.stats.get("mip_gap", GAP_EPS)
            )
            if float(obj_min) - float(best_bound) > float(gap_cap) + slack:
                cert.fail(
                    "milp-gap-open", "best_bound",
                    "OPTIMAL claimed but the bound leaves a gap",
                    measured=float(obj_min) - float(best_bound),
                    expected=float(gap_cap),
                )
    return cert


def certify_assignment(model, values, eps: Fraction = CERT_EPS) -> "Certificate":
    """Replay a bare variable assignment as a FEASIBLE incumbent.

    The heuristic lanes of the anytime mapper produce assignments
    (``{Var: value}``), not :class:`~repro.ilp.solution.Solution`
    objects; this wraps one — objective evaluated from the model itself,
    never trusted from the producer — and runs the exact MILP replay of
    :func:`certify_solution` on it.  Used to certify every heuristic
    incumbent before it is offered to the branch & bound search
    (DESIGN.md §13).
    """
    from repro.ilp.solution import Solution

    shadow = Solution(
        SolveStatus.FEASIBLE,
        objective=model.objective.evaluate(values),
        values=dict(values),
        backend="assignment-replay",
    )
    return certify_solution(model, shadow, eps=eps)
