"""Geometric-mean equilibration of the compiled simplex engine.

Scaling is opt-in (``CompiledModel(..., scale=True)``); these tests pin
that it changes *conditioning only*: statuses, objectives and solutions
must agree with the unscaled engine, including on badly scaled data
where raw pivots are most fragile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp.compiled import CompiledModel
from repro.ilp.model import Model
from repro.ilp.solution import SolveStatus


def _both(c, a_ub, b_ub, a_eq, b_eq, bounds, want_duals=False):
    plain = CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(
        bounds, want_duals=want_duals
    )
    scaled = CompiledModel(c, a_ub, b_ub, a_eq, b_eq, scale=True).solve(
        bounds, want_duals=want_duals
    )
    return plain, scaled


def test_scaled_solve_matches_plain_on_random_lps() -> None:
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, m = 5, 4
        c = rng.uniform(-3, 3, n)
        a_ub = rng.uniform(-2, 2, (m, n))
        b_ub = rng.uniform(0.5, 3.0, m)
        bounds = [(0.0, 2.0)] * n
        plain, scaled = _both(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), bounds)
        assert plain.status is scaled.status is SolveStatus.OPTIMAL
        assert scaled.objective == pytest.approx(plain.objective, abs=1e-7)


def test_scaling_fixes_badly_scaled_instance() -> None:
    """Coefficients spanning 10 orders of magnitude still solve right."""
    c = np.array([-1e6, -1e-4])
    a_ub = np.array([[1e6, 1e-4], [1e5, 1e-5]])
    b_ub = np.array([1e6, 1e5])
    bounds = [(0.0, 2.0), (0.0, 1e5)]
    plain, scaled = _both(
        c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), bounds, want_duals=True
    )
    assert scaled.status is SolveStatus.OPTIMAL
    assert scaled.objective == pytest.approx(plain.objective, rel=1e-6)
    # Duals come back in the caller's (unscaled) row units.
    assert scaled.duals is not None
    from repro.certify.lp import certify_lp

    cert = certify_lp(
        scaled, c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), bounds
    )
    assert cert.ok, [str(v) for v in cert.violations]


def test_scaling_preserves_infeasibility_verdict() -> None:
    c = np.array([1.0, 1.0])
    a_ub = np.array([[1e4, 1e4], [-1e-3, -1e-3]])
    b_ub = np.array([1e4, -3e-3])  # x + y <= 1 and x + y >= 3, rescaled
    bounds = [(0.0, 10.0)] * 2
    plain, scaled = _both(
        c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), bounds, want_duals=True
    )
    assert plain.status is scaled.status is SolveStatus.INFEASIBLE


def test_branch_bound_lp_scaling_agrees() -> None:
    from repro.ilp.branch_bound import solve_branch_bound

    from repro.ilp import quicksum

    def build():
        model = Model("knapsack")
        xs = [model.add_binary(f"x{i}") for i in range(6)]
        weights = [3, 5, 7, 4, 6, 2]
        values = [4, 7, 9, 5, 8, 3]
        model.add_constr(
            quicksum(w * x for w, x in zip(weights, xs)) <= 13
        )
        model.maximize(quicksum(v * x for v, x in zip(values, xs)))
        return model

    base = solve_branch_bound(build())
    scaled = solve_branch_bound(
        build(), lp_scaling=True
    )
    assert base.status is scaled.status is SolveStatus.OPTIMAL
    assert scaled.objective == pytest.approx(base.objective)


def test_warm_start_still_works_with_scaling() -> None:
    c = np.array([-1.0, -2.0, -0.5])
    a_ub = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 1.0]])
    b_ub = np.array([4.0, 5.0])
    compiled = CompiledModel(c, a_ub, b_ub, np.zeros((0, 3)), np.zeros(0), scale=True)
    bounds = [(0.0, 3.0)] * 3
    parent = compiled.solve(bounds)
    assert parent.status is SolveStatus.OPTIMAL
    child = compiled.solve(
        [(0.0, 1.0), (0.0, 3.0), (0.0, 3.0)], basis=parent.basis
    )
    assert child.status is SolveStatus.OPTIMAL
    reference = CompiledModel(
        c, a_ub, b_ub, np.zeros((0, 3)), np.zeros(0)
    ).solve([(0.0, 1.0), (0.0, 3.0), (0.0, 3.0)])
    assert child.objective == pytest.approx(reference.objective)
