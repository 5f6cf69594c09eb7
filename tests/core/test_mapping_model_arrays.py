"""The array mapping-model builder against the reference ``LinExpr`` one.

:class:`repro.core.mapping_model.MappingModelBuilder` writes the rows
of eqs. (1)–(16) straight into the model's coordinate store; the
operator-overloaded transcription it replaced lives on in
:mod:`tests.core.reference_mapping_model`.  Both build every window
cut below — windows of greedy placements of the Table-1 assays and of
fuzzed ones, each with the spec options varied — and must agree on
every ``to_arrays()`` array, on the variables, on every row read back
as a :class:`~repro.ilp.Constraint`, and on :func:`complete_solution`.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.architecture.health import ChipHealth
from repro.assays import get_case, schedule_for
from repro.core.mappers import GreedyMapper, window_subspec
from repro.core.mapping_model import (
    MappingModelBuilder,
    MappingSpec,
    complete_solution,
)
from repro.core.tasks import build_tasks
from repro.geometry import Point

from tests.core import reference_mapping_model as reference

CASES = (
    "pcr",
    "mixing_tree",
    "exponential_dilution",
    "interpolating_dilution",
    "fuzz:1:12",
    "fuzz:2:16",
    "fuzz:5:12",
)
WINDOW = 4


def _greedy(case_name):
    case = get_case(case_name)
    schedule = schedule_for(case, case.policies(1)[0])
    spec = MappingSpec(grid=case.grid, tasks=build_tasks(case.graph(), schedule))
    ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
    return spec, ordered, GreedyMapper().map_tasks(spec).placements


def _windows(case_name):
    """A rolling-horizon window (earlier tasks committed) and a
    refinement window (every other task committed)."""
    spec, ordered, placements = _greedy(case_name)
    mid = max(0, len(ordered) // 2 - WINDOW // 2)
    window = ordered[mid : mid + WINDOW]
    earlier = {t.name: placements[t.name] for t in ordered[:mid]}
    return (
        window_subspec(spec, window, ordered, earlier),
        window_subspec(spec, window, ordered, placements),
        placements,
    )


def _storage_pairs(spec):
    names = {t.name for t in spec.tasks} | set(spec.fixed)
    return {(p, c) for p, c in spec.parent_pairs if p in names and c in names}


def _variants(spec):
    """The spec with each option that changes the model's rows varied."""
    grid = spec.grid
    corner = frozenset(Point(x, y) for x in range(3) for y in range(3))
    ring_cells = sorted(spec.base_load)[:12]
    yield "plain", spec
    yield "discouraged", dataclasses.replace(
        spec, discouraged_cells=frozenset(ring_cells) | {Point(-1, 0)}
    )
    yield "forbidden", dataclasses.replace(
        spec, forbidden_overlaps=_storage_pairs(spec)
    )
    yield "no_storage", dataclasses.replace(spec, allow_storage_overlap=False)
    yield "no_routing", dataclasses.replace(spec, routing_convenient=False)
    yield "distance", dataclasses.replace(spec, distance_limit=3)
    yield "stride", dataclasses.replace(spec, anchor_stride=2)
    yield "health", dataclasses.replace(
        spec,
        health=ChipHealth().kill_cells(
            [Point(grid.width // 2, grid.height // 2), Point(1, grid.height - 2)]
        ),
    )
    # A committed load on cells no window candidate can pump on: the
    # committed-only residual row bounds w.
    yield "residual", dataclasses.replace(
        spec,
        blocked_cells=corner,
        base_load={**spec.base_load, Point(1, 1): 999},
    )


def _assert_same_model(built, ref):
    got, want = built.model, ref.model
    for mine, theirs in zip(got.to_arrays(), want.to_arrays()):
        if isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        else:
            assert mine == theirs
    assert [
        (v.name, v.index, v.lb, v.ub, v.vtype) for v in got.variables
    ] == [(v.name, v.index, v.lb, v.ub, v.vtype) for v in want.variables]
    assert got.objective_sense == want.objective_sense

    def by_index(expr):
        return {var.index: coef for var, coef in expr.terms.items()}

    assert by_index(got.objective) == by_index(want.objective)
    assert got.num_constrs == want.num_constrs
    for mine, theirs in zip(got.constraints, want.constraints):
        assert (mine.name, mine.sense, mine.rhs) == (
            theirs.name, theirs.sense, theirs.rhs
        )
        assert by_index(mine.expr) == by_index(theirs.expr), mine.name
    assert [
        (p, v.index) for options in built.selections.values() for p, v in options
    ] == [(p, v.index) for options in ref.selections.values() for p, v in options]
    assert {k: v.index for k, v in built.c5_vars.items()} == {
        k: v.index for k, v in ref.c5_vars.items()
    }


def _assert_same_completion(built, ref, spec, placements, seed):
    """Random candidate assignments, the greedy one and broken ones."""
    rng = random.Random(seed)
    trials = [{t.name: placements[t.name] for t in spec.tasks}]
    for _ in range(8):
        trials.append({
            t.name: rng.choice(spec.candidate_placements(t)) for t in spec.tasks
        })
    missing = dict(trials[-1])
    missing.pop(spec.tasks[0].name)
    trials.append(missing)
    stranger = dict(trials[-2])
    outside = next(
        (p for p in placements.values()
         if p not in spec.candidate_placements(spec.tasks[0])),
        None,
    )
    if outside is not None:
        stranger[spec.tasks[0].name] = outside
        trials.append(stranger)
    for trial in trials:
        mine = complete_solution(built, trial)
        theirs = reference.complete_solution(ref, trial)
        if theirs is None:
            assert mine is None
            continue
        assert mine is not None
        assert {v.index: x for v, x in mine.items()} == {
            v.index: x for v, x in theirs.items()
        }


@pytest.mark.parametrize("case_name", CASES)
def test_array_builder_matches_reference(case_name):
    rolling, refining, placements = _windows(case_name)
    seen = set()
    for which, window_spec in (("rolling", rolling), ("refining", refining)):
        variants = _variants(window_spec) if which == "refining" else [
            ("plain", window_spec)
        ]
        for seed, (label, spec) in enumerate(variants):
            built = MappingModelBuilder(spec).build()
            ref = reference.MappingModelBuilder(spec).build()
            _assert_same_model(built, ref)
            _assert_same_completion(built, ref, spec, placements, seed)
            seen.update(
                con.name.split("[")[0] for con in built.model.constraints
            )
            if label == "residual":
                assert any(
                    con.name == "load[committed]"
                    for con in built.model.constraints
                )
    assert {"one_device", "load", "no_overlap", "near"} <= seen


def test_constraint_views_follow_added_rows():
    """Rows added after the views were read show up in the next read."""
    rolling, _, _ = _windows("pcr")
    model = MappingModelBuilder(rolling).build().model
    before = len(model.constraints)
    w = model.variables[0]
    model.add_constr(w <= 10_000, name="cap")
    assert len(model.constraints) == before + 1 == model.num_constrs
    assert model.constraints[-1].name == "cap"
