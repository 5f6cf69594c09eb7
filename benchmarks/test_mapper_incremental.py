"""Benchmark: incremental refinement bookkeeping vs the naive rebuild.

The windowed mapper's refinement loops used to rebuild the full valve
load map from every placement three times per probe (worst-cell query
plus both sides of the accept test).  The :class:`LoadLedger` replaces
the rebuilds with O(ring) updates; this module proves the two central
claims of that change on the exponential-dilution case (the largest
benchmark assay):

* the bookkeeping itself is at least 2x faster over a realistic
  refinement probe sequence, with **identical** decisions and loads at
  every step;
* the end-to-end windowed mapping still produces byte-identical
  placements and objective to the pre-ledger implementation (frozen in
  ``data/exponential_windowed_expected.json``), and mixing tree's to
  the ``LinExpr``-built mapping model's (frozen in
  ``data/mixing_tree_windowed_expected.json``).

The naive helpers live in ``tests/core/load_reference.py``; run from
the repository root (``python -m pytest benchmarks/...``) so that
``tests`` imports.
"""

import json
import time
from pathlib import Path

import pytest

from repro.assays import get_case, schedule_for
from repro.core.mappers import GreedyMapper, LoadLedger, WindowedILPMapper
from repro.core.mapping_model import MappingSpec
from repro.core.tasks import build_tasks

from tests.core import load_reference

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def exponential_spec():
    case = get_case("exponential_dilution")
    graph = case.graph()
    schedule = schedule_for(case, case.policies(1)[0])
    return MappingSpec(grid=case.grid, tasks=build_tasks(graph, schedule))


@pytest.fixture(scope="module")
def probe_plan(exponential_spec):
    """A deterministic refinement-probe schedule over greedy placements.

    Each probe swaps one window of placements for alternative candidate
    placements, mirroring exactly what one coordinate-descent iteration
    does between solver calls.
    """
    spec = exponential_spec
    ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
    placements = GreedyMapper().map_tasks(spec).placements
    window_size = 5
    probes = []
    for round_index in range(6):
        for lo in range(0, len(ordered), window_size):
            window = ordered[lo : lo + window_size]
            alternatives = {}
            for k, t in enumerate(window):
                candidates = spec.candidate_placements(t)
                pick = (17 * round_index + 13 * (lo + k)) % len(candidates)
                alternatives[t.name] = candidates[pick]
            probes.append((window, alternatives))
    return ordered, placements, probes


def run_naive(spec, ordered, placements, probes):
    """One refinement probe, seed-style: three full load-map rebuilds."""
    placements = dict(placements)
    trace = []
    for window, alternatives in probes:
        discouraged = load_reference.max_load_cells(
            spec, ordered, placements
        )
        saved = {t.name: placements.pop(t.name) for t in window}
        placements.update(alternatives)
        new_obj = load_reference.total_objective(
            spec, ordered, placements
        )
        old_obj = load_reference.total_objective(
            spec, ordered, {**placements, **saved}
        )
        accepted = not new_obj > old_obj
        if not accepted:
            placements.update(saved)
        trace.append((discouraged, accepted))
    final_loads = load_reference.cell_loads(spec, ordered, placements)
    return placements, trace, final_loads


def run_ledger(spec, ordered, placements, probes):
    """The same probes through the incremental ledger."""
    placements = dict(placements)
    ledger = LoadLedger.from_placements(spec, ordered, placements)
    trace = []
    for window, alternatives in probes:
        discouraged = ledger.peak_cells()
        previous_peak = ledger.peak()
        saved = {}
        for t in window:
            saved[t.name] = placements.pop(t.name)
            ledger.remove(t, saved[t.name])
        for t in window:
            placements[t.name] = alternatives[t.name]
            ledger.add(t, alternatives[t.name])
        accepted = not ledger.peak() > previous_peak
        if not accepted:
            for t in window:
                ledger.remove(t, placements[t.name])
                placements[t.name] = saved[t.name]
                ledger.add(t, saved[t.name])
        trace.append((discouraged, accepted))
    return placements, trace, ledger.loads()


class TestIncrementalBookkeeping:
    def test_ledger_matches_naive_and_is_2x_faster(self, exponential_spec, probe_plan):
        spec = exponential_spec
        ordered, placements, probes = probe_plan

        # Warm both paths once (ring/candidate caches, allocator), then
        # time them over the identical probe sequence.
        run_naive(spec, ordered, placements, probes)
        run_ledger(spec, ordered, placements, probes)

        start = time.perf_counter()
        naive_final, naive_trace, naive_loads = run_naive(
            spec, ordered, placements, probes
        )
        naive_seconds = time.perf_counter() - start

        start = time.perf_counter()
        ledger_final, ledger_trace, ledger_loads = run_ledger(
            spec, ordered, placements, probes
        )
        ledger_seconds = time.perf_counter() - start

        # Identical decisions, identical worst-cell queries, identical
        # final state — the speedup changes nothing observable.
        assert ledger_trace == naive_trace
        assert ledger_final == naive_final
        assert ledger_loads == naive_loads

        assert naive_seconds >= 2.0 * ledger_seconds, (
            f"incremental bookkeeping must be at least 2x faster: "
            f"naive {naive_seconds:.4f}s vs ledger {ledger_seconds:.4f}s"
        )

    def test_probe_plan_is_nontrivial(self, probe_plan):
        _, _, probes = probe_plan
        assert len(probes) >= 30


def _assert_frozen(spec, frozen):
    expected = json.loads((DATA / frozen).read_text())
    result = WindowedILPMapper().map_tasks(spec)
    got = {n: str(p) for n, p in sorted(result.placements.items())}
    assert result.objective == expected["objective"]
    assert got == expected["placements"]
    assert [list(p) for p in result.used_overlaps] == expected["overlaps"]
    # The stats channel rides along without changing the result.
    assert result.stats["windows_solved"] > 0
    assert result.stats["whole_problem_fallback"] == 0


class TestEndToEndUnchanged:
    def test_exponential_windowed_mapping_is_byte_identical(self, exponential_spec):
        _assert_frozen(exponential_spec, "exponential_windowed_expected.json")

    def test_mixing_tree_windowed_mapping_is_byte_identical(self):
        case = get_case("mixing_tree")
        schedule = schedule_for(case, case.policies(1)[0])
        spec = MappingSpec(
            grid=case.grid, tasks=build_tasks(case.graph(), schedule)
        )
        _assert_frozen(spec, "mixing_tree_windowed_expected.json")
