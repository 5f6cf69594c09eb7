"""The incremental LoadLedger must match the naive rebuild exactly.

The windowed mapper's refinement loops trust the ledger for every
accept/revert decision; any divergence from the from-scratch helpers
(:mod:`tests.core.load_reference`) would silently
change which placements survive refinement.  These tests drive the
ledger through add/remove churn and diff it against the naive oracle
after every step.
"""

import pytest

from repro.geometry import GridSpec, Point
from repro.core.mappers import (
    GreedyMapper,
    LoadLedger,
    WindowedILPMapper,
)
from repro.core.mapping_model import MappingSpec
from repro.core.tasks import MappingTask

from tests.core import load_reference


def task(name, start, end, volume=8, pump_rate=40):
    return MappingTask(
        name=name,
        volume=volume,
        pump_rate=pump_rate,
        start=start,
        mix_start=start,
        end=end,
        mix_parents=(),
    )


@pytest.fixture
def spec():
    # Mixed rates and staggered lifetimes so rings overlap partially.
    tasks = [
        task("m0", 0, 4, pump_rate=40),
        task("m1", 2, 8, pump_rate=30),
        task("m2", 5, 11, pump_rate=40),
        task("m3", 9, 14, volume=4, pump_rate=20),
        task("m4", 12, 18, pump_rate=40),
    ]
    return MappingSpec(GridSpec(9, 9), tasks)


@pytest.fixture
def mapped(spec):
    result = GreedyMapper().map_tasks(spec)
    ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
    return ordered, result.placements


def assert_matches_oracle(ledger, spec, ordered, placements):
    naive = load_reference.cell_loads(spec, ordered, placements)
    assert ledger.loads() == naive
    assert ledger.measure() == load_reference.load_measure(
        spec, ordered, placements
    )
    assert ledger.peak_cells() == load_reference.max_load_cells(
        spec, ordered, placements
    )
    assert ledger.peak() == max(naive.values(), default=0)


class TestAgainstNaiveRebuild:
    def test_from_placements_matches(self, spec, mapped):
        ordered, placements = mapped
        ledger = LoadLedger.from_placements(spec, ordered, placements)
        assert_matches_oracle(ledger, spec, ordered, placements)

    def test_matches_through_remove_add_churn(self, spec, mapped):
        ordered, placements = mapped
        placements = dict(placements)
        ledger = LoadLedger.from_placements(spec, ordered, placements)
        # Walk every task through every candidate placement, checking
        # the ledger against the oracle after each move.
        for t in ordered:
            candidates = spec.candidate_placements(t)
            for replacement in candidates[::7]:
                ledger.remove(t, placements.pop(t.name))
                assert_matches_oracle(ledger, spec, ordered, placements)
                placements[t.name] = replacement
                ledger.add(t, replacement)
                assert_matches_oracle(ledger, spec, ordered, placements)

    def test_remove_all_returns_to_base(self, spec, mapped):
        ordered, placements = mapped
        base = {Point(0, 0): 7, Point(3, 3): 0}
        ledger = LoadLedger(base)
        for t in ordered:
            ledger.add(t, placements[t.name])
        for t in ordered:
            ledger.remove(t, placements[t.name])
        # Exact dict equality: zero-valued cells outside the base load
        # must be dropped, base entries (even zero ones) must survive.
        assert ledger.loads() == base
        assert ledger.peak() == 7

    def test_empty_ledger(self):
        ledger = LoadLedger({})
        assert ledger.peak() == 0
        assert ledger.measure() == (0, 0)
        assert ledger.peak_cells() == frozenset()
        assert ledger.loads() == {}


class TestWorstValveEquivalence:
    def test_min_peak_cell_is_the_oracle_worst_valve(self, spec, mapped):
        # The refinement loop replaced _tasks_on_worst_valve with
        # "tasks covering min(peak_cells)" — same cell, same culprits.
        ordered, placements = mapped
        ledger = LoadLedger.from_placements(spec, ordered, placements)
        oracle = load_reference.tasks_on_worst_valve(
            spec, ordered, placements
        )
        worst = min(ledger.peak_cells())
        mine = [
            t for t in ordered if worst in placements[t.name].pump_cells()
        ]
        assert [t.name for t in mine] == [t.name for t in oracle]


class TestMapperStats:
    def test_windowed_result_carries_stats(self, spec):
        result = WindowedILPMapper(window_size=2, refine_passes=1).map_tasks(
            spec
        )
        for key in (
            "windows_solved",
            "window_seconds",
            "greedy_windows",
            "refine_probes",
            "refine_accepted",
            "refine_rejected",
            "targeted_rounds",
        ):
            assert key in result.stats
        assert result.stats["windows_solved"] >= 3
        assert result.stats["window_seconds"] > 0.0

    def test_greedy_result_carries_stats(self, spec):
        result = GreedyMapper().map_tasks(spec)
        assert result.stats["candidates_scanned"] >= len(spec.tasks)
