"""Regression pins for LoadLedger vs. the from-scratch rebuild.

The PR-5 certification sweep audited the incremental
:class:`~repro.core.mappers.LoadLedger` against
the naive rebuild (:func:`tests.core.load_reference.cell_loads`) and
found one divergence: a
zero-pump-rate task used to leave explicit load-0 entries in the
rebuild but none in the ledger (and could flip ``measure()`` when the
peak was 0).  Both sides now agree that a zero-rate contribution leaves
no trace; these tests pin that, plus base-load and churn behavior the
design auditor (:mod:`repro.certify.audit`) relies on.
"""

from __future__ import annotations

import pytest

from repro.geometry import GridSpec, Point
from repro.core.mappers import LoadLedger
from repro.core.mapping_model import MappingSpec
from repro.core.tasks import MappingTask
from repro.architecture.device_types import device_type
from repro.architecture.device import Placement

from tests.core import load_reference


def _task(name, pump_rate, start=0, end=4):
    return MappingTask(
        name=name,
        volume=8,
        pump_rate=pump_rate,
        start=start,
        mix_start=start,
        end=end,
        mix_parents=(),
    )


def _placement(x, y, w=3, h=3):
    return Placement(device_type(w, h), Point(x, y))


def _oracle(spec, ordered, placements):
    return load_reference.cell_loads(spec, ordered, placements)


def test_zero_rate_task_leaves_no_trace() -> None:
    """The drift the sweep found: zero-rate == absent, on both sides."""
    spec = MappingSpec(GridSpec(9, 9), [])
    zero = _task("z", pump_rate=0)
    loaded = _task("m", pump_rate=40)
    placements = {"z": _placement(0, 0), "m": _placement(4, 4)}
    ordered = [zero, loaded]

    ledger = LoadLedger.from_placements(spec, ordered, placements)
    naive = _oracle(spec, ordered, placements)
    assert ledger.loads() == naive
    assert all(cell not in naive for cell in placements["z"].pump_cells()
               if cell not in placements["m"].pump_cells())
    # Removing the zero-rate task is also a no-op.
    ledger.remove(zero, placements["z"])
    assert ledger.loads() == naive


def test_zero_rate_only_ledger_measures_empty() -> None:
    spec = MappingSpec(GridSpec(9, 9), [])
    zero = _task("z", pump_rate=0)
    placements = {"z": _placement(0, 0)}
    ledger = LoadLedger.from_placements(spec, [zero], placements)
    naive = _oracle(spec, [zero], placements)
    assert ledger.loads() == naive == {}
    assert ledger.measure() == (0, 0)
    assert ledger.peak_cells() == frozenset()


def test_base_load_cells_survive_return_to_base() -> None:
    """Base cells stay present even when task churn cancels out."""
    base = {Point(2, 2): 7, Point(5, 5): 0}
    spec = MappingSpec(GridSpec(9, 9), [], base_load=base)
    t = _task("m", pump_rate=40)
    p = _placement(2, 2)
    ledger = LoadLedger(spec.base_load)
    ledger.add(t, p)
    ledger.remove(t, p)
    assert ledger.loads() == _oracle(spec, [t], {}) == base
    assert ledger.peak() == 7


def test_interleaved_churn_matches_oracle() -> None:
    """Overlapping rings, adds and removes in adversarial order."""
    spec = MappingSpec(GridSpec(12, 12), [])
    tasks = [
        _task("a", 40), _task("b", 30), _task("c", 20), _task("d", 40),
    ]
    placements = {
        "a": _placement(0, 0),
        "b": _placement(2, 2),   # overlaps a's ring corner
        "c": _placement(2, 0, 4, 2),
        "d": _placement(8, 8),   # disjoint
    }
    ledger = LoadLedger({})
    live = []
    script = [
        ("add", "a"), ("add", "b"), ("add", "c"),
        ("remove", "b"), ("add", "d"), ("add", "b"),
        ("remove", "a"), ("remove", "c"), ("add", "a"), ("add", "c"),
    ]
    by_name = {t.name: t for t in tasks}
    for op, name in script:
        task = by_name[name]
        if op == "add":
            ledger.add(task, placements[name])
            live.append(task)
        else:
            ledger.remove(task, placements[name])
            live.remove(task)
        want = _oracle(spec, live, placements)
        assert ledger.loads() == want, (op, name)
        assert ledger.peak() == max(want.values(), default=0), (op, name)
        peak_cells = {
            c for c, v in want.items()
            if v == max(want.values(), default=0)
        } if want else set()
        assert ledger.peak_cells() == frozenset(peak_cells), (op, name)


def test_from_placements_skips_unplaced_tasks() -> None:
    spec = MappingSpec(GridSpec(9, 9), [])
    tasks = [_task("a", 40), _task("ghost", 30)]
    placements = {"a": _placement(1, 1)}
    ledger = LoadLedger.from_placements(spec, tasks, placements)
    assert ledger.loads() == _oracle(spec, tasks, placements)
    assert ledger.peak() == 40
