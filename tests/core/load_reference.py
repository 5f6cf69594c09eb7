"""Naive rebuild-from-scratch load helpers: the semantics LoadLedger keeps.

The windowed mapper's refinement loops track pump loads incrementally
through :class:`repro.core.mappers.LoadLedger`; these helpers rebuild
the same figures from every placement on each call.  The ledger tests
and the incremental-bookkeeping benchmark diff the two.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.architecture.device import Placement
from repro.core.mapping_model import MappingSpec
from repro.core.tasks import MappingTask
from repro.geometry import Point


def cell_loads(
    spec: MappingSpec,
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
) -> Dict[Point, int]:
    """Base load plus every placed, pumping task's rate on its ring."""
    load: Dict[Point, int] = dict(spec.base_load)
    for task in ordered:
        placement = placements.get(task.name)
        if placement is None or task.pump_rate == 0:
            continue
        for cell in placement.pump_cells():
            load[cell] = load.get(cell, 0) + task.pump_rate
    return load


def load_measure(
    spec: MappingSpec,
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
) -> Tuple[int, int]:
    """(max load, #valves at the max) — lexicographic progress."""
    load = cell_loads(spec, ordered, placements)
    if not load:
        return (0, 0)
    peak = max(load.values())
    return (peak, sum(1 for v in load.values() if v == peak))


def max_load_cells(
    spec: MappingSpec,
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
) -> frozenset:
    """The valves at the maximum load."""
    load = cell_loads(spec, ordered, placements)
    if not load:
        return frozenset()
    peak = max(load.values())
    return frozenset(c for c, v in load.items() if v == peak)


def tasks_on_worst_valve(
    spec: MappingSpec,
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
) -> List[MappingTask]:
    """Tasks whose pump rings cover the most-loaded valve."""
    load: Dict[Point, int] = dict(spec.base_load)
    for task in ordered:
        for cell in placements[task.name].pump_cells():
            load[cell] = load.get(cell, 0) + task.pump_rate
    if not load:
        return []
    worst_cell = max(sorted(load), key=lambda c: load[c])
    return [
        task
        for task in ordered
        if worst_cell in placements[task.name].pump_cells()
    ]


def total_objective(
    spec: MappingSpec,
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
) -> int:
    """The peak load with every task placed."""
    load: Dict[Point, int] = dict(spec.base_load)
    for task in ordered:
        for cell in placements[task.name].pump_cells():
            load[cell] = load.get(cell, 0) + task.pump_rate
    return max(load.values(), default=0)
