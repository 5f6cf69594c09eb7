"""Mappers: solve the dynamic-device mapping problem.

Three interchangeable engines (see DESIGN.md §3.2):

* :class:`ILPMapper` — the paper's monolithic ILP, solved exactly.
  Used for small cases (PCR-scale) and as the ground truth in tests.
* :class:`WindowedILPMapper` — rolling horizon: operations are
  processed in start-time order in windows; each window solves the
  *same* ILP with earlier placements committed as constants.  This is
  the default for the larger benchmark assays, where the monolithic
  model is out of reach for an open-source MIP stack.
* :class:`GreedyMapper` — a fast deterministic balancer: each operation
  takes the feasible placement minimizing the resulting maximum valve
  load.  Serves as a lower baseline and as the fallback when a window
  turns out infeasible.

Refinement bookkeeping is incremental: a :class:`LoadLedger` keeps the
per-valve load map, the peak and the peak-cell set in sync with the
current placements in O(ring) per change, instead of rebuilding the
whole map from every placement on every probe.  The naive rebuild
helpers are kept as reference implementations; tests and the benchmark
suite assert the ledger matches them exactly.

Every mapper fills :attr:`MappingResult.stats` with solve telemetry
(window solve time, greedy fallbacks, refinement accept/reject tallies)
and mirrors it into :mod:`repro.obs` when telemetry is enabled.

Failure handling follows the degradation ladder (DESIGN.md §9): a
window whose ILP solve fails is split in half and re-solved exactly
(``window_shrink``), then falls back to the greedy balancer for that
window only (``window_greedy``); an expired mapping deadline finishes
the remaining tasks greedily and skips refinement
(``deadline_greedy``).  Every mapper accepts an
optional :class:`repro.resilience.Deadline` (propagated into solver
time limits) and :class:`repro.resilience.DegradationLadder` (which
records the rungs taken).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SolverError, SynthesisError, WorkerCrashError
from repro.geometry import Point
from repro.architecture.device import Placement
from repro.ilp.solution import SolveStatus
from repro.obs import TELEMETRY
from repro.resilience import Deadline, DegradationLadder
from repro.core.mapping_model import MappingModelBuilder, MappingSpec, Pair
from repro.core.tasks import MappingTask

def _solve_spec_job(payload):
    """Supervised-worker entry point: one exact solve of a full spec.

    Top-level and picklable.  The worker's mapper gets no journal and
    no supervisor (no recursive supervision, no journal writes from
    children — the parent records the result it receives);
    deterministic failures propagate back as exceptions through the
    supervisor's result channel.
    """
    spec, backend, limit, solver_kwargs = payload
    return ILPMapper(
        backend=backend, time_limit=limit, **solver_kwargs
    ).map_tasks(spec)


@dataclass
class MappingResult:
    """Placements for every task plus solve diagnostics."""

    placements: Dict[str, Placement]
    objective: int  # max pump load achieved (setting-1 rates)
    mapper: str
    used_overlaps: List[Pair] = field(default_factory=list)
    wall_time: float = 0.0
    optimal: bool = False
    #: solve telemetry: window solve seconds, greedy fallback count,
    #: refinement accept/reject tallies, ... (mapper-specific keys).
    stats: Dict[str, float] = field(default_factory=dict)

    def rect_of(self, name: str):
        return self.placements[name].rect


class LoadLedger:
    """Incremental per-valve pump-load bookkeeping.

    Maintains exactly the map a from-scratch rebuild gives — the
    spec's base load plus every placed task's pump rate on its ring —
    but updated in O(ring) on :meth:`add`/:meth:`remove`.  Cells are
    bucketed by load level, so ``peak()`` costs O(distinct levels) and
    ``peak_cells()`` O(|cells at the peak|) instead of a full-map scan.
    """

    __slots__ = ("_base", "_load", "_levels")

    def __init__(self, base_load: Dict[Point, int]) -> None:
        self._base = frozenset(base_load)
        self._load: Dict[Point, int] = dict(base_load)
        self._levels: Dict[int, set] = {}
        for cell, level in self._load.items():
            self._levels.setdefault(level, set()).add(cell)

    @classmethod
    def from_placements(
        cls,
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> "LoadLedger":
        ledger = cls(spec.base_load)
        for task in ordered:
            placement = placements.get(task.name)
            if placement is not None:
                ledger.add(task, placement)
        return ledger

    # -- updates ---------------------------------------------------------

    def add(self, task: MappingTask, placement: Placement) -> None:
        self._shift(placement.pump_cells(), task.pump_rate)

    def remove(self, task: MappingTask, placement: Placement) -> None:
        self._shift(placement.pump_cells(), -task.pump_rate)

    def _shift(self, cells: Iterable[Point], delta: int) -> None:
        if delta == 0:
            # A zero-rate contribution must leave no trace, exactly like
            # the from-scratch rebuild (which also skips it) — otherwise
            # add/remove churn and the rebuild disagree on which cells
            # exist at load 0 (see tests/core/test_ledger_consistency.py).
            return
        load, levels = self._load, self._levels
        for cell in cells:
            old = load.get(cell)
            if old is not None:
                bucket = levels[old]
                bucket.discard(cell)
                if not bucket:
                    del levels[old]
            new = (old or 0) + delta
            if new == 0 and cell not in self._base:
                # Drop the entry so the map stays identical to a from-
                # scratch rebuild (absent, not present-at-zero).
                if old is not None:
                    del load[cell]
            else:
                load[cell] = new
                levels.setdefault(new, set()).add(cell)

    # -- queries ---------------------------------------------------------

    def peak(self) -> int:
        """The maximum load over all tracked valves (0 when empty)."""
        return max(self._levels) if self._levels else 0

    def measure(self) -> Tuple[int, int]:
        """(max load, #valves at the max) — lexicographic progress."""
        if not self._levels:
            return (0, 0)
        peak = max(self._levels)
        return (peak, len(self._levels[peak]))

    def peak_cells(self) -> frozenset:
        """Every valve currently at the maximum load."""
        if not self._levels:
            return frozenset()
        return frozenset(self._levels[max(self._levels)])

    def loads(self) -> Dict[Point, int]:
        """A copy of the full load map (for tests and reports)."""
        return dict(self._load)


def window_subspec(
    spec: MappingSpec,
    window: List[MappingTask],
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
    discouraged: frozenset = frozenset(),
) -> MappingSpec:
    """A sub-problem over ``window``: every other placed task fixed.

    Placed tasks outside the window become :class:`DynamicDevice`
    constants and their pump rates fold into ``base_load``, so the
    sub-problem's objective is the true whole-chip peak.  Shared by the
    rolling-horizon mapper's windows and by the LNS repair step
    (:mod:`repro.core.lns`), which re-places a destroyed task set
    against everything it kept.
    """
    from repro.architecture.device import DynamicDevice

    fixed: Dict[str, DynamicDevice] = dict(spec.fixed)
    base_load: Dict[Point, int] = dict(spec.base_load)
    window_names = {t.name for t in window}
    for task in ordered:
        placement = placements.get(task.name)
        if placement is None or task.name in window_names:
            continue
        fixed[task.name] = DynamicDevice(
            operation=task.name,
            placement=placement,
            start=task.start,
            end=task.end,
            mix_start=task.mix_start,
        )
        for cell in placement.pump_cells():
            base_load[cell] = base_load.get(cell, 0) + task.pump_rate
    return MappingSpec(
        grid=spec.grid,
        tasks=window,
        fixed=fixed,
        base_load=base_load,
        forbidden_overlaps=set(spec.forbidden_overlaps),
        blocked_cells=spec.blocked_cells,
        anchor_stride=spec.anchor_stride,
        distance_limit=spec.distance_limit,
        allow_storage_overlap=spec.allow_storage_overlap,
        routing_convenient=spec.routing_convenient,
        parent_pairs=set(spec.parent_pairs),
        discouraged_cells=discouraged,
        health=spec.health,
    )


class BaseMapper:
    """Common interface: :meth:`map_tasks` on a :class:`MappingSpec`.

    ``deadline`` bounds the solve (propagated into solver time limits
    and loop checks); ``ladder`` records any degradation rungs taken.
    Both default to None — unbudgeted, unrecorded — so existing callers
    are unaffected.

    ``journal`` / ``supervisor`` opt the mapper into the crash-safety
    machinery of DESIGN.md §14: a
    :class:`repro.resilience.CheckpointJournal` replays certified
    solutions for byte-identical subproblems (and records new ones),
    a :class:`repro.resilience.WorkerSupervisor` moves exact solves
    into watched subprocesses.  Both default to None — no journal, no
    supervision — and are plain attributes so the synthesizer can wire
    them onto whatever mapper the configuration resolved.
    """

    name = "base"
    journal = None
    supervisor = None

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        raise NotImplementedError


class ILPMapper(BaseMapper):
    """The monolithic ILP of Section 3.2, solved to optimality."""

    name = "ilp"

    def __init__(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        **solver_kwargs,
    ) -> None:
        self.backend = backend
        self.time_limit = time_limit
        self.solver_kwargs = solver_kwargs

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        if self.journal is not None:
            replayed = self.journal.replay(spec)
            if replayed is not None:
                return replayed
        limit = self.time_limit
        if deadline is not None:
            limit = deadline.limit(limit)
        if self.supervisor is not None:
            result = self._map_supervised(spec, limit, deadline, ladder)
        else:
            result = self._map_inline(spec, limit)
        if self.journal is not None:
            self.journal.record(spec, result)
        return result

    def _map_supervised(
        self,
        spec: MappingSpec,
        limit: Optional[float],
        deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
    ) -> MappingResult:
        """One supervised solve, falling back in-process on exhaustion.

        The worker re-raises deterministic failures (an infeasible
        window raises :class:`SynthesisError` here exactly as the
        inline path would); only lost workers — crash, hang, RSS kill —
        exhaust the supervisor's retries, engage ``worker_serial`` and
        re-run the solve unsupervised.
        """
        payload = (spec, self.backend, limit, self.solver_kwargs)
        try:
            result = self.supervisor.run(
                _solve_spec_job, payload, deadline=deadline, label=self.name
            )
        except WorkerCrashError as crash:
            if ladder is not None:
                ladder.engage(
                    "mapping",
                    DegradationLadder.WORKER_SERIAL,
                    f"supervised solve lost ({crash}); re-solving in-process",
                )
            if TELEMETRY.enabled:
                TELEMETRY.count("supervisor.serial_fallbacks")
            result = self._map_inline(spec, limit)
            result.stats["worker_serial"] = 1.0
            return result
        result.stats["supervised"] = 1.0
        return result

    def _map_inline(
        self, spec: MappingSpec, limit: Optional[float]
    ) -> MappingResult:
        start = time.monotonic()
        built = MappingModelBuilder(spec).build()
        solution = built.model.solve(
            backend=self.backend,
            time_limit=limit,
            **self.solver_kwargs,
        )
        if not solution.status.has_solution:
            raise SynthesisError(
                f"dynamic-device mapping ILP is {solution.status.value} "
                f"({built.model!r})"
            )
        placements = built.extract_placements(solution)
        wall = time.monotonic() - start
        if TELEMETRY.enabled:
            TELEMETRY.count("mapper.ilp_solves")
            TELEMETRY.add_time("mapper.ilp_solve", wall)
        stats: Dict[str, float] = {
            "solve_seconds": wall,
            "solver_nodes": float(solution.nodes_explored),
        }
        for key, value in solution.stats.items():
            stats[f"solver_{key}"] = float(value)
        return MappingResult(
            placements=placements,
            objective=int(round(solution.value(built.w))),
            mapper=self.name,
            used_overlaps=built.extract_overlaps(solution),
            wall_time=wall,
            optimal=solution.status is SolveStatus.OPTIMAL,
            stats=stats,
        )


class WindowedILPMapper(BaseMapper):
    """Rolling-horizon ILP: exact model, committed prefix.

    Tasks sorted by (start, name) are solved ``window_size`` at a time;
    placements of earlier windows enter later windows as fixed devices
    with their accumulated pump load.  On an infeasible window (the
    committed prefix can paint the ILP into a corner) the window falls
    back to the greedy balancer, which ignores no constraint but
    searches placement-by-placement.
    """

    name = "windowed_ilp"

    def __init__(
        self,
        window_size: int = 5,
        backend: str = "scipy",
        time_limit_per_window: Optional[float] = 20.0,
        refine_passes: int = 2,
    ) -> None:
        if window_size < 1:
            raise SynthesisError("window size must be at least 1")
        self.window_size = window_size
        self.backend = backend
        self.time_limit_per_window = time_limit_per_window
        self.refine_passes = refine_passes

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        start_time = time.monotonic()
        stats: Dict[str, float] = {
            "windows_solved": 0,
            "window_seconds": 0.0,
            "greedy_windows": 0,
            "window_shrinks": 0,
            "whole_problem_fallback": 0,
            "deadline_greedy": 0,
            "refine_probes": 0,
            "refine_accepted": 0,
            "refine_rejected": 0,
            "refine_infeasible": 0,
            "targeted_rounds": 0,
            "targeted_accepted": 0,
        }
        try:
            result = self._rolling_and_refine(
                spec, stats, deadline=deadline, ladder=ladder
            )
        except SynthesisError as error:
            # A window dead-ended (the committed prefix saturated the
            # grid for some window split).  The one-task-at-a-time
            # greedy search is strictly more flexible about splits, so
            # use it for the whole problem rather than fail.
            stats["whole_problem_fallback"] = 1
            if ladder is not None:
                ladder.engage(
                    "mapping", DegradationLadder.WHOLE_GREEDY, str(error)
                )
            result = GreedyMapper().map_tasks(spec)
        result.wall_time = time.monotonic() - start_time
        result.stats.update(stats)
        if TELEMETRY.enabled:
            TELEMETRY.count("mapper.windows", int(stats["windows_solved"]))
            TELEMETRY.count(
                "mapper.greedy_fallbacks",
                int(stats["greedy_windows"] + stats["whole_problem_fallback"]),
            )
            TELEMETRY.count(
                "mapper.refine_accepted", int(stats["refine_accepted"])
            )
            TELEMETRY.count(
                "mapper.refine_rejected", int(stats["refine_rejected"])
            )
            TELEMETRY.count(
                "mapper.targeted_rounds", int(stats["targeted_rounds"])
            )
            TELEMETRY.count(
                "mapper.window_shrinks", int(stats["window_shrinks"])
            )
            TELEMETRY.add_time(
                "mapper.window_solve",
                stats["window_seconds"],
                int(stats["windows_solved"]),
            )
        return result

    def _rolling_and_refine(
        self,
        spec: MappingSpec,
        stats: Dict[str, float],
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
        placements: Dict[str, Placement] = {}
        overlaps: List[Pair] = []
        all_optimal = True

        def merge_overlaps(result: MappingResult) -> None:
            nonlocal overlaps
            overlaps = [
                p
                for p in overlaps
                if p[1] not in result.placements
                and p[0] not in result.placements
            ] + result.used_overlaps

        # Rolling-horizon pass: windows in start order, earlier windows
        # committed as constants.  When the deadline expires mid-roll,
        # the remaining tasks are placed in one greedy sweep — degraded
        # but bounded (ladder rung ``deadline_greedy``).
        for lo in range(0, len(ordered), self.window_size):
            if deadline is not None and deadline.expired:
                rest = ordered[lo:]
                stats["deadline_greedy"] = 1
                if ladder is not None:
                    ladder.engage(
                        "mapping",
                        DegradationLadder.DEADLINE_GREEDY,
                        f"{len(rest)} tasks placed greedily after budget "
                        "expiry",
                    )
                result = GreedyMapper().map_tasks(
                    self._window_spec(spec, rest, ordered, placements)
                )
                all_optimal = False
                merge_overlaps(result)
                for task in rest:
                    placements[task.name] = result.placements[task.name]
                break
            window = ordered[lo : lo + self.window_size]
            result = self._solve_window(
                spec, window, ordered, placements, stats=stats,
                deadline=deadline, ladder=ladder,
            )
            if result.mapper == GreedyMapper.name or not result.optimal:
                all_optimal = False
            merge_overlaps(result)
            for task in window:
                placements[task.name] = result.placements[task.name]

        # From here on every probe keeps the ledger in sync with
        # ``placements`` — no full load-map rebuilds.
        ledger = LoadLedger.from_placements(spec, ordered, placements)

        def pop_window(window: List[MappingTask]) -> Dict[str, Placement]:
            saved = {}
            for task in window:
                placement = placements.pop(task.name)
                saved[task.name] = placement
                ledger.remove(task, placement)
            return saved

        def restore(saved: Dict[str, Placement], window) -> None:
            placements.update(saved)
            for task in window:
                ledger.add(task, saved[task.name])

        def commit(result: MappingResult, window) -> Dict[str, Placement]:
            new = {t.name: result.placements[t.name] for t in window}
            placements.update(new)
            for task in window:
                ledger.add(task, new[task.name])
            return new

        def roll_back(new, saved, window) -> None:
            for task in window:
                ledger.remove(task, new[task.name])
            restore(saved, window)

        # Refinement: coordinate descent over windows, now with *all*
        # other placements fixed.  Each window re-solve can only keep or
        # lower the maximum load (its previous assignment stays
        # feasible); a window whose re-solve fails keeps its old
        # placement (refinement is opportunistic).  Passes alternate the
        # window offset so wear stacked across an unlucky rolling-pass
        # window boundary is also re-optimized jointly.
        for pass_index in range(self.refine_passes):
            if deadline is not None and deadline.expired:
                break  # refinement is optional polish; the roll stands
            offset = (self.window_size // 2) if pass_index % 2 == 0 else 0
            windows = self._refine_windows(ordered, offset)
            for window in windows:
                if deadline is not None and deadline.expired:
                    break
                stats["refine_probes"] += 1
                discouraged = ledger.peak_cells()
                previous_peak = ledger.peak()
                saved = pop_window(window)
                saved_overlaps = list(overlaps)
                try:
                    result = self._solve_window(
                        spec, window, ordered, placements,
                        discouraged=discouraged, stats=stats,
                        deadline=deadline, ladder=ladder,
                    )
                except SynthesisError:
                    stats["refine_infeasible"] += 1
                    restore(saved, window)
                    continue
                merge_overlaps(result)
                new = commit(result, window)
                if ledger.peak() > previous_peak:
                    stats["refine_rejected"] += 1
                    roll_back(new, saved, window)  # keep the better one
                    overlaps = saved_overlaps
                else:
                    stats["refine_accepted"] += 1

        # Targeted refinement: repeatedly re-solve the tasks that pump
        # the worst-loaded valve *together*.  Wear stacking is a
        # same-cell phenomenon, so this attacks exactly the group the
        # fixed window partitions may have split.  Progress is measured
        # lexicographically — (max load, number of valves at the max) —
        # so plateau moves that thin out the set of critical valves
        # still count as improvements.
        for _ in range(2 * len(ordered)):
            if deadline is not None and deadline.expired:
                break
            measure = ledger.measure()
            discouraged = ledger.peak_cells()
            worst_cell = min(discouraged, default=None)
            culprits = [
                task
                for task in ordered
                if worst_cell is not None
                and worst_cell in placements[task.name].pump_cells()
            ]
            if len(culprits) < 2:
                break
            stats["targeted_rounds"] += 1
            window = culprits[: self.window_size]
            saved = pop_window(window)
            saved_overlaps = list(overlaps)
            try:
                result = self._solve_window(
                    spec, window, ordered, placements,
                    discouraged=discouraged, stats=stats,
                    deadline=deadline, ladder=ladder,
                )
            except SynthesisError:
                restore(saved, window)
                break
            merge_overlaps(result)
            new = commit(result, window)
            if ledger.measure() >= measure:
                roll_back(new, saved, window)  # no improvement: stop
                overlaps = saved_overlaps
                break
            stats["targeted_accepted"] += 1

        return MappingResult(
            placements=placements,
            objective=ledger.peak(),
            mapper=self.name,
            used_overlaps=sorted(set(overlaps)),
            optimal=all_optimal and len(ordered) <= self.window_size,
        )

    # -- refinement windows -----------------------------------------------

    def _refine_windows(
        self, ordered: List[MappingTask], offset: int
    ) -> List[List[MappingTask]]:
        """The (disjoint) windows of one refinement pass, in apply order."""
        starts = list(range(offset, len(ordered), self.window_size))
        if offset:
            starts = [0] + starts
        windows: List[List[MappingTask]] = []
        for lo in starts:
            hi = min(lo + self.window_size, len(ordered))
            if lo == 0 and offset:
                hi = offset
            window = ordered[lo:hi]
            if window:
                windows.append(window)
        return windows

    def _window_spec(
        self,
        spec: MappingSpec,
        window: List[MappingTask],
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
        discouraged: frozenset = frozenset(),
    ) -> MappingSpec:
        """The window's sub-problem: every placed task fixed as a constant."""
        return window_subspec(spec, window, ordered, placements, discouraged)

    def _ilp(self, limit: Optional[float]) -> ILPMapper:
        """An inner exact mapper carrying this mapper's crash-safety wiring.

        The journal and supervisor ride along so every window solve is
        checkpointed/supervised.
        """
        mapper = ILPMapper(backend=self.backend, time_limit=limit)
        mapper.journal = self.journal
        mapper.supervisor = self.supervisor
        return mapper

    def _solve_window(
        self,
        spec: MappingSpec,
        window: List[MappingTask],
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
        discouraged: frozenset = frozenset(),
        stats: Optional[Dict[str, float]] = None,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        """Solve one window, descending the ladder on failure.

        1. the window's exact ILP (time-limited by the deadline);
        2. ``window_shrink`` — split the window in half, solve each
           half exactly (the first half commits before the second);
        3. ``window_greedy`` — the greedy balancer for this window
           only (raises :class:`SynthesisError` when even that is
           infeasible; the caller owns the next rung).
        """
        window_start = time.perf_counter()
        limit = self.time_limit_per_window
        if deadline is not None:
            limit = deadline.limit(limit)
        window_spec = self._window_spec(
            spec, window, ordered, placements, discouraged
        )
        result: Optional[MappingResult] = None
        try:
            result = self._ilp(limit).map_tasks(
                window_spec, deadline=deadline, ladder=ladder
            )
        except (SynthesisError, SolverError) as error:
            if len(window) > 1 and (deadline is None or not deadline.expired):
                if stats is not None:
                    stats["window_shrinks"] += 1
                if ladder is not None:
                    ladder.engage(
                        "mapping",
                        DegradationLadder.WINDOW_SHRINK,
                        f"window of {len(window)} split after: {error}",
                    )
                result = self._solve_shrunk(
                    spec, window, ordered, placements, discouraged, deadline
                )
        if result is None:
            if ladder is not None:
                ladder.engage(
                    "mapping",
                    DegradationLadder.WINDOW_GREEDY,
                    f"greedy fallback for window of {len(window)}",
                )
            result = GreedyMapper().map_tasks(window_spec)
        if stats is not None:
            stats["windows_solved"] += 1
            stats["window_seconds"] += time.perf_counter() - window_start
            if result.mapper == GreedyMapper.name:
                stats["greedy_windows"] += 1
        return result

    def _solve_shrunk(
        self,
        spec: MappingSpec,
        window: List[MappingTask],
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
        discouraged: frozenset,
        deadline: Optional[Deadline],
    ) -> Optional[MappingResult]:
        """The ``window_shrink`` rung: two exact half-window solves.

        A timed-out or infeasible full window often splits into two
        tractable halves (half the binaries, half the disjunctions).
        Returns None when either half fails — the caller then takes the
        greedy rung.
        """
        mid = len(window) // 2
        staged = dict(placements)
        merged: Dict[str, Placement] = {}
        overlaps: List[Pair] = []
        objective = 0
        for half in (window[:mid], window[mid:]):
            limit = self.time_limit_per_window
            if deadline is not None:
                limit = deadline.limit(limit)
            half_spec = self._window_spec(
                spec, half, ordered, staged, discouraged
            )
            try:
                result = self._ilp(limit).map_tasks(
                    half_spec, deadline=deadline
                )
            except (SynthesisError, SolverError):
                return None
            for task in half:
                placement = result.placements[task.name]
                staged[task.name] = placement
                merged[task.name] = placement
            overlaps.extend(result.used_overlaps)
            objective = max(objective, result.objective)
        return MappingResult(
            placements=merged,
            objective=objective,
            mapper=ILPMapper.name,
            used_overlaps=overlaps,
            optimal=False,  # solved as halves, not jointly
        )


class GreedyMapper(BaseMapper):
    """Deterministic greedy balancer.

    Tasks in (start, name) order take the placement minimizing, in
    lexicographic order: the resulting maximum pump load on the ring,
    the total pre-existing load under the ring (prefer fresh valves),
    the gap to committed parent devices, then corner coordinates and
    type index (determinism).  Non-overlap with temporally intersecting
    committed devices is a hard filter; the (parent, child)
    storage-overlap permission mirrors the ILP's c5.

    The routing-convenient distance limit is *two-tier*: placements
    within distance ``d`` of every committed parent are strictly
    preferred, but when none exists (greedy commitment of the parents
    can make the limit unsatisfiable, unlike in the joint ILP) the limit
    is dropped for that operation — the Dijkstra router still connects
    the devices, only over a longer path.
    """

    name = "greedy"

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        # The greedy balancer is itself the bottom of the ladder: it
        # never degrades further, and one placement sweep is far below
        # any sane budget, so the deadline is accepted but not polled.
        from repro.architecture.device import DynamicDevice

        start_time = time.monotonic()
        ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
        committed: Dict[str, DynamicDevice] = dict(spec.fixed)
        base_load: Dict[Point, int] = dict(spec.base_load)
        placements: Dict[str, Placement] = {}
        overlaps: List[Pair] = []
        d = spec.resolved_distance_limit()
        candidates_scanned = 0

        for task in ordered:
            # Two candidate tiers: within the distance limit / anywhere.
            best_key: Dict[bool, Optional[tuple]] = {True: None, False: None}
            best: Dict[bool, Optional[Placement]] = {True: None, False: None}
            best_overlaps: Dict[bool, List[Pair]] = {True: [], False: []}
            for placement in spec.candidate_placements(task):
                candidates_scanned += 1
                rect = placement.rect
                pair_overlaps: List[Pair] = []
                feasible = True
                for other_name, device in committed.items():
                    if not (task.start < device.end and device.start < task.end):
                        continue
                    if not rect.overlaps(device.rect):
                        continue
                    pair = spec.storage_pair(task.name, other_name)
                    if (
                        pair is not None
                        and spec.allow_storage_overlap
                        and pair not in spec.forbidden_overlaps
                    ):
                        pair_overlaps.append(pair)
                        continue
                    feasible = False
                    break
                if not feasible:
                    continue
                near = d is None or self._near_parents(task, rect, committed, d)
                ring = placement.pump_cells()
                peak = max(base_load.get(c, 0) + task.pump_rate for c in ring)
                reuse = sum(base_load.get(c, 0) for c in ring)
                gap = self._parent_gap(task, rect, committed)
                contact = self._foreign_contact(task, rect, committed)
                key = (
                    peak,
                    reuse,
                    len(pair_overlaps),
                    gap,
                    contact,
                    rect.x,
                    rect.y,
                    placement.device_type.index,
                )
                if best_key[near] is None or key < best_key[near]:
                    best_key[near] = key
                    best[near] = placement
                    best_overlaps[near] = pair_overlaps
            tier = True if best[True] is not None else False
            if best[tier] is None:
                raise SynthesisError(
                    f"greedy mapper found no feasible placement for "
                    f"{task.name} on the {spec.grid.width}x"
                    f"{spec.grid.height} grid"
                )
            chosen, chosen_overlaps = best[tier], best_overlaps[tier]
            placements[task.name] = chosen
            overlaps.extend(chosen_overlaps)
            committed[task.name] = DynamicDevice(
                operation=task.name,
                placement=chosen,
                start=task.start,
                end=task.end,
                mix_start=task.mix_start,
            )
            for cell in chosen.pump_cells():
                base_load[cell] = base_load.get(cell, 0) + task.pump_rate

        wall = time.monotonic() - start_time
        if TELEMETRY.enabled:
            TELEMETRY.count("mapper.greedy_solves")
            TELEMETRY.count("mapper.greedy_candidates", candidates_scanned)
            TELEMETRY.add_time("mapper.greedy_solve", wall)
        return MappingResult(
            placements=placements,
            objective=max(base_load.values(), default=0),
            mapper=self.name,
            used_overlaps=overlaps,
            wall_time=wall,
            optimal=False,
            stats={"candidates_scanned": float(candidates_scanned)},
        )

    @staticmethod
    def _near_parents(task, rect, committed, d: int) -> bool:
        for parent in task.mix_parents:
            device = committed.get(parent)
            if device is not None and not rect.within_distance(device.rect, d):
                return False
        return True

    @staticmethod
    def _parent_gap(task, rect, committed) -> int:
        """Total boundary gap to committed parents (soft proximity)."""
        return sum(
            rect.gap_distance(committed[parent].rect)
            for parent in task.mix_parents
            if parent in committed
        )

    @staticmethod
    def _foreign_contact(task, rect, committed) -> int:
        """Area shared between this device's margin and non-parent devices.

        Flush placement against unrelated concurrent devices builds
        solid walls that can disconnect the routing grid; penalizing the
        contact keeps one-cell corridors open (the ILP avoids this
        implicitly through its joint placement freedom).
        """
        margin = rect.expanded(1)
        contact = 0
        for name, device in committed.items():
            if name in task.mix_parents:
                continue
            if task.start < device.end and device.start < task.end:
                contact += margin.overlap_area(device.rect)
        return contact
