"""The dynamic-device mapping ILP (Sections 3.2–3.4).

Transcription of the paper's model:

* binary selection variables ``s[x,y,k,i]`` — operation *i* mapped to
  device type *k* at corner ``(x,y)`` (one placement variable per
  candidate, eq. 1 forces exactly one per operation);
* per-valve pump load ``v[x,y] = sum p_i * s[..]`` over placements whose
  circulation ring covers the valve (eq. 2), bounded by the objective
  variable ``w`` (eqs. 9–10);
* big-M non-overlap disjunctions (eqs. 3–8) between operations whose
  device lifetimes intersect, with the auxiliary ``c5`` relaxation
  (eq. 12) for in-situ-storage / parent-device pairs;
* routing-convenient distance constraints (eqs. 13–16) between parent
  and child devices.

The boundary coordinates ``b_le/b_ri/b_up/b_do`` are not extra integer
variables: with the one-hot selection row they are exact linear
functions of the selection variables (the candidates' coordinates are
the coefficients), which keeps the model smaller than the paper's
literal formulation without changing its feasible set.

The builder writes rows as arrays, not expressions: each task's
candidates come with a cached table of their boundary coordinates and
pump cells, and every family of rows is gathered from those tables
into coordinate triplets and handed to :meth:`Model.add_rows` in one
call.  The rolling-horizon mapper builds a model per window, dozens per
run; built through per-term ``LinExpr`` objects, those models took
about a third of a mixing-tree synthesis.

The builder also supports **committed placements** (constants) and a
**base load** per valve, which is how the rolling-horizon windowed
mapper re-uses the same model for large cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SynthesisError
from repro.geometry import GridSpec, Point
from repro.architecture.device import DynamicDevice, Placement
from repro.architecture.device_types import min_device_dimension, types_for_volume
from repro.architecture.health import ChipHealth
from repro.ilp import LinExpr, Model, Sense, Var
from repro.core.tasks import MappingTask

Pair = Tuple[str, str]

#: Memoized candidate tables.  A placement candidate set depends only
#: on (grid, anchor stride, blocked cells, volume class) — not on the
#: task identity — and the windowed mapper rebuilds a fresh
#: ``MappingSpec`` for every window/refinement probe, so a module-level
#: cache turns the repeated grid sweeps (and the geometry arrays the
#: model builder reads) into one enumeration per shape.
_CANDIDATE_CACHE: Dict[Tuple, "_CandidateTable"] = {}


@dataclass(frozen=True, eq=False)
class _CandidateTable:
    """The legal placements of one shape class, with their geometry as arrays.

    ``left/right/bottom/top`` hold each candidate's boundaries
    ``b_le/b_ri/b_do/b_up`` as floats (they are model coefficients).
    The pump-cell incidence lists every ring cell of every candidate:
    ring cell ``j`` belongs to candidate ``ring_owner[j]`` and sits at
    grid cell ``ring_cells[j] = x * grid.height + y``, so that sorting
    the keys sorts the cells as points.
    """

    placements: Tuple[Placement, ...]
    left: np.ndarray
    right: np.ndarray
    bottom: np.ndarray
    top: np.ndarray
    ring_owner: np.ndarray
    ring_cells: np.ndarray

    @classmethod
    def of(cls, placements: Tuple[Placement, ...], height: int) -> "_CandidateTable":
        rects = [p.rect for p in placements]
        rings = [p.pump_cells() for p in placements]
        arrays = dict(
            left=np.array([r.left for r in rects], dtype=float),
            right=np.array([r.right for r in rects], dtype=float),
            bottom=np.array([r.bottom for r in rects], dtype=float),
            top=np.array([r.top for r in rects], dtype=float),
            ring_owner=np.repeat(
                np.arange(len(rings)), [len(ring) for ring in rings]
            ),
            ring_cells=np.array(
                [c.x * height + c.y for ring in rings for c in ring],
                dtype=np.intp,
            ),
        )
        for array in arrays.values():
            array.flags.writeable = False  # shared by every cached build
        return cls(placements, **arrays)


def _enumerate_candidates(
    grid: GridSpec,
    anchor_stride: int,
    blocked_cells: FrozenSet[Point],
    volume: int,
    health: Optional[ChipHealth] = None,
) -> _CandidateTable:
    if health is not None and health.is_healthy:
        health = None  # one cache entry for every fully-healthy mask
    key = (grid, anchor_stride, blocked_cells, volume, health)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is None:
        candidates: List[Placement] = []
        for dtype in types_for_volume(volume):
            for rect in grid.placements(dtype.width, dtype.height):
                if rect.x % anchor_stride or rect.y % anchor_stride:
                    continue
                if blocked_cells and any(
                    rect.contains(c) for c in blocked_cells
                ):
                    continue
                if health is not None and health.blocks_rect(rect):
                    continue
                candidates.append(Placement(dtype, rect.corner))
        cached = _CANDIDATE_CACHE[key] = _CandidateTable.of(
            tuple(candidates), grid.height
        )
    return cached


@dataclass
class MappingSpec:
    """One dynamic-device mapping problem instance."""

    grid: GridSpec
    tasks: List[MappingTask]
    #: devices already committed (rolling-horizon mode); their rectangles
    #: are constants for this solve.
    fixed: Dict[str, DynamicDevice] = field(default_factory=dict)
    #: pump load already accumulated on each valve by committed devices.
    base_load: Dict[Point, int] = field(default_factory=dict)
    #: (parent, child) pairs whose storage/parent overlap Algorithm 1 has
    #: forbidden (c5 pinned to 0).
    forbidden_overlaps: Set[Pair] = field(default_factory=set)
    #: cells no device may cover (chip ports must stay reachable).
    blocked_cells: FrozenSet[Point] = frozenset()
    #: cells the objective softly avoids pumping on (refinement uses the
    #: currently worst-loaded valves here to escape plateaus where many
    #: valves tie at the maximum).
    discouraged_cells: FrozenSet[Point] = frozenset()
    #: candidate anchors every ``anchor_stride`` cells (1 = every valve).
    anchor_stride: int = 1
    #: the constant d of Section 3.4; None means "use the default"
    #: (the minimum device dimension).
    distance_limit: Optional[int] = None
    #: global switch for the c5 relaxation (eq. 12).
    allow_storage_overlap: bool = True
    #: global switch for the routing-convenient constraints (13)-(16).
    routing_convenient: bool = True
    #: every (parent, child) mix-operation pair of the whole assay; kept
    #: explicitly so parent/child relations survive when one side is a
    #: committed device.  Derived from the tasks when left empty.
    parent_pairs: Set[Pair] = field(default_factory=set)
    #: hardware health mask: candidates touching a dead valve cell or a
    #: dead channel edge are excluded outright (fault-adaptive remapping,
    #: DESIGN.md §12).  None means fully healthy.
    health: Optional[ChipHealth] = None

    def __post_init__(self) -> None:
        if not self.parent_pairs:
            self.parent_pairs = {
                (parent, task.name)
                for task in self.tasks
                for parent in task.mix_parents
            }

    def storage_pair(self, a: str, b: str) -> Optional[Pair]:
        """Orient (parent, child) when one is the other's mix parent."""
        if (a, b) in self.parent_pairs:
            return (a, b)
        if (b, a) in self.parent_pairs:
            return (b, a)
        return None

    def resolved_distance_limit(self) -> Optional[int]:
        if not self.routing_convenient:
            return None
        if self.distance_limit is None:
            return min_device_dimension()
        return self.distance_limit

    def candidate_placements(self, task: MappingTask) -> Tuple[Placement, ...]:
        """All legal placements of one task on the grid (memoized)."""
        return self._candidate_table(task).placements

    def _candidate_table(self, task: MappingTask) -> _CandidateTable:
        table = _enumerate_candidates(
            self.grid, self.anchor_stride, self.blocked_cells, task.volume,
            self.health,
        )
        if not table.placements:
            dead = (
                f" with {self.health.dead_count} dead resources"
                if self.health is not None and not self.health.is_healthy
                else ""
            )
            raise SynthesisError(
                f"{task.name}: no feasible placement on the "
                f"{self.grid.width}x{self.grid.height} grid{dead}"
            )
        return table


#: A device in a non-overlap or near row: a task's selection columns and
#: candidate table, or ``(None, rect)`` for a committed device, whose
#: boundaries are constants.  Both answer ``left/right/bottom/top``.
_Device = Tuple[Optional[np.ndarray], object]


@dataclass
class BuiltMapping:
    """The ILP plus the metadata needed to read a solution back."""

    model: Model
    spec: MappingSpec
    w: Var
    selections: Dict[str, List[Tuple[Placement, Var]]]
    c5_vars: Dict[Pair, Var]
    #: what :func:`complete_solution` needs to lift a placement
    #: assignment to a full value vector: one ``(a, b, [c1..c4], c5 or
    #: None)`` per big-M non-overlap disjunction, and the load rows as
    #: ``(cols, rows, rates, base, residual)`` — entry ``j`` adds
    #: ``rates[j]`` to load row ``rows[j]`` when selection column
    #: ``cols[j]`` is chosen, ``base`` is each row's committed load.
    pairs: List[Tuple[str, str, List[Var], Optional[Var]]]
    loads: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]

    def extract_placements(self, solution) -> Dict[str, Placement]:
        """Chosen placement per task from a solved model."""
        placements: Dict[str, Placement] = {}
        for name, options in self.selections.items():
            chosen = [p for p, var in options if solution.value(var) > 0.5]
            if len(chosen) != 1:  # pragma: no cover - eq.1 guarantees this
                raise SynthesisError(
                    f"{name}: expected exactly one selected placement, got "
                    f"{len(chosen)}"
                )
            placements[name] = chosen[0]
        return placements

    def extract_overlaps(self, solution) -> List[Pair]:
        """(parent, child) pairs that used the c5 overlap permission."""
        return [
            pair
            for pair, var in sorted(self.c5_vars.items())
            if solution.value(var) > 0.5
        ]


def _add_rows(model: Model, rows, cols, vals, senses, rhs, names) -> None:
    """:meth:`Model.add_rows` minus the zero coefficients."""
    keep = vals != 0.0
    model.add_rows(rows[keep], cols[keep], vals[keep], senses, rhs, names)


def _add_piece_rows(model: Model, rows) -> None:
    """Add ``(pieces, sense, rhs, name)`` rows, each piece a ``(cols,
    vals)`` array pair, in one call."""
    if rows:
        pieces = [piece for row in rows for piece in row[0]]
        lengths = [sum(len(cols) for cols, _ in row[0]) for row in rows]
        _, senses, rhs, names = zip(*rows)
        _add_rows(
            model,
            np.repeat(np.arange(len(rows)), lengths),
            np.concatenate([cols for cols, _ in pieces]),
            np.concatenate([vals for _, vals in pieces]),
            senses, rhs, names,
        )


def _difference(x: _Device, x_bound: str, y: _Device, y_bound: str):
    """Terms and constant of ``x.x_bound - y.y_bound``."""
    pieces = []
    constant = 0
    for (cols, geometry), bound, sign in ((x, x_bound, 1), (y, y_bound, -1)):
        value = getattr(geometry, bound)
        if cols is None:
            constant += sign * value
        else:
            pieces.append((cols, value if sign > 0 else -value))
    return pieces, constant


class MappingModelBuilder:
    """Builds the ILP of Section 3.2 for a :class:`MappingSpec`.

    Columns come out as ``w``, the selections task by task, then per
    time-overlapping pair its ``c5`` (when allowed) and ``c1..c4``; rows
    as eq. 1, the loads, the committed residual, per pair its four
    big-M rows and its cardinality row, then the near rows.
    """

    def __init__(self, spec: MappingSpec) -> None:
        self.spec = spec

    # -- model construction ------------------------------------------------

    def build(self) -> BuiltMapping:
        spec = self.spec
        model = Model("dynamic-device-mapping")
        w = model.add_integer("w", lb=0)

        selections: Dict[str, List[Tuple[Placement, Var]]] = {}
        devices: Dict[str, _Device] = {
            name: (None, device.rect) for name, device in spec.fixed.items()
        }
        tables: List[Tuple[MappingTask, _CandidateTable, int]] = []
        one_device = []
        for task in spec.tasks:
            table = spec._candidate_table(task)
            first = model.num_vars
            selections[task.name] = [
                (p, model.add_binary(
                    f"s[{p.corner.x},{p.corner.y},"
                    f"{p.device_type.index},{task.name}]"
                ))
                for p in table.placements
            ]
            cols = first + np.arange(len(table.placements))
            devices[task.name] = (cols, table)
            tables.append((task, table, first))
            # eq. (1): every operation mapped to exactly one device.
            one_device.append((
                [(cols, np.ones(len(cols)))], Sense.EQ, 1.0,
                f"one_device[{task.name}]",
            ))
        _add_piece_rows(model, one_device)

        loads = self._add_load_constraints(model, w, tables)
        c5_vars, pairs = self._add_non_overlap(model, devices)
        self._add_routing_convenient(model, devices)

        # Primary objective: the largest pump load (eq. 10).  When
        # refinement supplies discouraged cells, a tiny secondary term
        # steers ties away from re-loading them; the weight keeps the
        # total strictly below 1, so the integral primary objective is
        # never traded off.
        objective: Dict[Var, float] = {w: 1.0}
        discouraged = [
            c.x * spec.grid.height + c.y
            for c in spec.discouraged_cells
            if spec.grid.in_bounds(c)
        ]
        penalty_terms = []
        for _, table, first in tables:
            covered = np.bincount(
                table.ring_owner,
                weights=np.isin(table.ring_cells, discouraged),
                minlength=len(table.placements),
            )
            for k in np.flatnonzero(covered).tolist():
                penalty_terms.append((int(covered[k]), model.variables[first + k]))
        if penalty_terms:
            weight = 0.9 / sum(c for c, _ in penalty_terms)
            for c, var in penalty_terms:
                objective[var] = weight * c
        model.minimize(LinExpr(objective))
        return BuiltMapping(model, spec, w, selections, c5_vars, pairs, loads)

    # -- eq. (2) + (9): pump loads ------------------------------------------

    def _add_load_constraints(self, model: Model, w: Var, tables):
        """One ``load <= w`` row per pumped cell, in cell order."""
        spec = self.spec
        empty = np.zeros(0, dtype=np.intp)
        cols = np.concatenate(
            [empty] + [first + table.ring_owner for _, table, first in tables]
        )
        cells = np.concatenate(
            [empty] + [table.ring_cells for _, table, _ in tables]
        )
        rates = np.concatenate([np.zeros(0)] + [
            np.full(len(table.ring_cells), float(task.pump_rate))
            for task, table, _ in tables
        ])
        keys, rows = np.unique(cells, return_inverse=True)
        height = spec.grid.height
        points = [Point(k // height, k % height) for k in keys.tolist()]
        base = [spec.base_load.get(cell, 0) for cell in points]
        count = len(points)
        _add_rows(
            model,
            np.concatenate([rows, np.arange(count)]),
            np.concatenate([cols, np.full(count, w.index)]),
            np.concatenate([rates, np.full(count, -1.0)]),
            [Sense.LE] * count,
            [-float(load) for load in base],
            [f"load[{cell.x},{cell.y}]" for cell in points],
        )
        # Valves loaded only by committed devices still bound w.
        pumped = set(points)
        residual = max(
            (load for cell, load in spec.base_load.items() if cell not in pumped),
            default=0,
        )
        if residual:
            model.add_constr(w >= residual, name="load[committed]")
        return cols, rows, rates, np.asarray(base, dtype=float), residual

    # -- eqs. (3)-(8) + (12): non-overlap -------------------------------------

    def _add_non_overlap(self, model: Model, devices: Dict[str, _Device]):
        """Per pair: ``x.bound - y.bound - M * c_k <= 0`` for its four
        sides (eqs. 4-7) and ``c1 + .. + c4 - c5 == 3`` (eq. 8), with
        ``c5`` (eq. 12) only for a storage pair not forbidden."""
        spec = self.spec
        big_m = np.array([-float(spec.grid.width + spec.grid.height)])
        c5_vars: Dict[Pair, Var] = {}
        pairs = []
        rows = []

        names = [t.name for t in spec.tasks]
        task_pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        mixed_pairs = [(f, t) for f in sorted(spec.fixed) for t in names]
        intervals = {n: (d.start, d.end) for n, d in spec.fixed.items()}
        intervals.update((t.name, t.interval) for t in spec.tasks)

        for a, b in task_pairs + mixed_pairs:
            sa, ea = intervals[a]
            sb, eb = intervals[b]
            if not (sa < eb and sb < ea):
                continue  # lifetimes disjoint: may share area freely
            relax: Optional[Var] = None
            pair = spec.storage_pair(a, b)
            if (
                pair is not None
                and spec.allow_storage_overlap
                and pair not in spec.forbidden_overlaps
            ):
                relax = model.add_binary(f"c5[{pair[0]},{pair[1]}]")
                c5_vars[pair] = relax
            name = f"no_overlap[{a},{b}]"
            da, db = devices[a], devices[b]
            aux = []
            for k, (x, x_bound, y, y_bound) in enumerate((
                (da, "right", db, "left"),  # a left of b
                (db, "right", da, "left"),  # b left of a
                (da, "top", db, "bottom"),  # a below b
                (db, "top", da, "bottom"),  # b below a
            )):
                aux.append(model.add_binary(f"{name}.c{k + 1}"))
                pieces, constant = _difference(x, x_bound, y, y_bound)
                pieces.append((np.array([aux[-1].index]), big_m))
                rows.append((pieces, Sense.LE, -constant, f"{name}.term{k + 1}"))
            card = [var.index for var in aux] + ([relax.index] if relax else [])
            ones = [1.0] * 4 + ([-1.0] if relax else [])
            rows.append((
                [(np.array(card), np.array(ones))], Sense.EQ, 3.0, f"{name}.card"
            ))
            pairs.append((a, b, aux, relax))
        _add_piece_rows(model, rows)
        return c5_vars, pairs

    # -- eqs. (13)-(16): routing-convenient mapping -----------------------------

    def _add_routing_convenient(
        self, model: Model, devices: Dict[str, _Device]
    ) -> None:
        spec = self.spec
        d = spec.resolved_distance_limit()
        if d is None:
            return
        rows = []
        for parent, child in sorted(spec.parent_pairs):
            if parent not in devices or child not in devices:
                continue
            if devices[parent][0] is None and devices[child][0] is None:
                continue  # both committed: nothing left to constrain
            # Strict inequalities over integers: "> x - d" == ">= x-d+1".
            name = f"near[{parent},{child}]"
            for child_bound, parent_bound, sense, limit, suffix in (
                ("right", "left", Sense.GE, 1 - d, "ri"),
                ("left", "right", Sense.LE, d - 1, "le"),
                ("top", "bottom", Sense.GE, 1 - d, "up"),
                ("bottom", "top", Sense.LE, d - 1, "do"),
            ):
                pieces, constant = _difference(
                    devices[child], child_bound, devices[parent], parent_bound
                )
                rows.append((pieces, sense, limit - constant, f"{name}.{suffix}"))
        _add_piece_rows(model, rows)


def complete_solution(
    built: BuiltMapping, placements: Dict[str, Placement]
) -> Optional[Dict[Var, float]]:
    """Lift a geometric placement assignment to full model values.

    The heuristic lanes of the anytime mapper (DESIGN.md §13) produce
    placements, not variable vectors; the B&B incumbent injection and
    the MILP replay certificate both need every model variable valued.
    This derives them mechanically: selections become the one-hot
    indicators, each non-overlap disjunction activates its first
    geometrically satisfied side (falling back to the ``c5`` overlap
    permission when no side separates the pair), and ``w`` is the
    maximum pump load the placements actually induce.

    Returns None when the placements cannot satisfy the model — a task
    placed outside its candidate set (e.g. the greedy fallback tier
    dropped the anchor stride or the distance limit) or an overlap with
    no ``c5`` permission.  A non-None result is *mechanically* complete
    but deliberately not trusted: callers re-validate with
    :meth:`Model.check_solution` (the near rows, for one, are not
    examined here) and certify by exact MILP replay before the vector
    reaches a solver.
    """
    values: Dict[Var, float] = {}
    selected = np.zeros(built.model.num_vars, dtype=bool)
    rects = {name: device.rect for name, device in built.spec.fixed.items()}
    for name, options in built.selections.items():
        chosen = placements.get(name)
        if chosen is None:
            return None
        hit = False
        for placement, var in options:
            is_chosen = placement == chosen
            values[var] = 1.0 if is_chosen else 0.0
            if is_chosen:
                selected[var.index] = hit = True
        if not hit:
            return None
        rects[name] = chosen.rect
    for a, b, aux, relax in built.pairs:
        ra, rb = rects[a], rects[b]
        sides = (
            ra.right <= rb.left,  # a left of b
            rb.right <= ra.left,  # b left of a
            ra.top <= rb.bottom,  # a below b
            rb.top <= ra.bottom,  # b below a
        )
        satisfied = next((k for k, ok in enumerate(sides) if ok), None)
        if satisfied is None:
            if relax is None:
                return None  # true overlap with no storage permission
            values[relax] = 1.0
            for var in aux:
                values[var] = 1.0  # eq. 8 with c5 = 1: all rows off
        else:
            if relax is not None:
                values[relax] = 0.0
            for k, var in enumerate(aux):
                values[var] = 0.0 if k == satisfied else 1.0
    cols, rows, rates, base, w_value = built.loads
    if len(base):
        on = selected[cols]
        cell_loads = base + np.bincount(
            rows[on], weights=rates[on], minlength=len(base)
        )
        w_value = max(w_value, int(round(cell_loads.max())))
    values[built.w] = float(w_value)
    return values
