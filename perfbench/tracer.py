"""Span tracer the benchmark installs around each layer's public calls.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
the layer entry points listed in :data:`TARGETS` with timing wrappers,
in the defining module and in every loaded module that imported the
same object by name, and :meth:`Tracer.uninstall` puts the originals
back.  A span records its name, layer, start, end, parent and the
group (one design or one served job) it belongs to.  Spans stay in
memory until :meth:`Tracer.summary` turns them into per-layer figures.

The parent of a span is the span current in its ``contextvars``
context, so ``asyncio.to_thread`` work nests under the job that
started it, while a bare ``threading.Thread`` (the anytime mapper's
exact lane) starts new root spans of its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in pipeline order; the per-layer metrics use them.
LAYERS = (
    "assay",
    "core.synthesis",
    "core.mapping_model",
    "ilp.model",
    "ilp.scipy_backend",
    "ilp.branch_bound",
    "core.mappers",
    "core.anytime",
    "core.storage",
    "routing",
    "core.actuation",
    "certify",
    "serve.protocol",
    "serve.canonical",
    "serve.cache",
    "serve.engine",
)

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = (
        "id", "parent", "name", "layer", "group", "start", "end", "error",
    )

    def __init__(self, span_id, parent, name, layer, group, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.group = group
        self.start = start
        self.end: Optional[float] = None
        self.error = False

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "group": self.group,
            "start": self.start,
            "end": self.end,
            "error": self.error,
        }


# -- what each wrapped call adds to the counters ---------------------------


def _build_sizes(tracer, args, result):
    model = result.model
    tracer.count("core.mapping_model.build.rows", model.num_constrs)
    tracer.count("core.mapping_model.build.cols", model.num_vars)


def _array_nnz(tracer, args, result):
    _, a_ub, _, a_eq, _, _, _ = result
    tracer.count("ilp.model.to_arrays.nnz", _nnz(a_ub) + _nnz(a_eq))


def _nnz(matrix) -> int:
    if hasattr(matrix, "nnz"):
        return int(matrix.nnz)
    return int((matrix != 0).sum())


def _scipy_solution(tracer, args, result):
    tracer.count("ilp.scipy_backend.nodes", result.stats.get("mip_node_count", 0))
    if not result.status.has_solution:
        tracer.count("ilp.scipy_backend.no_solution")


def _bb_solution(tracer, args, result):
    tracer.count("ilp.branch_bound.nodes", result.nodes_explored)
    tracer.count(
        "ilp.branch_bound.simplex_iterations",
        result.stats.get("simplex_iterations", 0),
    )


def _windowed_result(tracer, args, result):
    # What the program reports about itself, for the cross-checks.
    stats = result.stats
    for key in ("windows_solved", "greedy_windows", "refine_probes",
                "refine_accepted"):
        tracer.count(f"reported.{key}", stats.get(key, 0))


def _anytime_result(tracer, args, result):
    # An exact lane still running when the answer is returned.
    tracer.count("core.anytime.exact_abandoned",
                 result.stats.get("exact_abandoned", 0))
    if result.stats.get("race_winner_heuristic"):
        tracer.count("core.anytime.heuristic_wins")
    else:
        tracer.count("core.anytime.exact_wins")


def _rung(tracer, args, result):
    tracer.count("resilience.rungs")


def _audit_report(tracer, args, result):
    tracer.count("certify.violations", len(result.violations))


def _cache_lookup(tracer, args, result):
    tracer.count("serve.cache.lookups")
    if result is not None:
        tracer.count("serve.cache.hits")


def _queue_depth(tracer, args, result):
    depth = args[0]._queue.qsize()
    tracer.peak("serve.engine.queue_depth_max", depth)


#: (layer, module, attribute path, observer).  A ``None`` layer counts
#: calls without a span (``routing.dijkstra_calls``: thousands of calls
#: a design, too small to time one by one).
TARGETS: Tuple[Tuple[Optional[str], str, str, Optional[Callable]], ...] = (
    ("assay", "repro.assay.scheduler", "ListScheduler.schedule", None),
    ("assay", "repro.assay.textio", "graph_from_text", None),
    ("assay", "repro.assay.textio", "schedule_from_text", None),
    ("core.synthesis", "repro.core.synthesis",
     "ReliabilitySynthesizer.synthesize", None),
    ("core.mapping_model", "repro.core.mapping_model",
     "MappingModelBuilder.build", _build_sizes),
    ("core.mapping_model", "repro.core.mapping_model",
     "complete_solution", None),
    ("ilp.model", "repro.ilp.model", "Model.to_arrays", _array_nnz),
    ("ilp.scipy_backend", "repro.ilp.scipy_backend", "solve_scipy",
     _scipy_solution),
    ("ilp.branch_bound", "repro.ilp.branch_bound", "solve_branch_bound",
     _bb_solution),
    ("core.mappers", "repro.core.mappers", "ILPMapper.map_tasks", None),
    ("core.mappers", "repro.core.mappers", "WindowedILPMapper.map_tasks",
     _windowed_result),
    # The window boundary: one span per window the rolling horizon and
    # the refinement place, however many models it takes.
    ("core.mappers", "repro.core.mappers", "WindowedILPMapper._solve_window",
     None),
    ("core.mappers", "repro.core.mappers", "GreedyMapper.map_tasks", None),
    ("core.anytime", "repro.core.anytime", "AnytimeMapper.map_tasks",
     _anytime_result),
    ("core.storage", "repro.core.storage", "StoragePlan.overlap_violations",
     None),
    ("routing", "repro.routing.router", "Router.route_all", None),
    (None, "repro.routing.dijkstra", "dijkstra_path", None),
    ("core.actuation", "repro.core.actuation", "ActuationAccountant.run",
     None),
    ("certify", "repro.certify.audit", "audit", _audit_report),
    ("certify", "repro.certify.lp", "certify_assignment", None),
    (None, "repro.resilience.report", "ResilienceReport.record", _rung),
    ("serve.protocol", "repro.serve.protocol", "decode_message", None),
    ("serve.protocol", "repro.serve.protocol", "encode_message", None),
    ("serve.canonical", "repro.serve.canonical", "problem_key", None),
    ("serve.canonical", "repro.serve.canonical", "canonical_ids", None),
    ("serve.canonical", "repro.serve.canonical", "structure_table", None),
    ("serve.cache", "repro.serve.cache", "ResultCache.lookup", _cache_lookup),
    ("serve.cache", "repro.serve.cache", "ResultCache.store", None),
    ("serve.engine", "repro.serve.engine", "ServeEngine.submit", None),
    ("serve.engine", "repro.serve.engine", "ServeEngine._admit",
     _queue_depth),
    ("serve.engine", "repro.serve.engine", "ServeEngine._solve", None),
)

#: A window, and the greedy mapper; greedy directly inside a window is
#: that window's ``window_greedy`` rung.
WINDOW_SPAN = "WindowedILPMapper._solve_window"
GREEDY_SPAN = "GreedyMapper.map_tasks"


class Tracer:
    """Collects spans and counters from the wrapped layer calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self._group: Optional[str] = None
        self.paused = False

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-owned span (layer ``design``) grouping one design."""
        self._group = name
        span, token = self._open("design", name)
        try:
            yield span
        finally:
            self._close(span, token)
            self._group = None

    def _open(self, layer: str, name: str) -> Tuple[Span, object]:
        parent = _CURRENT.get()
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            layer,
            parent.group if parent is not None else self._new_group(),
            time.perf_counter(),
        )
        with self._lock:
            self.spans.append(span)
        return span, _CURRENT.set(span)

    def _new_group(self) -> str:
        if self._group is not None:
            return self._group
        return f"{threading.current_thread().name}-{next(self._ids)}"

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    def wrap(self, layer, name, fn, observe=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if tracer.paused:
                    return await fn(*args, **kwargs)
                span, token = tracer._open(layer, name)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    span.error = True
                    raise
                finally:
                    tracer._close(span, token)
                if observe is not None:
                    observe(tracer, args, result)
                return result

            return async_wrapper

        if layer is None:

            @functools.wraps(fn)
            def counting_wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not tracer.paused:
                    tracer.count(f"calls.{name}")
                    if observe is not None:
                        observe(tracer, args, result)
                return result

            return counting_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span, token = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer._close(span, token)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path, observe in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self.wrap(layer, path, original, observe)
            self._patch(owner, attr, original, wrapped)
            if owner is module:
                # Modules that imported the function by name hold their
                # own reference; patch those too.
                for other in list(sys.modules.values()):
                    if other is module or other is None:
                        continue
                    for alias, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, alias, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def _closed(self):
        """Closed spans, a map of them by id, and the part of each
        one's interval that its child spans cover (their union, clipped
        to the interval)."""
        closed = [s for s in self.spans if s.end is not None]
        by_id = {s.id: s for s in closed}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in closed:
            if span.parent in by_id:
                children[span.parent].append(span)
        covered: Dict[int, float] = defaultdict(float)
        for parent_id, kids in children.items():
            parent = by_id[parent_id]
            reach = parent.start
            for kid in sorted(kids, key=lambda s: s.start):
                start = max(kid.start, reach)
                end = min(kid.end, parent.end)
                if end > start:
                    covered[parent_id] += end - start
                    reach = end
        return closed, by_id, covered

    def summary(self) -> Dict[str, float]:
        """Per-layer ``calls``, ``s`` and ``self_s`` plus the counters."""
        closed, by_id, covered = self._closed()
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for span in closed:
            if span.layer not in LAYERS:
                continue
            duration = span.end - span.start
            out[f"{span.layer}.calls"] += 1
            out[f"{span.layer}.self_s"] += duration - covered[span.id]
            if not _inside_layer(span, by_id):
                out[f"{span.layer}.s"] += duration
        out.update(self.counters)
        for span in closed:
            out[f"span.{span.name}"] = out.get(f"span.{span.name}", 0) + 1
        windows = [
            s for s in closed if s.name == WINDOW_SPAN and not s.error
        ]
        window_ids = {s.id for s in windows}
        out["core.mappers.windowed.windows_solved"] = len(windows)
        out["window_attempts"] = sum(1 for s in closed if s.name == WINDOW_SPAN)
        out["core.mappers.windowed.greedy_windows"] = sum(
            1 for s in closed
            if s.name == GREEDY_SPAN and s.parent in window_ids
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)

    def overhead_estimate(self, samples: int = 20000) -> float:
        """Seconds the wrappers added: calls made times the measured
        cost of one wrapped call over a bare one."""
        probe = Tracer()

        def bare():
            return None

        wrapped = probe.wrap("design", "probe", bare)
        start = time.perf_counter()
        for _ in range(samples):
            bare()
        middle = time.perf_counter()
        for _ in range(samples):
            wrapped()
        end = time.perf_counter()
        per_call = max(0.0, ((end - middle) - (middle - start)) / samples)
        calls = len(self.spans) + sum(
            v for k, v in self.counters.items() if k.startswith("calls.")
        )
        return calls * per_call

    def self_time_errors(self) -> List[Tuple[str, float, float]]:
        """(group, root duration, sum of self times) per disagreeing root.

        A self time is a span's duration minus the part of it that its
        children cover, so over one root's tree the self times add up to
        the root's duration only when every child lies inside its parent
        and no two siblings overlap.  A span that leaks out of its parent,
        or two concurrent calls recorded under one parent, break the sum.
        """
        closed, by_id, covered = self._closed()
        totals: Dict[int, float] = defaultdict(float)
        for span in closed:
            root = span
            while root.parent in by_id:
                root = by_id[root.parent]
            totals[root.id] += span.end - span.start - covered[span.id]
        errors = []
        for root_id, total in totals.items():
            root = by_id[root_id]
            duration = root.end - root.start
            if abs(total - duration) > 1e-6 * max(1.0, duration):
                errors.append((root.group, duration, total))
        return errors

    def nesting_errors(self) -> List[int]:
        """Ids of spans that do not lie inside their parent's interval."""
        by_id = {s.id: s for s in self.spans}
        bad = []
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is None:
                continue
            if span.end is None or parent.end is None or not (
                parent.start <= span.start <= span.end <= parent.end
            ):
                bad.append(span.id)
        return bad


def _inside_layer(span: Span, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.layer == span.layer:
            return True
        parent = by_id.get(parent.parent)
    return False

