"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

The smoke runs swap each workload's batch designs for small ones and
shorten the run; everything else (processes, traffic, checks, metric
names) is the real benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import traffic  # noqa: E402
from tracer import Tracer  # noqa: E402
from traffic import Problem, Session, Traffic  # noqa: E402

SMOKE_SECONDS = 8

#: Small stand-ins for each workload's batch designs.
SMOKE = {
    "table1": run.Workload(
        why="smoke", designs=("pcr", "fuzz:2:13"), passes=1, cycles=1,
        frozen={"pcr": (45, 40)},
    ),
    "serve": run.Workload(
        why="smoke", designs=("fuzz:2:8",), passes=2, cycles=1, woven=1,
    ),
}


def smoke(monkeypatch, workload: str, trace: int, seed: int = 3) -> dict:
    monkeypatch.setitem(run.WORKLOADS, workload, SMOKE[workload])
    monkeypatch.setattr(traffic, "READ_S", 1.0)
    monkeypatch.setattr(traffic, "SETTLE_S", 0.5)
    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=SMOKE_SECONDS, trace=trace
    )
    result = run.run(args)
    json.dumps(result)  # the result line must serialize
    return result


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_names_every_workload_and_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(monkeypatch, workload):
    result = smoke(monkeypatch, workload, trace=0)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    for name, (unit, _) in run.END_TO_END.items():
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0, name


def test_woven_passes_run_after_every_serve_cycle(monkeypatch):
    requests = []
    original = run.BatchWorker.run

    def recording(self, order, passes):
        requests.append(passes)
        return original(self, order, passes)

    monkeypatch.setattr(run.BatchWorker, "run", recording)
    result = smoke(monkeypatch, "serve", trace=0)
    assert result["correct"], result
    woven = requests[1:-1]
    assert requests[0] == requests[-1] == SMOKE["serve"].passes
    assert woven and set(woven) == {SMOKE["serve"].woven}


def test_traced_smoke_run_prints_every_layer_metric(monkeypatch):
    result = smoke(monkeypatch, "table1", trace=1)
    # correct includes the cross-checks, span nesting and self times.
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    for layer in tracer_module.LAYERS:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
        assert metrics[f"{layer}.s"]["value"] > 0, layer
    assert metrics["core.mappers.windowed.windows_solved"]["value"] > 0
    spans = ROOT / ".perfbench" / "table1-3-batch.json"
    assert json.loads(spans.read_text())


# -- the tracer ----------------------------------------------------------------


def _nested_calls(tracer: Tracer):
    def leaf():
        time.sleep(0.002)

    wrapped_leaf = tracer.wrap("routing", "leaf", leaf)

    def middle():
        wrapped_leaf()
        time.sleep(0.001)
        wrapped_leaf()

    wrapped_middle = tracer.wrap("core.mappers", "middle", middle)

    def top():
        wrapped_middle()
        wrapped_leaf()

    return tracer.wrap("core.synthesis", "top", top)


def test_spans_nest_and_self_times_sum_to_the_root():
    tracer = Tracer()
    top = _nested_calls(tracer)
    with tracer.root("design:a:0"):
        top()
    with tracer.root("design:b:0"):
        top()
    assert len(tracer.spans) == 2 * 6  # root, top, middle, three leaves
    assert tracer.nesting_errors() == []
    assert tracer.self_time_errors() == []
    groups = {span.group for span in tracer.spans}
    assert groups == {"design:a:0", "design:b:0"}
    summary = tracer.summary()
    assert summary["routing.calls"] == 6
    assert summary["core.synthesis.calls"] == 2
    roots = [s for s in tracer.spans if s.parent is None]
    root_time = sum(r.end - r.start for r in roots)
    root_self = root_time - summary["core.synthesis.s"]
    layer_self = sum(
        summary[f"{layer}.self_s"] for layer in tracer_module.LAYERS
    )
    assert layer_self + root_self == pytest.approx(root_time)


def _spans(tracer: Tracer, *intervals):
    """Closed spans (id, parent, start, end) added to ``tracer``."""
    for span_id, parent, start, end in intervals:
        span = tracer_module.Span(span_id, parent, "s", "routing", "g", start)
        span.end = end
        tracer.spans.append(span)


def test_overlapping_siblings_break_the_self_time_sum():
    tracer = Tracer()
    _spans(tracer, (1, None, 0.0, 10.0), (2, 1, 1.0, 5.0), (3, 1, 4.0, 8.0))
    assert tracer.nesting_errors() == []
    assert tracer.self_time_errors() == [("g", 10.0, 11.0)]


def test_a_child_leaking_out_of_its_parent_breaks_the_self_time_sum():
    tracer = Tracer()
    _spans(tracer, (1, None, 0.0, 10.0), (2, 1, 2.0, 6.0), (3, 2, 5.0, 7.0))
    assert tracer.nesting_errors() == [3]
    assert tracer.self_time_errors() == [("g", 10.0, 11.0)]


def test_disjoint_siblings_self_times_add_up():
    tracer = Tracer()
    _spans(tracer, (1, None, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 1, 4.0, 8.0),
           (4, 3, 5.0, 6.0))
    assert tracer.self_time_errors() == []
    summary = tracer.summary()
    assert summary["routing.self_s"] == pytest.approx(10.0)


def test_thread_spans_start_their_own_roots():
    tracer = Tracer()
    top = _nested_calls(tracer)
    with tracer.root("design:a:0"):
        worker = threading.Thread(target=top)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2
    assert tracer.self_time_errors() == []
    assert tracer.nesting_errors() == []


def test_install_wraps_by_name_imports_and_uninstall_restores():
    import repro.serve.canonical as canonical
    import repro.serve.engine as engine

    original = canonical.problem_key
    tracer = Tracer()
    tracer.install()
    try:
        assert canonical.problem_key is not original
        assert engine.problem_key is canonical.problem_key
    finally:
        tracer.uninstall()
    assert canonical.problem_key is original
    assert engine.problem_key is original


def _serve_twice(tracer: Tracer):
    """Solve one assay in-process, resubmit it; the status reply."""
    from repro.geometry import GridSpec
    from repro.serve.engine import ServeConfig, ServeEngine

    text = Traffic(0)._fresh()

    async def body():
        config = ServeConfig(grid=GridSpec(8, 8), workers=1, time_budget=0.5)
        async with ServeEngine(config) as serve_engine:
            for _ in range(2):
                job = await serve_engine.submit(text)
                await job.wait()
            return serve_engine.status()

    return asyncio.run(body())


def _checks(trace: dict, status: dict):
    empty = {
        "trace": {"core.mappers.windowed.windows_solved": 0},
        "passes": [],
        "nesting_errors": 0,
        "self_time_errors": [],
    }
    server = {"trace": trace, "nesting_errors": 0, "self_time_errors": []}
    session = Session([], [], status, wall=1.0)
    return run.trace_checks(empty, server, session)


def test_cross_checks_pass_when_wrappers_sit_where_the_program_looks():
    tracer = Tracer()
    tracer.install()
    try:
        status = _serve_twice(tracer)
    finally:
        tracer.uninstall()
    trace = tracer.summary()
    trace["resilience.rungs"] = 0  # outcomes are not part of this check
    assert _checks(trace, status) == []


def test_a_wrapper_at_the_wrong_import_name_is_caught():
    import repro.serve.engine as engine

    tracer = Tracer()
    tracer.install()
    wrapped = engine.problem_key
    # Undo the by-name patch in the engine: only the defining module
    # keeps the wrapper, as a tracer patching one name would leave it.
    original = next(
        o for owner, attr, o in tracer._undo
        if owner is engine and attr == "problem_key"
    )
    engine.problem_key = original
    try:
        status = _serve_twice(tracer)
    finally:
        engine.problem_key = wrapped
        tracer.uninstall()
    trace = tracer.summary()
    trace["resilience.rungs"] = 0
    problems = _checks(trace, status)
    assert any(p.startswith("problem keys") for p in problems), problems


# -- traffic -------------------------------------------------------------------


def test_traffic_is_deterministic_in_the_seed():
    def stream(seed):
        traffic = Traffic(seed)
        sent = []
        for _ in range(2):
            kinds = traffic.cycle()
            assert sorted(kinds) == ["fresh", "fresh", "mutation", "mutation"]
            sent += [traffic.write(kind)[1] for kind in kinds]
        assert len(set(sent)) == len(sent)
        problems = [Problem(text, {"devices": [], "routes": []})
                    for text in sent[:2]]
        reads = [text for _, text, _ in traffic.reads(problems)]
        assert len(reads) == 2 * 7
        return sent + reads

    assert Traffic(5).cycle()[0] == "fresh"
    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


#: m1 and m2 are twins; m3 and m4 have the same input but different
#: children, so they are not.
TWINS = (
    "input in0 volume=2\ninput in1 volume=2\n"
    "mix m1 in0 in1 duration=4 volume=4 ratio=1:1\n"
    "mix m2 in0 in1 duration=4 volume=4 ratio=1:1\n"
    "mix m3 m1 m2 duration=4 volume=8 ratio=1:1\n"
    "mix m4 m1 m2 duration=4 volume=8 ratio=1:1\n"
    "mix m5 m3 duration=4 volume=8 ratio=1:1\n"
    "mix m6 m4 duration=8 volume=8 ratio=1:1\n"
)


def _design(**placed):
    """A design whose devices sit at the given (x, y) and whose routes
    feed each placed operation from its first parent."""
    parents = {"m1": "in0", "m2": "in0", "m3": "m1", "m4": "m1",
               "m5": "m3", "m6": "m4"}
    devices, routes = [], []
    for op, (x, y) in placed.items():
        devices.append({"operation": op, "x": x, "y": y, "width": 2,
                        "height": 2, "type": "2x2", "storage_from": 0})
        routes.append({"time": 0, "source": parents[op], "target": op,
                       "cells": [[x, y]]})
    return {"devices": devices, "routes": routes}


def _renamed(design, names):
    out = {"devices": [], "routes": []}
    for device in design["devices"]:
        out["devices"].append(dict(device, operation=names[device["operation"]]))
    for route in design["routes"]:
        out["routes"].append(dict(route, source=names[route["source"]],
                                  target=names[route["target"]]))
    return out


def test_a_relabeled_hit_maps_back_only_through_an_automorphism():
    spots = {"m1": (0, 0), "m2": (2, 0), "m3": (4, 0), "m4": (6, 0),
             "m5": (0, 4), "m6": (4, 4)}
    problem = Problem(TWINS, _design(**spots))
    names = {op: f"op{i}" for i, op in enumerate(
        ["in0", "in1", "m1", "m2", "m3", "m4", "m5", "m6"])}
    back = {new: old for old, new in names.items()}

    def served(relabeled_spots, route_parents=None):
        design = _design(**relabeled_spots)
        if route_parents:
            for route in design["routes"]:
                route["source"] = route_parents.get(route["target"],
                                                    route["source"])
        return problem.served_again(_renamed(design, names), back)

    assert served(spots)
    # The twins m1 and m2 may trade places, routes along with them.
    swapped = dict(spots, m1=spots["m2"], m2=spots["m1"])
    assert served(swapped, {"m3": "m2", "m4": "m2"})
    # m3 and m4 share their inputs but not their children.
    assert not served(dict(spots, m3=spots["m4"], m4=spots["m3"]),
                      {"m5": "m4", "m6": "m3"})
    # Right placements, but a route from the wrong operation.
    assert not served(spots, {"m5": "m4"})
    # A missing device.
    assert not served({k: v for k, v in spots.items() if k != "m6"})


def test_routes_sharing_time_and_cells_match_by_their_ends():
    spots = {"m1": (0, 0), "m2": (2, 0), "m3": (4, 0), "m5": (0, 4)}
    design = _design(**spots)
    for route in design["routes"]:
        route["cells"] = []
    problem = Problem(TWINS, design)
    names = {op: op.upper() for op in ("in0", "in1", "m1", "m2", "m3", "m5")}
    back = {new: old for old, new in names.items()}
    hit = _renamed(design, names)
    assert problem.served_again(hit, back)
    hit["routes"][-1]["source"] = "M2"
    assert not problem.served_again(hit, back)
