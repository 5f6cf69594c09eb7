"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1`` from the repository root.

Every run has two phases, and every workload runs both, weighted
differently (see ``perfbench/README.md``):

* **batch** — unbudgeted default-config synthesis of the workload's
  designs in a program process of its own (``batch_worker.py``);
* **serve** — ``python -m repro serve`` (through ``serve_launcher.py``)
  driven by a seeded closed loop of two connections (``traffic.py``).

Set-up (spawning each program process until it is ready) is repeated
:data:`SETUP_TRIALS` times and its median reported.  Every design and
every served job is checked; a failed check counts the operation as
failed.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# The traffic generator builds its assays with the package's fuzzer.
sys.path.insert(1, str(ROOT / "src"))

from tracer import LAYERS  # noqa: E402

SETUP_TRIALS = 3

#: Serve settings: a small grid, the default two solver threads and a
#: two-second budget per job; the client holds two connections.
#: At one second, about half the solves overran their routing budget
#: under two concurrent solves and took a second mapping attempt, so
#: solve latency was bimodal.
SERVE_GRID = 8
SERVE_WORKERS = 2
SERVE_BUDGET_S = 2.0

#: The served objective is the mean over the first fresh problems, the
#: same assays in every run, so it compares like with like.
SCORED_FRESH = 2

#: Where traced runs write their spans (one file per program process).
SPANS_DIR = ROOT / ".perfbench"

#: Hard stop for one run; a hung program process fails the run.
RUN_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    why: str
    designs: Tuple[str, ...]
    #: batch passes over the designs before the serve phase, and as many
    #: again after it; the serve phase gets what they leave of
    #: ``--seconds``.
    passes: int
    #: serve cycles at least (see ``traffic.py``).
    cycles: int
    #: batch passes after every serve cycle, inside the serve phase's
    #: time, so that the passes sample the host's speed across the run.
    woven: int = 0
    #: Table-1 setting-1 "vs max" as total(peristaltic), per design.
    frozen: Dict[str, Tuple[int, int]] = field(default_factory=dict)


#: No workload runs fuzz assays whose windows go infeasible (fuzz:1:30):
#: with a third workload the repetitions leave room for one batch pass
#: a run, and a single 20 s pass moved by up to a third between runs on
#: a shared host, more than any bound allows.
WORKLOADS: Dict[str, Workload] = {
    "table1": Workload(
        why="Table-1 PCR and mixing tree p1, default config: model build "
        "and HiGHS dominate",
        designs=("pcr", "mixing_tree"),
        passes=1,
        cycles=1,
        frozen={"pcr": (45, 40), "mixing_tree": (88, 80)},
    ),
    "serve": Workload(
        why="closed-loop serve traffic of fresh, mutated and relabeled "
        "assays: anytime solves, canonical cache and protocol",
        designs=("pcr",),
        # Fourteen PCR passes in four groups across the run: four before
        # the serve phase, three after each of its cycles, four after it.
        passes=4,
        woven=3,
        # Eight solves, four of each class.
        cycles=2,
    ),
}

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "synth_s": ("s", "lower"),
    "max_actuations": ("count", "lower"),
    "used_valves": ("count", "lower"),
    "clean_designs": ("count", "higher"),
    "ok_share": ("ratio", "higher"),
    "hit_ms_p50": ("ms", "lower"),
    "solve_s_p50": ("s", "lower"),
    "resolve_s_p50": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "served_objective": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in _LAYER_UNITS.items()
    },
    "core.mapping_model.build.rows": "count",
    "core.mapping_model.build.cols": "count",
    "ilp.model.to_arrays.nnz": "count",
    "ilp.scipy_backend.nodes": "count",
    "ilp.scipy_backend.no_solution": "count",
    "ilp.branch_bound.nodes": "count",
    "ilp.branch_bound.simplex_iterations": "count",
    "core.mappers.windowed.windows_solved": "count",
    "core.mappers.windowed.greedy_windows": "count",
    "window_waste": "ratio",
    "refine_yield": "ratio",
    "core.anytime.exact_wins": "count",
    "core.anytime.heuristic_wins": "count",
    "core.anytime.exact_abandoned": "count",
    "routing.dijkstra_calls": "count",
    "certify.violations": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.engine.queue_depth_max": "count",
    "serve.engine.degraded_share": "ratio",
    "trace.synth_s": "s",
    "trace.jobs_per_s": "1/s",
    "trace.hit_ms_p99": "ms",
    "trace.hit_ms_p50": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


# -- program processes -----------------------------------------------------


class Programs:
    """Every process this run starts; all are stopped on exit."""

    def __init__(self) -> None:
        # Unbuffered, so the server's "serving on" line arrives at once.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            PYTHONUNBUFFERED="1",
        )
        self.procs: List[subprocess.Popen] = []

    def spawn(self, script: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()


def read_json_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(
            f"program process exited early (code {proc.wait()})"
        )
    return json.loads(line)


class BatchWorker:
    """The batch program process: set up :data:`SETUP_TRIALS` times
    (the last one is kept), then asked for passes."""

    def __init__(self, programs, trace, spans) -> None:
        self.setups = []
        for trial in range(SETUP_TRIALS):
            start = time.perf_counter()
            self.proc = programs.spawn(
                "batch_worker.py", "--trace", str(trace), "--spans", spans
            )
            if not read_json_line(self.proc).get("ready"):
                raise RuntimeError("batch worker did not report ready")
            self.setups.append(time.perf_counter() - start)
            if trial < SETUP_TRIALS - 1:
                self.stop()
        self.passes: List[dict] = []

    def run(self, order, passes) -> float:
        """Run ``passes`` passes over ``order``; their wall time."""
        start = time.perf_counter()
        self.proc.stdin.write(
            json.dumps({"designs": order, "passes": passes}) + "\n"
        )
        self.proc.stdin.flush()
        self.passes += read_json_line(self.proc)["passes"]
        return time.perf_counter() - start

    def stop(self) -> dict:
        """End the process; its report (peak RSS, trace)."""
        self.proc.stdin.write("exit\n")
        self.proc.stdin.flush()
        report = read_json_line(self.proc)
        self.proc.wait()
        return report


async def _ping(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())
        if reply.get("event") != "pong":
            raise RuntimeError(f"unexpected ping reply {reply}")
    finally:
        writer.close()
        await writer.wait_closed()


def start_server(programs, trace, spans):
    """Spawn the server; (process, port, seconds until its first pong)."""
    start = time.perf_counter()
    proc = programs.spawn(
        "serve_launcher.py", "--trace", str(trace), "--spans", spans, "--",
        "--port", "0", "--grid", str(SERVE_GRID),
        "--workers", str(SERVE_WORKERS),
        "--time-budget", str(SERVE_BUDGET_S),
    )
    line = proc.stdout.readline()
    match = re.search(r"serving on [^:\s]+:(\d+)", line)
    if match is None:
        raise RuntimeError(f"server did not start: {line!r}")
    port = int(match.group(1))
    asyncio.run(_ping(port))
    return proc, port, time.perf_counter() - start


def stop_server(proc: subprocess.Popen) -> dict:
    proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=60)
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("server exited without its report")
    return json.loads(lines[-1])


def serve_phase(programs, seed, seconds, cycles, trace, spans, between):
    from traffic import Traffic, closed_loop

    setups = []
    for trial in range(SETUP_TRIALS):
        proc, port, setup = start_server(programs, trace, spans)
        setups.append(setup)
        if trial < SETUP_TRIALS - 1:
            stop_server(proc)
    session = asyncio.run(
        closed_loop("127.0.0.1", port, Traffic(seed), seconds, cycles,
                    between)
    )
    report = stop_server(proc)
    return setups, session, report


# -- figures -----------------------------------------------------------------


def serve_figures(session) -> Dict[str, float]:
    done = [o for o in session.outcomes if o.event == "done"]
    hits = [o.latency * 1e3 for o in done
            if o.kind == "read" and o.source == "cache"]
    fresh = [o.latency for o in done if o.kind == "fresh" and o.source == "solve"]
    mutated = [o.latency for o in done
               if o.kind == "mutation" and o.source == "solve"]
    solves = [o for o in done if o.source == "solve"]
    scored = [
        o.result["metrics"]["mapping_objective"] for o in solves
        if o.kind == "fresh" and o.context["fresh_index"] <= SCORED_FRESH
    ]
    if len(hits) < 2:
        raise RuntimeError("the read phase timed fewer than two hits")
    for name, values in (("fresh solves", fresh),
                         ("mutation solves", mutated)):
        if not values:
            raise RuntimeError(f"the serve phase produced no {name}")
    if len(scored) != SCORED_FRESH:
        raise RuntimeError("the serve phase did not solve the scored problems")
    # A hit repeats its original's rungs, so only solves are counted.
    clean = sum(1 for o in solves
                if not (o.result.get("resilience") or {}).get("events"))
    return {
        "hit_ms_p50": statistics.median(hits),
        "hit_ms_p99": statistics.quantiles(hits, n=100)[98],
        "solve_s_p50": statistics.median(fresh),
        "resolve_s_p50": statistics.median(mutated),
        "jobs_per_s": sum(1 for o in done if o.kind != "read") / session.wall,
        "served_objective": statistics.mean(scored),
        "clean_share": clean / len(solves),
        "hit_samples": len(hits),
    }


def synth_time(passes: List[dict]) -> float:
    """The fastest batch pass.

    A pass does the same work every time (the same models, HiGHS nodes
    and designs), and its CPU time follows its wall time: a slower pass
    is the shared host lending the process less speed.  The fastest pass
    is the run's estimate of what the program costs when it has the
    processor, as ``timeit`` reports; the median of the passes also
    follows how much of the run the host spent slow (figures in
    ``README.md``).
    """
    return min(p["wall_s"] for p in passes)


def batch_checks(workload: Workload, batch: dict) -> List[str]:
    """One entry per batch design that fails a check."""
    failures = []
    for number, one_pass in enumerate(batch["passes"]):
        for design in one_pass["designs"]:
            problems = []
            if design["violations"]:
                problems.append(f"{design['violations']} audit violations")
            expected = workload.frozen.get(design["name"])
            got = (design["max_total"], design["max_peristaltic"])
            if expected is not None and got != expected:
                problems.append(
                    f"vs max {got[0]}({got[1]}), expected "
                    f"{expected[0]}({expected[1]})"
                )
            if problems:
                failures.append(
                    f"pass {number} {design['name']}: " + "; ".join(problems)
                )
    return failures


def trace_checks(batch: dict, server: dict, session) -> List[str]:
    """The traced counts must agree with what the program reports."""
    problems = []
    btrace, strace = batch["trace"], server["trace"]

    def expect(what, traced, reported):
        if traced != reported:
            problems.append(f"{what}: traced {traced} != reported {reported}")

    expect(
        "windows solved",
        btrace["core.mappers.windowed.windows_solved"],
        btrace.get("reported.windows_solved", 0),
    )
    expect(
        "batch rungs",
        btrace.get("resilience.rungs", 0),
        sum(d["rungs"] for p in batch["passes"] for d in p["designs"]),
    )
    expect(
        "served rungs",
        strace.get("resilience.rungs", 0),
        sum(
            len((o.result.get("resilience") or {}).get("events") or ())
            for o in session.outcomes
            if o.event == "done" and o.source == "solve"
        ),
    )
    expect(
        "cache hits",
        strace.get("serve.cache.hits", 0),
        session.status.get("cache", {}).get("hits"),
    )
    # The engine keys every submission once, through a by-name import.
    expect(
        "problem keys",
        strace.get("span.problem_key", 0),
        strace.get("span.ServeEngine.submit", 0),
    )
    for origin, part in (("batch", batch), ("serve", server)):
        if part["nesting_errors"]:
            problems.append(f"{origin}: {part['nesting_errors']} spans "
                            "outside their parent")
        if part["self_time_errors"]:
            problems.append(f"{origin}: self times do not add up for "
                            f"{part['self_time_errors'][:3]}")
    return problems


def layer_figures(batch, server, serve) -> Dict[str, float]:
    btrace, strace = batch["trace"], server["trace"]
    merged: Dict[str, float] = {}
    for key in set(btrace) | set(strace):
        merged[key] = btrace.get(key, 0) + strace.get(key, 0)
    merged["serve.engine.queue_depth_max"] = strace.get(
        "serve.engine.queue_depth_max", 0
    )
    out = {name: merged.get(name, 0) for name in PER_LAYER}
    out["routing.dijkstra_calls"] = merged.get("calls.dijkstra_path", 0)
    attempted = merged.get("window_attempts", 0)
    out["window_waste"] = (
        out["core.mappers.windowed.greedy_windows"] / attempted
        if attempted else 0.0
    )
    probes = merged.get("reported.refine_probes", 0)
    out["refine_yield"] = (
        merged.get("reported.refine_accepted", 0) / probes if probes else 0.0
    )
    lookups = merged.get("serve.cache.lookups", 0)
    out["serve.cache.hit_ratio"] = (
        merged.get("serve.cache.hits", 0) / lookups if lookups else 0.0
    )
    out["serve.engine.degraded_share"] = 1.0 - serve["clean_share"]
    out["trace.synth_s"] = synth_time(batch["passes"])
    out["trace.jobs_per_s"] = serve["jobs_per_s"]
    out["trace.hit_ms_p99"] = serve["hit_ms_p99"]
    out["trace.hit_ms_p50"] = serve["hit_ms_p50"]
    out["trace.overhead_s"] = batch["overhead_s"] + server["overhead_s"]
    out["trace.spans"] = batch["span_count"] + server["span_count"]
    return out


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    order = list(workload.designs)
    rng.shuffle(order)
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
    spans = str(SPANS_DIR / f"{args.workload}-{args.seed}")
    programs = Programs()
    try:
        worker = BatchWorker(programs, args.trace, spans + "-batch.json")
        # Passes on each side of the serve phase (and woven into it), so
        # they sample the host's speed at moments across the run.
        half = worker.run(order, workload.passes)
        between = None
        if workload.woven:
            between = functools.partial(worker.run, order, workload.woven)
        serve_setups, session, server = serve_phase(
            programs, rng.randrange(1 << 30), args.seconds - 2 * half,
            workload.cycles, args.trace, spans + "-serve.json", between,
        )
        worker.run(order, workload.passes)
        batch = {"passes": worker.passes, **worker.stop()}
    finally:
        programs.stop_all()

    failures = batch_checks(workload, batch) + session.failures
    designs = [d for p in batch["passes"] for d in p["designs"]]
    attempted = len(designs) + len(session.outcomes)
    failed = len(failures)
    serve = serve_figures(session)
    first = batch["passes"][0]["designs"]
    if args.trace:
        failures += trace_checks(batch, server, session)
        metrics = layer_figures(batch, server, serve)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(worker.setups)
            + statistics.median(serve_setups),
            "synth_s": synth_time(batch["passes"]),
            "max_actuations": sum(d["max_total"] for d in first),
            "used_valves": sum(d["used_valves"] for d in first),
            "clean_designs": sum(1 for d in first if not d["rungs"]),
            "ok_share": (attempted - failed) / attempted,
            **{k: v for k, v in serve.items() if k in END_TO_END},
            "peak_rss_mb": max(batch["peak_rss_mb"], server["peak_rss_mb"]),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(batch['passes'])} batch "
        f"pass(es) of {order}, {len(session.outcomes)} jobs "
        f"({serve['hit_samples']} hits) in {session.wall:.1f} s",
        file=sys.stderr,
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print("error: the repro package (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    print(json.dumps(run(args)), flush=True)
    return 0


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
