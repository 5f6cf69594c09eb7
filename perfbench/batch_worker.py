"""Batch program process: default-config synthesis of registry designs.

Started by ``run.py`` with ``PYTHONPATH=src``.  It sets itself up
(imports, the lazy solver import, one warm-up design), prints
``{"ready": true}`` and then reads requests from stdin, one a line.  A
request ``{"designs": [...], "passes": N}`` runs ``N`` passes over the
designs, audits every design, and prints one JSON line with each
design's wall time (the audit not included).  ``exit`` (or the end of
stdin) prints a last line with the peak RSS and, when traced, the trace
summary and span checks, and ends the process.  With ``--trace 1`` the
layer wrappers are installed after set-up, so set-up and audits are
never traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Smallest monolithic-ILP design; it pulls in HiGHS before timing starts.
WARMUP_DESIGN = "fuzz:0:4"


def synthesize(name: str):
    """Schedule ``name``'s policy-1 case and synthesize it, default config."""
    from repro.assays.registry import get_case, schedule_for
    from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig

    case = get_case(name)
    schedule = schedule_for(case, case.policies(1)[0])
    config = SynthesisConfig(grid=case.grid)
    return ReliabilitySynthesizer(config).synthesize(case.graph(), schedule)


def design_record(name: str, wall: float, result, audit_report) -> dict:
    metrics = result.metrics
    report = result.resilience
    return {
        "name": name,
        "wall_s": wall,
        "max_total": metrics.setting1.max_total,
        "max_peristaltic": metrics.setting1.max_peristaltic,
        "used_valves": metrics.used_valves,
        "rungs": len(report.events) if report is not None else 0,
        "violations": len(audit_report.violations),
    }


def run_passes(designs, count: int, first: int, tracer=None) -> list:
    """``count`` passes over ``designs``, numbered from ``first``."""
    from repro.certify import audit

    passes = []
    for number in range(first, first + count):
        records = []
        for name in designs:
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.root(f"design:{name}:{number}"):
                    result = synthesize(name)
            else:
                result = synthesize(name)
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.paused = True
            try:
                report = audit(result)
            finally:
                if tracer is not None:
                    tracer.paused = False
            records.append(design_record(name, wall, result, report))
        passes.append({
            "wall_s": sum(r["wall_s"] for r in records),
            "designs": records,
        })
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced spans are written to")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    synthesize(WARMUP_DESIGN)
    print(json.dumps({"ready": True}), flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    done = 0
    for line in sys.stdin:
        if line.strip() == "exit":
            break
        request = json.loads(line)
        passes = run_passes(request["designs"], request["passes"], done,
                            tracer)
        done += len(passes)
        print(json.dumps({"passes": passes}), flush=True)

    out = {}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["self_time_errors"] = tracer.self_time_errors()
        out["nesting_errors"] = len(tracer.nesting_errors())
        out["span_count"] = len(tracer.spans)
        out["overhead_s"] = tracer.overhead_estimate()
        if args.spans:
            tracer.write_spans(args.spans)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
