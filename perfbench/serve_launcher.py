"""Serve program process: ``python -m repro serve`` plus an exit report.

``python3 perfbench/serve_launcher.py --trace 0|1 -- <serve arguments>``
with ``PYTHONPATH=src``.  It runs the repository's own ``serve`` command
in this process; with ``--trace 1`` it first installs the layer
wrappers, so the server's calls are traced the same way as the batch
worker's.  When the server exits (SIGINT), it prints one JSON line with
the peak RSS and, when traced, the trace summary and span checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced spans are written to")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    warnings.simplefilter("ignore")
    # SIGINT stops the server; a parent started in the background may
    # have handed down an ignored SIGINT, so ask for the default again.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.__main__ import main as repro_main

    tracer = None
    if args.trace:
        # The engine modules must be loaded before patching so their
        # by-name imports are found and wrapped too.
        import repro.serve.engine  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = repro_main(["serve", *serve_args])
    report = {
        "exit": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["self_time_errors"] = tracer.self_time_errors()
        report["nesting_errors"] = len(tracer.nesting_errors())
        report["span_count"] = len(tracer.spans)
        report["overhead_s"] = tracer.overhead_estimate()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
