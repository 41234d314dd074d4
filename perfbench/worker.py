"""One workload round in a fresh interpreter.

Started by run.py with the monotonic clock reading taken just before the
process was spawned.  It imports osclab from the checkout's src/, builds
the command line, calls osclab.cli.main in-process and writes its timings
to worker.json in the output directory:

  setup_s      spawn to the start of the timed call (interpreter start,
               imports, argument building)
  solve_s      wall time of osclab.cli.main (solve_cpu_s: its CPU time)
  peak_rss_mb  peak resident memory of this process
  layers       per-module metrics (traced rounds only)

With --setup-only it stops where the timed call would begin.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--osclab-seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken before the spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from osclab import cli

    out_dir = Path(args.out_dir)
    wl = workloads.WORKLOADS[args.workload]
    argv = workloads.cli_argv(wl, args.osclab_seed, str(out_dir), args.smoke)
    tracer = absent = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        absent = spans.instrument(tracer)

    t_begin = _now()
    result = {"setup_s": t_begin - args.spawned_at}
    if not args.setup_only:
        cpu_begin = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        t_end = _now()
        result["solve_s"] = t_end - t_begin
        result["solve_cpu_s"] = time.process_time() - cpu_begin
        result["exit_code"] = int(code or 0)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = spans.metrics(tracer, absent)
            result["absent_spans"] = sorted(absent)
            result["span_count"] = len(tracer.names)
            tracer.write(out_dir / "trace_spans.csv")
    (out_dir / "worker.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
