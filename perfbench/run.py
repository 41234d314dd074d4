#!/usr/bin/env python3
"""osclab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an osclab checkout.  Each round starts a fresh
interpreter (worker.py) that imports osclab from src/ and makes one
osclab.cli.main call; this process then checks the round's output files
against references computed in checks.py, which imports nothing from
osclab.

--trace 0 repeats whole rounds until S seconds have passed (at least one
round), adds SETUP_PROBES set-up-only starts, and reports the medians of
solve_s, setup_s and peak_rss_mb.  --trace 1 makes one traced round and
reports its per-module metrics and its own solve time, trace.solve_s; the
tracing overhead is trace.solve_s minus the solve_s of a --trace 0 run with
the same seed (README.md).  An untraced round in the same run would not fit
the 2-d curve's two rounds in the time a run may take.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every CLI call and every check is one
operation.  The exit code is 0 when every operation succeeded, 1 when one
failed, and 2 when the checkout or the arguments are unusable (no result
is printed then).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_PROBES = 2
# every process this driver starts must end before this many seconds
DEADLINE_S = 170.0

# One BLAS/OpenMP thread: the workloads run osclab with --threads 1, and a
# second pool competing for the sandbox's cores would only add noise.
_CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


# checks whose detail is printed on stderr even when they pass
_NOTED_CHECKS = ("limit_within_tolerance", "battery_cases_pass")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Driver:
    def __init__(self, workload: workloads.Workload, seed: int, smoke: bool):
        self.wl = workload
        self.osclab_seed = workloads.osclab_seed(workload.name, seed)
        self.smoke = smoke
        self.deadline = _now() + DEADLINE_S
        self.outcomes = []
        self.env = dict(os.environ, **_CHILD_ENV)

    def _spawn(self, out_dir: Path, *flags: str) -> dict:
        """Run worker.py once; returns its worker.json, or {} on failure."""
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.wl.name,
               "--osclab-seed", str(self.osclab_seed),
               "--out-dir", str(out_dir), *flags]
        if self.smoke:
            cmd.append("--smoke")
        timeout = max(self.deadline - _now(), 1.0)
        with open(out_dir / "cli.log", "w") as log:
            spawned = _now()
            try:
                proc = subprocess.run(
                    [*cmd, "--spawned-at", repr(spawned)], stdout=log,
                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                print(f"worker timed out after {timeout:.0f} s; see "
                      f"{out_dir / 'cli.log'}", file=sys.stderr)
                return {}
        try:
            result = json.loads((out_dir / "worker.json").read_text())
        except (OSError, ValueError):
            result = {}
        if proc.returncode != 0 or not result:
            print(f"worker exited {proc.returncode}; see "
                  f"{out_dir / 'cli.log'}", file=sys.stderr)
            return {}
        return result

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for _, passed, _ in self.outcomes if not passed)

    def _count(self, name: str, passed: bool, detail: str = "") -> None:
        self.outcomes.append((name, passed, detail))
        if not passed:
            print(f"FAILED {self.wl.name} {name}: {detail}", file=sys.stderr)

    def round(self, tag: str, trace: bool = False) -> dict:
        """One CLI call plus every check of its outputs."""
        out_dir = RUNS_DIR / self.wl.name / tag
        result = self._spawn(out_dir, *(["--trace"] if trace else []))
        code = result.get("exit_code", -1)
        # verify exits 1 when a suite fails; check_verify judges the cases
        self._count("cli_call", code in self.wl.exit_codes,
                    f"exit code {code}")
        if self.wl.kind == "curve":
            found = checks.check_curve(out_dir, self.wl.dim, self.wl.p,
                                       self.wl.limit_tol,
                                       self.wl.require_limit_ok,
                                       workloads.PLATEAU)
        else:
            found = checks.check_verify(out_dir, code)
        for name, passed, detail in found:
            self._count(name, passed, detail)
            if passed and name in _NOTED_CHECKS:
                print(f"{self.wl.name} {tag}: {detail}", file=sys.stderr)
        if "solve_s" in result:
            print(f"{self.wl.name} {tag}: solve {result['solve_s']:.3f} s "
                  f"({result['solve_cpu_s']:.3f} s CPU), "
                  f"setup {result['setup_s']:.3f} s, peak "
                  f"{result['peak_rss_mb']:.1f} MB", file=sys.stderr)
        return result

    def setup_probe(self) -> float | None:
        result = self._spawn(RUNS_DIR / self.wl.name / "setup",
                             "--setup-only")
        self._count("setup_probe", "setup_s" in result)
        return result.get("setup_s")


def measure(drv: Driver, seconds: float) -> dict:
    start = _now()
    rounds = []
    while True:
        rounds.append(drv.round("round"))
        if _now() - start >= seconds:
            break
    setups = [r["setup_s"] for r in rounds if "setup_s" in r]
    setups += [s for s in (drv.setup_probe() for _ in range(SETUP_PROBES))
               if s is not None]
    solves = [r["solve_s"] for r in rounds if "solve_s" in r]
    peaks = [r["peak_rss_mb"] for r in rounds if "peak_rss_mb" in r]
    if not (solves and setups):
        return {}
    print(f"{drv.wl.name}: {len(solves)} rounds, {len(setups)} set-ups",
          file=sys.stderr)
    return {
        "solve_s": {"value": statistics.median(solves), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }


def measure_traced(drv: Driver) -> dict:
    traced = drv.round("trace", trace=True)
    if "layers" not in traced:
        return {}
    if traced.get("absent_spans"):
        print(f"spans absent from osclab: {traced['absent_spans']}",
              file=sys.stderr)
    out = dict(traced["layers"])
    out["trace.solve_s"] = {"value": traced["solve_s"], "unit": "s"}
    out["trace.spans"] = {"value": traced["span_count"], "unit": "count"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="osclab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "osclab" / "cli.py").is_file():
        print(f"no osclab sources under {ROOT / 'src'}; run from the root "
              f"of an osclab checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    checks.self_check()

    drv = Driver(wl, args.seed, args.smoke)
    metrics = (measure_traced(drv) if args.trace
               else measure(drv, args.seconds))
    correct = drv.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": drv.attempted,
                      "failed": drv.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
