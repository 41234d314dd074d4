"""Workload definitions: the osclab command line each workload runs.

This module imports nothing from osclab, so the driver (run.py) and the
output checks stay independent of the program under test.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

PLATEAU = {"amplitude": 1.0, "inner": 0.5, "outer": 1.0}

# 10^0.25 written out: the command line takes a plain float
KAPPA_RATIO = "1.7782794100389228"

# Centres of the 2-d Monte Carlo curve.  At 1024 the limit strays beyond
# the 10 % tolerance on some seeds; 4096, the acceptance criterion's count,
# would not leave room for the other workloads in the time the benchmark
# may take (README.md).
MC_2D_CENTRES = 3072


@dataclass(frozen=True)
class Workload:
    """One osclab invocation plus the accuracy its outputs must reach.

    kind is "curve" or "verify".  For curves, dim and p name the closed-form
    reference, limit_tol is the relative distance allowed between the
    extrapolated limit and that reference, and require_limit_ok says whether
    the program's own limit_ok flag must be true.
    """
    name: str
    kind: str
    argv: tuple
    smoke_argv: tuple
    dim: int = 0
    p: float = 2.0
    limit_tol: float = 0.0
    require_limit_ok: bool = False
    exit_codes: tuple = (0,)


def _plateau_id(d: int) -> str:
    return (f"plateau:d={d}:a={PLATEAU['amplitude']:g}"
            f":ri={PLATEAU['inner']:g}:ro={PLATEAU['outer']:g}")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="curve-exact-1d", kind="curve", dim=1, p=2.0,
            limit_tol=0.05, require_limit_ok=True,
            argv=("curve", "--function", _plateau_id(1), "--p", "2",
                  "--samples", "2048", "--threads", "1"),
            smoke_argv=("curve", "--function", _plateau_id(1), "--p", "2",
                        "--samples", "256", "--threads", "1")),
        Workload(
            name="curve-mc-2d", kind="curve", dim=2, p=2.0,
            limit_tol=0.10, require_limit_ok=False,
            argv=("curve", "--function", _plateau_id(2), "--p", "2",
                  "--nodes", "512", "--omega=-1.25:1.25,-1.25:1.25",
                  "--r-max", "22.5", "--kappa-max", "20",
                  "--kappa-min", "0.02", "--kappa-ratio", KAPPA_RATIO,
                  "--samples", str(MC_2D_CENTRES), "--threads", "1"),
            smoke_argv=("curve", "--function", _plateau_id(2), "--p", "2",
                        "--nodes", "128", "--omega=-1.25:1.25,-1.25:1.25",
                        "--r-max", "22.5", "--kappa-max", "20",
                        "--kappa-min", "0.02", "--kappa-ratio", KAPPA_RATIO,
                        "--samples", "256", "--threads", "1")),
        Workload(
            name="verify-defaults", kind="verify", exit_codes=(0, 1),
            argv=("verify",),
            smoke_argv=("verify", "--samples", "8", "--nodes", "1024")),
    )
}


def osclab_seed(workload: str, seed: int) -> int:
    """The --seed handed to osclab, a pure function of the benchmark seed.

    Mixed through SHA-256 so that neighbouring benchmark seeds give
    unrelated centre and node streams, and each workload its own.
    """
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cli_argv(workload: Workload, seed: int, out_dir: str,
             smoke: bool = False) -> list:
    """Arguments for osclab.cli.main."""
    base = workload.smoke_argv if smoke else workload.argv
    return [*base, "--seed", str(seed), "--out-dir", str(out_dir)]
