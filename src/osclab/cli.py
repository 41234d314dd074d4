"""Command line front end: catalog browsing, single oscillation queries,
distribution-curve experiments, and the verification battery.

Subcommands
-----------
catalog      list built-in test functions, optionally filtered
oscillation  evaluate one ball oscillation query and print value +/- stderr
curve        run a superlevel distribution experiment, writing CSV and JSON
verify       run the quantitative verification battery, writing a JSON report

Settings resolve in priority order: command line flag, then config file
entry, then the OSCLAB_SEED environment variable (seed only), then the
built-in default.  Config files are plain INI text (``key = value`` under
arbitrary ``[section]`` headers); section names are organizational only,
keys are globally scoped and must be unique across sections.  Recognized
keys match the long flag names with dashes turned into underscores
(``function``, ``p``, ``kappa_min``, ``r_max``, ``samples``, ``seed``,
``nodes``, ...).

Every output JSON embeds the resolved experiment configuration so a run
can be replayed from its artifacts.  Thread count and output paths are
runtime knobs, not experiment parameters, and are deliberately excluded
from the echo: outputs are byte-identical across ``--threads`` values and
across repeated runs with the same configuration.

The front end checks only what no library function checks: a missing
``--function`` or ``--r``, kappa bounds that must come together, and the
parsing of flags, config and environment.  Every other input (p, ball,
window, threshold grid, node and sample counts) goes to the library, which
raises ValueError on a value it cannot use; that is reported as a usage
error and nothing is written.

Exit codes: 0 success, 1 verification failure (``verify`` with at least
one failing suite), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import DEFAULT_IDS, TestFunction, parse_function_id
from .oscillation import pair_oscillation, q_oscillation
from .quadrature import BallSample, QuadratureSpec, default_spec
from .verify import (DEFAULT_NODE_COUNT, DEFAULT_SAMPLES, DEFAULT_SEED,
                     FaultSpec, battery_to_dict, run_all)
from .weaknorm import (
    DEFAULT_KAPPA_RATIO,
    Domain,
    curve_summary,
    default_domain,
    default_kappa_grid,
    distribution_curve,
    kappa_grid,
    limit_extrapolate,
    limit_fit_mask,
    write_curve_csv,
)

# Monte Carlo nodes per ball in d >= 2, and in every dimension for
# oscillation --pairwise.  One ball query affords the large default; a
# curve asks for one ball per scan radius and center, so it takes the node
# count of the d = 2 limit criteria.
_QUERY_MC_NODES = 65536
_CURVE_MC_NODES = 512

_FAULT_PRESETS = {
    # ~5 percent perturbations, one per sentinel family
    "slope": {"slope_factor": 1.05},
    "expansion": {"expansion_factor": 0.95},
    # 5 percent of the exponent p + 1 = 3 used by the domination suite's
    # weight-integral sentinel
    "weight": {"weight_exponent_shift": 0.15},
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    """Flatten an INI file into one key -> string dict.

    Duplicate keys across sections are an error: keys are globally scoped.
    """
    cp = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise _UsageError(f"malformed config file {path!r}: {exc}") from exc
    flat: dict = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            if key in flat:
                raise _UsageError(
                    f"config key {key!r} appears in more than one section")
            flat[key] = value
    return flat


class _UsageError(Exception):
    """Bad flags or config; reported like an argparse error (exit 2)."""


def _resolve(args: argparse.Namespace, cfg: dict, key: str, default,
             cast):
    """Flag beats config beats default.  Flags arrive already typed."""
    flag_val = getattr(args, key, None)
    if flag_val is not None:
        return flag_val
    if key in cfg:
        try:
            return cast(cfg[key])
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from exc
    return default


def _resolve_seed(args: argparse.Namespace, cfg: dict) -> int:
    seed = _resolve(args, cfg, "seed", None, int)
    if seed is not None:
        return seed
    env = os.environ.get("OSCLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(
                f"OSCLAB_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _parse_box(text: str) -> tuple:
    """Parse box bounds like '-1:1' or '-1:1,-2:2' into ((lo, hi), ...)."""
    axes = []
    for part in text.split(","):
        lo_s, sep, hi_s = part.partition(":")
        if not sep:
            raise _UsageError(
                f"bad box axis {part!r}; expected lo:hi per axis")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise _UsageError(f"bad box axis {part!r}: {exc}") from exc
        if not (lo < hi):
            raise _UsageError(f"box axis {part!r} needs lo < hi")
        axes.append((lo, hi))
    return tuple(axes)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _UsageError(f"bad point {text!r}: {exc}") from exc


def _parse_fault(text: Optional[str]) -> Optional[FaultSpec]:
    if not text:
        return None
    fields: dict = {}
    for name in text.split(","):
        name = name.strip()
        preset = _FAULT_PRESETS.get(name)
        if preset is None:
            raise _UsageError(
                f"unknown fault {name!r}; choose from "
                f"{sorted(_FAULT_PRESETS)}")
        fields.update(preset)
    return FaultSpec(**fields)


def _load_function(fid: str) -> TestFunction:
    try:
        return parse_function_id(fid)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: a non-finite value fails here, not in the reader's parser
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _out_dir(args: argparse.Namespace, cfg: dict) -> Optional[Path]:
    raw = _resolve(args, cfg, "out_dir", None, str)
    if raw is None:
        return None
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_FILTER_KEYS = ("d", "kind", "tag")


def cmd_catalog(args: argparse.Namespace) -> int:
    filters: dict = {}
    for item in args.filter or ():
        key, sep, value = item.partition("=")
        if not sep or key not in _FILTER_KEYS:
            raise _UsageError(
                f"unknown filter {item!r}; use key=value with key in "
                f"{_FILTER_KEYS}")
        if key == "d":
            try:
                filters["d"] = int(value)
            except ValueError as exc:
                raise _UsageError(f"filter d wants an integer: {exc}") from exc
        else:
            filters[key] = value
    for fid in DEFAULT_IDS:
        f = parse_function_id(fid)
        if "d" in filters and f.dim != filters["d"]:
            continue
        if "kind" in filters and not fid.startswith(filters["kind"] + ":"):
            continue
        if "tag" in filters and f.smoothness_tag != filters["tag"]:
            continue
        support = ("unbounded" if f.support_radius is None
                   else repr(f.support_radius))
        grad = "n/a" if f.grad_max is None else repr(f.grad_max)
        print(f"{fid}  d={f.dim}  tag={f.smoothness_tag}  "
              f"support_radius={support}  grad_max={grad}")
    return 0


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------

def cmd_oscillation(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else {}
    fid = _resolve(args, cfg, "function", None, str)
    if fid is None:
        raise _UsageError("oscillation needs --function (or config key)")
    f = _load_function(fid)
    r = _resolve(args, cfg, "r", None, float)
    if r is None:
        raise _UsageError("oscillation needs --r (or config key)")
    a_text = _resolve(args, cfg, "a", None, str)
    center = (np.zeros(f.dim) if a_text is None
              else _parse_point(a_text))
    q = _resolve(args, cfg, "q", 1.0, float)
    seed = _resolve_seed(args, cfg)
    nodes = _resolve(args, cfg, "nodes", None, int)
    kind = "pair" if args.pairwise else "mean" if q == 1.0 else "q"
    try:
        # pair_oscillation is a Monte Carlo rule in every dimension
        spec = (QuadratureSpec("monte_carlo", _QUERY_MC_NODES
                               if nodes is None else nodes, seed)
                if args.pairwise
                else default_spec(f.dim, seed, _QUERY_MC_NODES, nodes))
        ball = BallSample(center=center, radius=r)
        oscillation = pair_oscillation if args.pairwise else q_oscillation
        est = oscillation(f, ball, q, spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    print(f"{kind}_oscillation[{fid}](a={a_text or '0'}, r={r!r}, q={q!r}) "
          f"= {est}")
    out = _out_dir(args, cfg)
    if out is not None:
        payload = {
            "config": {
                "function": fid,
                "d": f.dim,
                "a": [float(x) for x in center],
                "r": float(r),
                "q": float(q),
                "pairwise": bool(args.pairwise),
                "quadrature": {"method": spec.method,
                               "node_count": spec.node_count},
                "seed": seed,
            },
            "value": est.value,
            "std_error": est.std_error,
        }
        _write_json(out / "oscillation.json", payload)
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _kappa_grid_from(args: argparse.Namespace, cfg: dict,
                     f: TestFunction) -> tuple:
    """Grid plus its echo dict: the default grid of f, or kappa_grid
    between explicit bounds, at the requested ratio."""
    ratio = _resolve(args, cfg, "kappa_ratio", DEFAULT_KAPPA_RATIO, float)
    kmax = _resolve(args, cfg, "kappa_max", None, float)
    kmin = _resolve(args, cfg, "kappa_min", None, float)
    if kmax is None and kmin is None:
        grid = default_kappa_grid(f, ratio=ratio)
    elif kmax is None or kmin is None:
        raise _UsageError("--kappa-min and --kappa-max must be given together")
    else:
        grid = kappa_grid(kmax, kmin, ratio)
    echo = {"min": float(grid[-1]), "max": float(grid[0]),
            "points": int(grid.size)}
    return grid, echo


def cmd_curve(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else {}
    fid = _resolve(args, cfg, "function", None, str)
    if fid is None:
        raise _UsageError("curve needs --function (or config key)")
    f = _load_function(fid)
    p = _resolve(args, cfg, "p", 2.0, float)
    seed = _resolve_seed(args, cfg)
    samples = _resolve(args, cfg, "samples", 1024, int)
    threads = _resolve(args, cfg, "threads", 1, int)
    nodes = _resolve(args, cfg, "nodes", None, int)

    base = default_domain(f)
    omega = _resolve(args, cfg, "omega", None, str)
    box = _parse_box(omega) if omega is not None else base.box
    r_max = _resolve(args, cfg, "r_max", base.r_max, float)
    r_min = _resolve(args, cfg, "r_min", base.r_min, float)
    try:
        domain = Domain(box=box, r_max=r_max, r_min=r_min)
        grid, kappa_echo = _kappa_grid_from(args, cfg, f)
        # a grid the limit fit cannot use is refused before any scan
        limit_fit_mask(grid)
        spec = default_spec(f.dim, seed, _CURVE_MC_NODES, nodes)
        curve = distribution_curve(f, p, grid, domain, spec,
                                   samples=samples, threads=threads)
        limit = limit_extrapolate(curve)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    summary = curve_summary(curve, limit=limit, f=f)
    payload = {
        "config": {
            "function": fid,
            "d": f.dim,
            "p": float(p),
            "q": 1.0,  # the mean oscillation; echoed until schema 2
            "domain": {"box": [[lo, hi] for lo, hi in domain.box],
                       "r_min": domain.r_min, "r_max": domain.r_max},
            "kappa": kappa_echo,
            "quadrature": {"method": spec.method,
                           "node_count": spec.node_count},
            "samples": samples,
            "seed": seed,
        },
        "summary": summary,
    }
    out = _out_dir(args, cfg) or Path(".")
    write_curve_csv(curve, out / "curve.csv")
    _write_json(out / "curve.json", payload)
    sup = summary["sup_estimate"]
    lim = summary["limit_estimate"]
    ref = summary["reference_value"]
    print(f"curve[{fid}] p={p!r}: {grid.size} thresholds, "
          f"sup_scaled={sup:.6g}, limit={lim if lim is None else f'{lim:.6g}'}"
          f", reference={ref if ref is None else f'{ref:.6g}'}")
    print(f"wrote {out / 'curve.csv'} and {out / 'curve.json'}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config) if args.config else {}
    seed = _resolve_seed(args, cfg)
    n_samples = _resolve(args, cfg, "samples", DEFAULT_SAMPLES, int)
    nodes = _resolve(args, cfg, "nodes", DEFAULT_NODE_COUNT, int)
    fault = _parse_fault(_resolve(args, cfg, "fault_inject", None, str))
    try:
        reports = run_all(seed=seed, fault=fault, node_count=nodes,
                          n_samples=n_samples)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    digest = battery_to_dict(reports)
    for rep in reports:
        mark = "OK " if rep.passed else "FAIL"
        line = (f"{mark} {rep.suite_name}: {rep.pass_count} passed, "
                f"{rep.fail_count} failed, "
                f"{rep.inconclusive_count} inconclusive")
        if rep.error:
            line += f"  error: {rep.error}"
        print(line)
    print(f"suites: {digest['suite_count']}, "
          f"failed: {len(digest['failed_suites'])}, "
          f"inconclusive cases: {digest['inconclusive_total']}")
    out = _out_dir(args, cfg)
    if out is not None:
        payload = {
            "config": {
                "seed": seed,
                "samples": n_samples,
                "node_count": nodes,
                "fault": None if fault is None else dataclasses.asdict(fault),
            },
            "report": digest,
        }
        _write_json(out / "verify.json", payload)
        print(f"wrote {out / 'verify.json'}")
    return 0 if digest["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="INI config file; flags override its keys")
    sub.add_argument("--seed", type=int,
                     help="master seed (fallback: config, then OSCLAB_SEED)")
    sub.add_argument("--out-dir", dest="out_dir", metavar="DIR",
                     help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osclab",
        description="ball oscillation statistics: catalog, single queries, "
                    "distribution curves, verification battery")
    subs = parser.add_subparsers(dest="command", required=True)

    p_cat = subs.add_parser("catalog", help="list built-in test functions")
    p_cat.add_argument("--filter", action="append", metavar="KEY=VALUE",
                       help=f"filter by key in {_FILTER_KEYS} (repeatable)")
    p_cat.set_defaults(func=cmd_catalog)

    p_osc = subs.add_parser("oscillation",
                            help="one ball oscillation query")
    p_osc.add_argument("--function", help="catalog identifier")
    p_osc.add_argument("--a", help="ball center, comma separated")
    p_osc.add_argument("--r", type=float, help="ball radius")
    p_osc.add_argument("--q", type=float, help="inner exponent (default 1)")
    p_osc.add_argument("--pairwise", action="store_true",
                       help="two-point oscillation instead of "
                            "mean-centered (Monte Carlo in every dimension)")
    p_osc.add_argument("--nodes", type=int, help="quadrature nodes")
    _add_common(p_osc)
    p_osc.set_defaults(func=cmd_oscillation)

    p_cur = subs.add_parser("curve",
                            help="superlevel distribution experiment")
    p_cur.add_argument("--function", help="catalog identifier")
    p_cur.add_argument("--p", type=float, help="weight exponent (default 2)")
    p_cur.add_argument("--kappa-min", dest="kappa_min", type=float,
                       help="smallest threshold")
    p_cur.add_argument("--kappa-max", dest="kappa_max", type=float,
                       help="largest threshold")
    p_cur.add_argument("--kappa-ratio", dest="kappa_ratio", type=float,
                       help="grid step ratio (default 4 steps per decade)")
    p_cur.add_argument("--omega", help="center box, lo:hi per axis, comma "
                                       "separated; write --omega=-1:1 when "
                                       "the value starts with a dash")
    p_cur.add_argument("--r-max", dest="r_max", type=float,
                       help="largest radius included in the measure")
    p_cur.add_argument("--r-min", dest="r_min", type=float,
                       help="radius scan floor (analysis continues below)")
    p_cur.add_argument("--samples", type=int,
                       help="center samples (default 1024)")
    p_cur.add_argument("--threads", type=int,
                       help="worker threads (default 1; results identical)")
    p_cur.add_argument("--nodes", type=int,
                       help=f"quadrature nodes per ball (default "
                            f"{_CURVE_MC_NODES} by Monte Carlo for d >= 2, "
                            f"Gauss order 8 for d = 1)")
    _add_common(p_cur)
    p_cur.set_defaults(func=cmd_curve)

    p_ver = subs.add_parser("verify", help="run the verification battery")
    p_ver.add_argument("--samples", type=int,
                       help=f"per-suite sample budget (default {DEFAULT_SAMPLES})")
    p_ver.add_argument("--nodes", type=int,
                       help=f"quadrature nodes (default {DEFAULT_NODE_COUNT})")
    p_ver.add_argument("--fault-inject", dest="fault_inject",
                       metavar="NAME[,NAME]",
                       help=f"perturb a verified constant; names: "
                            f"{sorted(_FAULT_PRESETS)}")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
