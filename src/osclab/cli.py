"""Command line front end: catalog browsing, single oscillation queries,
distribution-curve experiments, and the verification battery.

Subcommands
-----------
catalog      list built-in test functions, optionally filtered
oscillation  evaluate one ball oscillation query and print value +/- stderr
curve        run a superlevel distribution experiment, writing CSV and JSON
verify       run the quantitative verification battery, writing a JSON report

argparse declares each setting once, with its type and the default that
``--help`` shows.  ``--config`` names an INI file (``key = value`` under
any ``[section]``, ``[DEFAULT]`` too; keys are global, values literal).
A key that is exactly the destination of a value-taking flag of the
subcommand (``function``, ``p``, ``kappa_min``, ``r_max``, ``seed``, ...)
reads as that flag, put before the command line's own; other keys, and
switches such as ``--pairwise``, are not read.  The last occurrence of a
flag wins, so a setting comes from the command line, then the config file,
then OSCLAB_SEED (seed only), then its default.

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
    Values are read literally, and [DEFAULT] is an ordinary section.
    """
    cp = configparser.ConfigParser(interpolation=None, default_section="")
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


def _config_argv(path: str, flags: dict) -> list:
    """``--flag=value`` for each entry of the config file whose key is in
    flags (dest -> Action); a value its type refuses names the key."""
    argv = []
    for key, value in _load_config(path).items():
        action = flags.get(key)
        if action is None:
            continue
        try:
            (action.type or str)(value)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from exc
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
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


def _out_dir(args: argparse.Namespace) -> Optional[Path]:
    if args.out_dir is None:
        return None
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_FILTER_KEYS = ("d", "kind")


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
        support = ("unbounded" if f.support_radius is None
                   else repr(f.support_radius))
        grad = "n/a" if f.grad_max is None else repr(f.grad_max)
        print(f"{fid}  d={f.dim}  support_radius={support}  "
              f"grad_max={grad}")
    return 0


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------

def cmd_oscillation(args: argparse.Namespace) -> int:
    fid, r, a_text, q, nodes = args.function, args.r, args.a, args.q, args.nodes
    if fid is None:
        raise _UsageError("oscillation needs --function (or config key)")
    f = _load_function(fid)
    if r is None:
        raise _UsageError("oscillation needs --r (or config key)")
    center = (np.zeros(f.dim) if a_text is None
              else _parse_point(a_text))
    seed = _resolve_seed(args)
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
    out = _out_dir(args)
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

def _kappa_grid_from(args: argparse.Namespace, f: TestFunction) -> tuple:
    """Grid plus its echo dict: the default grid of f, or kappa_grid
    between explicit bounds, at the requested ratio."""
    ratio, kmax, kmin = args.kappa_ratio, args.kappa_max, args.kappa_min
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
    fid, p, samples = args.function, args.p, args.samples
    if fid is None:
        raise _UsageError("curve needs --function (or config key)")
    f = _load_function(fid)
    seed = _resolve_seed(args)

    base = default_domain(f)
    box = base.box if args.omega is None else _parse_box(args.omega)
    r_max = base.r_max if args.r_max is None else args.r_max
    r_min = base.r_min if args.r_min is None else args.r_min
    try:
        domain = Domain(box=box, r_max=r_max, r_min=r_min)
        grid, kappa_echo = _kappa_grid_from(args, f)
        # a grid the limit fit cannot use is refused before any scan
        limit_fit_mask(grid)
        spec = default_spec(f.dim, seed, _CURVE_MC_NODES, args.nodes)
        curve = distribution_curve(f, p, grid, domain, spec,
                                   samples=samples, threads=args.threads)
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
    out = _out_dir(args) or Path(".")
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
    seed = _resolve_seed(args)
    n_samples, nodes = args.samples, args.nodes
    fault = _parse_fault(args.fault_inject)
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
    out = _out_dir(args)
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

def _run_command(subs, name: str, help: str, func):
    """Add a subcommand and return its add_argument, which also files each
    value-taking flag but --config under its dest, the key that reads as it."""
    sub = subs.add_parser(name, help=help)
    flags: dict = {}
    sub.set_defaults(func=func, config_flags=flags)

    def add(*names, **kwargs) -> None:
        action = sub.add_argument(*names, **kwargs)
        if action.nargs != 0 and action.dest != "config":
            flags[action.dest] = action
    return add


def _add_common(add) -> None:
    add("--config", metavar="FILE",
        help="INI config file; flags override its keys")
    add("--seed", type=int,
        help=f"master seed (default: OSCLAB_SEED, else {DEFAULT_SEED})")
    add("--out-dir", dest="out_dir", metavar="DIR",
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

    add = _run_command(subs, "oscillation", "one ball oscillation query",
                       cmd_oscillation)
    add("--function", help="catalog identifier")
    add("--a", help="ball center, comma separated (default: the origin)")
    add("--r", type=float, help="ball radius")
    add("--q", type=float, default=1.0,
        help="inner exponent (default %(default)s)")
    add("--pairwise", action="store_true",
        help="two-point oscillation instead of mean-centered (Monte Carlo "
             "in every dimension)")
    add("--nodes", type=int,
        help=f"quadrature nodes (default {_QUERY_MC_NODES} by Monte Carlo, "
             f"Gauss order 8 for d = 1 without --pairwise)")
    _add_common(add)

    add = _run_command(subs, "curve", "superlevel distribution experiment",
                       cmd_curve)
    add("--function", help="catalog identifier")
    add("--p", type=float, default=2.0,
        help="weight exponent (default %(default)s)")
    add("--kappa-min", dest="kappa_min", type=float,
        help="smallest threshold")
    add("--kappa-max", dest="kappa_max", type=float, help="largest threshold")
    add("--kappa-ratio", dest="kappa_ratio", type=float,
        default=DEFAULT_KAPPA_RATIO,
        help="grid step ratio (default %(default).6g, 4 steps per decade)")
    add("--omega", help="center box, lo:hi per axis, comma separated; write "
                        "--omega=-1:1 when the value starts with a dash")
    add("--r-max", dest="r_max", type=float,
        help="largest radius included in the measure")
    add("--r-min", dest="r_min", type=float,
        help="radius scan floor (analysis continues below)")
    add("--samples", type=int, default=1024,
        help="center samples (default %(default)s)")
    add("--threads", type=int, default=1,
        help="worker threads (default %(default)s; results identical)")
    add("--nodes", type=int,
        help=f"quadrature nodes per ball (default {_CURVE_MC_NODES} by Monte "
             f"Carlo for d >= 2, Gauss order 8 for d = 1)")
    _add_common(add)

    add = _run_command(subs, "verify", "run the verification battery",
                       cmd_verify)
    add("--samples", type=int, default=DEFAULT_SAMPLES,
        help="per-suite sample budget (default %(default)s)")
    add("--nodes", type=int, default=DEFAULT_NODE_COUNT,
        help="quadrature nodes (default %(default)s)")
    add("--fault-inject", dest="fault_inject", metavar="NAME[,NAME]",
        help=f"perturb a verified constant; names: "
             f"{sorted(_FAULT_PRESETS)}")
    _add_common(add)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # after the subcommand, before the command line's own flags
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_argv(args.config, args.config_flags)
                + argv[at:])
        return args.func(args)
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
