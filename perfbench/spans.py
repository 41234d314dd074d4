"""Per-module spans for the traced run, recorded from outside osclab.

instrument() replaces module-level names of osclab (functions, scan-engine
methods, and the catalog constructors) with wrappers that record a span per
call: name, start, end and the span that was open when it began.  Spans
stay in memory until the run ends; Tracer.write puts them in a CSV file and
Tracer.metrics derives the per-module numbers, self times included.

The wrapped names are private to osclab and may disappear in a refactor.
A name that no longer resolves is reported by instrument(), and every
metric built from it is left out of the result instead of being reported
as zero.  The tracer is not thread-safe; the traced run uses --threads 1.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns

_MARK = "_perfbench_span"


class Tracer:
    """In-memory span store with per-span-name counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        """fn with a span per call; count(counts, args, kwargs, result)
        adds the call's work counts."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counts = self.parents, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            starts.append(_now())
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = _now()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        setattr(traced, _MARK, True)
        return traced

    def times(self):
        """(inclusive, self) nanoseconds per span name.

        Inclusive time skips spans nested in a span of the same name, so
        it never counts an interval twice; self time is a span's duration
        minus the durations of its direct children.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, par in enumerate(self.parents):
            if par >= 0:
                child[par] += dur[i]
        incl = defaultdict(int)
        own = defaultdict(int)
        for i in range(n):
            name = self.names[i]
            own[name] += dur[i] - child[i]
            par = self.parents[i]
            while par >= 0 and self.names[par] != name:
                par = self.parents[par]
            if par < 0:
                incl[name] += dur[i]
        return incl, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{self.names[i]},{self.starts[i]},"
                         f"{self.ends[i]},{self.parents[i]}\n")


# ---------------------------------------------------------------------------
# work counters
# ---------------------------------------------------------------------------

def _points(name):
    def count(counts, args, kwargs, out):
        shape = getattr(args[0], "shape", None)
        counts[name] += (math.prod(shape[:-1]) if shape is not None
                         else len(args[0]))
    return count


def _calls(name):
    def count(counts, args, kwargs, out):
        counts[name] += 1
    return count


def _result_size(name):
    def count(counts, args, kwargs, out):
        first = out[0] if isinstance(out, tuple) else out
        counts[name] += int(first.size)
    return count


def _bisect_steps(fn):
    """rows x iterations per call, or None when fn has no such parameters."""
    sig = inspect.signature(fn)
    if not {"rows", "iters"} <= set(sig.parameters):
        return None

    def count(counts, args, kwargs, out):
        bound = sig.bind(*args, **kwargs).arguments
        counts["weaknorm.bisect_steps"] += (len(bound["rows"])
                                            * int(bound["iters"]))
    return count


def _curve_counters(counts, args, kwargs, out):
    for key in ("below_floor", "merged"):
        counts[f"weaknorm.{key}"] += int(out.counters[key])


# (span name, attribute of an osclab module, counter factory or None); a
# factory gets the wrapped function and returns None when it cannot count
# its calls, which marks the span absent
_PROBES = (
    ("weaknorm.curve", "weaknorm._curve_engine", lambda fn: _curve_counters),
    ("weaknorm.centers", "weaknorm.sample_centers", None),
    ("weaknorm.scan", "weaknorm._Exact1D.scan",
     lambda fn: _result_size("weaknorm.scan_balls")),
    ("weaknorm.scan", "weaknorm._McScan.scan",
     lambda fn: _result_size("weaknorm.scan_balls")),
    ("weaknorm.sections", "weaknorm._resolve_sections", None),
    ("weaknorm.bisect", "weaknorm._bisect_crossings", _bisect_steps),
    ("weaknorm.limit", "weaknorm.limit_extrapolate", None),
    ("oscillation.exact", "oscillation.exact_oscillation_1d",
     lambda fn: _result_size("oscillation.exact_balls")),
    ("oscillation.single_ball", "oscillation.q_oscillation",
     lambda fn: _calls("oscillation.single_ball_calls")),
    ("oscillation.maximal_gradient", "oscillation.maximal_gradient", None),
    ("quadrature.nodes", "quadrature.unit_ball_nodes",
     lambda fn: _calls("quadrature.node_sets")),
    ("quadrature.stream", "quadrature.stream", None),
    ("verify.local_expansion", "verify.check_local_expansion", None),
    ("verify.mollification", "verify.check_mollification", None),
    ("verify.maximal_domination", "verify.check_maximal_domination", None),
    ("verify.bv_divergence", "verify.check_bv_divergence", None),
    ("verify.tail_bounds", "verify.check_tail_bounds", None),
    ("cli.write", "weaknorm.write_curve_csv", None),
    ("cli.write", "cli._write_json", None),
)

# constructors whose entries get counted eval/grad
_CATALOG_BUILDERS = ("parse_function_id", "make_plateau_bump", "make_linear",
                     "make_ball_indicator")

def _resolve(path: str):
    """(owner, attribute, value) for 'module.attr' or 'module.Class.attr'."""
    mod_name, *rest = path.split(".")
    owner = importlib.import_module(f"osclab.{mod_name}")
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1], getattr(owner, rest[-1])


def _replace_everywhere(old, new) -> None:
    """Point every module-level reference to old in osclab at new."""
    mods = [m for name, m in list(sys.modules.items())
            if name == "osclab" or name.startswith("osclab.")]
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _counted_entry(tracer: Tracer, build):
    @functools.wraps(build)
    def make(*args, **kwargs):
        f = build(*args, **kwargs)
        if getattr(f.eval, _MARK, False):
            return f
        return dataclasses.replace(
            f,
            eval=tracer.wrap("catalog.eval", f.eval,
                             _points("catalog.eval_points")),
            grad=(None if f.grad is None else
                  tracer.wrap("catalog.grad", f.grad,
                              _points("catalog.grad_points"))))
    return make


def instrument(tracer: Tracer) -> set:
    """Wrap osclab's module boundaries; returns the span names whose
    targets no longer exist."""
    absent = set()
    for name, path, counter in _PROBES:
        try:
            owner, attr, fn = _resolve(path)
        except (ImportError, AttributeError):
            absent.add(name)
            continue
        count = counter(fn) if counter else None
        if counter and count is None:
            absent.add(name)
            continue
        wrapped = tracer.wrap(name, fn, count)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(fn, wrapped)
    for builder in _CATALOG_BUILDERS:
        try:
            _, _, fn = _resolve(f"catalog.{builder}")
        except (ImportError, AttributeError):
            absent.update(("catalog.eval", "catalog.grad"))
            continue
        _replace_everywhere(fn, _counted_entry(tracer, fn))
    return absent


# ---------------------------------------------------------------------------
# per-module metrics
# ---------------------------------------------------------------------------

# metric -> (unit, kind, span names it is built from); kind is "incl" or
# "self" for times in seconds, or the counter key for counts
LAYER_METRICS = {
    "catalog.eval_points": ("count", "catalog.eval_points", ("catalog.eval",)),
    "catalog.eval_s": ("s", "incl", ("catalog.eval",)),
    "catalog.eval_mpts_per_s": ("Mpts/s", "rate", ("catalog.eval",)),
    "catalog.grad_points": ("count", "catalog.grad_points", ("catalog.grad",)),
    "catalog.grad_s": ("s", "incl", ("catalog.grad",)),
    "quadrature.node_sets": ("count", "quadrature.node_sets",
                             ("quadrature.nodes",)),
    "quadrature.nodes_s": ("s", "incl",
                           ("quadrature.nodes", "quadrature.stream")),
    "oscillation.exact_balls": ("count", "oscillation.exact_balls",
                                ("oscillation.exact",)),
    "oscillation.exact_s": ("s", "incl", ("oscillation.exact",)),
    "oscillation.single_ball_calls": ("count",
                                      "oscillation.single_ball_calls",
                                      ("oscillation.single_ball",)),
    "oscillation.single_ball_s": ("s", "incl", ("oscillation.single_ball",)),
    "oscillation.maximal_gradient_s": ("s", "incl",
                                       ("oscillation.maximal_gradient",)),
    "weaknorm.centers_s": ("s", "incl", ("weaknorm.centers",)),
    "weaknorm.scan_s": ("s", "incl", ("weaknorm.scan",)),
    "weaknorm.scan_balls": ("count", "weaknorm.scan_balls",
                            ("weaknorm.scan",)),
    "weaknorm.bisect_s": ("s", "incl", ("weaknorm.bisect",)),
    "weaknorm.bisect_steps": ("count", "weaknorm.bisect_steps",
                              ("weaknorm.bisect",)),
    "weaknorm.sections_s": ("s", "self", ("weaknorm.sections",)),
    "weaknorm.reduce_s": ("s", "self", ("weaknorm.curve",)),
    "weaknorm.limit_s": ("s", "incl", ("weaknorm.limit",)),
    "weaknorm.below_floor": ("count", "weaknorm.below_floor",
                             ("weaknorm.curve",)),
    "weaknorm.merged": ("count", "weaknorm.merged", ("weaknorm.curve",)),
    "verify.local_expansion_s": ("s", "incl", ("verify.local_expansion",)),
    "verify.mollification_s": ("s", "incl", ("verify.mollification",)),
    "verify.maximal_domination_s": ("s", "incl",
                                    ("verify.maximal_domination",)),
    "verify.bv_divergence_s": ("s", "incl", ("verify.bv_divergence",)),
    "verify.tail_bounds_s": ("s", "incl", ("verify.tail_bounds",)),
    "cli.write_s": ("s", "incl", ("cli.write",)),
}


def metrics(tracer: Tracer, absent: set) -> dict:
    """Per-module metrics as {name: {"value", "unit"}}; a metric built on
    an absent span name is left out.  A module that does not run in the
    workload reads 0."""
    incl, own = tracer.times()
    out = {}
    for metric, (unit, kind, spans) in LAYER_METRICS.items():
        if absent.intersection(spans):
            continue
        if kind == "incl":
            value = sum(incl[s] for s in spans) / 1e9
        elif kind == "self":
            value = sum(own[s] for s in spans) / 1e9
        elif kind == "rate":
            busy = incl[spans[0]] / 1e9
            pts = tracer.counts["catalog.eval_points"]
            value = pts / busy / 1e6 if busy > 0 else 0.0
        else:
            value = tracer.counts[kind]
        out[metric] = {"value": value, "unit": unit}
    return out
