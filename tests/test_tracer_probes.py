"""The benchmark's span tracer (perfbench/spans.py) hooks osclab names.

A rename that leaves a probe unresolved silently drops its per-module
metrics from the benchmark, so every probe must resolve here.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from osclab import (Domain, QuadratureSpec, distribution_curve,
                    make_ball_indicator)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves(spans):
    for name, path, counter in spans._PROBES:
        _, _, fn = spans._resolve(path)
        assert callable(fn), path
        if counter is not None:
            assert counter(fn) is not None, (name, path)


def test_every_catalog_builder_resolves(spans):
    for builder in spans._CATALOG_BUILDERS:
        _, _, fn = spans._resolve(f"catalog.{builder}")
        assert callable(fn), builder


def test_curve_counters_reach_the_traced_benchmark(spans):
    # the traced benchmark sums each curve's own counters by key, so a key
    # it reads must stay in DistributionCurve.counters, on either centre
    # plan; a floor of 0.2 puts many indicator sections below the scan
    f = make_ball_indicator(1, 0.5)
    dom = Domain(box=((-1.0, 1.0),), r_max=10.0, r_min=0.2)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=1)
    for plan in ({"samples": 32}, {"panels": 2}):
        curve = distribution_curve(f, 1.0, np.geomspace(0.4, 4e-4, 9), dom,
                                   spec, **plan)
        counts = Counter()
        spans._curve_counters(counts, (), {}, curve)
        assert (counts["weaknorm.below_floor"]
                == curve.counters["below_floor"] > 0), plan
        assert "weaknorm.merged" in counts
        assert counts["weaknorm.merged"] == curve.counters["merged"] == 0
