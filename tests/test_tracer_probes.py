"""The benchmark's span tracer (perfbench/spans.py) hooks osclab names.

A rename that leaves a probe unresolved silently drops its per-module
metrics from the benchmark, so every probe must resolve here.
"""

import importlib.util
from pathlib import Path

import pytest

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
