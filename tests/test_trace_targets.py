"""The benchmark's tracer patches oriham functions by name; a renamed or
deleted name would break only a traced benchmark run, so check here that
every patch point still resolves."""

import importlib.util
from pathlib import Path

import pytest

import oriham
import oriham.cli  # noqa: F401  (loads every module the targets name)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("targets", ["setup_targets", "loop_targets"])
def test_trace_targets_resolve(targets):
    found = getattr(_tracer(), targets)(oriham)
    assert found
    for owner, attr, name, _ in found:
        fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
        assert callable(fn), f"{name}: {owner!r} has no {attr!r}"
