"""The bench tracer (``perfbench/tracing.py``) still fits the program.

The tracer wraps functions and methods by name and reads some of their
return values, so a rename or a changed return convention would break
``perfbench/run.py --trace 1`` without any other test noticing.  The module
is loaded from its path and only read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import factorpack.factorize as factorize
from factorpack.factorize import half_k_realization

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_plain_function(tracing):
    for layer, names in tracing.FUNCTIONS.items():
        mod = importlib.import_module(f"factorpack.{layer}")
        for name in names:
            fn = getattr(mod, name)
            assert callable(fn), f"{layer}.{name}"
            assert not inspect.isgeneratorfunction(fn), f"{layer}.{name}"
    for (layer, cls_name), names in tracing.METHODS.items():
        cls = getattr(importlib.import_module(f"factorpack.{layer}"), cls_name)
        for name in names:
            assert not inspect.isgeneratorfunction(cls.__dict__[name]), f"{cls_name}.{name}"


def test_traced_run_counts_merges_and_chains(tracing):
    original = factorize.merge_odd_cycle_pair
    tracer = tracing.Tracer()
    tracer.install()
    try:
        half_k_realization([4] * 20, 4)
        half_k_realization([5] * 6, 5)
    finally:
        tracer.restore()
    assert factorize.merge_odd_cycle_pair is original
    merges = sum(tracer.counters[f"factorize.merge_case.{case}"] for case in tracing.MERGE_CASES)
    assert merges > 0
    assert tracer.counters["switching.multi_switch.chain_r_sum"] > 0
