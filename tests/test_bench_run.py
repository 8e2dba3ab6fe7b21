"""The bench driver (``perfbench/run.py``) still fits the program.

A bench request calls the program the way ``Program`` does: the realization
builders with a positional seed, ``certificate_from_realization``,
``verify_certificate``, trace replay and ``certificate_to_json``, and the run
metadata reads ``coloring.STRICT_VALIDATION``.  A rename there would stop
the bench without any other test noticing.  The driver is loaded from its
path and only read, never changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    # run.py puts perfbench/ and src/ on sys.path and imports corpus and tracing by name.
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in ("corpus", "tracing"):
            if name not in saved_modules:
                sys.modules.pop(name, None)


def test_bench_warmup_request_runs_and_checks(run):
    program = run.Program()
    real, cert = program.pipeline(*run.WARMUP)
    _mode, pi, k = run.WARMUP
    ok, text = program.check(pi, k, real, cert)
    assert ok
    assert text.startswith("{")
    assert isinstance(program.coloring.STRICT_VALIDATION, bool)
