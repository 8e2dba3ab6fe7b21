"""Smoke test of the walkthroughs in demos/ and of the package's public names."""

import subprocess
import sys
import types
from pathlib import Path

import pytest

import factorpack
from tests.conftest import cli_subprocess_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_seven_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=cli_subprocess_env("0"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_all_names_only_the_imported_api():
    assert len(set(factorpack.__all__)) == len(factorpack.__all__)
    for name in factorpack.__all__:
        assert not isinstance(getattr(factorpack, name), types.ModuleType), name
    public = {name for name, value in vars(factorpack).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(factorpack.__all__) == public
