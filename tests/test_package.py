"""The package namespace and the runnable demos."""

import importlib.util
import runpy
import types
from pathlib import Path

import pytest

import polyprod

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(polyprod).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(polyprod.__all__)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_every_traced_name_exists():
    # the benchmark's traced rounds look each name up in its owner's
    # namespace; a deleted or moved function would crash them
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.TRACED
        if attr not in owner.__dict__
    ]
    assert missing == []
