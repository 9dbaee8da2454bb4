"""The package namespace and the runnable demos."""

import runpy
import types
from pathlib import Path

import pytest

import polyprod

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


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
