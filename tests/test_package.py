"""The package namespace and the runnable demos."""

import importlib
import importlib.util
import pkgutil
import re
import runpy
import subprocess
import sys
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


def test_the_cold_import_loads_no_dataclasses_inspect_or_fractions():
    # every command imports the package cold, and these three (with what
    # dataclasses pulls in) took most of that import; the suites fan out
    # with os.fork and marshal alone, not multiprocessing, threading or
    # pickle, and only a run that forks imports select; -S keeps what site
    # imports out of the count
    src = Path(polyprod.__file__).parent.parent
    unwanted = ("dataclasses", "inspect", "fractions", "multiprocessing", "threading", "pickle",
                "select")
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import polyprod, polyprod.cli; "
            f"print(*[m for m in {unwanted!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert run.stdout.split() == []


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


def test_readme_lists_each_bounded_cache_with_its_bound():
    # every bounded lru_cache defined in a polyprod module, by module.name
    caches = {}
    for info in pkgutil.iter_modules(polyprod.__path__):
        module = importlib.import_module(f"polyprod.{info.name}")
        for name, value in vars(module).items():
            params = getattr(value, "cache_parameters", None)
            if params and getattr(value, "__module__", None) == module.__name__:
                if params()["maxsize"] is not None:
                    caches[f"{info.name}.{name}"] = params()["maxsize"]
    # README's cache table: "| `module.name` (what it holds) | bound | fill |"
    rows = re.findall(r"^ *\| `([\w.]+)`[^|]*\| ([\d,]+) \|",
                      (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
    assert sorted(name for name, _ in rows) == sorted(caches)
    assert {name: int(bound.replace(",", "")) for name, bound in rows} == caches
