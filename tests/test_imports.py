"""The library imports only the standard library, numpy and itself."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthomm

PACKAGE = Path(orthomm.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "orthomm"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_orthomm(path):
    assert _imported_roots(path) <= ALLOWED


def _attribute_reads(path: Path, name: str) -> list[int]:
    """Lines of ``path`` that read an attribute called ``name``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == name]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "series.py"], ids=lambda p: p.name)
def test_only_series_reads_the_distance_profile(path):
    # the profile's layout (each row's order, column-major in the smallest
    # unsigned dtype, and its steps seg) is known to one module
    assert _attribute_reads(PACKAGE / "series.py", "profile")
    assert _attribute_reads(path, "profile") == []


def test_pipeline_loads_no_scipy(tmp_path):
    # a fresh interpreter: the test modules themselves import scipy
    script = (
        "import sys\n"
        "from orthomm import cli\n"
        "rc = cli.main(['pipeline', '--paths', '200', '--seed', '1',\n"
        f"              '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "[]"]


def test_runs_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma in numpy 2.4; building an index set must not
    script = (
        "import sys\n"
        "from orthomm import cli\n"
        f"out = {str(tmp_path / 'report.json')!r}\n"
        "rcs = [cli.main(['evaluate', '--out', out]),\n"
        "       cli.main(['pipeline', '--paths', '200', '--seed', '1', '--out', out])]\n"
        "print(rcs, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[0,", "0]", "False"]


def test_runs_load_no_dataclasses_or_csv(tmp_path):
    # both cost start-up time: a generated class about half a millisecond,
    # and csv is read only by evaluate --format csv
    script = (
        "import sys\n"
        "from orthomm import cli\n"
        f"rc = cli.main(['evaluate', '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(rc, sorted({'dataclasses', 'csv'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "[]"]
