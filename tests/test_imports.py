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
