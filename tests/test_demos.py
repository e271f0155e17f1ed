"""The demos import only names that the package provides, and each runs
to completion (all five take a few seconds)."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def equialg_imports(path):
    """(module, name or None) for every import of equialg in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "equialg":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "equialg":
                    yield alias.name, None


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(equialg_imports(path))
    assert imports, f"{path.name} imports nothing from equialg"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module}.{name} is missing"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
