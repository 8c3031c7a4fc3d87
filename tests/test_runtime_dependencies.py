"""The package's one runtime dependency is numpy: every module imports only
the standard library, numpy and its own package, and pyproject.toml declares
numpy alone.  No module of the package, its tests or its demos imports a name
it never uses."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "torusgeom").glob("*.py"))
# __init__.py imports to re-export; perfbench/ is the benchmark's and is not scanned
SCANNED = sorted(p for d in ("src/torusgeom", "tests", "demos")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def _imported_top_levels(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports in a module; relative imports
    (within the package) are skipped."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import and never read; __future__ imports are skipped."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {name for name in _imported_top_levels(tree)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_import_scan_sees_a_third_party_import():
    tree = ast.parse("import numpy as np\nfrom scipy import fft\nfrom . import fields\n"
                     "from .riemann import Metric\nimport os.path\n")
    assert _imported_top_levels(tree) == {"numpy", "scipy", "os"}


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_a_module_imports_no_unused_name(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.relative_to(ROOT)} never uses {sorted(unused)}"


def test_the_unused_import_scan_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from .riemann import Metric, _det\nx = np.pi * _det(os.sep)\n")
    assert _unused_imports(tree) == {"Metric"}


def test_pyproject_declares_numpy_as_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]


def test_the_benchmark_imports_leave_the_verify_layer_unloaded():
    # perfbench imports these modules; as long as none of them loads `suites`
    # or `cli`, a change to the verify layer cannot move a benchmark figure
    code = ("import sys, torusgeom\n"
            "from torusgeom import bundles, diffeo, fields, riemann, sampling, symplectic\n"
            "print(sorted(m for m in ('torusgeom.suites', 'torusgeom.cli') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
