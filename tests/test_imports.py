"""Each module imports on its own, first, in a fresh interpreter.

An import cycle between two modules fails only when one of them is the
first imported, so each module gets an interpreter to itself.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import apar

SRC = str(Path(apar.__file__).resolve().parents[1])
MODULES = sorted(f"apar.{m.name}" for m in pkgutil.iter_modules(apar.__path__))


def test_every_module_is_listed():
    assert {"apar.attention", "apar.script", "apar.sim"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for top in ("src/apar", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def test_sources_parse_as_python_3_10():
    # requires-python names 3.10, the floor of the CI matrix.
    assert len(SOURCES) > 20
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
