"""Every declared runtime dependency must be importable where the tests run.

A dependency the tests cannot import is code they cannot exercise.
"""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def _runtime_dependencies() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    specs = tomllib.loads(text)["project"]["dependencies"]
    return [re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in specs]


@pytest.mark.parametrize("name", _runtime_dependencies())
def test_runtime_dependency_importable(name):
    importlib.import_module(name)
