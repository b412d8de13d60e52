import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_scripts_and_dependencies_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))
