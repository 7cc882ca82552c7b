"""Packaging: the version has one source, ``ftqcost.__version__``, and the
package has no runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_version_is_read_from_the_package():
    project = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "ftqcost.__version__"}


def test_no_runtime_dependencies():
    """Every absolute import in the package is ftqcost or the standard library."""
    sources = sorted((ROOT / "src" / "ftqcost").rglob("*.py"))
    assert sources
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in {"ftqcost", *sys.stdlib_module_names}
            }
    assert not outside
    assert tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"] == []
