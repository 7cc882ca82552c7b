"""The package version has one source: ``ftqcost.__version__``."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_read_from_the_package():
    project = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "ftqcost.__version__"}
