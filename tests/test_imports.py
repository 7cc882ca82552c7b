"""The import graph: each entry point loads only the ftqcost modules it runs,
and the lazy package still offers every public name."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module, resources
from pathlib import Path

import pytest

import ftqcost

SRC = Path(ftqcost.__file__).resolve().parent.parent
PERFBENCH = SRC.parent / "perfbench"

PUBLIC = (
    "BudgetInfeasibleError", "ComparisonRow", "CompilationSummary", "ConfigError",
    "ErrorBudget", "EstimateOptions", "EstimatorError", "FHInstance", "FactoryFleet",
    "FactorySpec", "InvalidDistanceError", "MagicStarvedError",
    "PhysicalAssumptions", "ResourceEstimate", "SCHEMES", "SensitivityBand",
    "UndefinedRatioError", "builtin_catalog", "choose_distance", "compare",
    "compile_scheme", "cultivation_variant", "estimate", "factory_by_name",
    "layout_at", "logical_error_rate", "patch_physical_qubits", "provision",
    "sensitivity", "simple_estimate", "t_budget_check", "trotter_kappa",
    "trotter_steps",
)


def fresh_stdout(code: str) -> str:
    """What ``code`` prints, run in a fresh interpreter that finds ftqcost."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return proc.stdout


def fresh_json(code: str):
    """The JSON ``code`` prints, run in a fresh interpreter that finds ftqcost."""
    return json.loads(fresh_stdout(f"import json, sys\n{code}"))


def newly_loaded(code: str, names) -> set[str]:
    """Which of the modules ``names`` ``code`` loads in a fresh interpreter.

    The child imports nothing of its own first (not even json), so a module
    counts only if ``code`` brought it in."""
    return set(fresh_stdout(
        f"import sys\nbefore = set(sys.modules)\n{code}\n"
        f"print(*sorted(set({sorted(names)!r}) & set(sys.modules) - before))"
    ).split())


def loaded_after(statement: str) -> list[str]:
    """The ftqcost modules in sys.modules after ``statement``, in a fresh interpreter."""
    return fresh_json(
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'ftqcost')))"
    )


def test_bare_import_loads_no_submodule():
    assert loaded_after("import ftqcost") == ["ftqcost"]


def test_subroutines_is_a_leaf():
    assert loaded_after("import ftqcost.subroutines") == ["ftqcost", "ftqcost.subroutines"]


@pytest.mark.parametrize("entry", ["ftqcost.cli", "ftqcost.report"])
def test_estimator_path_skips_costmodel(entry):
    loaded = loaded_after(f"import {entry}")
    assert "ftqcost.estimator" in loaded
    assert "ftqcost.costmodel" not in loaded


def test_cli_does_not_load_configparser():
    """The config reader is ftqcost's own, so a cold start does not import
    the standard library's INI engine."""
    assert fresh_json(
        "import ftqcost.cli\nprint(json.dumps('configparser' in sys.modules))"
    ) is False


SNAP_AND_JSON = ("fractions", "decimal", "numbers", "json", "json.decoder")


@pytest.mark.parametrize("entry", ["ftqcost.cli", "ftqcost.report", "ftqcost.config"])
def test_cold_start_loads_neither_fractions_nor_json(entry):
    """A catalog batch time needs no Fraction snap and the report escapes its
    strings with the C function json.encoder re-exports, so a cold start
    pays for neither ``fractions`` (and the ``decimal`` it pulls in) nor the
    json package."""
    assert newly_loaded(f"import {entry}", SNAP_AND_JSON) == set()


@pytest.mark.parametrize(("args", "snaps"), [
    (["sweep", "{cfg}", "--set", "physical.p=1e-3,5e-4", "--set", "algorithm.L=20,30",
      "--format", "csv"], False),
    (["compare", "{cfg}"], False),
    (["estimate", "{cfg}"], False),
    (["estimate", "{cfg}", "--set", "factory.name=15to1x20to4-p4"], False),
    (["estimate", "{cfg}", "--set", "factory.cultivation=true"], True),
])
def test_only_a_run_that_snaps_loads_fractions(args, snaps):
    """The bundled config's sweep, compare and band estimate read every batch
    time as an integer ratio; a cultivation band's +/-5% batch times are not
    dyadic and go through the Fraction snap. So the import's saving is not
    just moved into the first call."""
    cfg = str(resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg"))
    argv = [arg.replace("{cfg}", cfg) for arg in args]
    loaded = newly_loaded(
        "import contextlib, io\n"
        "from ftqcost.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n",
        ("fractions", "decimal", "numbers"),
    )
    assert loaded == ({"fractions", "decimal", "numbers"} if snaps else set())


@pytest.mark.parametrize("entry", ["ftqcost.cli", "ftqcost.subroutines"])
def test_cold_start_loads_neither_dataclasses_nor_inspect(entry):
    """Every record is a NamedTuple, so a cold start pays neither for
    ``dataclasses`` nor for the ``inspect`` it would pull in."""
    assert fresh_json(
        f"import {entry}\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    ) == []


def test_public_names_are_unchanged():
    assert ftqcost.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_home_modules_object(name):
    home = import_module(f"ftqcost.{ftqcost._HOMES[name]}")
    assert getattr(ftqcost, name) is getattr(home, name)
    assert name in dir(ftqcost)


@pytest.mark.parametrize("name", ["LogicalVolume", "wall_time", "run_cost"])
def test_qec_cost_helpers_are_not_public(name):
    """The volume record and the wall-time sum left the public API with the
    second reaction clock; their replacement, qec.run_cost, is not exported."""
    assert name not in ftqcost._HOMES and name not in dir(ftqcost)
    assert not hasattr(ftqcost, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ftqcost.no_such_name
    assert not hasattr(ftqcost, "no_such_name")


def test_star_import_binds_every_public_name():
    bound = fresh_json(
        "from ftqcost import *\n"
        "print(json.dumps(sorted(n for n in dir() if n[0] != '_' and n not in ('json', 'sys'))))"
    )
    assert bound == sorted(PUBLIC)


def test_benchmark_tracer_finds_every_site(monkeypatch):
    """The benchmark's tracer wraps module attributes by name: compile_scheme,
    choose_distance and layout_at as ftqcost.estimator reaches them. It binds
    compile_scheme's and choose_distance's parameters by name too. Only
    report.load_defaults and cli.expand_sweep, which the package no longer
    has, may be absent."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    estimator = import_module("ftqcost.estimator")
    original = estimator.compile_scheme
    tracer = import_module("tracing").Tracer()
    try:
        tracer.install()
        assert estimator.compile_scheme is not original
        assert set(tracer.absent) == {"report.load_defaults", "config.expand_sweep"}
    finally:
        tracer.uninstall()
    assert estimator.compile_scheme is original


def test_benchmark_tracer_sees_every_report_layer_call(monkeypatch, tmp_path):
    """A CSV sweep, a band report and a comparison reach the report and
    estimator functions through the module attributes the tracer wraps: a
    direct call would leave a span name empty without marking it absent."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    cli = import_module("ftqcost.cli")
    config_module = import_module("ftqcost.config")
    reporting = import_module("ftqcost.report")
    path = str(resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg"))
    tracer = import_module("tracing").Tracer()
    try:
        tracer.install()
        sweep = ["sweep", path, "--set", "physical.p=1e-3,5e-4"]
        assert cli.main([*sweep, "--output", str(tmp_path / "sweep.csv")]) == 0
        config = config_module.build_config(config_module.read_sections(path))
        reporting.render_json(reporting.build_report(config))
        reporting.build_comparison(config, ["plaq_L", "qsp"])
    finally:
        tracer.uninstall()
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3
    fired = {name for name, (count, _, _) in tracer.stats.items() if count}
    assert not {
        "report.csv_row", "report.render", "report.build_report",
        "report.build_comparison", "estimator.estimate", "estimator.sensitivity",
        "estimator.compare",
    } - fired


def test_no_module_imports_another_modules_private_name():
    """A name one module uses from another is part of that module's surface,
    so it is public there."""
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted((SRC / "ftqcost").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module imports is read somewhere in that module."""
    unused = []
    for path in sorted((SRC / "ftqcost").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert unused == []
