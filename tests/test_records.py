"""The record rule: a record is a frozen dataclass exactly when its
constructor checks its fields; every other record is a NamedTuple."""

import dataclasses
import inspect
import math
from importlib import import_module, resources

import pytest

from ftqcost.config import build_config, read_sections
from ftqcost.costmodel import CircuitProfile
from ftqcost.factories import cultivation_variant
from ftqcost.fermi_hubbard import ErrorBudget
from ftqcost.qec import LogicalVolume
from ftqcost.report import build_report
from ftqcost.subroutines import ShuttleParams, SubroutineCost

BUNDLED = str(resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg"))
MODULES = (
    "errors", "qec", "factories", "costmodel", "subroutines", "fermi_hubbard",
    "estimator", "config", "report", "cli",
)
RECORDS = {
    f"{name}.{cls.__name__}": cls
    for name in MODULES
    for cls in vars(import_module(f"ftqcost.{name}")).values()
    if inspect.isclass(cls)
    and cls.__module__ == f"ftqcost.{name}"
    and (hasattr(cls, "_fields") or hasattr(cls, "__dataclass_fields__"))
}


def test_every_module_is_walked():
    assert len(RECORDS) >= 16
    assert "config.RunConfig" in RECORDS and "qec.LogicalVolume" in RECORDS


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_dataclass_exactly_when_it_checks_its_fields(name):
    cls = RECORDS[name]
    assert dataclasses.is_dataclass(cls) == ("__post_init__" in vars(cls))
    if not dataclasses.is_dataclass(cls):
        assert issubclass(cls, tuple) and hasattr(cls, "_fields")


NAN_CASES = [
    (CircuitProfile, dict(q_data=10, n_clifford=100, n_non_clifford=10,
                          p_clifford=1, p_non_clifford=1), field)
    for field in ("q_data", "n_clifford", "n_non_clifford", "p_clifford",
                  "p_non_clifford", "m_layers", "k_storage", "routing")
] + [
    (LogicalVolume, dict(patches=10, rounds=100, reactions=1), field)
    for field in ("patches", "rounds", "reactions")
] + [
    (SubroutineCost, dict(count=1, count_kind="t", reaction_depth=1, clean_ancillas=1),
     field)
    for field in ("count", "reaction_depth", "clean_ancillas", "dirty_ancillas")
] + [
    (ShuttleParams, {}, field) for field in ("acceleration", "site_separation")
]


@pytest.mark.parametrize(
    "record, valid, field", NAN_CASES,
    ids=[f"{cls.__name__}.{field}" for cls, _, field in NAN_CASES],
)
def test_record_refuses_nan(record, valid, field):
    record(**valid)
    with pytest.raises(ValueError) as info:
        record(**{**valid, field: math.nan})
    if record is CircuitProfile:
        assert str(info.value).startswith(f"{field} must be ")


def test_circuit_profile_refuses_negative_routing():
    with pytest.raises(ValueError, match="^routing must be nonnegative$"):
        CircuitProfile(10, 100, 0, 1, 1, routing=-100)
    assert CircuitProfile(10, 100, 0, 1, 1, routing=0).routing_patches() == 0


def test_budget_ledger_payload_is_the_error_budget():
    report = build_report(build_config(read_sections(BUNDLED)), with_sensitivity=False)
    ledger = report["estimates"][0]["budget_ledger"]
    assert sorted(ledger) == sorted(ErrorBudget._fields)


@pytest.mark.parametrize("cultivation", [False, True])
def test_effective_spec_is_the_cultivation_variant_exactly_when_on(cultivation):
    sections = read_sections(BUNDLED)
    sections["factory"]["cultivation"] = str(cultivation)
    config = build_config(sections)
    assert config.cultivation is cultivation
    if cultivation:
        assert config.effective_spec == cultivation_variant(config.spec)
        assert config.effective_spec != config.spec
    else:
        assert config.effective_spec is config.spec
