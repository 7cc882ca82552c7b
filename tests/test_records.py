"""The record rule: every record is a NamedTuple. The nine that check their
fields do it in their own constructor, which every way of building one runs:
calling the class, ``_replace`` and ``_make``."""

import ast
import dataclasses
import inspect
import math
from importlib import import_module, resources

import pytest

from ftqcost.config import build_config, read_sections
from ftqcost.costmodel import CircuitProfile
from ftqcost.estimator import EstimateOptions
from ftqcost.factories import FactoryFleet, FactorySpec, cultivation_variant, factory_by_name
from ftqcost.fermi_hubbard import CompilationSummary, ErrorBudget, FHInstance
from ftqcost.qec import PhysicalAssumptions
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


def checks_itself(cls) -> bool:
    """Whether ``cls`` is built by a constructor of its own module, not the
    one ``typing.NamedTuple`` generates."""
    return cls.__new__.__module__ == cls.__module__


def test_every_module_is_walked():
    assert len(RECORDS) >= 16
    assert "config.RunConfig" in RECORDS and "qec.PhysicalAssumptions" in RECORDS


def defines_new(cls) -> bool:
    """Whether the body of ``cls``, as its module's source writes it, defines
    ``_new``: ``checked`` deletes the attribute once it is ``__new__``."""
    tree = ast.parse(inspect.getsource(import_module(cls.__module__)))
    (body,) = [node.body for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls.__name__]
    return any(isinstance(node, ast.FunctionDef) and node.name == "_new" for node in body)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_own_constructor_exactly_when_the_class_body_defines_new(name):
    """A record that writes ``_new`` is built by it, so ``checked`` took it;
    a record that does not is built by the constructor NamedTuple makes."""
    cls = RECORDS[name]
    assert checks_itself(cls) == defines_new(cls)
    assert "_new" not in vars(cls)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_is_a_named_tuple(name):
    cls = RECORDS[name]
    assert issubclass(cls, tuple) and hasattr(cls, "_fields")
    assert not dataclasses.is_dataclass(cls)


# A valid build of each checked record, by keyword, and for each field it
# checks the bad values it must refuse.
PHYSICAL = dict(p=1e-3)
SPEC = dict(name="x", q_f=10, tau_f_rounds=5.0, n_out=1, out_infidelity=1e-9, valid_p=1e-3)
SUMMARY = dict(
    scheme="plaq_L", l_side=4, data_patches=32, routing_patches=96, aux_patches=0,
    timestep_depth=10.0, reaction_depth=5.0, t_count_total=100.0, peak_parallel_t=8,
    consumption_rate=8, rotation_count=64.0, sigma=20,
)
CHECKED = {
    PhysicalAssumptions: (PHYSICAL, {
        "p": [math.nan, 0.0, 0.01], "p_star": [math.nan, 0.0, 2.0],
        "prefactor_a": [math.nan, 0.0], "t_se": [math.nan, 0.0, 1e-320],
        "tau_r": [math.nan, 0.0],
    }),
    FactorySpec: (SPEC, {
        "q_f": [math.nan, 0], "tau_f_rounds": [math.nan, 0.0], "n_out": [math.nan, 0],
        "out_infidelity": [math.nan, 0.0, 1.0], "valid_p": [math.nan, -5.0, 0.0, 1.0],
    }),
    FactoryFleet: (dict(spec=factory_by_name("15to1x15to1-p3"), count=3), {
        "count": [math.nan, -1],
    }),
    CircuitProfile: (dict(q_data=10, n_clifford=100, n_non_clifford=10, p_clifford=1,
                          p_non_clifford=1), {
        "q_data": [math.nan, 0], "n_clifford": [math.nan, -1],
        "n_non_clifford": [math.nan, -1], "p_clifford": [math.nan, 0],
        "p_non_clifford": [math.nan, 0], "m_layers": [math.nan, 0],
        "k_storage": [math.nan, -1], "routing": [math.nan, -100],
    }),
    SubroutineCost: (dict(count=1, count_kind="t", reaction_depth=1, clean_ancillas=1), {
        "count": [math.nan, -1], "reaction_depth": [math.nan, -1],
        "clean_ancillas": [math.nan, -1], "dirty_ancillas": [math.nan, -1],
    }),
    ShuttleParams: ({}, {
        "acceleration": [math.nan, 0.0], "site_separation": [math.nan, 0.0],
    }),
    FHInstance: (dict(l_side=4, t_hop=1.0, u_onsite=8.0, t_evol=10.0, eps_total=0.01), {
        "l_side": [math.nan, 0, 3], "t_hop": [math.nan, 0.0], "u_onsite": [math.nan, -1.0],
        "t_evol": [math.nan, 0.0], "eps_total": [math.nan, 0.0, 1.0],
    }),
    CompilationSummary: (SUMMARY, {
        "scheme": ["bogus", "simple"], "t_count_total": [7.0],
    }),
    EstimateOptions: ({}, {
        "e_qec": [math.nan, 0.0, 1.0], "d_max": [math.nan, 2], "f_r": [math.nan, -0.1, 1.1],
        "hwp_m": [math.nan, 1], "t_gate_budget": [math.nan, 0.0, 1.5],
    }),
}
BAD = [
    (cls, field, value)
    for cls, (_, fields) in CHECKED.items()
    for field, values in fields.items()
    for value in values
]


def test_checked_records_are_the_nine_listed():
    checked = {cls for cls in RECORDS.values() if checks_itself(cls)}
    assert checked == set(CHECKED)
    assert len(checked) == 9


@pytest.mark.parametrize("cls", list(CHECKED), ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_in_order_with_their_defaults(cls):
    code = cls.__new__.__code__
    assert code.co_varnames[1:code.co_argcount] == cls._fields
    assert (cls.__new__.__defaults__ or ()) == tuple(cls._field_defaults.values())
    valid = cls(**CHECKED[cls][0])
    assert type(valid) is cls
    assert cls._make(valid) == valid and type(cls._make(valid)) is cls
    assert valid._replace() == valid and type(valid._replace()) is cls


@pytest.mark.parametrize(
    "cls, field, value", BAD,
    ids=[f"{cls.__name__}.{field}={value!r}" for cls, field, value in BAD],
)
def test_bad_field_is_refused_however_the_record_is_built(cls, field, value):
    kwargs = CHECKED[cls][0]
    valid = cls(**kwargs)
    with pytest.raises(ValueError) as built:
        cls(**{**kwargs, field: value})
    with pytest.raises(ValueError) as replaced:
        valid._replace(**{field: value})
    with pytest.raises(ValueError) as made:
        cls._make(value if name == field else old for name, old in zip(cls._fields, valid))
    assert str(built.value) == str(replaced.value) == str(made.value)


def test_defaults_are_the_field_defaults():
    """``_field_defaults`` is the one table: a record built without a field
    holds its default, and the class attribute is the field's getter."""
    assert PhysicalAssumptions(p=1e-3).t_se == PhysicalAssumptions._field_defaults["t_se"]
    assert EstimateOptions().e_qec == EstimateOptions._field_defaults["e_qec"] == 0.05
    assert not isinstance(EstimateOptions.e_qec, float)


def test_a_record_is_equal_to_a_tuple_of_its_values():
    """Equality and hashing are the tuple's, whatever the kind: an equal copy
    shares a plan, and a plan key holds each kind at its own position."""
    spec = factory_by_name("15to1x15to1-p3")
    assert spec == tuple(spec) and hash(spec) == hash(tuple(spec))
    assert spec._replace() == spec and spec._replace() is not spec


NAN_CASES = [
    (CircuitProfile, dict(q_data=10, n_clifford=100, n_non_clifford=10,
                          p_clifford=1, p_non_clifford=1), field)
    for field in ("q_data", "n_clifford", "n_non_clifford", "p_clifford",
                  "p_non_clifford", "m_layers", "k_storage", "routing")
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
