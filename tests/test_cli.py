import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ftqcost.config as config_module
import ftqcost.estimator as estimator_module
import ftqcost.report as report_module
from ftqcost.cli import main
from ftqcost.config import (
    _FIELDS,
    RunConfig,
    _ranged,
    build_config,
    field_path,
    read_sections,
    sections_from_inputs,
)
from ftqcost.errors import BudgetInfeasibleError, CompileError, ConfigError
from ftqcost.estimator import EstimateOptions
from ftqcost.factories import factory_by_name
from ftqcost.fermi_hubbard import SCHEMES
from ftqcost.qec import PhysicalAssumptions, logical_error_rate
from ftqcost.report import (
    build_comparison,
    build_report,
    csv_row,
    estimate_config,
    estimate_payload,
    render_csv,
    render_json,
    render_table,
)

BUNDLED = resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg")
SRC = Path(config_module.__file__).resolve().parent.parent
CUSTOM_FACTORY = "factory.name=custom factory.q_f=100 factory.out_infidelity=1e-20 "
# Every entry of the field table, by dotted path.
FIELDS = {
    f"{section}.{key}": field for section, fields in _FIELDS.items()
    for key, field in fields.items()
}


@pytest.fixture
def bundled_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BUNDLED.read_text())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counted(monkeypatch, module, *names):
    """The argument tuples of every call to each of ``module``'s ``names``,
    by name, from here to the end of the test."""
    calls = {}
    for name in names:
        def counting(*args, original=getattr(module, name), seen=calls.setdefault(name, []),
                     **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def as_reingested(report):
    """The report expected from re-ingesting its inputs echo: the echo gives
    every field explicitly, so no knob is flagged as inferred any more."""
    expected = json.loads(render_json(report))
    flags = expected["assumptions"]
    flags.update({k: False for k in flags if k.endswith("_inferred")})
    return expected


class TestTable1Command:
    def test_spin_row(self, capsys):
        code, out, _ = run(capsys, "table1", "--logical", "100", "--gates", "1e5")
        assert code == 0
        assert "code distance: 17" in out
        assert "8.67e+04" in out

    def test_options_row_json(self, capsys):
        code, out, _ = run(
            capsys, "table1", "--logical", "10000", "--gates", "1e10", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)["estimates"][0]
        assert payload["code_distance"] == 31
        assert payload["physical_qubits_total"] == pytest.approx(2.9e7, rel=0.05)

    def test_minimal_row(self, capsys):
        code, out, _ = run(capsys, "table1", "--logical", "1", "--gates", "1")
        assert code == 0
        assert "code distance: 3" in out

    def test_invalid_inputs_exit_2(self, capsys):
        code, _, err = run(capsys, "table1", "--logical", "0", "--gates", "10")
        assert code == 2
        assert "error:" in err
        # Totals that leave the float range are invalid too, not an inf row.
        code, out, err = run(
            capsys, "table1", "--logical", "100", "--gates", "1e5", "--t-se", "1e308"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --t-se: t_se = 1e+308 is too extreme to estimate: ")

    @pytest.mark.parametrize("gates", ["nan", "inf", "1e400"])
    def test_non_finite_gate_count_exit_2(self, capsys, gates):
        code, out, err = run(capsys, "table1", "--logical", "100", "--gates", gates)
        assert (code, out) == (2, "")
        assert err == "error: --gates: gate_count must be finite and at least 1\n"

    @pytest.mark.parametrize(
        "flag,value,reason",
        [
            ("--logical", "0", "q_logical must be at least 1"),
            ("--p", "nan", "p must lie in (0, p_star), got p=nan, p_star=0.01"),
            ("--e", "2", "budget_e must lie in (0, 1)"),
            ("--e", "nan", "budget_e must lie in (0, 1)"),
            ("--t-se", "nan", "t_se must be positive"),
            ("--t-se", "1e-320", "t_se must be large enough that tau_r / t_se is finite"),
        ],
    )
    def test_error_names_its_flag(self, capsys, flag, value, reason):
        argv = {"--logical": "100", "--gates": "1e5", flag: value}
        code, out, err = run(capsys, "table1", *[a for kv in argv.items() for a in kv])
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: {reason}\n"


class TestEstimateCommand:
    def test_bundled_config_t_count_band(self, bundled_config, capsys):
        code, out, _ = run(
            capsys, "estimate", bundled_config, "--format", "json", "--no-sensitivity"
        )
        assert code == 0
        report = json.loads(out)
        t_count = report["estimates"][0]["t_count_total"]
        assert 1e11 <= t_count <= 1.5e12

    def test_byte_identical_reruns(self, bundled_config, capsys):
        _, first, _ = run(capsys, "estimate", bundled_config, "--format", "json")
        _, second, _ = run(capsys, "estimate", bundled_config, "--format", "json")
        assert first == second

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "estimate", "/does/not/exist.cfg")
        assert code == 2
        assert "error:" in err

    def test_empty_config_lists_all_missing_fields(self, tmp_path, capsys):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        code, _, err = run(capsys, "estimate", str(empty))
        assert code == 2
        for path in (
            "physical.p",
            "algorithm.scheme",
            "algorithm.L",
            "algorithm.T_evol",
            "algorithm.eps_total",
        ):
            assert path in err

    def test_p_above_threshold_exit_2(self, bundled_config, capsys):
        code, _, err = run(
            capsys, "estimate", bundled_config, "--set", "physical.p=0.5"
        )
        assert code == 2
        assert "physical" in err

    @pytest.mark.parametrize(
        "override, path",
        [("physical.p=0", "physical.p"), ("physical.p=0.5", "physical.p"),
         ("physical.p_star=2", "physical.p_star"), ("physical.p_star=1e-4", "physical.p")],
    )
    def test_threshold_rule_names_its_field(self, bundled_config, capsys, override, path):
        code, _, err = run(capsys, "estimate", bundled_config, "--set", override)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ")

    def test_options_report_their_first_violation(self, bundled_config, capsys):
        code, _, err = run(
            capsys, "estimate", bundled_config,
            "--set", "qec.E=2", "--set", "algorithm.f_r=5",
        )
        assert code == 2
        assert err == "error: qec.E: e_qec must lie in (0, 1)\n"

    def test_sensitivity_band_at_the_threshold_edges(self, bundled_config, capsys):
        # The favorable band's threshold stays at most 1; an adverse one that
        # falls to p or below leaves no distance that fits.
        code, _, _ = run(capsys, "estimate", bundled_config, "--set", "physical.p_star=1")
        assert code == 0
        code, out, err = run(
            capsys, "estimate", bundled_config,
            "--set", "physical.p=0.0097", "--set", "qec.d_max=100001",
        )
        assert (code, out) == (3, "")
        assert "threshold p_star=0.0095" in err

    def test_infeasible_exit_3(self, bundled_config, capsys):
        code, _, err = run(
            capsys,
            "estimate",
            bundled_config,
            "--set", "physical.p=9.9e-3",
            "--set", "qec.d_max=5",
        )
        assert code == 3

    def test_near_threshold_infeasible_reads_no_candidate(
        self, bundled_config, capsys, monkeypatch
    ):
        # A plan caches each candidate it reads, so a search that read any
        # here would scan to d_max, its time and memory growing with d_max.
        real, seen = estimator_module.choose_distance, []

        def counting(assume, volume_at, *args, **kwargs):
            return real(assume, lambda d: seen.append(d) or volume_at(d), *args, **kwargs)

        monkeypatch.setattr(estimator_module, "choose_distance", counting)
        code, out, err = run(
            capsys, "estimate", bundled_config, "--no-sensitivity",
            "--set", "physical.p=0.00999999999999", "--set", "qec.d_max=100000001",
        )
        assert (code, out, seen) == (3, "", [])
        assert err == "error: no odd distance <= 100000001 meets failure budget 0.05\n"

    @pytest.mark.parametrize("d_max", [1000001, 100000000001])
    def test_near_threshold_floor_that_fits_early_reads_at_most_2_candidates(
        self, bundled_config, capsys, monkeypatch, d_max
    ):
        # The floor fits at d = 3 and 5 but the volume does not; past 5 the
        # floor read again fits nowhere, so the search ends without a scan.
        real, seen = estimator_module.choose_distance, []

        def counting(assume, volume_at, *args, **kwargs):
            return real(assume, lambda d: seen.append(d) or volume_at(d), *args, **kwargs)

        monkeypatch.setattr(estimator_module, "choose_distance", counting)
        code, out, err = run(
            capsys, "estimate", bundled_config, "--no-sensitivity",
            "--set", "physical.p=0.00999999999999", "--set", "physical.prefactor_a=1.7e-16",
            "--set", f"qec.d_max={d_max}",
        )
        assert (code, out) == (3, "") and len(seen) <= 2
        assert err == f"error: no odd distance <= {d_max} meets failure budget 0.05\n"

    def test_near_threshold_plaq_l2_floor_counts_its_factory_area(
        self, bundled_config, capsys, monkeypatch
    ):
        # plaq_L2's volume stays a factor 1 + f_r L^2 / base above the base
        # patches' floor; a floor without the factories' least area would
        # read every odd d between the two first fits, 436 225 candidates here.
        real, seen = estimator_module.choose_distance, []

        def counting(assume, volume_at, *args, **kwargs):
            return real(assume, lambda d: seen.append(d) or volume_at(d), *args, **kwargs)

        monkeypatch.setattr(estimator_module, "choose_distance", counting)
        code, out, err = run(
            capsys, "estimate", bundled_config, "--no-sensitivity",
            "--set", "physical.p=0.009999999",
            "--set", "physical.prefactor_a=2.238721138568347e-17",
            "--set", "qec.d_max=100000000001",
        )
        assert (code, err) == (0, "") and len(seen) <= 40
        assert json.loads(out)["estimates"][0]["code_distance"] == 312254239

    def test_tiny_round_time_keeps_the_supply_time(self, bundled_config, capsys):
        # The fleet's rate per second overflows at t_se=1e-320; its time does not.
        tiny = ["--set", "physical.t_se=1e-320", "--set", "physical.tau_r=1e-320"]
        code, out, err = run(capsys, "estimate", bundled_config, *tiny)
        assert (code, err) == (0, "")
        report = json.loads(out)
        for est in [*report["estimates"], report["sensitivity"]["low"]]:
            assert 0 < est["wall_time_seconds"] < math.inf
            assert math.isfinite(est["physical_qubits_total"])
        code, out, err = run(capsys, "estimate", bundled_config, *tiny[:2])
        assert (code, out) == (2, "")
        assert err == (
            "error: physical.t_se: t_se must be large enough that tau_r / t_se is finite\n"
        )

    def test_tiny_factory_batch_time_still_provisions(self, bundled_config, capsys):
        code, out, _ = run(
            capsys, "estimate", bundled_config,
            "--set", "algorithm.scheme=plaq_serial",
            "--set", "factory.name=custom",
            "--set", "factory.q_f=100",
            "--set", "factory.tau_f_rounds=1e-300",
            "--set", "factory.out_infidelity=1e-20",
        )
        assert code == 0
        assert json.loads(out)["estimates"][0]["factory_count"] >= 1

    def test_tiny_cultivated_batch_time_exits_2(self, bundled_config, capsys):
        # A fifth of 5e-324 rounds is 0: the cultivation variant names its field.
        code, out, err = run(
            capsys, "estimate", bundled_config, "--no-sensitivity", *set_args(with_factory(
                {"factory.tau_f_rounds": "5e-324", "factory.cultivation": "true"}
            )),
        )
        assert (code, out) == (2, "")
        assert err == "error: factory.tau_f_rounds: tau_f_rounds must be positive\n"

    def test_custom_factory_valid_p_outside_0_1_exits_2(self, tmp_path, capsys):
        # The error rate a design was characterized at is a probability; a
        # report once warned "characterized at p=-5.0" and exited 0.
        config = tmp_path / "valid_p.cfg"
        config.write_text(BUNDLED.read_text().replace(
            "name = 15to1x15to1-p3",
            "q_f = 1000\ntau_f_rounds = 50\nn_out = 1\nout_infidelity = 1e-10\nvalid_p = -5",
        ))
        code, out, err = run(capsys, "estimate", str(config))
        assert (code, out) == (2, "")
        assert err == "error: factory.valid_p: valid_p must lie in (0, 1)\n"

    def test_degenerate_compiled_summary_exits_2(self, bundled_config, capsys):
        # The T count underflows below the peak parallel demand.
        tiny = "2.875848668965422e-281"
        code, out, err = run(
            capsys, "estimate", bundled_config, "--no-sensitivity",
            "--set", "algorithm.scheme=qsp",
            "--set", f"algorithm.T_evol={tiny}", "--set", f"algorithm.eps_total={tiny}",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: algorithm.T_evol: t_evol = {tiny} is too extreme to compile qsp: "
            "t_count_total must be at least peak_parallel_t\n"
        )

    def test_overrides_change_output(self, bundled_config, capsys):
        _, base, _ = run(capsys, "estimate", bundled_config, "--format", "json")
        _, low_p, _ = run(
            capsys, "estimate", bundled_config, "--format", "json",
            "--set", "physical.p=1e-4", "--set", "factory.name=15to1x20to4-p4",
        )
        d_base = json.loads(base)["estimates"][0]["code_distance"]
        d_low = json.loads(low_p)["estimates"][0]["code_distance"]
        assert d_low < d_base

    def test_assumption_flags_present(self, bundled_config, capsys):
        _, out, _ = run(capsys, "estimate", bundled_config, "--format", "json")
        report = json.loads(out)
        assert report["assumptions"]["e_qec_inferred"] is False
        assert report["assumptions"]["f_r"] == 0.5
        assert "tau_m_rule" in report["assumptions"]

    def test_inferred_flags_mark_absent_fields(self, tmp_path, capsys):
        no_e = tmp_path / "no_e.cfg"
        no_e.write_text(BUNDLED.read_text().replace("E = 0.05", ""))
        flags = {}
        for name, path in (("bundled", BUNDLED), ("no_e", no_e)):
            _, out, _ = run(
                capsys, "estimate", str(path), "--format", "json", "--no-sensitivity"
            )
            assumptions = json.loads(out)["assumptions"]
            flags[name] = tuple(
                assumptions[k]
                for k in ("e_qec_inferred", "f_r_inferred", "log_base_inferred")
            )
        assert flags == {"bundled": (False, False, True), "no_e": (True, False, True)}

    @pytest.mark.parametrize(
        "override, scheme",
        [
            *(pytest.param(override, None, id=override) for override in (
                "algorithm.T_evol=inf",
                "physical.t_se=inf",
                "physical.tau_r=nan",
                "algorithm.t_hop=nan",
                "qec.t_gate_budget=-1",
                "physical.t_se=1e-320",
                "algorithm.U=1e308",
                "algorithm.T_evol=1e300",
                "algorithm.eps_total=1e-300",
                # Each EstimateOptions rule, named through its attribute.
                "qec.E=2",
                "qec.t_gate_budget=0",
                "algorithm.f_r=2",
                "algorithm.m=1",
                "qec.d_max=1",
            )),
            # Inputs whose load, budget or sigma step fails with a ValueError.
            *(
                pytest.param(override, scheme, id=f"{override}-{scheme}")
                for override, schemes in (
                    ("algorithm.t_hop=1e-308", SCHEMES[:3]),
                    ("algorithm.t_hop=1e-320", SCHEMES[:3]),
                    ("algorithm.T_evol=1e-308", SCHEMES),
                    ("algorithm.T_evol=1e-320", SCHEMES),
                    (f"algorithm.m={10**45}", ("plaq_serial",)),
                )
                for scheme in schemes
            ),
            # Inputs whose totals or bottleneck test leave the float range; the
            # last of several space-separated overrides is the one blamed.
            *(
                pytest.param(override, scheme, id=f"{override.split()[-1]}-{scheme}")
                for override, schemes in (
                    ("physical.t_se=1e308", SCHEMES),
                    ("physical.t_se=1e305", SCHEMES),
                    (CUSTOM_FACTORY + "factory.tau_f_rounds=1e-320", SCHEMES),
                    (CUSTOM_FACTORY + "factory.tau_f_rounds=1e308",
                     ("plaq_serial", "plaq_L", "qsp")),
                )
                for scheme in schemes
            ),
        ],
    )
    def test_out_of_range_number_exit_2(self, bundled_config, capsys, override, scheme):
        overrides = override.split()
        path = overrides[-1].split("=")[0]
        pick = ("--set", f"algorithm.scheme={scheme}") if scheme else ()
        sets = [arg for item in overrides for arg in ("--set", item)]
        code, out, err = run(capsys, "estimate", bundled_config, *pick, *sets)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "name, text",
        [
            ("no_section_header", "p = 1e-3\n"),
            ("unclosed_section", "[physical\np = 1e-3\n"),
            ("interpolation_key", BUNDLED.read_text().replace("T_evol = 300", "T_evol = %(x)s")),
            ("duplicate_section", BUNDLED.read_text() + "\n[physical]\np = 1e-3\n"),
            ("duplicate_option", BUNDLED.read_text().replace("p = 1e-3", "p = 1e-3\np = 2e-3")),
            ("undecodable_bytes", b"\xff\xfe[physical]\n"),
        ],
    )
    def test_malformed_ini_exit_2(self, tmp_path, capsys, name, text):
        path = tmp_path / f"{name}.cfg"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        blamed = "algorithm.T_evol" if name == "interpolation_key" else str(path)
        assert err.startswith(f"error: {blamed}: ")

    def test_percent_in_a_value_is_read_raw(self, tmp_path, capsys):
        target = tmp_path / "r100%.json"
        config = tmp_path / "percent.cfg"
        config.write_text(BUNDLED.read_text() + f"path = {target}\n")
        code, out, err = run(capsys, "estimate", str(config), "--no-sensitivity")
        assert (code, out, err) == (0, "", "")
        assert json.loads(target.read_text())["estimates"][0]["scheme"] == "plaq_L2"

    def test_unknown_keys_and_absent_fields(self, bundled_config):
        sections = read_sections(bundled_config)
        sections["physical"]["bogus"] = "1"
        sections["extra"] = {"x": "1"}
        with pytest.raises(ConfigError) as info:
            build_config(sections)
        assert info.value.problems == [
            "extra: unknown section", "physical.bogus: unknown field"
        ]
        del sections["physical"]["bogus"], sections["extra"], sections["qec"]["e"]
        assert build_config(sections).absent == {
            "algorithm.m", "algorithm.log_base", "factory.q_f",
            "factory.tau_f_rounds", "factory.n_out", "factory.out_infidelity",
            "factory.valid_p", "factory.cultivation", "qec.E", "qec.d_max",
            "qec.t_gate_budget", "output.path",
        }

    def test_budget_ledger_echoes_qec_overrides(self, bundled_config, capsys):
        code, out, _ = run(
            capsys, "estimate", bundled_config, "--format", "json",
            "--set", "qec.E=0.01", "--set", "qec.t_gate_budget=0.2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["assumptions"]["e_qec"] == 0.01
        for est in (report["estimates"][0], *(
            report["sensitivity"][k] for k in ("nominal", "low", "high")
        )):
            assert est["budget_ledger"]["e_qec"] == 0.01
            assert est["budget_ledger"]["t_gate_budget"] == 0.2

    def test_malformed_custom_field_next_to_builtin_name_exit_2(
        self, bundled_config, capsys
    ):
        code, out, err = run(
            capsys, "estimate", bundled_config, "--set", "factory.q_f=many"
        )
        assert (code, out) == (2, "")
        assert err == "error: factory.q_f: invalid literal for int() with base 10: 'many'\n"

    def test_field_differing_from_builtin_factory_exit_2(self, bundled_config, capsys):
        code, out, err = run(
            capsys, "estimate", bundled_config, "--set", "factory.q_f=5"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: factory.q_f: 5 differs from the built-in factory "
            "15to1x15to1-p3's 39100\n"
        )

    def test_field_differing_from_default_by_p_factory_exit_2(self, bundled_config):
        # Without a name or custom field, the factory is the built-in one for p.
        sections = read_sections(bundled_config)
        del sections["factory"]["name"]
        sections["factory"]["valid_p"] = "1e-4"
        with pytest.raises(ConfigError) as info:
            build_config(sections)
        assert info.value.problems == [
            "factory.valid_p: 0.0001 differs from the built-in factory "
            "15to1x15to1-p3's 0.001"
        ]
        # With no valid p the design is unknown: p's problem alone is filed.
        sections["physical"]["p"] = "abc"
        with pytest.raises(ConfigError) as info:
            build_config(sections)
        assert [line.split(":")[0] for line in info.value.problems] == ["physical.p"]

    def test_field_equal_to_builtin_factory_passes(self, bundled_config):
        sections = read_sections(bundled_config)
        sections["factory"].update(q_f="39100", tau_f_rounds="97.5", valid_p="1e-3")
        assert build_config(sections).spec == factory_by_name("15to1x15to1-p3")

    def test_one_compile_per_band_and_per_compared_scheme(self, bundled_config, monkeypatch):
        calls = []
        original = estimator_module.compile_scheme

        def counting(scheme, *args, **kwargs):
            calls.append(scheme)
            return original(scheme, *args, **kwargs)

        monkeypatch.setattr(estimator_module, "compile_scheme", counting)
        config = build_config(read_sections(bundled_config))
        build_report(config, with_sensitivity=True)
        assert calls == [config.scheme]
        calls.clear()
        build_comparison(config, list(SCHEMES))
        assert calls == list(SCHEMES)

    def test_one_payload_per_band_estimate(self, bundled_config, monkeypatch):
        # The band's nominal is the report's estimate: its payload is built once.
        calls = []
        original = report_module.estimate_payload

        def counting(est):
            calls.append(est)
            return original(est)

        monkeypatch.setattr(report_module, "estimate_payload", counting)
        report = build_report(build_config(read_sections(bundled_config)))
        assert len(calls) == 3
        assert report["sensitivity"]["nominal"] == report["estimates"][0]


def every_field_given(path):
    """The config at ``path`` with every key of the field table given: its
    echo, a custom factory built from the echoed spec, m and an output path."""
    sections = sections_from_inputs(build_config(read_sections(path)).resolved_inputs())
    sections["factory"]["name"] = "custom"
    sections["algorithm"]["m"] = "900"
    sections["output"]["path"] = "report.json"
    return sections


class TestFieldTable:
    """One case per entry of the field table, so a field added later is covered."""

    def test_every_field_given(self, bundled_config):
        assert build_config(every_field_given(bundled_config)).absent == frozenset()

    @pytest.mark.parametrize("path", [p for p, f in FIELDS.items() if f.cast is not str])
    def test_unparsable_value_names_its_field(self, bundled_config, capsys, path):
        code, out, err = run(
            capsys, "estimate", bundled_config, "--no-sensitivity", "--set", f"{path}=?"
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("path", list(FIELDS))
    def test_omitted_field_is_absent_or_missing(self, bundled_config, path):
        section, key = path.split(".")
        sections = every_field_given(bundled_config)
        del sections[section][key.lower()]
        if FIELDS[path].required:
            with pytest.raises(ConfigError) as info:
                build_config(sections)
            assert info.value.problems == [f"{path}: missing required field"]
        else:
            assert build_config(sections).absent == {path}

    @pytest.mark.parametrize("path", list(FIELDS))
    def test_echo_rebuilds_an_equal_config(self, bundled_config, path):
        section, key = path.split(".")
        sections = every_field_given(bundled_config)
        if not FIELDS[path].required:
            del sections[section][key.lower()]
        config = build_config(sections)
        rebuilt = build_config(sections_from_inputs(config.resolved_inputs()))
        assert rebuilt._replace(absent=config.absent) == config


BUNDLED_ITEMS = [
    (section, key, value)
    for section, fields in read_sections(str(BUNDLED)).items()
    for key, value in fields.items()
]


class TestBuildConfigProperty:
    @settings(max_examples=500, deadline=None)
    @given(
        kept=st.lists(st.sampled_from(BUNDLED_ITEMS), unique=True),
        unknown=st.lists(
            st.tuples(
                st.sampled_from([*_FIELDS, "extra"]),
                st.text("abcxyz_", min_size=1, max_size=6),
                st.text(max_size=6),
            ),
            max_size=4,
        ),
    )
    def test_builds_or_raises_config_error(self, kept, unknown):
        sections = {}
        for section, key, value in kept + unknown:
            sections.setdefault(section, {})[key] = value
        try:
            config = build_config(sections)
        except ConfigError as exc:
            assert exc.problems and exc.problems == sorted(set(exc.problems))
        else:
            assert isinstance(config, RunConfig)


# Numbers at and past the edges of every field's range and of the float range.
HOSTILE = (
    "nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-308", "1e-320", "1e305",
    "1e-300", "1" + "0" * 40, "0.5", "1", "2", "3", "7", "1e-4",
)
VALUES = st.one_of(
    st.sampled_from(HOSTILE),
    st.floats().map(repr),
    st.integers(-(10**45), 10**45).map(str),
)
# The fields a hostile override may set: every one outside [output].
OVERRIDE_PATHS = [path for path in FIELDS if not path.startswith("output.")]
TABLE1_FLAGS = ("--logical", "--gates", "--p", "--e", "--t-se")


def overrides(min_size, max_size):
    return st.dictionaries(
        st.sampled_from(OVERRIDE_PATHS), VALUES, min_size=min_size, max_size=max_size
    )


def with_factory(sets):
    """``sets`` (path -> value), after a custom factory when it sets a factory field."""
    if not any(path.startswith("factory.") for path in sets):
        return sets
    return {**dict(item.split("=") for item in CUSTOM_FACTORY.split()), **sets}


def set_args(sets):
    return [arg for item in sets.items() for arg in ("--set", "=".join(item))]


def run_contract(argv, names=FIELDS):
    """Exit code and standard output of ``main(argv)``, which must exit 0, 2 or
    3 and open every exit-2 line with one of ``names``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        for line in err.getvalue().splitlines():
            name, sep, _ = line.removeprefix("error: ").partition(": ")
            assert line.startswith("error: ") and sep and name in names, line
    return code, out.getvalue()


def assert_invariants(assume, budget, d, qubits, wall_time, volume):
    assert all(map(math.isfinite, (qubits, wall_time, volume)))
    assert d >= 3 and d % 2 == 1
    assert volume * logical_error_rate(assume, d) <= budget


def assert_report_invariants(report):
    assume = PhysicalAssumptions(**report["inputs"]["physical"])
    for est in report["estimates"]:
        assert_invariants(
            assume, report["inputs"]["qec"]["E"], est["code_distance"],
            est["physical_qubits_total"], est["wall_time_seconds"],
            est["spacetime_volume_patch_rounds"],
        )


def outcome(run):
    """Exit code, standard output and standard error of ``run()``, with the
    error lines main prints for each error it exits on."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run()
        except ConfigError as exc:
            code = 2
            print("".join(f"error: {p}\n" for p in exc.problems), end="", file=err)
        except CompileError as exc:
            code = 2
            print(f"error: {field_path('algorithm', str(exc))}: {exc}", file=err)
        except BudgetInfeasibleError as exc:
            code = 3
            print(f"error: {exc}", file=err)
        except Exception as exc:  # the same fault, if any, on both sides
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def expand_sweep(sections):
    """The sweep's grid written out, one sections dict per point: the oracle
    sweep_configs is checked against. Grid order is lexicographic in
    (section, field), earlier fields varying slowest."""
    ranged = _ranged(sections)
    grids = []
    for combo in itertools.product(*(values for _, _, values in ranged)):
        point = {s: dict(fields) for s, fields in sections.items()}
        for (section, key, _), value in zip(ranged, combo):
            point[section][key] = value
        grids.append(point)
    return grids


def reference_sweep(sections, fmt):
    """A sweep written as a loop: build_config and estimate each point in grid
    order, stopping at the first error."""
    parts = []
    for point in expand_sweep(sections):
        config = build_config(point)
        if fmt == "csv":
            parts.append(csv_row(config, estimate_payload(estimate_config(config))))
        else:
            parts.append(build_report(config, with_sensitivity=False))
    if fmt == "csv":
        text = render_csv(parts)
    elif fmt == "json":
        text = render_json(parts)
    else:
        text = "".join(render_table(report) for report in parts)
    print(text, end="")
    return 0


# A few in-range values per field, so that grids reach their later points.
PLAUSIBLE = {
    "physical.p": ("1e-3", "5e-4", "2e-4", "1e-4"),
    "physical.p_star": ("0.01", "0.02"),
    "physical.prefactor_a": ("0.1", "0.03"),
    "physical.t_se": ("1e-6", "2e-6"),
    "physical.tau_r": ("1e-6", "1e-5"),
    "algorithm.scheme": SCHEMES,
    "algorithm.L": ("4", "6", "10"),
    "algorithm.t_hop": ("1.0", "2"),
    "algorithm.U": ("8", "0.0", "-0.0", "4"),
    "algorithm.T_evol": ("10", "30"),
    "algorithm.eps_total": ("0.01", "0.05"),
    "algorithm.m": ("2", "16"),
    "algorithm.f_r": ("0", "0.5", "1"),
    "algorithm.log_base": ("natural", "base2"),
    "factory.name": ("15to1x15to1-p3", "15to1x20to4-p4", "custom"),
    "factory.q_f": ("100", "39100"),
    "factory.tau_f_rounds": ("97.5", "10"),
    "factory.n_out": ("1", "4"),
    "factory.out_infidelity": ("1e-20", "3.3e-14"),
    "factory.valid_p": ("1e-3", "1e-4"),
    "factory.cultivation": ("true", "false"),
    "qec.E": ("0.05", "0.01"),
    "qec.d_max": ("3", "25", "101"),
    "qec.t_gate_budget": ("0.05", "1"),
}
# The factory the fixed fields give: the bundled built-in, a custom design,
# or a built-in inferred from p (no name, no custom keys).
FACTORY_BASES = {
    "bundled": {},
    "custom": dict(item.split("=") for item in CUSTOM_FACTORY.split()),
    "inferred": {"factory.name": "custom"},
}


@st.composite
def sweep_grids(draw):
    """(fixed sets, ranged sets): 1-3 ranged fields of 1-3 values, one value
    in eight hostile, and a hostile fixed field in one grid of four. A field
    of one value is ranged by a trailing comma."""
    fixed = dict(FACTORY_BASES[draw(st.sampled_from(sorted(FACTORY_BASES)))])
    if draw(st.integers(0, 3)) == 3:
        fixed.update(draw(overrides(1, 1)))
    paths = draw(st.lists(st.sampled_from(OVERRIDE_PATHS), min_size=1, max_size=3, unique=True))
    ranged = {}
    for path in paths:
        value = st.integers(0, 7).flatmap(
            lambda i, path=path: VALUES if i == 7 else st.sampled_from(PLAUSIBLE[path])
        )
        values = draw(st.lists(value, min_size=1, max_size=3))
        ranged[path] = ",".join(values) + ("," if len(values) == 1 else "")
    return fixed, ranged


class TestInputContractProperty:
    """Every input ends one of three ways: a finite estimate meeting the
    invariants, exit 2 naming its fields, or exit 3."""

    @settings(max_examples=300, deadline=None)
    @given(scheme=st.sampled_from(SCHEMES), sets=overrides(1, 3), band=st.booleans())
    def test_exit_0_2_or_3(self, scheme, sets, band):
        argv = ["estimate", str(BUNDLED), "--format", "json"]
        argv += set_args(with_factory({"algorithm.scheme": scheme, **sets}))
        if not band:
            argv.append("--no-sensitivity")
        code, out = run_contract(argv)
        if code == 0:
            assert_report_invariants(json.loads(out))

    @settings(max_examples=300, deadline=None)
    @given(
        schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=5),
        sets=overrides(1, 3),
    )
    def test_compare_exit_0_2_or_3(self, schemes, sets):
        # A repeated scheme is refused before the config is read.
        repeated = len(set(schemes)) < len(schemes)
        argv = ["compare", str(BUNDLED), "--format", "json", "--schemes", ",".join(schemes)]
        names = {"--schemes"} if repeated else FIELDS
        code, out = run_contract(argv + set_args(with_factory(sets)), names=names)
        assert code == 2 or not repeated
        if code == 0:
            report = json.loads(out)
            assert [est["scheme"] for est in report["estimates"]] == schemes
            assert_report_invariants(report)

    @settings(max_examples=300, deadline=None)
    @given(
        logical=st.one_of(st.integers(-10, 10**6), st.integers(-(10**45), 10**45)),
        gates=VALUES,
        optional=st.tuples(*[st.one_of(st.none(), VALUES)] * 3),
    )
    def test_table1_exit_0_2_or_3(self, logical, gates, optional):
        # An optional flag drawn as None is left out and keeps its default.
        flags = dict(zip(TABLE1_FLAGS, (str(logical), gates, *optional)))
        flags = {flag: value for flag, value in flags.items() if value is not None}
        # --flag=value, so that argparse cannot read "-inf" as an option.
        argv = ["table1", "--format=json", *(f"{f}={v}" for f, v in flags.items())]
        code, out = run_contract(argv, names=TABLE1_FLAGS)
        if code == 0:
            (est,) = json.loads(out)["estimates"]
            assume = PhysicalAssumptions(
                p=float(flags.get("--p", 1e-3)),
                t_se=float(flags.get("--t-se", PhysicalAssumptions._field_defaults["t_se"])),
            )
            assert_invariants(
                assume, float(flags.get("--e", EstimateOptions._field_defaults["e_qec"])),
                est["code_distance"],
                est["physical_qubits_total"], est["wall_time_seconds"],
                est["spacetime_volume_patch_rounds"],
            )

    @settings(max_examples=300, deadline=None)
    @given(
        ranged=st.sampled_from(OVERRIDE_PATHS),
        points=st.lists(VALUES, min_size=2, max_size=3),
        sets=overrides(0, 2),
    )
    def test_sweep_exit_0_2_or_3(self, ranged, points, sets):
        sets = with_factory({**sets, ranged: ",".join(points)})
        code, out = run_contract(["sweep", str(BUNDLED), "--format", "csv", *set_args(sets)])
        if code == 0:
            sections = read_sections(str(BUNDLED))
            for path, value in sets.items():
                section, key = path.split(".")
                sections.setdefault(section, {})[key.lower()] = value
            configs = [build_config(point) for point in expand_sweep(sections)]
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == len(configs) == len(points)
            for config, row in zip(configs, rows):
                assert_invariants(
                    config.assume, config.options.e_qec, int(row["d"]),
                    float(row["physical_qubits_total"]), float(row["wall_time_seconds"]),
                    float(row["spacetime_volume"]),
                )


    @settings(max_examples=60, deadline=None)
    @given(grid=sweep_grids())
    # Point 0 is infeasible (exit 3) before point 1's d_max fails to cast.
    @example(grid=({}, {"qec.d_max": "3,?"}))
    @example(grid=({"factory.name": "custom"}, {"physical.p": "1e-3,1e-4"}))
    @example(grid=({"factory.name": "custom", "factory.cultivation": "true"},
                   {"physical.p": "1e-3,1e-4"}))
    @example(grid=({}, {"algorithm.U": "0.0,-0.0", "factory.cultivation": "true,false"}))
    @example(grid=({}, {"algorithm.m": "2,16", "algorithm.log_base": "natural,base2",
                        "algorithm.scheme": "plaq_serial,qsp"}))
    # Two good points, then a p that does not cast.
    @example(grid=({}, {"physical.p": "1e-3,5e-4,1e-3x"}))
    # The options record ranged, and a budget it refuses.
    @example(grid=({}, {"qec.E": "0.05,0.01,1.5", "algorithm.scheme": "qsp,plaq_L"}))
    # A built-in design, a custom one that p chooses, then an unknown name.
    @example(grid=({}, {"factory.name": "15to1x20to4-p4,custom,bogus", "physical.p": "1e-4,"}))
    # RunConfig's own field ranged, with a format it refuses last.
    @example(grid=({}, {"output.format": "json,csv,yaml"}))
    def test_sweep_matches_a_point_by_point_loop(self, grid):
        fixed, ranged = grid
        sets = {**fixed, **ranged}
        sections = read_sections(str(BUNDLED))
        for path, value in sets.items():
            section, key = path.split(".")
            sections.setdefault(section, {})[key.lower()] = value
        for fmt in ("csv", "json", "table"):
            argv = ["sweep", str(BUNDLED), "--format", fmt, *set_args(sets)]
            assert outcome(lambda: main(argv)) == outcome(
                lambda: reference_sweep(sections, fmt)
            )


class TestCompareCommand:
    def test_all_schemes(self, bundled_config, capsys):
        code, out, _ = run(capsys, "compare", bundled_config, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["estimates"]) == 4
        assert len(report["ratios"]) == 4

    def test_assumptions_echo_every_compared_schemes_flags(self, bundled_config, capsys):
        code, out, _ = run(capsys, "compare", bundled_config, "--format", "json")
        assert code == 0
        flags = json.loads(out)["assumptions"]
        assert flags["hwp_m"] == 900
        assert flags["hwp_m_default_is_L_squared"] is True
        assert flags["f_r"] == 0.5

    def test_assumptions_skip_flags_of_schemes_not_compared(self, bundled_config, capsys):
        code, out, _ = run(
            capsys, "compare", bundled_config, "--format", "json",
            "--schemes", "plaq_serial,plaq_L",
        )
        assert code == 0
        flags = json.loads(out)["assumptions"]
        assert flags["hwp_m"] == 900
        assert not {"f_r", "f_r_inferred", "tau_m_rule"} & set(flags)

    def test_unknown_scheme_exit_2(self, bundled_config, capsys):
        code, _, err = run(
            capsys, "compare", bundled_config, "--schemes", "plaq_L2,bogus"
        )
        assert code == 2

    def test_repeated_scheme_exit_2(self, bundled_config, capsys):
        code, out, err = run(
            capsys, "compare", bundled_config, "--schemes", "qsp,plaq_L,qsp,qsp,plaq_L2"
        )
        assert (code, out) == (2, "")
        assert err == "error: --schemes: scheme 'qsp' is given more than once\n"

    def test_empty_scheme_list_exit_2(self, bundled_config, capsys):
        code, out, err = run(capsys, "compare", bundled_config, "--schemes", ",")
        assert (code, out) == (2, "")
        assert err == "error: --schemes: at least one scheme is required\n"


class TestSweepCommand:
    def test_p_times_scheme_grid(self, bundled_config, capsys):
        code, out, _ = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=1e-3,1e-4",
            "--set", "algorithm.scheme=plaq_serial,plaq_L,plaq_L2,qsp",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + 8 grid points
        assert lines[0].startswith("scheme,p,factory")

    def test_single_point_matches_estimate(self, bundled_config, capsys):
        _, sweep_out, _ = run(capsys, "sweep", bundled_config)
        _, est_out, _ = run(
            capsys, "estimate", bundled_config, "--format", "csv"
        )
        assert sweep_out == est_out

    def test_each_scheme_and_instance_compiled_once(self, bundled_config, monkeypatch, capsys):
        calls = []
        original = estimator_module.compile_scheme

        def counting(scheme, inst, *args, **kwargs):
            calls.append((scheme, inst.l_side))
            return original(scheme, inst, *args, **kwargs)

        monkeypatch.setattr(estimator_module, "compile_scheme", counting)
        code, out, _ = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=1e-3,5e-4,2e-4",
            "--set", "algorithm.scheme=plaq_L,qsp",
            "--set", "algorithm.L=6,10",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 2 * 2
        assert sorted(calls) == sorted(
            (s, l_side) for s in ("plaq_L", "qsp") for l_side in (6, 10)
        )

    def test_plans_and_rows_counted_once(self, bundled_config, monkeypatch, capsys):
        # A 3 p x 2 scheme x 2 L grid has 4 plans: each checks its T budget
        # once and lays out each distance it chooses once; every row is built.
        calls = counted(monkeypatch, estimator_module, "layout_at", "t_budget_check")
        calls.update(counted(monkeypatch, report_module, "csv_row"))
        code, out, _ = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=1e-3,9.5e-4,9e-4",
            "--set", "algorithm.scheme=plaq_L,qsp",
            "--set", "algorithm.L=6,10",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + len(calls["csv_row"]) == 1 + 3 * 2 * 2
        assert len(calls["t_budget_check"]) == 2 * 2
        layouts = [(summary, d) for summary, _, d in calls["layout_at"]]
        assert len(set(layouts)) == len(layouts) < 3 * 2 * 2

    def test_plans_recurring_out_of_order_are_planned_once(
        self, bundled_config, monkeypatch, capsys
    ):
        # p varies slowest, so the two E plans alternate over the 4 points:
        # each is planned, its T budget checked, once, on one compilation.
        calls = counted(monkeypatch, estimator_module, "compile_scheme", "t_budget_check")
        code, out, _ = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=1e-3,9e-4", "--set", "qec.E=0.05,0.01",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2
        assert len(calls["t_budget_check"]) == 2
        assert len(calls["compile_scheme"]) == 1

    def test_a_plan_per_point_compiles_once_per_instance(
        self, bundled_config, monkeypatch, capsys
    ):
        # Every point of the L x E grid has its own plan; the two plans of
        # each L share one compilation.
        calls = counted(monkeypatch, estimator_module, "compile_scheme", "t_budget_check")
        code, out, _ = run(
            capsys, "sweep", bundled_config,
            "--set", "algorithm.L=10,12", "--set", "qec.E=0.05,0.01",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2
        assert len(calls["t_budget_check"]) == 2 * 2
        assert [inst.l_side for _, inst, *_ in calls["compile_scheme"]] == [10, 12]

    def test_one_plan_over_two_clock_pairs_lays_out_each_distance_once(
        self, bundled_config, monkeypatch, capsys
    ):
        # One plan serves the p x t_se grid; its two clock pairs share the
        # layouts over d. Only the physical input varies, so it is built once
        # per point and every other input once per call.
        calls = counted(monkeypatch, estimator_module, "layout_at", "t_budget_check")
        calls.update(counted(monkeypatch, config_module, "_input"))
        code, out, _ = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=1e-3,9e-4", "--set", "physical.t_se=1e-6,2e-6",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2
        assert len(calls["t_budget_check"]) == 1
        layouts = [(summary, spec, d) for summary, spec, d in calls["layout_at"]]
        assert len(set(layouts)) == len(layouts) > 0
        targets = [target for _, target, *_ in calls["_input"]]
        assert sorted(targets) == sorted([*config_module._TARGETS, *["assume"] * 3])

    @pytest.mark.parametrize("kind", ["band", "comparison"])
    def test_report_plans_counted_once(self, bundled_config, monkeypatch, kind):
        # A band report compiles its scheme and checks its T budget once; a
        # comparison compiles and checks each scheme once. Each plan (one
        # compilation on one fleet: a band's nominal and perturbed fleets are
        # three) lays out each distance it reaches once.
        calls = counted(
            monkeypatch, estimator_module, "compile_scheme", "t_budget_check", "layout_at"
        )
        config = build_config(read_sections(bundled_config))
        if kind == "band":
            schemes, fleets = [config.scheme], 3
            build_report(config, with_sensitivity=True)
        else:
            schemes, fleets = list(SCHEMES), 1
            build_comparison(config, schemes)
        assert [args[0] for args in calls["compile_scheme"]] == schemes
        assert len(calls["t_budget_check"]) == len(schemes)
        layouts = [(summary, spec, d) for summary, spec, d in calls["layout_at"]]
        assert len(set(layouts)) == len(layouts)
        assert len({(summary, spec) for summary, spec, _ in layouts}) == len(schemes) * fleets

    def test_each_distinct_ranged_raw_cast_once(self, bundled_config, monkeypatch, capsys):
        # A 3 p x 2 scheme x 2 L grid whose p repeats a raw: 12 points, 6 raws.
        ranged = {"physical.p": "1e-3,9.5e-4,1e-3", "algorithm.scheme": "plaq_L,qsp",
                  "algorithm.L": "6,10"}
        seen = []
        for path in ranged:
            section, key = path.split(".")
            entries = config_module._LOOKUP[section]
            dotted, target, keyword, cast, field = entries[key.lower()]

            def counting(raw, cast=cast, path=path):
                seen.append((path, raw))
                return cast(raw)

            monkeypatch.setitem(
                entries, key.lower(), (dotted, target, keyword, counting, field)
            )
        code, out, _ = run(capsys, "sweep", bundled_config, *set_args(ranged))
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 2 * 2
        assert sorted(seen) == sorted(
            {(path, raw) for path, raws in ranged.items() for raw in raws.split(",")}
        )

    def test_first_point_cultivation_variant_exits_2(self, bundled_config, capsys):
        code, out, err = run(
            capsys, "sweep", bundled_config, *set_args(with_factory(
                {"factory.tau_f_rounds": "5e-324,97.5", "factory.cultivation": "true"}
            )),
        )
        assert (code, out) == (2, "")
        assert err == "error: factory.tau_f_rounds: tau_f_rounds must be positive\n"

    def test_each_point_echoes_its_own_inputs(self, bundled_config, capsys):
        # -0.0 == 0.0, so only the point's own record echoes its sign.
        code, out, _ = run(
            capsys, "sweep", bundled_config, "--format", "json",
            "--set", "algorithm.U=0.0,-0.0", "--set", "algorithm.L=4",
        )
        assert code == 0
        reports = json.loads(out)
        assert [math.copysign(1, r["inputs"]["algorithm"]["U"]) for r in reports] == [1, -1]
        assert '"U": -0.0' in out

    def test_too_many_ranged_fields(self, bundled_config, capsys):
        code, _, err = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=1e-3,2e-3",
            "--set", "algorithm.L=10,20",
            "--set", "algorithm.T_evol=1,2",
            "--set", "qec.E=0.1,0.2",
        )
        assert code == 2
        assert err == (
            "error: sweep: at most 3 ranged fields allowed, "
            "got algorithm.L, algorithm.T_evol, physical.p, qec.E\n"
        )

    @pytest.mark.parametrize("blank", [",", ", ,"])
    def test_ranged_field_with_only_blank_values(self, bundled_config, capsys, blank):
        code, out, err = run(
            capsys, "sweep", bundled_config, "--set", f"physical.p={blank}",
            "--set", "algorithm.t_evol=1,2",
        )
        assert (code, out) == (2, "")
        assert err == "error: physical.p: a ranged field needs a non-blank value\n"

    def test_too_many_ranged_fields_before_a_blank_one(self, bundled_config, capsys):
        code, _, err = run(
            capsys, "sweep", bundled_config,
            "--set", "physical.p=,", "--set", "algorithm.L=10,20",
            "--set", "algorithm.T_evol=1,2", "--set", "qec.E=0.1,0.2",
        )
        assert code == 2
        assert err == (
            "error: sweep: at most 3 ranged fields allowed, "
            "got algorithm.L, algorithm.T_evol, physical.p, qec.E\n"
        )


class TestOutputPath:
    """An output that cannot be opened exits 2, naming the setting that chose it."""

    @pytest.mark.parametrize("command", ["estimate", "compare", "sweep", "table1"])
    def test_output_flag_into_missing_directory(
        self, bundled_config, tmp_path, capsys, command
    ):
        target = str(tmp_path / "missing" / "out.json")
        args = (
            ["--logical", "100", "--gates", "1e5"] if command == "table1"
            else [bundled_config, "--schemes", "qsp"] if command == "compare"
            else [bundled_config]
        )
        code, out, err = run(capsys, command, *args, "--output", target)
        assert (code, out) == (2, "")
        assert err == (
            f"error: --output: cannot write {target!r}: No such file or directory\n"
        )

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_config_output_path_into_missing_directory(
        self, bundled_config, tmp_path, capsys, command
    ):
        target = str(tmp_path / "missing" / "out.json")
        code, out, err = run(
            capsys, command, bundled_config, "--set", f"output.path={target}"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: output.path: cannot write {target!r}: No such file or directory\n"
        )

    def test_output_flag_overrides_config_path(self, bundled_config, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "estimate", bundled_config, "--no-sensitivity",
            "--set", f"output.path={tmp_path / 'missing' / 'x'}", "--output", str(target),
        )
        assert (code, out) == (0, "")
        assert target.read_text()

    def test_sweep_writes_csv_to_stdout_whatever_the_config_says(
        self, bundled_config, tmp_path, capsys
    ):
        # The bundled config asks for JSON; a sweep reads neither output key.
        target = tmp_path / "x"
        code, out, _ = run(capsys, "sweep", bundled_config, "--set", f"output.path={target}")
        assert code == 0
        assert out.startswith("scheme,p,factory")
        assert not target.exists()


class TestMainInProcess:
    def test_calls_in_a_row_print_what_fresh_calls_print(self, bundled_config, capsys):
        # main() builds its parser once per process: no call's --set list or
        # --format reaches the next.
        argvs = [
            ["sweep", bundled_config, "--set", "physical.p=1e-3,5e-4"],
            ["estimate", bundled_config, "--format", "table"],
            ["sweep", bundled_config, "--set", "algorithm.L=6,10", "--set", "qec.E=0.05,0.01"],
        ]
        in_a_row = [run(capsys, *argv) for argv in argvs]
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        fresh = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "ftqcost.cli", *argv], capture_output=True,
                text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_a_row == fresh
        assert [len(out.splitlines()) for _, out, _ in in_a_row[::2]] == [1 + 2, 1 + 2 * 2]


class TestRoundTrip:
    def test_report_inputs_reproduce_report(self, bundled_config):
        config = build_config(read_sections(bundled_config))
        report = build_report(config, with_sensitivity=False)
        rebuilt = build_config(sections_from_inputs(report["inputs"]))
        report2 = build_report(rebuilt, with_sensitivity=False)
        assert render_json(report2) == render_json(as_reingested(report))

    def test_round_trip_with_cultivation(self, tmp_path):
        path = tmp_path / "cult.cfg"
        path.write_text(
            BUNDLED.read_text().replace(
                "name = 15to1x15to1-p3", "name = 15to1x15to1-p3\ncultivation = true"
            )
        )
        config = build_config(read_sections(str(path)))
        assert config.effective_spec.q_f == 7820
        report = build_report(config, with_sensitivity=False)
        rebuilt = build_config(sections_from_inputs(report["inputs"]))
        assert rebuilt.effective_spec == config.effective_spec
        assert render_json(build_report(rebuilt, with_sensitivity=False)) == render_json(
            as_reingested(report)
        )


class TestSweepExpansion:
    def test_empty_range_is_a_config_error(self):
        sections = {"physical": {"p": ","}}
        with pytest.raises(ConfigError) as info:
            expand_sweep(sections)
        assert info.value.problems == ["physical.p: a ranged field needs a non-blank value"]

    def test_stable_lexicographic_order(self):
        sections = {"a": {"x": "1,2"}, "b": {"y": "3,4"}}
        grids = expand_sweep(sections)
        seen = [(g["a"]["x"], g["b"]["y"]) for g in grids]
        assert seen == [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")]
