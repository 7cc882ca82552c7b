"""Byte-for-byte regression of CLI reports against committed golden outputs.

Each case runs ``ftqcost.cli.main`` in-process and compares the written
file with ``tests/data/golden/<case>.json``. The goldens pin every number
of the four-scheme comparison, the per-scheme sensitivity bands, the
non-default ``m`` and ``log_base`` paths and the table-1 rows; refresh them
only for an intentional, documented change of output. Two comparisons run at
clock pairs other than t_se = tau_r = 1e-6, where the reaction delay's
tau_r / t_se SE rounds differ from one, and one with a custom factory whose
tau_f_rounds is not binary-exact. A 16-point sweep (2 p x 4 schemes x 2 L),
without and with cultivation, is pinned the same way in each of its output
formats, and an 8-point CSV sweep over both clocks and two schemes, with a
custom factory, pins magic-limited rows.
"""

from importlib import resources
from pathlib import Path

import pytest

import ftqcost.fermi_hubbard as fh
from ftqcost.cli import main
from ftqcost.factories import factory_by_name

GOLDEN = Path(__file__).parent / "data" / "golden"
BUNDLED = str(resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg"))
SCHEME_NAMES = ("plaq_serial", "plaq_L", "plaq_L2", "qsp")
TABLE1_ROWS = (
    ("spin", 100, "1e5"),
    ("molecule", 1000, "1e9"),
    ("options", 10000, "1e10"),
    ("ec256", 1000, "4e7"),
)


def _custom_factory(tau_f_rounds):
    return (
        "factory.name=custom", "factory.q_f=30000", f"factory.tau_f_rounds={tau_f_rounds}",
        "factory.n_out=4", "factory.out_infidelity=1e-14",
    )


def _report(*overrides):
    args = [BUNDLED, "--format", "json"]
    for item in overrides:
        args += ["--set", item]
    return args


CASES = {
    "compare": ["compare", *_report()],
    "compare_p1e-4": [
        "compare",
        *_report("physical.p=1e-4", "factory.name=15to1x20to4-p4"),
    ],
    "compare_tse1e-7_taur1e-5": [
        "compare", *_report("physical.t_se=1e-7", "physical.tau_r=1e-5"),
    ],
    "compare_tse1e-4_taur1e-3": [
        "compare", *_report("physical.t_se=1e-4", "physical.tau_r=1e-3"),
    ],
    "compare_custom_factory": ["compare", *_report(*_custom_factory(97.3))],
    **{
        f"estimate_{s}": ["estimate", *_report(f"algorithm.scheme={s}")]
        for s in SCHEME_NAMES
    },
    "estimate_plaq_serial_m16": [
        "estimate",
        *_report("algorithm.scheme=plaq_serial", "algorithm.m=16"),
    ],
    "estimate_qsp_base2": [
        "estimate",
        *_report("algorithm.scheme=qsp", "algorithm.log_base=base2"),
    ],
    **{
        f"table1_{name}": ["table1", "--logical", str(q), "--gates", g, "--format", "json"]
        for name, q, g in TABLE1_ROWS
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    out = tmp_path / f"{case}.json"
    assert main([*CASES[case], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


SWEEP_CASES = {
    f"sweep{suffix}.{ext}": [
        "sweep", BUNDLED, "--format", fmt,
        "--set", "physical.p=1e-3,1e-4",
        "--set", "algorithm.scheme=" + ",".join(SCHEME_NAMES),
        "--set", "algorithm.L=10,30",
        "--set", f"factory.cultivation={cultivation}",
    ]
    for cultivation, suffix in (("false", ""), ("true", "_cultivation"))
    for fmt, ext in (("csv", "csv"), ("json", "json"), ("table", "txt"))
}
# At t_se = 1e-4 both plaq_L2 rows are magic-limited; tau_f_rounds = 1000.3
# takes factories.batch_ratio's Fraction snap.
SWEEP_CASES["sweep_clocks.csv"] = [
    "sweep", BUNDLED, "--format", "csv",
    "--set", "physical.t_se=1e-7,1e-4",
    "--set", "physical.tau_r=1e-5,1e-3",
    "--set", "algorithm.scheme=plaq_L2,qsp",
    *(item for value in _custom_factory(1000.3) for item in ("--set", value)),
]


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_golden(case, tmp_path):
    out = tmp_path / case
    assert main([*SWEEP_CASES[case], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / case).read_bytes()


def test_former_defaults_variable_is_ignored(tmp_path, monkeypatch):
    # Defaults come from the records' _field_defaults alone; no file is read for them.
    monkeypatch.setenv("FTQCOST_DEFAULTS", str(tmp_path / "missing.json"))
    out = tmp_path / "estimate_plaq_L2.json"
    assert main([*CASES["estimate_plaq_L2"], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "estimate_plaq_L2.json").read_bytes()


def bench_instance():
    return fh.FHInstance(l_side=30, t_hop=1.0, u_onsite=8.0, t_evol=300, eps_total=0.01)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_trotter_steps_once_per_compile(scheme, monkeypatch):
    calls = []
    real = fh.trotter_steps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fh, "trotter_steps", counting)
    fh.compile_scheme(scheme, bench_instance())
    assert len(calls) == (0 if scheme == "qsp" else 1)


class TestUnknownScheme:
    MESSAGE = "unknown scheme 'bogus'"

    def test_compile_scheme(self):
        with pytest.raises(ValueError) as info:
            fh.compile_scheme("bogus", bench_instance())
        assert str(info.value) == self.MESSAGE

    def test_layout_at(self):
        summary, _ = fh.compile_scheme("plaq_L", bench_instance())
        # CompilationSummary refuses unknown names, so build a relabelled
        # copy of a valid one past its check.
        summary = tuple.__new__(fh.CompilationSummary, ("bogus", *summary[1:]))
        assert summary.scheme == "bogus"
        with pytest.raises(ValueError) as info:
            fh.layout_at(summary, factory_by_name("15to1x15to1-p3"), 15)
        assert str(info.value) == self.MESSAGE

    def test_config_scheme_exit_2(self, capsys):
        code = main(["estimate", *_report("algorithm.scheme=bogus")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: algorithm.scheme: expected one of "
            "('plaq_serial', 'plaq_L', 'plaq_L2', 'qsp'), got 'bogus'\n"
        )

    def test_table1_path_is_not_a_scheme(self):
        assert fh.SCHEMES == SCHEME_NAMES
        assert main(["compare", *_report(), "--schemes", "simple"]) == 2
        assert main(["estimate", *_report("algorithm.scheme=simple")]) == 2
