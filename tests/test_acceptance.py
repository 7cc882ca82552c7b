"""Acceptance gate: one test per headline criterion, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Criterion 6's closed-form bound is checked for the full
stated grid, including the corner where the discrete optimum provably
exceeds the bound; see the repository notes for the analysis.
"""

import json
import math
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqcost.cli import main
from ftqcost.config import build_config, sections_from_inputs
from ftqcost.costmodel import (
    CircuitProfile,
    fast_block_routing,
    general_cost,
    pbc_ratio,
    reaction_limited_plan,
    sequential_baseline,
)
from ftqcost.estimator import estimate, sensitivity, simple_estimate
from ftqcost.factories import (
    FactoryFleet,
    cultivation_variant,
    factory_by_name,
    provision,
)
from ftqcost.fermi_hubbard import SCHEMES, FHInstance, allocate_budget
from ftqcost.qec import PhysicalAssumptions, choose_distance, logical_error_rate
from ftqcost.report import build_report, render_json
from ftqcost.subroutines import ShuttleParams, qroam_cost, qroam_optimal, shuttle_time


def assume(p=1e-3, **kw):
    return PhysicalAssumptions(p=p, **kw)


def bench_instance():
    return FHInstance(l_side=30, t_hop=1.0, u_onsite=8.0, t_evol=300, eps_total=0.01)


def spec_for(p):
    return factory_by_name("15to1x20to4-p4" if p <= 3e-4 else "15to1x15to1-p3")


class TestCriterion1TableRows:
    ROWS = [
        ("spin", 100, 1e5, 8.7e4, 2.0),
        ("molecule", 1000, 1e9, 2.2e6, 8 * 3600.0),
        ("options", 10000, 1e10, 2.9e7, 3.7 * 86400.0),
        ("ec256", 1000, 4e7, 1.9e6, 17 * 60.0),
    ]

    def test_criterion_1_minimal_footprint_rows(self):
        a = assume()
        for name, q, g, qubits, seconds in self.ROWS:
            start = time.perf_counter()
            est = simple_estimate(q, g, a)
            elapsed = time.perf_counter() - start
            assert abs(est.physical_qubits_total - qubits) / qubits <= 0.05, name
            # The 1.7 s spin row sits exactly at the 15% edge of the quoted
            # "2 seconds"; allow for float rounding at the boundary.
            assert (
                abs(est.wall_time_seconds - seconds) / seconds <= 0.15 * (1 + 1e-9)
            ), name
            assert elapsed < 1e-3, f"{name}: {elapsed * 1e3:.2f} ms per row"


class TestCriterion2ReactionLimited:
    def test_criterion_2_worked_example_exact(self):
        plan = reaction_limited_plan(75e-6, 5e-6, 30)
        assert plan.time_seconds == 150e-6
        assert plan.logical_qubits == 60
        a = assume(tau_r=5e-6)
        seq_time, seq_qubits = sequential_baseline(30, 15, a)
        # Exact up to the binary representation of the decimal inputs.
        assert seq_time == pytest.approx(825e-6, rel=1e-12)
        assert seq_qubits == 2
        assert seq_time / plan.time_seconds == pytest.approx(5.5, rel=1e-12)
        assert plan.logical_qubits / seq_qubits == 30


class TestCriterion3TCountBand:
    def test_criterion_3_t_count_band_per_scheme(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            for p in (1e-3,):
                start = time.perf_counter()
                est = estimate(inst, scheme, assume(p), spec_for(p))
                elapsed = time.perf_counter() - start
                assert 1e11 <= est.t_count_total <= 1.5e12, (
                    f"{scheme}: {est.t_count_total:.3g}"
                )
                assert elapsed < 10e-3, f"{scheme}: {elapsed * 1e3:.2f} ms"


class TestCriterion4SchemeOrderings:
    def test_criterion_4a_wall_time_ordering(self):
        inst = bench_instance()
        for p in (1e-3, 1e-4):
            times = {
                s: estimate(inst, s, assume(p), spec_for(p)).wall_time_seconds
                for s in ("plaq_serial", "plaq_L", "plaq_L2")
            }
            assert times["plaq_serial"] > times["plaq_L"] > times["plaq_L2"], p

    def test_criterion_4b_plaq_l2_vs_qsp(self):
        inst = bench_instance()
        for p in (1e-3, 1e-4):
            l2 = estimate(inst, "plaq_L2", assume(p), spec_for(p))
            qsp = estimate(inst, "qsp", assume(p), spec_for(p))
            assert l2.wall_time_seconds < qsp.wall_time_seconds, p
            assert l2.physical_qubits_total > qsp.physical_qubits_total, p

    def test_criterion_4c_lower_p_dominates(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            high = estimate(inst, scheme, assume(1e-3), spec_for(1e-3))
            low = estimate(inst, scheme, assume(1e-4), spec_for(1e-4))
            assert low.physical_qubits_total <= high.physical_qubits_total, scheme
            assert low.wall_time_seconds <= high.wall_time_seconds, scheme
            # Logical patch-rounds are not comparable across distances, so
            # volume dominance is asserted on physical qubit-seconds.
            assert (
                low.physical_qubits_total * low.wall_time_seconds
                <= high.physical_qubits_total * high.wall_time_seconds
            ), scheme
            assert low.d <= high.d, scheme

    def test_criterion_4d_sensitivity_bands(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            band = sensitivity(inst, scheme, assume(), spec_for(1e-3))
            assert band.low != band.high, scheme
            assert (
                band.low.physical_qubits_total
                <= band.nominal.physical_qubits_total
                <= band.high.physical_qubits_total
            ), scheme
            assert (
                band.low.wall_time_seconds
                <= band.nominal.wall_time_seconds
                <= band.high.wall_time_seconds
            ), scheme


class TestCriterion5Cultivation:
    def test_criterion_5_cultivation_qubit_reduction(self):
        inst = bench_instance()
        spec = spec_for(1e-4)
        base = estimate(inst, "plaq_L2", assume(1e-4), spec)
        what_if = estimate(inst, "plaq_L2", assume(1e-4), cultivation_variant(spec))
        ratio = base.physical_qubits_total / what_if.physical_qubits_total
        assert 3.0 <= ratio <= 6.0, f"reduction {ratio:.2f}x"


class TestCriterion6QroamOptimum:
    def test_criterion_6_oracle_equivalence_and_closed_form(self):
        start = time.perf_counter()
        violations = []
        for exponent in range(4, 15):
            n = 2**exponent
            for b in (1, 4, 8, 32):
                lam, best = qroam_optimal(n, b)
                exhaustive = min(
                    qroam_cost(n, b, cand).count for cand in range(1, n + 1)
                )
                assert best.count == exhaustive, (n, b)
                closed_form = 32 * math.sqrt(n * b)
                if best.count > 1.5 * closed_form:
                    violations.append(
                        f"(N={n}, b={b}): discrete optimum {best.count:.0f} "
                        f"exceeds 1.5 x {closed_form:.1f}"
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        assert not violations, "; ".join(violations)


class TestCriterion7ShuttleRange:
    def test_criterion_7_shuttle_time_range(self):
        params = ShuttleParams()
        low = shuttle_time(params, params.patch_width(20))
        high = shuttle_time(params, params.grid_diagonal(10, 20))
        assert round(low * 1e3, 2) == 0.42
        assert round(high * 1e3, 2) == 1.57


class TestCriterion8PropertySuites:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.floats(min_value=1, max_value=1e7),
        st.floats(min_value=1, max_value=1e10),
        st.sampled_from([1e-3, 1e-4, 3e-3]),
        st.floats(min_value=0.005, max_value=0.2),
    )
    def test_criterion_8_distance_fixed_point(self, patches, depth, p, e):
        a = assume(p)
        volume_at = lambda d: patches * (depth * d)
        d = choose_distance(a, volume_at, budget_e=e)
        assert volume_at(d) * logical_error_rate(a, d) <= e
        if d > 3:
            assert volume_at(d - 2) * logical_error_rate(a, d - 2) > e

    @settings(max_examples=1000, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=10**4),
        st.sampled_from(["15to1x15to1-p3", "15to1x20to4-p4"]),
    )
    def test_criterion_8_provisioning_never_under(self, rate, name):
        spec = factory_by_name(name)
        fleet = provision(spec, rate)
        tau_f = Fraction(spec.tau_f_rounds).limit_denominator(10**9)
        assert Fraction(fleet.count * spec.n_out) / tau_f >= rate

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=1, max_value=32),
        st.floats(min_value=1, max_value=32),
        st.sampled_from([13, 21, 29]),
    )
    def test_criterion_8_pbc_ratio_cross_check(self, q, n_c, n_nc, p_c, p_nc, d):
        a = assume()
        fleet = FactoryFleet(factory_by_name("15to1x15to1-p3"), 10**9)
        profile = CircuitProfile(
            q_data=q, n_clifford=n_c, n_non_clifford=n_nc,
            p_clifford=p_c, p_non_clifford=p_nc,
        )
        serial = CircuitProfile(
            q_data=q, n_clifford=0, n_non_clifford=n_nc,
            p_clifford=1, p_non_clifford=1, routing=fast_block_routing(q),
        )
        t = general_cost(profile, fleet, d, a).time_seconds
        t_pbc = general_cost(serial, fleet, d, a).time_seconds
        assert pbc_ratio(profile, d, a) == pytest.approx(t_pbc / t)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.floats(min_value=1e-8, max_value=0.9),
        st.floats(min_value=1, max_value=1e14),
    )
    def test_criterion_8_error_budget_ledger(self, eps_total, rotations):
        budget = allocate_budget(eps_total, rotations)
        assert budget.eps_algorithm + budget.eps_synthesis == pytest.approx(
            eps_total, rel=1e-12
        )
        assert budget.eps_s_per_rotation * rotations == pytest.approx(
            budget.eps_synthesis, rel=1e-9
        )
        assert budget.eps_algorithm == pytest.approx(0.99 * eps_total)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.sampled_from([1e-4, 5e-4, 1e-3, 3e-3]),
        st.sampled_from([2, 4]),
        st.floats(min_value=1, max_value=20),
        st.sampled_from([0.001, 0.01, 0.1]),
        st.sampled_from(SCHEMES),
        st.sampled_from(["15to1x15to1-p3", "15to1x20to4-p4"]),
        st.booleans(),
    )
    def test_criterion_8_report_round_trip(
        self, p, l, t_evol, eps, scheme, factory, cultivation
    ):
        sections = {
            "physical": {"p": str(p)},
            "algorithm": {
                "scheme": scheme,
                "l": str(l),
                "t_evol": str(t_evol),
                "eps_total": str(eps),
            },
            "factory": {"name": factory, "cultivation": str(cultivation)},
        }
        config = build_config(sections)
        report = build_report(config, with_sensitivity=False)
        rebuilt = build_config(sections_from_inputs(report["inputs"]))
        # The echo gives every field explicitly: nothing is inferred on re-ingestion.
        flags = report["assumptions"]
        flags.update({k: False for k in flags if k.endswith("_inferred")})
        assert render_json(build_report(rebuilt, with_sensitivity=False)) == render_json(
            report
        )


class TestBundledConfig:
    def test_bundled_example_runs_in_band(self, tmp_path, capsys):
        cfg = tmp_path / "bundled.cfg"
        cfg.write_text(
            resources.files("ftqcost.data")
            .joinpath("fh_L30_L2parallel.cfg")
            .read_text()
        )
        code = main(["estimate", str(cfg), "--format", "json", "--no-sensitivity"])
        out = capsys.readouterr().out
        assert code == 0
        t_count = json.loads(out)["estimates"][0]["t_count_total"]
        assert 1e11 <= t_count <= 1.5e12
