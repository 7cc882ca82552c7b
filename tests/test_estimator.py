from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ftqcost.estimator as estimator_module
from ftqcost.config import build_config, read_sections
from ftqcost.errors import BudgetInfeasibleError, EstimatorError
from ftqcost.estimator import (
    PERTURBED_FIELDS,
    SENSITIVITY_FRACTION,
    EstimateOptions,
    SensitivityBand,
    _perturbed,
    compare,
    estimate,
    point_estimator,
    sensitivity,
    simple_estimate,
)
from ftqcost.factories import (
    FactoryFleet,
    FactorySpec,
    cultivation_variant,
    factory_by_name,
    provision,
)
from ftqcost.fermi_hubbard import SCHEMES, FHInstance, compile_scheme, layout_at
from ftqcost.qec import (
    MAGIC_LIMITED,
    PhysicalAssumptions,
    choose_distance,
    logical_error_rate,
    run_cost,
)

BUNDLED = resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg")


def bench_instance():
    return FHInstance(l_side=30, t_hop=1.0, u_onsite=8.0, t_evol=300, eps_total=0.01)


def assume(p=1e-3, **kw):
    return PhysicalAssumptions(p=p, **kw)


def spec_for(p):
    return factory_by_name("15to1x20to4-p4" if p <= 3e-4 else "15to1x15to1-p3")


class TestSimpleEstimate:
    @pytest.mark.parametrize(
        "q,g,qubits,seconds",
        [
            (100, 1e5, 8.7e4, 2.0),
            (1000, 1e9, 2.2e6, 8 * 3600),
            (10000, 1e10, 2.9e7, 3.7 * 86400),
            (1000, 4e7, 1.9e6, 17 * 60),
        ],
    )
    def test_reproduces_headline_rows(self, q, g, qubits, seconds):
        est = simple_estimate(q, g, assume())
        assert abs(est.physical_qubits_total - qubits) / qubits <= 0.05
        # The 1.7 s spin row sits exactly at the 15% edge of the quoted
        # "2 seconds"; allow for float rounding at the boundary.
        assert abs(est.wall_time_seconds - seconds) / seconds <= 0.15 * (1 + 1e-9)

    def test_expected_distances(self):
        rows = [(100, 1e5, 17), (1000, 1e9, 27), (10000, 1e10, 31), (1000, 4e7, 25)]
        for q, g, d in rows:
            assert simple_estimate(q, g, assume()).d == d

    def test_minimal_instance(self):
        est = simple_estimate(1, 1, assume())
        assert est.d == 3

    def test_no_factory_qubits(self):
        est = simple_estimate(100, 1e5, assume())
        assert est.physical_qubits_by_role["factories"] == 0

    def test_near_threshold_search_reads_only_its_fit(self, monkeypatch):
        # The floor is the estimate's own patches, so no odd d between the
        # floor's first fit and the volume's is read; a floor of the data
        # patches alone, 1/1.5 of them, read 42 890 candidates here.
        real, seen = estimator_module.choose_distance, []

        def counting(assume, volume_at, *args):
            return real(assume, lambda d: seen.append(d) or volume_at(d), *args)

        monkeypatch.setattr(estimator_module, "choose_distance", counting)
        est = simple_estimate(1000, 1e9, assume(0.0099999, prefactor_a=1e-12), d_max=10**9)
        assert (est.d, seen) == (3705275, [3705275])


class TestEstimateOptions:
    @pytest.mark.parametrize(
        "field,value",
        [("e_qec", 1), ("e_qec", float("nan")), ("t_gate_budget", 0), ("f_r", 2),
         ("hwp_m", 1), ("d_max", 1)],
    )
    def test_out_of_range_option_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must "):
            EstimateOptions(**{field: value})

    def test_edges_accepted(self):
        EstimateOptions(t_gate_budget=1, f_r=0, hwp_m=2, d_max=3)
        EstimateOptions(f_r=1, hwp_m=None)


# Each record with valid values for every field it requires.
RECORDS = {
    PhysicalAssumptions: dict(p=1e-3),
    FHInstance: dict(l_side=2, t_hop=1.0, u_onsite=8.0, t_evol=1.0, eps_total=0.01),
    FactorySpec: dict(
        name="custom", q_f=100, tau_f_rounds=10.0, n_out=1, out_infidelity=1e-10,
        valid_p=1e-3,
    ),
    FactoryFleet: dict(spec=factory_by_name("15to1x15to1-p3"), count=1),
    EstimateOptions: {},
}


class TestRecordsRefuseNaN:
    @pytest.mark.parametrize(
        "record,field",
        [
            (PhysicalAssumptions, "prefactor_a"),
            (PhysicalAssumptions, "t_se"),
            (PhysicalAssumptions, "tau_r"),
            (FHInstance, "t_hop"),
            (FHInstance, "u_onsite"),
            (FHInstance, "t_evol"),
            (FactorySpec, "q_f"),
            (FactorySpec, "tau_f_rounds"),
            (FactorySpec, "n_out"),
            (FactoryFleet, "count"),
            (EstimateOptions, "hwp_m"),
            (EstimateOptions, "d_max"),
        ],
    )
    def test_nan_fails_its_own_fields_rule(self, record, field):
        with pytest.raises(ValueError) as info:
            record(**{**RECORDS[record], field: float("nan")})
        assert str(info.value).startswith(f"{field} must be")
        assert "tau_r / t_se" not in str(info.value)


class TestEstimatePipeline:
    def test_t_count_band_every_scheme(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            est = estimate(inst, scheme, assume(), spec_for(1e-3))
            assert 1e11 <= est.t_count_total <= 1.5e12, scheme

    def test_deterministic(self):
        inst = bench_instance()
        a = estimate(inst, "plaq_L2", assume(), spec_for(1e-3))
        b = estimate(inst, "plaq_L2", assume(), spec_for(1e-3))
        assert a == b

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("p", [1e-3, 1e-4])
    def test_fleet_provisioned_at_most_once(self, monkeypatch, scheme, p):
        import ftqcost.fermi_hubbard as fh

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return provision(*args, **kwargs)

        monkeypatch.setattr(fh, "provision", counting)
        est = estimate(bench_instance(), scheme, assume(p), spec_for(p))
        assert est.d > 3
        # A gate-limited fit lays its fleet out once, at its d; plaq_L2's
        # unit-cell fleet takes no provisioning ceiling.
        assert len(calls) == (0 if scheme == "plaq_L2" else 1)

    def test_distance_fixed_point(self):
        from ftqcost.fermi_hubbard import compile_scheme, layout_at

        inst = bench_instance()
        for p in (1e-3, 1e-4):
            a = assume(p)
            spec = spec_for(p)
            est = estimate(inst, "plaq_L2", a, spec)
            assert est.spacetime_volume * logical_error_rate(a, est.d) <= 0.05
            if est.d > 3:
                summary, _ = compile_scheme("plaq_L2", inst)
                prev = est.d - 2
                patches = layout_at(summary, spec, prev, 0.5).protected_patches
                rounds = summary.timestep_depth * prev
                rounds += summary.reaction_depth * (a.tau_r / a.t_se)
                assert patches * rounds * logical_error_rate(a, prev) > 0.05

    def test_wall_time_ordering_across_schemes(self):
        inst = bench_instance()
        for p in (1e-3, 1e-4):
            times = {
                scheme: estimate(inst, scheme, assume(p), spec_for(p)).wall_time_seconds
                for scheme in ("plaq_serial", "plaq_L", "plaq_L2")
            }
            assert times["plaq_serial"] > times["plaq_L"] > times["plaq_L2"]

    def test_plaq_l2_beats_qsp_on_time_not_qubits(self):
        inst = bench_instance()
        for p in (1e-3, 1e-4):
            l2 = estimate(inst, "plaq_L2", assume(p), spec_for(p))
            qsp = estimate(inst, "qsp", assume(p), spec_for(p))
            assert l2.wall_time_seconds < qsp.wall_time_seconds
            assert l2.physical_qubits_total > qsp.physical_qubits_total

    def test_lower_p_dominates(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            high = estimate(inst, scheme, assume(1e-3), spec_for(1e-3))
            low = estimate(inst, scheme, assume(1e-4), spec_for(1e-4))
            assert low.d <= high.d
            assert low.physical_qubits_total <= high.physical_qubits_total
            assert low.wall_time_seconds <= high.wall_time_seconds
            # Logical patch-rounds are not comparable across distances, so
            # volume dominance is asserted on physical qubit-seconds.
            assert (
                low.physical_qubits_total * low.wall_time_seconds
                <= high.physical_qubits_total * high.wall_time_seconds
            )

    def test_valid_p_mismatch_warns(self):
        inst = bench_instance()
        est = estimate(inst, "plaq_L", assume(1e-4), spec_for(1e-3))
        assert any("characterized at" in w for w in est.warnings)

    def test_t_budget_violation_warns_without_abort(self):
        inst = bench_instance()
        leaky = factory_by_name("15to1x15to1-p3")
        leaky = type(leaky)(
            name="leaky", q_f=leaky.q_f, tau_f_rounds=leaky.tau_f_rounds,
            n_out=leaky.n_out, out_infidelity=1e-10, valid_p=1e-3,
        )
        est = estimate(inst, "plaq_L2", assume(), leaky)
        assert any("T-state error budget exceeded" in w for w in est.warnings)

    def test_role_split_sums_to_total(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            est = estimate(inst, scheme, assume(), spec_for(1e-3))
            assert sum(est.physical_qubits_by_role.values()) == pytest.approx(
                est.physical_qubits_total
            )


class TestCultivation:
    def test_plaq_l2_qubit_reduction(self):
        inst = bench_instance()
        spec = spec_for(1e-4)
        base = estimate(inst, "plaq_L2", assume(1e-4), spec)
        what_if = estimate(inst, "plaq_L2", assume(1e-4), cultivation_variant(spec))
        ratio = base.physical_qubits_total / what_if.physical_qubits_total
        assert 3.0 <= ratio <= 6.0


LOG_UNIFORM_CLOCK = st.floats(min_value=-7, max_value=-5).map(lambda e: 10**e)
"""A clock, t_se or tau_r, log-uniform in [1e-7, 1e-5] seconds."""

MAGIC_LIMITED_BAND = dict(l_side=34, log_p=-3.41, eps_total=0.553, cultivation=False,
                          t_se=5.4e-7, tau_r=2.9e-7, t_gate_budget=5.4e-4)
"""A band whose plaq_L2 fits are magic-limited and past their T budget."""

VALID_P_MISMATCH_BAND = dict(l_side=4, log_p=-4.9, eps_total=0.01, cultivation=False,
                             t_se=1e-6, tau_r=1e-6, t_gate_budget=0.05)
"""A band at p of about 1.26e-5 on the p4 design (valid_p 1e-4): each of its
three fits carries the valid_p warning."""


class TestSensitivity:
    def test_zero_perturbation_is_identity(self):
        inst = bench_instance()
        band = sensitivity(inst, "plaq_L", assume(), spec_for(1e-3), fraction=0.0)
        assert band.low == band.nominal == band.high

    def test_band_ordered(self):
        inst = bench_instance()
        for scheme in SCHEMES:
            band = sensitivity(inst, scheme, assume(), spec_for(1e-3))
            assert (
                band.low.physical_qubits_total
                <= band.nominal.physical_qubits_total
                <= band.high.physical_qubits_total
            )
            assert (
                band.low.wall_time_seconds
                <= band.nominal.wall_time_seconds
                <= band.high.wall_time_seconds
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    @settings(max_examples=50, deadline=None)
    @given(
        l_side=st.integers(min_value=1, max_value=40).map(lambda k: 2 * k),
        log_p=st.floats(min_value=-5, max_value=-2, exclude_max=True),
        eps_total=st.floats(min_value=1e-300, max_value=0.9),
        cultivation=st.booleans(),
        t_se=LOG_UNIFORM_CLOCK,
        tau_r=LOG_UNIFORM_CLOCK,
        t_gate_budget=st.floats(min_value=-4, max_value=0).map(lambda e: 10**e),
    )
    @example(**MAGIC_LIMITED_BAND)
    @example(**VALID_P_MISMATCH_BAND)
    def test_band_is_three_independent_estimates(
        self, scheme, l_side, log_p, eps_total, cultivation, t_se, tau_r, t_gate_budget
    ):
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=eps_total)
        a = assume(10**log_p, t_se=t_se, tau_r=tau_r)
        spec = spec_for(a.p)
        if cultivation:
            spec = cultivation_variant(spec)
        options = EstimateOptions(t_gate_budget=t_gate_budget)

        def outcome(band):
            try:
                return band()
            except (EstimatorError, ArithmeticError, ValueError) as exc:
                return type(exc), str(exc)

        def three_estimates():
            return SensitivityBand(
                nominal=estimate(inst, scheme, a, spec, options),
                high=estimate(inst, scheme, *_perturbed(a, spec, SENSITIVITY_FRACTION), options),
                low=estimate(inst, scheme, *_perturbed(a, spec, -SENSITIVITY_FRACTION), options),
            )

        assert outcome(lambda: sensitivity(inst, scheme, a, spec, options)) == outcome(
            three_estimates
        )

    def test_band_example_is_magic_limited_past_its_t_budget(self):
        # MAGIC_LIMITED_BAND reaches what a band's fits share and what they do
        # not: the T-budget warning, and a supply that moves d past the first
        # fit on the gate schedule's volume alone.
        ex = MAGIC_LIMITED_BAND
        inst = FHInstance(ex["l_side"], 1.0, 8.0, 300, ex["eps_total"])
        a = assume(10 ** ex["log_p"], t_se=ex["t_se"], tau_r=ex["tau_r"])
        spec, options = spec_for(a.p), EstimateOptions(t_gate_budget=ex["t_gate_budget"])
        band = sensitivity(inst, "plaq_L2", a, spec, options)
        assert {est.bottleneck for est in band} == {MAGIC_LIMITED}
        assert all(est.warnings[-1].startswith("T-state error budget exceeded") for est in band)
        summary, _ = compile_scheme("plaq_L2", inst)

        def gate_fit(side_assume, side_spec):
            def volume_at(d):
                patches = layout_at(summary, side_spec, d).protected_patches
                return run_cost(patches, summary.timestep_depth, d, summary.reaction_depth,
                                side_assume.t_se, side_assume.tau_r)[0]

            return choose_distance(side_assume, volume_at, options.e_qec, options.d_max)

        sides = [(a, spec), _perturbed(a, spec, SENSITIVITY_FRACTION),
                 _perturbed(a, spec, -SENSITIVITY_FRACTION)]
        fits = [gate_fit(*side) for side in sides]
        assert any(est.d > fit for est, fit in zip((band.nominal, band.high, band.low), fits))

    @pytest.mark.parametrize("fraction", [SENSITIVITY_FRACTION, -SENSITIVITY_FRACTION])
    def test_perturbed_fields_name_what_the_band_moves(self, fraction):
        a, spec = assume(), spec_for(1e-3)
        moved = zip(("physical", "factory"), (a, spec), _perturbed(a, spec, fraction))
        changed = {
            f"{section}.{name}"
            for section, before, after in moved
            for name, value in before._asdict().items()
            if after._asdict()[name] != value
        }
        assert changed == set(PERTURBED_FIELDS)

    def test_favorable_threshold_never_increases_distance(self):
        inst = bench_instance()
        nominal = estimate(inst, "plaq_L", assume(), spec_for(1e-3))
        better = estimate(
            inst,
            "plaq_L",
            assume(p_star=0.01 * 1.05, prefactor_a=0.1 * 0.95),
            spec_for(1e-3),
        )
        assert better.d <= nominal.d


# Factories a plan is keyed on: the built-ins, an equal copy of one, a custom
# design, one whose infidelity breaks the T budget, and a cultivation variant.
PLAN_SPECS = (
    factory_by_name("15to1x15to1-p3"),
    factory_by_name("15to1x15to1-p3")._replace(),
    factory_by_name("15to1x20to4-p4"),
    FactorySpec("custom", 100, 10.0, 1, 1e-20, 1e-3),
    FactorySpec("leaky", 5000, 50.0, 1, 1e-6, 1e-3),
    cultivation_variant(factory_by_name("15to1x15to1-p3")),
)
PLAN_OPTIONS = tuple(
    EstimateOptions(f_r=f_r, e_qec=e_qec, d_max=d_max) for f_r, e_qec, d_max in
    ((0.5, 0.01, 101), (0.0, 0.01, 101), (1.0, 0.05, 101), (0.5, 0.01, 21))
)


# Clock pairs (t_se, tau_r). The first two share tau_r = 1 us, and the next
# three 5 us, each at a different t_se.
PLAN_CLOCKS = ((1e-6, 1e-6), (2e-6, 1e-6), (1e-6, 5e-6), (1.1e-6, 5e-6), (2e-6, 5e-6))


@st.composite
def interleaved_points(draw):
    """Points on one instance, up to three distinct ones visited in a drawn
    order with repeats (A, B, A), differing in scheme, factory, options and p.
    Each point draws its own clock pair, p_star and prefactor_a, so a plan is
    fitted at several clock pairs, visited in interleaved order."""
    inst = FHInstance(draw(st.sampled_from((4, 6))), 1.0, 8.0, 10.0, 0.01)
    distinct = draw(st.lists(st.tuples(
        st.sampled_from(SCHEMES), st.sampled_from(PLAN_SPECS),
        st.sampled_from(PLAN_OPTIONS), st.sampled_from((1e-4, 5e-4, 1e-3, 5e-3)),
    ), min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=8))
    points = []
    for scheme, spec, options, p in map(distinct.__getitem__, order):
        t_se, tau_r = draw(st.sampled_from(PLAN_CLOCKS))
        physical = assume(
            p, p_star=draw(st.sampled_from((0.01, 0.008))),
            prefactor_a=draw(st.sampled_from((0.1, 0.03))), t_se=t_se, tau_r=tau_r,
        )
        points.append((inst, scheme, physical, spec, options))
    return points


def outcomes(estimates):
    """The estimates, up to and with the first error as its type and message."""
    out = []
    try:
        for est in estimates:
            out.append(est)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def _one_tau_r_at_two_t_se():
    """One plan at three points: t_se 1 us, then 1.1 us, then 1 us again, all
    with tau_r = 5 us, so the plan's tables at the first t_se are read again."""
    inst, spec, options = FHInstance(6, 1.0, 8.0, 10.0, 0.01), PLAN_SPECS[0], PLAN_OPTIONS[0]
    return [(inst, "plaq_L2", assume(1e-3, t_se=t_se, tau_r=5e-6), spec, options)
            for t_se in (1e-6, 1.1e-6, 1e-6)]


class TestPointEstimator:
    @settings(max_examples=150, deadline=None)
    @given(points=interleaved_points())
    @example(points=_one_tau_r_at_two_t_se())
    def test_shared_plans_match_estimate_one_by_one(self, points):
        fit = point_estimator()
        assert outcomes(fit(*point) for point in points) == outcomes(
            estimate(*point) for point in points
        )

    def test_estimates_at_one_plan_and_distance_share_no_mutable_object(self):
        fit = point_estimator()
        inst, spec, options = bench_instance(), spec_for(1e-3), EstimateOptions()
        first = fit(inst, "plaq_L2", assume(1e-3), spec, options)
        second = fit(inst, "plaq_L2", assume(1.01e-3), spec, options)
        assert first.d == second.d
        shared = [
            name for name, a, b in zip(first._fields, first, second)
            if a is b and not isinstance(a, (str, int, float, tuple, type(None)))
        ]
        assert shared == []
        roles = dict(second.physical_qubits_by_role)
        first.physical_qubits_by_role["data_aux"] = -1.0
        first.physical_qubits_by_role.clear()
        assert second.physical_qubits_by_role == roles
        assert fit(inst, "plaq_L2", assume(1e-3), spec, options).physical_qubits_by_role == roles

    def test_equal_records_that_are_other_objects_share_a_plan(self, monkeypatch):
        # Each point's instance, factory and options are built afresh, and all
        # are kept alive, so no two share an id; a plan is found by value.
        real, checks = estimator_module.t_budget_check, []

        def counting(*args, **kwargs):
            checks.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator_module, "t_budget_check", counting)
        points = [
            (FHInstance(6, 1.0, 8.0, 10.0, 0.01), "plaq_L", assume(p),
             factory_by_name("15to1x15to1-p3")._replace(), EstimateOptions(f_r=0.5))
            for p in (1e-3, 1.1e-3, 1.2e-3)
        ]
        fit = point_estimator()
        fits = [fit(*point) for point in points]
        assert len(checks) == 1
        assert fits == [estimate(*point) for point in points]


class TestCompare:
    def test_single_scheme_matches_estimate(self):
        inst = bench_instance()
        rows = compare(inst, ["qsp"], assume(), spec_for(1e-3))
        assert len(rows) == 1
        assert rows[0].estimate == estimate(inst, "qsp", assume(), spec_for(1e-3))
        assert rows[0].time_ratio == 1.0

    def test_ratios_multiply_back(self):
        inst = bench_instance()
        rows = compare(inst, list(SCHEMES), assume(), spec_for(1e-3))
        base = rows[0].estimate
        for row in rows:
            assert row.time_ratio * base.wall_time_seconds == pytest.approx(
                row.estimate.wall_time_seconds
            )
            assert row.qubit_ratio * base.physical_qubits_total == pytest.approx(
                row.estimate.physical_qubits_total
            )

    def test_empty_scheme_list_rejected(self):
        with pytest.raises(ValueError):
            compare(bench_instance(), [], assume(), spec_for(1e-3))


class TestDistanceFixedPointProperty:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**9),
        st.sampled_from([1e-3, 1e-4, 2e-3]),
        st.floats(min_value=0.005, max_value=0.2),
    )
    def test_simple_estimate_fixed_point(self, q, g, p, e):
        a = assume(p)
        est = simple_estimate(q, g, a, e_qec=e)
        assert est.spacetime_volume * logical_error_rate(a, est.d) <= e
        if est.d > 3:
            prev = est.d - 2
            prev_volume = 1.5 * q * g * prev
            assert prev_volume * logical_error_rate(a, prev) > e


def _scan_from_3(assume, volume_at, budget_e, d_max, floor_at):
    return choose_distance(assume, volume_at, budget_e, d_max)


class TestDistanceLowerBound:
    """estimate's volume floor changes how many candidates a search reads,
    never the distance it chooses or the error it raises."""

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        l_side=st.sampled_from([4, 10, 30]),
        p_ratio=st.floats(min_value=1e-6, max_value=1, exclude_max=True),
        e_qec=st.floats(min_value=1e-15, max_value=0.9),
        d_max=st.sampled_from([31, 99, 1001]),
        cultivation=st.booleans(),
    )
    def test_same_outcome_as_scan_from_3(
        self, scheme, l_side, p_ratio, e_qec, d_max, cultivation
    ):
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=0.01)
        a = assume(0.01 * p_ratio)
        spec = spec_for(a.p)
        if cultivation:
            spec = cultivation_variant(spec)
        options = EstimateOptions(e_qec=e_qec, d_max=d_max)

        def outcome():
            try:
                return estimate(inst, scheme, a, spec, options).d
            except BudgetInfeasibleError as exc:
                return str(exc)

        bounded = outcome()
        with mock.patch.object(estimator_module, "choose_distance", _scan_from_3):
            assert bounded == outcome()

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        l_side=st.integers(min_value=1, max_value=20).map(lambda k: 2 * k),
        log_p=st.floats(min_value=-5, max_value=-2.01),
        eps_total=st.floats(min_value=1e-6, max_value=0.9),
        cultivation=st.booleans(),
        t_se=LOG_UNIFORM_CLOCK,
        tau_r=LOG_UNIFORM_CLOCK,
        f_r=st.floats(min_value=0, max_value=1),
    )
    def test_floor_never_exceeds_a_volume_at_or_past_its_d(
        self, scheme, l_side, log_p, eps_total, cultivation, t_se, tau_r, f_r
    ):
        # The search skips a d wherever the floor read at a smaller d fails,
        # so that floor, in floats, must lie under every volume from there on.
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=eps_total)
        a = assume(10**log_p, t_se=t_se, tau_r=tau_r)
        spec = spec_for(a.p)
        if cultivation:
            spec = cultivation_variant(spec)
        searches = []

        def capturing(assume, volume_at, budget_e, d_max, floor_at):
            searches.append((volume_at, floor_at))
            return choose_distance(assume, volume_at, budget_e, d_max, floor_at)

        with mock.patch.object(estimator_module, "choose_distance", capturing):
            try:
                estimate(inst, scheme, a, spec, EstimateOptions(f_r=f_r))
            except BudgetInfeasibleError:
                pass
        (volume_at, floor_at), = searches
        distances = range(3, 62, 2)
        volumes = [volume_at(d) for d in distances]
        for i, d in enumerate(distances):
            floor = floor_at(d)
            assert all(floor <= volume for volume in volumes[i:]), d

    @pytest.mark.parametrize("entry, fits", [
        (lambda inst, a, spec: estimate(inst, "plaq_L", a, spec), 1),
        (lambda inst, a, spec: sensitivity(inst, "plaq_L2", a, spec), 3),
        (lambda inst, a, spec: compare(inst, list(SCHEMES), a, spec), len(SCHEMES)),
        (lambda inst, a, spec: simple_estimate(1000, 4e7, a), 1),
    ], ids=["estimate", "sensitivity", "compare", "simple_estimate"])
    def test_each_fit_searches_once(self, monkeypatch, entry, fits):
        real, searches = estimator_module.choose_distance, []

        def counting(*args):
            searches.append(args)
            return real(*args)

        monkeypatch.setattr(estimator_module, "choose_distance", counting)
        entry(bench_instance(), assume(), spec_for(1e-3))
        assert len(searches) == fits

    def test_totals_leaving_the_float_range_where_no_fit_ends_raise_nothing(self):
        # The supply stretches the gate fit, whose totals overflow, and no
        # stretched volume fits: the estimate is infeasible, not too extreme.
        inst = FHInstance(l_side=14, t_hop=1.0, u_onsite=8.0, t_evol=30.0, eps_total=0.0073)
        a = assume(1.6e-3, t_se=6.1e-7, tau_r=1e-9)
        spec = FactorySpec("slow", 10, 1e157, 6, 1e-20, 1e-3)
        with pytest.raises(BudgetInfeasibleError, match="no odd distance <= 1001"):
            estimate(inst, "plaq_L2", a, spec, EstimateOptions(d_max=1001))

    def test_bundled_config_reads_one_candidate(self, monkeypatch):
        real = estimator_module.choose_distance
        searches = []

        def counting(assume, volume_at, *args, **kwargs):
            seen = []
            searches.append(seen)
            return real(assume, lambda d: seen.append(d) or volume_at(d), *args, **kwargs)

        monkeypatch.setattr(estimator_module, "choose_distance", counting)
        config = build_config(read_sections(str(BUNDLED)))
        for scheme in SCHEMES:
            estimate(config.inst, scheme, config.assume, config.effective_spec,
                     config.options)
        assert len(searches) == len(SCHEMES)
        assert [len(seen) for seen in searches] == [1] * len(SCHEMES)
