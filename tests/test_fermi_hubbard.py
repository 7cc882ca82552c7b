import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftqcost.fermi_hubbard as fh_module
from ftqcost.errors import CompileError, InvalidDistanceError
from ftqcost.factories import (
    FactoryFleet,
    FactorySpec,
    cultivation_variant,
    factory_by_name,
    provision,
)
from ftqcost.fermi_hubbard import (
    ALGORITHM_BUDGET_SHARE,
    DEFAULT_LOG_BASE,
    REGISTRY,
    SCHEMES,
    FHInstance,
    allocate_budget,
    compile_scheme,
    layout_at,
    prepare_cost,
    qsp_alpha,
    qsp_queries,
    scheme_record,
    select_cost,
    swapup_cost,
    trotter_kappa,
    trotter_steps,
)


def bench_instance(eps=0.01):
    return FHInstance(l_side=30, t_hop=1.0, u_onsite=8.0, t_evol=300, eps_total=eps)


def compiled_at(scheme, inst, sigma, m=None):
    """The scheme's compilation at a given sigma, through compile_scheme."""
    with mock.patch.object(fh_module, "synthesis_sigma", return_value=sigma):
        return compile_scheme(scheme, inst, m)[0]


def chosen_sigma(scheme, inst):
    return compile_scheme(scheme, inst)[0].sigma


def tau_m_rounds(sigma, d):
    """plaq_L2's interval between non-Clifford layers, in rounds: (6 sigma + 354)
    timesteps of d rounds deliver (12 + 4 sigma) magic states per site."""
    return Fraction(6 * sigma + 354, 12 + 4 * sigma) * d


def oracle_steps(l, t_hop, t_evol, u_over_t, eps):
    x = u_over_t
    kappa = (1.5 * x**2 + 2 * x * (2 * math.sqrt(5) + 16) + 10) / 24
    return math.ceil(
        math.sqrt(kappa) * l * (t_evol * t_hop) ** 1.5 / math.sqrt(eps)
    )


class TestTrotterBound:
    def test_kappa_free_fermions(self):
        assert trotter_kappa(0) == pytest.approx(10 / 24)

    def test_kappa_at_8(self):
        assert trotter_kappa(8) == pytest.approx(18.0647, rel=1e-4)

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0.01, max_value=10))
    def test_kappa_increasing(self, x, dx):
        assert trotter_kappa(x + dx) > trotter_kappa(x)

    def test_benchmark_step_count(self):
        r = trotter_steps(bench_instance(), 0.0099)
        assert r == oracle_steps(30, 1.0, 300, 8.0, 0.0099)
        assert r == pytest.approx(6.66e6, rel=0.01)

    def test_quadrupling_eps_roughly_halves_r(self):
        inst = bench_instance()
        r1 = trotter_steps(inst, 0.002)
        r4 = trotter_steps(inst, 0.008)
        assert r4 == pytest.approx(r1 / 2, rel=1e-3)

    @given(
        st.sampled_from([2, 4, 8, 16]),
        st.floats(min_value=1, max_value=50),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_scaling_exponents(self, l, t_evol, eps):
        # Pre-ceiling, r scales exactly as L, T^1.5 and eps^-0.5.
        x = 8.0
        kappa = trotter_kappa(x)
        exact = math.sqrt(kappa) * l * t_evol**1.5 / math.sqrt(eps)
        doubled_l = math.sqrt(kappa) * (2 * l) * t_evol**1.5 / math.sqrt(eps)
        assert doubled_l == pytest.approx(2 * exact)


class TestBudget:
    def test_split_sums(self):
        budget = allocate_budget(0.01, 1e8)
        assert budget.eps_algorithm + budget.eps_synthesis == pytest.approx(0.01)
        assert budget.eps_algorithm == pytest.approx(0.0099)

    def test_per_rotation(self):
        budget = allocate_budget(0.02, 1e6)
        assert budget.eps_s_per_rotation * 1e6 == pytest.approx(budget.eps_synthesis)

    @settings(max_examples=1000)
    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=1, max_value=1e15),
    )
    def test_ledger_sum_property(self, eps_total, rotations):
        budget = allocate_budget(eps_total, rotations)
        assert budget.eps_algorithm + budget.eps_synthesis == pytest.approx(
            eps_total, rel=1e-12
        )
        assert budget.eps_s_per_rotation * rotations == pytest.approx(
            budget.eps_synthesis, rel=1e-9
        )


class TestPlaqSerial:
    def test_per_step_t_count(self):
        inst = bench_instance()
        summary = compiled_at("plaq_serial", inst, sigma=33)
        r = trotter_steps(inst, 0.0099)
        per_step = 4 * 900 * (7 + math.log2(900) * 33 / 900)
        assert summary.t_count_total == pytest.approx(r * per_step)
        assert per_step == pytest.approx(26495, rel=1e-3)

    def test_fast_block_patch_count(self):
        summary = compiled_at("plaq_serial", bench_instance(), sigma=33)
        total = summary.data_patches + summary.aux_patches + summary.routing_patches
        assert total == 7370

    def test_m_one_rejected(self):
        with pytest.raises(ValueError):
            compiled_at("plaq_serial", bench_instance(), sigma=33, m=1)

    def test_serial_consumption(self):
        summary = compiled_at("plaq_serial", bench_instance(), sigma=33)
        assert summary.peak_parallel_t == 1
        assert summary.timestep_depth == summary.t_count_total

    def test_sigma_selection(self):
        assert chosen_sigma("plaq_serial", bench_instance()) == 33


class TestPlaqLParallel:
    def test_per_step_depth(self):
        inst = bench_instance()
        summary = compiled_at("plaq_L", inst, sigma=33)
        r = trotter_steps(inst, 0.0099)
        assert summary.timestep_depth == pytest.approx(r * 30 * (2 * 33 + 82))
        assert 30 * (2 * 33 + 82) == 4440

    def test_depth_decomposition(self):
        # Three plaquette blocks, one interaction block, one boundary block.
        sigma, l = 33, 30
        blocks = 3 * l * (18 + sigma / 2) + l * (4 + sigma / 2) + 24 * l
        assert blocks == l * (2 * sigma + 82)

    def test_consumption_rate(self):
        summary = compiled_at("plaq_L", bench_instance(), sigma=33)
        assert summary.consumption_rate == 60

    def test_factory_provisioning_at_d25(self):
        summary = compiled_at("plaq_L", bench_instance(), sigma=33)
        layout = layout_at(summary, factory_by_name("15to1x15to1-p3"), 25)
        assert layout.fleet.count == 234

    def test_sigma_selection(self):
        assert chosen_sigma("plaq_L", bench_instance()) == 37


class TestPlaqL2Parallel:
    def test_per_step_depth(self):
        summary = compiled_at("plaq_L2", bench_instance(), sigma=33)
        r = trotter_steps(bench_instance(), 0.0099)
        assert summary.timestep_depth == pytest.approx(r * (6 * 33 + 354))
        assert 6 * 33 + 354 == 552

    def test_factory_count_is_l_squared(self):
        summary = compiled_at("plaq_L2", bench_instance(), sigma=37)
        layout = layout_at(summary, factory_by_name("15to1x20to4-p4"), 15)
        assert layout.fleet.count == 900

    def test_protected_patches_include_shared_factory_area(self):
        spec = factory_by_name("15to1x20to4-p4")
        summary = compiled_at("plaq_L2", bench_instance(), sigma=37)
        layout = layout_at(summary, spec, 15, f_r=0.5)
        tau_m = tau_m_rounds(37, 15)
        batches = math.ceil(90 / tau_m)
        shared = math.ceil(16400 / (2 * 15**2) * batches)
        assert layout.protected_patches == pytest.approx(
            12 * 900 + 0.5 * 900 * shared
        )

    def test_f_r_zero_drops_shared_term(self):
        spec = factory_by_name("15to1x20to4-p4")
        summary = compiled_at("plaq_L2", bench_instance(), sigma=37)
        layout = layout_at(summary, spec, 15, f_r=0.0)
        assert layout.protected_patches == 12 * 900


class TestQsp:
    def test_alpha(self):
        assert qsp_alpha(bench_instance()) == pytest.approx(5400)

    def test_query_count(self):
        queries = qsp_queries(5400, 300, 0.0099)
        at = 5400 * 300
        oracle = 2 * (
            at + (3 ** (2 / 3) / 2) * at ** (1 / 3) * math.log(1 / 0.0099) ** (2 / 3)
        )
        assert queries == pytest.approx(oracle)
        assert queries == pytest.approx(3.241e6, rel=1e-3)

    def test_correction_vanishes_at_eps_one(self):
        nearly_one = 1 - 1e-12
        assert qsp_queries(100, 1, nearly_one) == pytest.approx(200, rel=1e-6)

    def test_query_concavity_in_time(self):
        assert qsp_queries(5400, 600, 0.01) < 2 * qsp_queries(5400, 300, 0.01)

    def test_swapup(self):
        cost = swapup_cost(8)
        assert cost.count == 4 * 7
        assert cost.reaction_depth == 12

    def test_select_t_count(self):
        assert select_cost(1800).count == 40 * 1800 - 32 == 71968

    @given(st.integers(min_value=2, max_value=10000))
    def test_select_structural_identity(self, n):
        assert select_cost(n).count == 8 * swapup_cost(n).count + 8 * n

    def test_prepare_t_count(self):
        cost = prepare_cost(30, sigma=31)
        lg_n = math.ceil(math.log2(1800))
        assert 16 * lg_n == 176
        assert cost.count == 176 + 4 * (25 + 35) + 6 * 31

    def test_sigma_selection(self):
        assert chosen_sigma("qsp", bench_instance()) == 31

    def test_total_t_count_in_band(self):
        summary = compiled_at("qsp", bench_instance(), sigma=31)
        assert 1e11 <= summary.t_count_total <= 1.5e12
        assert summary.t_count_total == pytest.approx(2.37e11, rel=0.01)

    def test_throttled_peak(self):
        summary = compiled_at("qsp", bench_instance(), sigma=31)
        assert summary.peak_parallel_t == 450

    def test_prepare_is_small_next_to_select(self):
        assert prepare_cost(30, 31).count < 0.01 * select_cost(1800).count

    def test_factory_blocks(self):
        summary = compiled_at("qsp", bench_instance(), sigma=31)
        layout = layout_at(summary, factory_by_name("15to1x15to1-p3"), 31)
        assert layout.fleet.count == 450 * math.ceil(97.5 / (3 * 31))


class TestSchemeOrdering:
    @pytest.mark.parametrize("l", [8, 16, 30])
    def test_depth_ordering(self, l):
        inst = FHInstance(l_side=l, t_hop=1.0, u_onsite=8.0, t_evol=50, eps_total=0.01)
        sigma = 33
        serial = compiled_at("plaq_serial", inst, sigma)
        row = compiled_at("plaq_L", inst, sigma)
        full = compiled_at("plaq_L2", inst, sigma)
        assert serial.timestep_depth > row.timestep_depth > full.timestep_depth

    def test_rotation_counts_match_summaries(self):
        # A load takes the algorithmic budget and the resolved HWP register.
        inst = bench_instance()
        eps_alg = ALGORITHM_BUDGET_SHARE * inst.eps_total
        for scheme in SCHEMES:
            summary, _ = compile_scheme(scheme, inst)
            assert summary.rotation_count == pytest.approx(
                scheme_record(scheme).load(inst, eps_alg, 30**2, DEFAULT_LOG_BASE)[1]
            )


class TestInstanceValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(l_side=3),
            dict(l_side=0),
            dict(t_hop=0),
            dict(t_evol=0),
            dict(eps_total=0),
            dict(eps_total=1),
        ],
    )
    def test_invalid(self, kw):
        base = dict(l_side=4, t_hop=1.0, u_onsite=8.0, t_evol=10, eps_total=0.01)
        base.update(kw)
        with pytest.raises(ValueError):
            FHInstance(**base)


def _specs():
    """Both catalog factories, two custom specs whose batch times are not
    binary-exact, and the cultivation variants of all four."""
    catalog = [factory_by_name("15to1x15to1-p3"), factory_by_name("15to1x20to4-p4")]
    custom = [
        FactorySpec("custom", q_f=5000, tau_f_rounds=tau, n_out=2,
                    out_infidelity=1e-12, valid_p=1e-3)
        for tau in (2.4, 97.3)
    ]
    return catalog + custom + [cultivation_variant(s) for s in catalog + custom]


def _snapped(x):
    """x as the rational the Fraction formulas read: exact, or a float snapped."""
    return x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**9)


def _fraction_shared_patches(summary, spec, d, f_r):
    """plaq_L2 protected patches by the Fraction formula the integer path replaced."""
    tau_f = Fraction(spec.tau_f_rounds).limit_denominator(10**9)
    batches = math.ceil(tau_f / tau_m_rounds(summary.sigma, d))
    shared = math.ceil(Fraction(spec.q_f, 2 * d**2) * batches)
    base = summary.data_patches + summary.routing_patches + summary.aux_patches
    return base + f_r * summary.l_side**2 * shared


class TestSchemePatches:
    """The distance search reads Scheme.patches; layout_at must agree with it."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("l_side", [4, 30])
    def test_patches_equal_layout(self, scheme, l_side):
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=0.01)
        summary, _ = compile_scheme(scheme, inst)
        record = REGISTRY[scheme]
        for spec in _specs():
            for f_r in (0, 0.5, 1):
                for d in range(3, 100, 2):
                    patches = record.patches(summary, spec, d, f_r)
                    layout = layout_at(summary, spec, d, f_r)
                    assert patches == layout.protected_patches
                    if scheme == "plaq_L2":
                        assert patches == _fraction_shared_patches(summary, spec, d, f_r)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 15.5, 15.0, 4])
    def test_layout_refuses_a_non_distance(self, scheme, d):
        # Checked before provisioning, so that no float d reaches Fraction.
        summary, _ = compile_scheme(scheme, bench_instance())
        with pytest.raises(InvalidDistanceError):
            layout_at(summary, factory_by_name("15to1x15to1-p3"), d)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fleet_is_the_layouts_factory_fleet(self, scheme):
        summary, _ = compile_scheme(scheme, bench_instance())
        for spec in _specs():
            fleet = REGISTRY[scheme].fleet(summary, spec, 25)
            layout = layout_at(summary, spec, 25)
            assert isinstance(fleet, FactoryFleet) and fleet.spec == spec
            assert layout.fleet == fleet

    @settings(max_examples=300, deadline=None)
    @given(
        sigma=st.integers(min_value=0, max_value=400),
        l_side=st.integers(min_value=1, max_value=40).map(lambda k: 2 * k),
        spec=st.sampled_from(_specs()),
        f_r=st.sampled_from([0, 0.5, 1]),
        d=st.integers(min_value=1, max_value=49).map(lambda k: 2 * k + 1),
    )
    def test_plaq_l2_integer_path_matches_fractions(self, sigma, l_side, spec, f_r, d):
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=0.01)
        summary = compiled_at("plaq_L2", inst, sigma=sigma)
        patches = REGISTRY["plaq_L2"].patches(summary, spec, d, f_r)
        assert patches == _fraction_shared_patches(summary, spec, d, f_r)

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        l_side=st.integers(min_value=1, max_value=40).map(lambda k: 2 * k),
        spec=st.sampled_from(_specs()),
        f_r=st.floats(min_value=0, max_value=1),
    )
    def test_floor_is_under_the_patches_at_every_distance(self, scheme, l_side, spec, f_r):
        # The distance search skips on the floor, so no layout may fall below it.
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=0.01)
        summary, _ = compile_scheme(scheme, inst)
        floor = scheme_record(scheme).floor(summary, f_r)
        for d in range(3, 62, 2):
            assert floor <= layout_at(summary, spec, d, f_r).protected_patches, d


class TestFleetCeilings:
    """provision and the qsp factory blocks take their ceilings in integers;
    they must equal the Fraction formulas they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from(_specs()),
        rate=st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=1e4),
            st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6)),
        ),
        states=st.one_of(st.just(0), st.integers(0, 10**6)),
        rounds=st.integers(1, 10**6),
    )
    def test_provision_matches_fractions(self, spec, rate, states, rounds):
        tau_f = _snapped(spec.tau_f_rounds)
        assert provision(spec, rate).count == math.ceil(_snapped(rate) * tau_f / spec.n_out)
        # A demand of `states` per `rounds` rounds, given as two integers.
        count = provision(spec, states, rounds).count
        assert count == provision(spec, Fraction(states, rounds)).count
        assert count == math.ceil(Fraction(states, rounds) * tau_f / spec.n_out)

    @pytest.mark.parametrize("rate,rounds", [(-1, 1), (-1, 7), (Fraction(-1, 3), 1), (-0.5, 2)])
    def test_negative_demand_is_refused(self, rate, rounds):
        with pytest.raises(ValueError, match="^required_rate must be nonnegative$"):
            provision(_specs()[0], rate, rounds)

    @pytest.mark.parametrize("rounds", [0, -3, 2.5, True])
    def test_rounds_must_be_a_positive_integer(self, rounds):
        with pytest.raises(ValueError, match="^rounds must be a positive integer"):
            provision(_specs()[0], 1, rounds)

    @pytest.mark.parametrize("l_side", [4, 30])
    def test_factory_blocks_match_fractions(self, l_side):
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=0.01)
        summary, _ = compile_scheme("qsp", inst)
        blocks = math.ceil(summary.data_patches / 4)
        for spec in _specs():
            tau_f = _snapped(spec.tau_f_rounds)
            for d in range(3, 100, 2):
                fleet = REGISTRY["qsp"].fleet(summary, spec, d)
                assert fleet.count == blocks * math.ceil(tau_f / (3 * d * spec.n_out))
                assert fleet.physical_qubits == fleet.count * spec.q_f

    @pytest.mark.parametrize("scheme", ["plaq_serial", "plaq_L"])
    @pytest.mark.parametrize("l_side", [4, 30])
    def test_dedicated_fleets_match_fractions(self, scheme, l_side):
        inst = FHInstance(l_side=l_side, t_hop=1.0, u_onsite=8.0, t_evol=300,
                          eps_total=0.01)
        summary, _ = compile_scheme(scheme, inst)
        states = round(summary.consumption_rate)
        for spec in _specs():
            tau_f = _snapped(spec.tau_f_rounds)
            for d in range(3, 100, 2):
                fleet = REGISTRY[scheme].fleet(summary, spec, d)
                assert fleet.count == math.ceil(Fraction(states, d) * tau_f / spec.n_out)
                assert fleet.physical_qubits == fleet.count * spec.q_f


class TestCompileRange:
    @pytest.mark.parametrize(
        "field,value,scheme",
        [
            ("u_onsite", 1e308, "plaq_L2"),
            ("u_onsite", 1e308, "qsp"),
            ("t_evol", 1e300, "plaq_serial"),
            ("t_evol", 1e300, "qsp"),
            ("eps_total", 1e-300, "plaq_L"),
        ],
    )
    def test_out_of_range_input_names_its_field(self, field, value, scheme):
        inst = bench_instance()._replace(**{field: value})
        with pytest.raises(CompileError) as info:
            compile_scheme(scheme, inst)
        assert str(info.value).startswith(f"{field} = {value!r} is too extreme")

    def test_huge_m_is_blamed_and_m_below_2_keeps_its_precondition(self):
        with pytest.raises(CompileError, match=r"^hwp_m = 10{45} is too extreme"):
            compile_scheme("plaq_serial", bench_instance(), m=10**45)
        with pytest.raises(ValueError, match="m must be at least 2") as info:
            compile_scheme("plaq_serial", bench_instance(), m=1)
        assert not isinstance(info.value, CompileError)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("m", [1, math.nan])
    def test_m_below_2_is_refused_for_every_scheme(self, scheme, m):
        # compile_scheme settles m before any scheme runs, so the rule holds
        # for the schemes that do not read m too, and NaN fails it.
        with pytest.raises(ValueError, match="HWP ancilla count m must be at least 2") as info:
            compile_scheme(scheme, bench_instance(), m=m)
        assert not isinstance(info.value, CompileError)
