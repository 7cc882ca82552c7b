import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqcost import qec
from ftqcost.costmodel import (
    CircuitProfile,
    clifford_cost,
    fast_block_routing,
    general_cost,
    pbc_ratio,
    ratio_routing,
    reaction_limited_plan,
    sequential_baseline,
)
from ftqcost.errors import MagicStarvedError, UndefinedRatioError
from ftqcost.factories import FactoryFleet, factory_by_name, provision
from ftqcost.qec import GATE_LIMITED, MAGIC_LIMITED, PhysicalAssumptions, fast_block_patches


def assume(**kw):
    return PhysicalAssumptions(p=1e-3, **kw)


def big_fleet():
    return FactoryFleet(spec=factory_by_name("15to1x15to1-p3"), count=10**9)


class TestCliffordCost:
    def test_m1_has_no_teleport_term(self):
        profile = CircuitProfile(
            q_data=100, n_clifford=10, n_non_clifford=0, p_clifford=2,
            p_non_clifford=1, m_layers=1,
        )
        cost = clifford_cost(profile, 17, assume())
        assert cost.space_by_role["teleport"] == 0

    def test_doubling_m_halves_time_and_adds_space(self):
        kwargs = dict(
            q_data=100, n_clifford=1e4, n_non_clifford=0, p_clifford=10,
            p_non_clifford=1, routing=ratio_routing(0.5, 100),
        )
        c1 = clifford_cost(CircuitProfile(m_layers=1, **kwargs), 17, assume())
        c2 = clifford_cost(CircuitProfile(m_layers=2, **kwargs), 17, assume())
        assert c2.time_seconds == pytest.approx(c1.time_seconds / 2)
        q = 2 * 17**2
        assert c2.space_physical - c1.space_physical == pytest.approx(2 * 10 * q)

    def test_worked_instance(self):
        profile = CircuitProfile(
            q_data=100, n_clifford=1e4, n_non_clifford=0, p_clifford=10,
            p_non_clifford=1, m_layers=1, routing=ratio_routing(0.5, 100),
        )
        cost = clifford_cost(profile, 17, assume())
        assert cost.time_seconds == pytest.approx(34e-3)
        assert cost.space_by_role["routing"] == 50 * 2 * 17**2

    def test_rejects_non_clifford(self):
        profile = CircuitProfile(
            q_data=10, n_clifford=1, n_non_clifford=1, p_clifford=1, p_non_clifford=1
        )
        with pytest.raises(ValueError):
            clifford_cost(profile, 17, assume())


class TestGeneralCost:
    def test_fast_block_serial_time(self):
        # Serial non-Clifford execution: T = N_nc * (2 tau_c + tau_r).
        a = assume()
        profile = CircuitProfile(
            q_data=50, n_clifford=0, n_non_clifford=1000, p_clifford=1,
            p_non_clifford=1, routing=fast_block_routing(50),
        )
        cost = general_cost(profile, big_fleet(), 17, a)
        tau_nc = 2 * (2 * 17 * 1e-6) + 1e-6
        assert cost.time_seconds == pytest.approx(1000 * tau_nc)
        assert cost.bottleneck == GATE_LIMITED

    def test_no_non_clifford_reduces_to_clifford_cost(self):
        profile = CircuitProfile(
            q_data=30, n_clifford=500, n_non_clifford=0, p_clifford=3, p_non_clifford=1
        )
        a = assume()
        general = general_cost(profile, big_fleet(), 21, a)
        clifford = clifford_cost(profile, 21, a)
        assert general == clifford

    def test_magic_limited_detection(self):
        a = assume()
        spec = factory_by_name("15to1x15to1-p3")
        profile = CircuitProfile(
            q_data=10, n_clifford=0, n_non_clifford=1e6, p_clifford=1, p_non_clifford=4
        )
        starved = general_cost(profile, FactoryFleet(spec, 1), 17, a)
        assert starved.bottleneck == MAGIC_LIMITED
        assert starved.magic_time_seconds > starved.gate_time_seconds
        fed = general_cost(profile, FactoryFleet(spec, 10**6), 17, a)
        assert fed.bottleneck == GATE_LIMITED

    def test_starved_fleet_raises(self):
        profile = CircuitProfile(
            q_data=10, n_clifford=0, n_non_clifford=1, p_clifford=1, p_non_clifford=1
        )
        fleet = FactoryFleet(factory_by_name("15to1x15to1-p3"), 0)
        with pytest.raises(MagicStarvedError):
            general_cost(profile, fleet, 17, assume())

    def test_reaction_limited_storage_term(self):
        a = assume(tau_r=1e-6)
        profile = CircuitProfile(
            q_data=10, n_clifford=0, n_non_clifford=100, p_clifford=1,
            p_non_clifford=2, k_storage=2, routing=ratio_routing(1, 10),
        )
        cost = general_cost(profile, big_fleet(), 17, a)
        tau_c = 34e-6
        assert cost.space_by_role["teleport"] == pytest.approx(
            2 * (tau_c / 1e-6) * 2 * 2 * 17**2
        )
        # Reaction-limited execution consumes one tau_r per gate per lane.
        assert cost.gate_time_seconds == pytest.approx(100 * 1e-6 / 2)

    def test_magic_volume_invariant_under_parallelism(self):
        # Fleet qubits times the time spent producing states is independent
        # of how many states are consumed in parallel.
        a = assume()
        spec = factory_by_name("15to1x15to1-p3")
        n_nc = 1e6
        volumes = []
        for count in (7, 560):
            fleet = FactoryFleet(spec, count)
            production_seconds = n_nc / fleet.achieved_rate * a.t_se
            volumes.append(fleet.physical_qubits * production_seconds / a.t_se)
        assert volumes[0] == pytest.approx(volumes[1])
        assert volumes[0] == pytest.approx(n_nc * 97.5 * 39100 / 1)


profiles = st.builds(
    CircuitProfile,
    q_data=st.integers(min_value=1, max_value=10**4),
    n_clifford=st.floats(min_value=0, max_value=1e9),
    n_non_clifford=st.floats(min_value=1, max_value=1e9),
    p_clifford=st.floats(min_value=1, max_value=64),
    p_non_clifford=st.floats(min_value=1, max_value=64),
    m_layers=st.integers(min_value=1, max_value=4),
    k_storage=st.just(0.0) | st.floats(min_value=0, max_value=4),
    routing=st.none() | st.floats(min_value=0, max_value=2),
)
specs = st.sampled_from(["15to1x15to1-p3", "15to1x20to4-p4"]).map(factory_by_name)
fleets = st.builds(FactoryFleet, spec=specs, count=st.integers(min_value=1, max_value=10**6))
distances = st.integers(min_value=1, max_value=40).map(lambda i: 2 * i + 1)
timings = st.builds(
    assume,
    t_se=st.floats(min_value=1e-7, max_value=1e-5),
    tau_r=st.floats(min_value=1e-7, max_value=1e-4),
)


class TestOneEquationBody:
    @settings(max_examples=300, deadline=None)
    @given(profiles, fleets, distances, timings)
    def test_general_cost_is_its_docstring_equations(self, prof, fleet, d, a):
        q = 2 * d * d
        tau_c = 2 * d * a.t_se
        tau_nc = a.tau_r if prof.k_storage > 0 else 2 * tau_c + a.tau_r
        tau_m = prof.p_non_clifford / fleet.achieved_rate * a.t_se
        r = (
            fast_block_patches(prof.q_data) - prof.q_data if prof.routing is None
            else prof.routing
        )
        extra = max(
            2 * (prof.m_layers - 1) * prof.p_clifford,
            prof.k_storage * (tau_c / a.tau_r) * prof.p_non_clifford,
        )
        gate = (
            prof.n_clifford * tau_c / (prof.m_layers * prof.p_clifford)
            + prof.n_non_clifford * tau_nc / prof.p_non_clifford
        )
        magic = prof.n_non_clifford * tau_m / prof.p_non_clifford
        space = q * (prof.q_data + r + extra) + fleet.physical_qubits

        cost = general_cost(prof, fleet, d, a)
        assert cost.space_physical == pytest.approx(space, rel=1e-12)
        assert sum(cost.space_by_role.values()) == pytest.approx(space, rel=1e-12)
        assert cost.space_by_role["teleport"] == pytest.approx(q * extra, rel=1e-12)
        assert cost.gate_time_seconds == pytest.approx(gate, rel=1e-12)
        assert cost.magic_time_seconds == pytest.approx(magic, rel=1e-12)
        assert (cost.time_seconds, cost.bottleneck) == qec.run_time(
            cost.gate_time_seconds, cost.magic_time_seconds
        )
        assert cost.volume_patch_rounds == pytest.approx(
            (prof.q_data + r + extra) * max(gate, magic) / a.t_se, rel=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(
        profiles.map(lambda prof: prof._replace(n_non_clifford=0)),
        st.builds(FactoryFleet, spec=specs, count=st.just(0) | st.integers(0, 10**6)),
        distances,
        timings,
    )
    def test_no_non_clifford_is_clifford_cost_for_any_fleet(self, prof, fleet, d, a):
        assert general_cost(prof, fleet, d, a) == clifford_cost(prof, d, a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.none() | st.integers(min_value=0, max_value=10**4),
        distances,
        st.floats(min_value=1e-7, max_value=1e-5),
    )
    def test_volume_is_whole_patch_rounds_at_equal_clocks(self, q, n_c, n_nc, routing, d, t):
        # At t_se == tau_r a reaction delay is one SE round, so integer counts
        # at unit parallelism, with a fleet that keeps pace, make an integer
        # volume (below 2**53, exact) bit for bit.
        prof = CircuitProfile(
            q_data=q, n_clifford=n_c, n_non_clifford=n_nc, p_clifford=1,
            p_non_clifford=1, routing=routing,
        )
        cost = general_cost(prof, big_fleet(), d, assume(t_se=t, tau_r=t))
        assert cost.bottleneck == GATE_LIMITED
        assert cost.volume_patch_rounds.is_integer()

    def test_presets_are_patch_counts(self):
        assert fast_block_routing(50) == 50 + 20 + 1
        assert ratio_routing(0.5, 100) == 50


class TestPbcRatio:
    def test_serial_never_slower(self):
        profile = CircuitProfile(
            q_data=10, n_clifford=100, n_non_clifford=100, p_clifford=4, p_non_clifford=1
        )
        assert pbc_ratio(profile, 17, assume()) <= 1

    def test_no_cliffords_gives_parallelism(self):
        profile = CircuitProfile(
            q_data=10, n_clifford=0, n_non_clifford=100, p_clifford=1, p_non_clifford=6
        )
        assert pbc_ratio(profile, 17, assume()) == pytest.approx(6)

    def test_cstar_one(self):
        # Choose counts so the Clifford and non-Clifford arms take equal time.
        a = assume()
        tau_c = 2 * 17 * a.t_se
        tau_nc = 2 * tau_c + a.tau_r
        n_nc, p_nc = 1000, 4
        n_c = (n_nc * tau_nc / p_nc) / tau_c  # P_c = 1
        profile = CircuitProfile(
            q_data=10, n_clifford=n_c, n_non_clifford=n_nc, p_clifford=1,
            p_non_clifford=p_nc,
        )
        assert pbc_ratio(profile, 17, a) == pytest.approx(2)

    def test_undefined_without_non_cliffords(self):
        profile = CircuitProfile(
            q_data=10, n_clifford=10, n_non_clifford=0, p_clifford=1, p_non_clifford=1
        )
        with pytest.raises(UndefinedRatioError):
            pbc_ratio(profile, 17, assume())

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=1, max_value=64),
        st.floats(min_value=1, max_value=64),
        st.sampled_from([13, 17, 25]),
    )
    def test_matches_general_cost(self, q, n_c, n_nc, p_c, p_nc, d):
        a = assume()
        profile = CircuitProfile(
            q_data=q, n_clifford=n_c, n_non_clifford=n_nc,
            p_clifford=p_c, p_non_clifford=p_nc,
        )
        pbc_profile = CircuitProfile(
            q_data=q, n_clifford=0, n_non_clifford=n_nc,
            p_clifford=1, p_non_clifford=1, routing=fast_block_routing(q),
        )
        fleet = big_fleet()
        t = general_cost(profile, fleet, d, a).time_seconds
        t_pbc = general_cost(pbc_profile, fleet, d, a).time_seconds
        assert pbc_ratio(profile, d, a) == pytest.approx(t_pbc / t)


class TestReactionLimited:
    def test_worked_example(self):
        plan = reaction_limited_plan(75e-6, 5e-6, 30)
        assert plan.g_opt == 15
        assert plan.time_seconds == pytest.approx(150e-6)
        assert plan.logical_qubits == 60

    def test_sequential_baseline(self):
        a = PhysicalAssumptions(p=1e-3, tau_r=5e-6)
        time, qubits = sequential_baseline(30, 15, a)
        assert time == pytest.approx(825e-6)
        assert qubits == 2

    def test_worked_example_ratios(self):
        a = PhysicalAssumptions(p=1e-3, tau_r=5e-6)
        plan = reaction_limited_plan(75e-6, 5e-6, 30)
        seq_time, seq_qubits = sequential_baseline(30, 15, a)
        assert seq_time / plan.time_seconds == pytest.approx(5.5)
        assert plan.logical_qubits / seq_qubits == pytest.approx(30)

    def test_single_gate_costs_one_prep(self):
        plan = reaction_limited_plan(75e-6, 5e-6, 1)
        assert plan.time_seconds == pytest.approx(75e-6)

    @pytest.mark.parametrize("field", ["t_prep", "tau_r", "n_gates"])
    def test_plan_refuses_nan(self, field):
        args = dict(t_prep=75e-6, tau_r=5e-6, n_gates=30)
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            reaction_limited_plan(**{**args, field: math.nan})

    def test_baseline_refuses_nan(self):
        with pytest.raises(ValueError, match="^n_gates must be positive$"):
            sequential_baseline(math.nan, 15, PhysicalAssumptions(p=1e-3))

    @pytest.mark.parametrize("field", ["t_prep", "tau_r", "n_gates"])
    def test_plan_refuses_infinity(self, field):
        args = dict(t_prep=75e-6, tau_r=5e-6, n_gates=30)
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            reaction_limited_plan(**{**args, field: math.inf})

    def test_plan_refuses_a_reaction_time_whose_batch_leaves_the_float_range(self):
        with pytest.raises(ValueError, match="^tau_r must be large enough that "):
            reaction_limited_plan(75e-6, 1e-320, 30)

    def test_baseline_refuses_infinity(self):
        with pytest.raises(ValueError, match="^n_gates must be finite$"):
            sequential_baseline(math.inf, 15, PhysicalAssumptions(p=1e-3))


class TestFastBlock:
    def test_patch_count(self):
        assert fast_block_patches(3600) == 7370

    def test_small(self):
        assert fast_block_patches(1) == 2 + 2 + 1

    def test_routing_is_qecs_reexported(self):
        # qec owns the fast-block geometry; costmodel re-exports it.
        assert fast_block_routing is qec.fast_block_routing
        assert fast_block_patches is qec.fast_block_patches
