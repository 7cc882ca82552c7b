import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftqcost.costmodel import CircuitProfile, clifford_cost
from ftqcost.errors import BudgetInfeasibleError, InvalidDistanceError
from ftqcost.qec import (
    CNOT_TIMESTEPS,
    GATE_LIMITED,
    MAGIC_LIMITED,
    PhysicalAssumptions,
    _suppression,
    choose_distance,
    logical_error_rate,
    patch_physical_qubits,
    run_cost,
    run_time,
)


def assume(p=1e-3, **kw):
    return PhysicalAssumptions(p=p, **kw)


# Not odd integers >= 3: small or even ones, and NaN, the infinities and
# floats (15.0 included), which are no integers at all.
NOT_DISTANCES = [0, 1, 2, 4, 10, math.nan, math.inf, -math.inf, 15.5, 15.0]


class TestLogicalErrorRate:
    def test_d17_at_p_em3(self):
        assert logical_error_rate(assume(1e-3), 17) == pytest.approx(1e-10)

    def test_at_threshold_returns_prefactor(self):
        a = PhysicalAssumptions(p=0.01 - 1e-15, p_star=0.01)
        assert logical_error_rate(a, 9) == pytest.approx(0.1)

    def test_d9_at_p_em4(self):
        assert logical_error_rate(assume(1e-4), 9) == pytest.approx(1e-11)

    @pytest.mark.parametrize("d", NOT_DISTANCES)
    def test_invalid_distances_rejected(self, d):
        with pytest.raises(InvalidDistanceError):
            logical_error_rate(assume(), d)

    @given(st.integers(min_value=1, max_value=40))
    def test_step_ratio_is_p_over_pstar(self, k):
        a = assume(2.5e-3)
        d = 2 * k + 1
        ratio = logical_error_rate(a, d + 2) / logical_error_rate(a, d)
        assert ratio == pytest.approx(a.p / a.p_star)

    @given(
        prefactor=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        ratio=st.one_of(
            st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True),
            st.integers(min_value=1, max_value=64).map(lambda k: 1 - k * 2**-53),
        ),
        d=st.integers(min_value=1, max_value=10**9).map(lambda k: 2 * k + 1),
    )
    def test_float_value_never_rises_with_d(self, prefactor, ratio, d):
        # choose_distance's bisection past a failing floor relies on this of pow.
        assert _suppression(prefactor, ratio, d + 2) <= _suppression(prefactor, ratio, d)


class TestPatchQubits:
    @pytest.mark.parametrize("d,expected", [(3, 18), (25, 1250), (31, 1922)])
    def test_values(self, d, expected):
        assert patch_physical_qubits(d) == expected

    def test_even_distance_rejected(self):
        with pytest.raises(InvalidDistanceError):
            patch_physical_qubits(8)

    @pytest.mark.parametrize("d", NOT_DISTANCES)
    def test_non_distances_rejected(self, d):
        with pytest.raises(InvalidDistanceError):
            patch_physical_qubits(d)


def seconds(depth, d, reactions, a):
    """run_cost's seconds for one patch, no supply, at the clocks of ``a``."""
    return run_cost(1, depth, d, reactions, a.t_se, a.tau_r)[1]


class TestRunCostSeconds:
    def test_zero(self):
        assert seconds(0, 3, 0, assume()) == 0.0

    def test_rounds_only(self):
        # 1e5 timesteps of d = 17 rounds: 1.7e6 rounds.
        assert seconds(1e5, 17, 0, assume()) == pytest.approx(1.7)

    def test_linearity(self):
        assert seconds(1e3, 1, 1e3, assume()) == pytest.approx(2e-3)

    @given(
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=0, max_value=1e9),
    )
    def test_additive_in_rounds_and_reactions(self, r1, r2, x1, x2):
        a = assume()
        total = seconds(r1 + r2, 1, x1 + x2, a)
        parts = seconds(r1, 1, x1, a) + seconds(r2, 1, x2, a)
        assert total == pytest.approx(parts)


def counts(top):
    """Zero or a count in [1e-3, top]: no product of them falls to a
    subnormal, where scaling by a power of two is inexact."""
    return st.just(0.0) | st.floats(min_value=1e-3, max_value=top)


PATCHES = counts(1e6)
DEPTHS = counts(1e9)
DISTANCES = st.integers(min_value=1, max_value=50).map(lambda k: 2 * k + 1)
REACTIONS = counts(1e9)
CLOCKS = st.floats(min_value=1e-7, max_value=1e-5)
SUPPLIES = counts(1e12)


class TestRunCostVolume:
    def test_a_reaction_costs_tau_r_over_t_se_rounds(self):
        a = assume(t_se=1e-6, tau_r=1.5e-6)
        assert run_cost(10, 100, 3, 4, a.t_se, a.tau_r) == (
            10 * (100 * 3 + 4 * (a.tau_r / a.t_se)), 100 * 3 * a.t_se + 4 * a.tau_r, GATE_LIMITED
        )

    @given(PATCHES, DEPTHS, DISTANCES, REACTIONS, CLOCKS)
    def test_equal_clocks_count_a_reaction_as_one_round(self, patches, depth, d, reactions, t):
        """At t_se = tau_r the ratio is exactly 1.0: the volume is the old
        patches x (depth x d + reactions), bit for bit."""
        assert run_cost(patches, depth, d, reactions, t, t)[0] == patches * (
            depth * d + reactions
        )

    @given(PATCHES, DEPTHS, DISTANCES, REACTIONS, CLOCKS, CLOCKS, SUPPLIES)
    def test_volume_is_the_patches_times_the_seconds_in_rounds(
        self, patches, depth, d, reactions, t_se, tau_r, supply
    ):
        patch_rounds, secs, _ = run_cost(patches, depth, d, reactions, t_se, tau_r, supply)
        assert patch_rounds == pytest.approx(patches * secs / t_se, rel=1e-9, abs=1e-300)

    def test_a_slower_supply_stretches_both(self):
        # 100 x 3 + 4 x 1.5 = 306 rounds of gates against 1 000 of supply.
        patch_rounds, secs, bottleneck = run_cost(10, 100, 3, 4, 1e-6, 1.5e-6, 1000)
        assert (patch_rounds, bottleneck) == (10 * 1000, MAGIC_LIMITED)
        assert secs == pytest.approx(1000 * 1e-6)

    @given(PATCHES, DEPTHS, DISTANCES, REACTIONS, CLOCKS, CLOCKS, st.floats(0, 1))
    def test_a_supply_that_keeps_pace_changes_nothing(
        self, patches, depth, d, reactions, t_se, tau_r, share
    ):
        gate_rounds = depth * d + reactions * (tau_r / t_se)
        assert run_cost(patches, depth, d, reactions, t_se, tau_r, share * gate_rounds) == (
            run_cost(patches, depth, d, reactions, t_se, tau_r)
        )

    @given(PATCHES, DEPTHS, DISTANCES, REACTIONS, CLOCKS, CLOCKS, st.integers(0, 20))
    def test_the_volume_is_linear_in_the_patches(
        self, patches, depth, d, reactions, t_se, tau_r, j
    ):
        one = run_cost(patches, depth, d, reactions, t_se, tau_r)
        many = run_cost(patches * 2**j, depth, d, reactions, t_se, tau_r)
        assert many == (one[0] * 2**j, one[1], one[2])

    @given(
        PATCHES, DEPTHS, DISTANCES, REACTIONS, CLOCKS, CLOCKS, SUPPLIES,
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )
    def test_scaling_both_clocks_scales_only_the_seconds(
        self, patches, depth, d, reactions, t_se, tau_r, supply, j
    ):
        k = 2.0**j
        base = run_cost(patches, depth, d, reactions, t_se, tau_r, supply)
        scaled = run_cost(patches, depth, d, reactions, t_se * k, tau_r * k, supply)
        assert scaled == (base[0], base[1] * k, base[2])

    @given(PATCHES, DEPTHS, DISTANCES, CLOCKS, CLOCKS, CLOCKS)
    def test_without_reactions_tau_r_does_not_matter(self, patches, depth, d, t_se, tau_1, tau_2):
        assert run_cost(patches, depth, d, 0, t_se, tau_1) == run_cost(
            patches, depth, d, 0, t_se, tau_2
        )

    @pytest.mark.parametrize("arg", ["depth", "d", "reactions", "tau_r", "supply"])
    @given(
        PATCHES, DEPTHS, DISTANCES, REACTIONS, CLOCKS, CLOCKS, SUPPLIES,
        st.floats(min_value=1, max_value=100),
    )
    def test_more_of_any_input_costs_no_less(
        self, arg, patches, depth, d, reactions, t_se, tau_r, supply, factor
    ):
        base = dict(
            patches=patches, depth=depth, d=d, reactions=reactions,
            t_se=t_se, tau_r=tau_r, supply=supply if arg == "supply" else 0.0,
        )
        more = {**base, arg: 2 * d + 1 if arg == "d" else base[arg] * factor}
        low, high = run_cost(**base), run_cost(**more)
        assert high[0] >= low[0] and high[1] >= low[1]


class TestRunTime:
    @given(st.floats(min_value=0, max_value=1e12), st.floats(min_value=0, max_value=1e12))
    def test_span_is_the_longer_clock_and_names_it(self, gate, supply):
        span, bottleneck = run_time(gate, supply)
        tie = gate < supply <= gate * (1 + 1e-12)
        assert span == (gate if tie else max(gate, supply))
        assert bottleneck == (GATE_LIMITED if span == gate else MAGIC_LIMITED)

    def test_a_supply_that_keeps_pace_to_float_noise_is_no_bottleneck(self):
        assert run_time(177459.32255999997, 177459.32256) == (177459.32255999997, GATE_LIMITED)
        assert run_time(1.0, 1.0 + 1e-9) == (1.0 + 1e-9, MAGIC_LIMITED)
        assert run_time(2.0, 0.0) == (2.0, GATE_LIMITED)


class TestChooseDistance:
    def test_zero_volume_gives_min_distance(self):
        d = choose_distance(assume(), lambda d: 0.0)
        assert d == 3

    def test_minimal_footprint_spin_instance(self):
        # 150 patches running 1e5 gates of d rounds each.
        d = choose_distance(assume(), lambda d: 150 * (1e5 * d))
        assert d == 17

    def test_minimal_footprint_ecc_instance(self):
        d = choose_distance(assume(), lambda d: 1500 * (4e7 * d))
        assert d == 25

    def test_infeasible_raises(self):
        with pytest.raises(BudgetInfeasibleError):
            choose_distance(
                assume(9.99e-3), lambda d: 1e9 * (1e12 * d), d_max=21
            )

    @given(
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=1, max_value=1e9),
        st.sampled_from([1e-3, 1e-4, 3e-3]),
    )
    def test_fixed_point(self, patches, depth, p):
        a = assume(p)
        volume_at = lambda d: patches * (depth * d)
        d = choose_distance(a, volume_at)
        assert volume_at(d) * logical_error_rate(a, d) <= 0.05
        if d > 3:
            previous = d - 2
            assert volume_at(previous) * logical_error_rate(a, previous) > 0.05

    @given(
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=1, max_value=1e9),
        st.floats(min_value=1, max_value=1e4),
    )
    def test_monotone_in_volume_scale(self, patches, depth, scale):
        a = assume()
        d_small = choose_distance(a, lambda d: patches * (depth * d))
        d_large = choose_distance(a, lambda d: patches * scale * (depth * d))
        assert d_large >= d_small

    @given(st.floats(min_value=1e-4, max_value=0.04))
    def test_monotone_in_budget(self, budget):
        a = assume()
        volume_at = lambda d: 100 * (1e6 * d)
        assert choose_distance(a, volume_at, budget_e=budget) >= choose_distance(
            a, volume_at, budget_e=0.05
        )


def plain_scan(a, volume_at, budget_e, d_max):
    """The first-fit search from d = 3, with choose_distance's error text."""
    for d in range(3, d_max + 1, 2):
        if volume_at(d) * logical_error_rate(a, d) <= budget_e:
            return d
    raise BudgetInfeasibleError(
        f"no odd distance <= {d_max} meets failure budget {budget_e}"
    )


def outcome(search, *args, **kwargs):
    """The chosen distance, or the BudgetInfeasibleError message."""
    try:
        return search(*args, **kwargs)
    except BudgetInfeasibleError as exc:
        return str(exc)


class TestLowerBoundStart:
    """A volume floor changes which candidates a search reads, never what it returns."""

    @settings(max_examples=500, deadline=None)
    @given(
        p_ratio=st.floats(min_value=1e-6, max_value=1, exclude_max=True),
        budget=st.floats(min_value=1e-15, max_value=0.9),
        d_max=st.sampled_from([31, 99, 1001]),
        patches=st.one_of(st.floats(min_value=1, max_value=1e12), st.just(math.inf)),
        shrinking=st.floats(min_value=0, max_value=1e6),
        depth=st.floats(min_value=0, max_value=1e15),
        reactions=st.floats(min_value=0, max_value=1e15),
        tau_r=st.sampled_from([1e-6, 1.5e-6, 1e-5]),
    )
    # p within 2**-52 of p*, where the bound's rounding outgrows any fixed
    # slack: the first fit is 5, and a start taken from the bound skips it
    # (at 0.001 patch-rounds even with two odd steps of slack).
    @example(p_ratio=1 - 2**-52, budget=9.999999999999994e-05, d_max=99, patches=1.0,
             shrinking=0.0, depth=0.0, reactions=0.001, tau_r=1e-6)
    @example(p_ratio=1 - 2**-52, budget=0.04999999999999997, d_max=99, patches=1.0,
             shrinking=0.0, depth=0.0, reactions=0.5, tau_r=1e-6)
    # p within 1e-9 of p*: the bound reads 9.0000015 and the first fit is 9.
    @example(p_ratio=1 - 1e-9, budget=0.04999999975000004, d_max=99, patches=1.0,
             shrinking=0.0, depth=0.0, reactions=0.5, tau_r=1e-6)
    # A bound that is exactly 9.0, an odd integer.
    @example(p_ratio=0.1, budget=3.0000000000000026e-06, d_max=99, patches=3.0,
             shrinking=0.0, depth=0.0, reactions=1.0, tau_r=1e-6)
    # p_ratio one ulp below 1: the floor first fits at 9 and the volume at 15.
    @example(p_ratio=1 - 2**-53, budget=0.04999999999999995, d_max=99, patches=1.0,
             shrinking=1e-13, depth=0.0, reactions=0.5, tau_r=1e-6)
    def test_same_outcome_as_plain_scan(
        self, p_ratio, budget, d_max, patches, shrinking, depth, reactions, tau_r
    ):
        a = PhysicalAssumptions(p=0.01 * p_ratio, p_star=0.01, tau_r=tau_r)
        # Routing that shrinks with d, as plaq_L2's shared factory area does.
        rounds = a.tau_r / a.t_se
        volume_at = lambda d: (patches + shrinking / d**2) * (depth * d + reactions * rounds)
        floor_at = lambda d: patches * (depth * d + reactions * rounds)
        assert outcome(
            choose_distance, a, volume_at, budget, d_max, floor_at=floor_at,
        ) == outcome(plain_scan, a, volume_at, budget, d_max)

    @settings(max_examples=300, deadline=None)
    @given(
        p_ratio=st.floats(min_value=1e-6, max_value=1, exclude_max=True),
        budget=st.floats(min_value=1e-15, max_value=0.9),
        patches=st.floats(min_value=1, max_value=1e12),
        depth=st.floats(min_value=0, max_value=1e15),
        share=st.floats(min_value=0, max_value=1),
        d_max=st.sampled_from([31, 99, 1001]),
    )
    def test_any_floor_under_a_rising_volume_keeps_the_outcome(
        self, p_ratio, budget, patches, depth, share, d_max
    ):
        # A floor at d, any share of a volume that never falls with d, is
        # under every volume at d or beyond, however loose it is.
        a = PhysicalAssumptions(p=0.01 * p_ratio, p_star=0.01)
        volume_at = lambda d: patches * (depth * d + 1.0)
        assert outcome(
            choose_distance, a, volume_at, budget, d_max, lambda d: share * volume_at(d)
        ) == outcome(plain_scan, a, volume_at, budget, d_max)

    @settings(max_examples=300, deadline=None)
    @given(
        p_ratio=st.floats(min_value=1e-6, max_value=1, exclude_max=True),
        budget=st.floats(min_value=1e-15, max_value=0.9),
        floor=st.floats(min_value=1e-3, max_value=1e30),
        d_max=st.sampled_from([31, 99, 1001]),
    )
    @example(p_ratio=0.9999999999999999, budget=0.5, floor=6.0, d_max=31)
    def test_starts_at_the_first_odd_d_whose_floor_fits(self, p_ratio, budget, floor, d_max):
        a = PhysicalAssumptions(p=0.01 * p_ratio, p_star=0.01)
        seen = []
        outcome(
            choose_distance, a, lambda d: seen.append(d) or floor, budget, d_max, lambda d: floor
        )
        fits = [d for d in range(3, d_max + 1, 2) if floor * logical_error_rate(a, d) <= budget]
        assert seen == fits[:1]

    @pytest.mark.parametrize("floor", [None, 0.0, math.nan])
    def test_unusable_floor_scans_from_3(self, floor):
        seen = []

        def volume_at(d):
            seen.append(d)
            return math.inf * d

        floors = {} if floor is None else {"floor_at": lambda d: floor}
        with pytest.raises(BudgetInfeasibleError, match="no odd distance <= 99"):
            choose_distance(assume(), volume_at, **floors)
        assert seen[0] == 3

    def test_bound_past_d_max_raises_without_a_candidate(self):
        seen = []
        with pytest.raises(BudgetInfeasibleError) as info:
            choose_distance(
                assume(9.99e-3),
                lambda d: seen.append(d) or 1e9 * (1e12 * d),
                d_max=21, floor_at=lambda d: 1e9 * (1e12 * d),
            )
        assert str(info.value) == "no odd distance <= 21 meets failure budget 0.05"
        assert seen == []

    @pytest.mark.parametrize("p, floor", [(0.00999999999999, 3e6), (1e-3, math.inf)])
    def test_infeasible_floor_reads_no_candidate_at_any_d_max(self, p, floor):
        # Within a relative 1e-12 of p*, or on a floor that overflowed, no d
        # fits; a search that read candidates would read every odd d to d_max.
        seen = []
        with pytest.raises(BudgetInfeasibleError) as info:
            choose_distance(
                assume(p), lambda d: seen.append(d) or floor,
                d_max=100000001, floor_at=lambda d: floor,
            )
        assert str(info.value) == "no odd distance <= 100000001 meets failure budget 0.05"
        assert seen == []

    def test_floor_that_outgrows_the_budget_reads_no_candidate(self):
        # The floor at 3 alone first fits near d = 2e6, within a relative
        # 1e-12 of p*; the floor read again there fits nowhere up to d_max.
        seen, floors = [], []

        def floor_at(d):
            floors.append(d)
            return 0.05 / 0.3 * (1 + 1e-6) * d

        with pytest.raises(BudgetInfeasibleError) as info:
            choose_distance(
                assume(0.00999999999999), lambda d: seen.append(d) or floor_at(d),
                d_max=100000001, floor_at=floor_at,
            )
        assert str(info.value) == "no odd distance <= 100000001 meets failure budget 0.05"
        assert seen == [] and len(floors) == 2 and 3 < floors[1] < 100000001


class TestGateTimings:
    def test_tau_c_is_two_timesteps(self):
        # One Clifford on one layer takes exactly tau_c = 2 d t_se.
        profile = CircuitProfile(
            q_data=1, n_clifford=1, n_non_clifford=0, p_clifford=1, p_non_clifford=1
        )
        assert CNOT_TIMESTEPS == 2
        cost = clifford_cost(profile, 17, assume(t_se=1e-6))
        assert cost.time_seconds == pytest.approx(2 * 17 * 1e-6)


class TestPhysicalAssumptions:
    def test_p_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            PhysicalAssumptions(p=0.02, p_star=0.01)
