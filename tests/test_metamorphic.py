"""Properties of random Fermi-Hubbard estimates.

The draws cover every scheme, even L in [4, 80], p log-uniform in
[1e-4, 2e-3], T_evol in [10, 1000], eps_total in [1e-3, 0.05], both built-in
factories with and without cultivation, three reaction times and f_r in
[0, 1]. Two properties check the wall time, bottleneck, volume and distance
against qec.run_time; the others are metamorphic: they change one input, or
scale both clocks, and check how the estimate moves. Each perturbed input is
built with ``_replace``, so it passes its record's check.
"""

import math
from importlib import resources

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ftqcost.config import build_config, read_sections
from ftqcost.errors import BudgetInfeasibleError
from ftqcost.estimator import EstimateOptions, estimate, sensitivity
from ftqcost.factories import builtin_catalog, cultivation_variant
from ftqcost.fermi_hubbard import SCHEMES, FHInstance, compile_scheme, layout_at
from ftqcost.qec import (
    GATE_LIMITED,
    MAGIC_LIMITED,
    PhysicalAssumptions,
    logical_error_rate,
    patch_physical_qubits,
    run_time,
)
from ftqcost.report import estimate_config

BUNDLED = str(resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg"))


@st.composite
def runs(draw):
    """A scheme, instance, assumptions, factory and options to estimate."""
    inst = FHInstance(
        l_side=2 * draw(st.integers(2, 40)), t_hop=1.0, u_onsite=8.0,
        t_evol=draw(st.floats(10, 1000)), eps_total=draw(st.floats(1e-3, 0.05)),
    )
    p = math.exp(draw(st.floats(math.log(1e-4), math.log(2e-3))))
    assume = PhysicalAssumptions(p=p, tau_r=draw(st.sampled_from([1e-7, 1e-6, 1e-5])))
    spec = draw(st.sampled_from(builtin_catalog()))
    if draw(st.booleans()):
        spec = cultivation_variant(spec)
    options = EstimateOptions(f_r=draw(st.floats(0, 1)))
    return draw(st.sampled_from(SCHEMES)), inst, assume, spec, options


@st.composite
def runs_at_independent_clocks(draw):
    """A run whose t_se and tau_r are drawn apart, log-uniform in [1e-7, 1e-5]."""
    scheme, inst, assume, spec, options = draw(runs())
    t_se, tau_r = (math.exp(draw(st.floats(math.log(1e-7), math.log(1e-5)))) for _ in "ab")
    return scheme, inst, assume._replace(t_se=t_se, tau_r=tau_r), spec, options


class TestOneRunTimeRule:
    """Every estimate's span is qec.run_time's: the gate schedule's time or,
    when slower, the fleet's time to supply the T states, and the volume
    counts the patches over that span."""

    @settings(max_examples=300, deadline=None)
    @given(run=runs())
    def test_span_volume_and_distance_follow_run_time(self, run):
        scheme, inst, assume, spec, options = run
        est = estimate(inst, scheme, assume, spec, options)
        summary, _ = compile_scheme(scheme, inst)
        t_count = summary.t_count_total

        def at(d):
            """Patches, gate seconds, gate rounds and fleet at d."""
            patches, fleet = layout_at(summary, spec, d, f_r=options.f_r)
            rounds = summary.timestep_depth * d
            gate = rounds * assume.t_se + summary.reaction_depth * assume.tau_r
            rounds += summary.reaction_depth * (assume.tau_r / assume.t_se)
            return patches, gate, rounds, fleet

        def stretched_fails(d):
            patches, _, rounds, fleet = at(d)
            span, _ = run_time(rounds, fleet.supply_time(t_count, 1.0))
            return patches * span * logical_error_rate(assume, d) > options.e_qec

        patches, gate, rounds, fleet = at(est.d)
        assert fleet.count == est.factory_count
        supply = fleet.supply_time(t_count, assume.t_se)
        assert (est.wall_time_seconds, est.bottleneck) == run_time(gate, supply)
        # The supply's time bounds the span, up to run_time's 1e-12 tie slack.
        assert est.wall_time_seconds * (1 + 1e-12) >= t_count / fleet.achieved_rate * assume.t_se
        span, _ = run_time(rounds, fleet.supply_time(t_count, 1.0))
        assert est.spacetime_volume == pytest.approx(patches * span, rel=1e-12)
        assert est.spacetime_volume * logical_error_rate(assume, est.d) <= options.e_qec
        assert est.d == 3 or stretched_fails(est.d - 2)
        # Measured, not proven: every other scheme's fleet is provisioned to
        # its own consumption rate, so only plaq_L2's L^2 factories fall short.
        assert scheme == "plaq_L2" or est.bottleneck == GATE_LIMITED

    @settings(max_examples=200, deadline=None)
    @given(run=runs_at_independent_clocks())
    def test_volume_is_the_patches_over_the_wall_time_in_rounds(self, run):
        """The volume and the wall time run on one clock: a reaction delay
        costs tau_r / t_se rounds of every patch, whatever the two clocks."""
        scheme, inst, assume, spec, options = run
        est = fitted(*run)
        if est is None:
            reject()
        qubits = est.physical_qubits_total - est.physical_qubits_by_role["factories"]
        patches = qubits / patch_physical_qubits(est.d)
        assert est.spacetime_volume == pytest.approx(
            patches * est.wall_time_seconds / assume.t_se, rel=1e-9
        )

    def test_magic_limited_wall_time_is_the_supply_time(self):
        # A row of the sweep golden: the gate schedule takes 19 137.6 s at
        # d = 15, the 100 factories 32 029.2 s to make the T states.
        config, est = bundled({"algorithm.L": "10", "physical.p": "1e-4"})
        fleet = layout_at(est.summary, config.effective_spec, est.d, config.options.f_r).fleet
        supply = fleet.supply_time(est.t_count_total, config.assume.t_se)
        assert (est.d, est.bottleneck, fleet.count) == (15, MAGIC_LIMITED, 100)
        assert est.wall_time_seconds == supply == pytest.approx(32029.24647, rel=1e-9)

    def test_supply_stretched_past_the_budget_raises_d(self):
        # The patches alone first fit at d = 15; the supply's span breaks E there.
        config, est = bundled({"algorithm.L": "10", "physical.p": "1.5e-4"})
        assume, summary = config.assume, est.summary
        patches, fleet = layout_at(summary, config.effective_spec, 15, config.options.f_r)
        rounds = summary.timestep_depth * 15
        gate = patches * (rounds + summary.reaction_depth * (assume.tau_r / assume.t_se))
        supply = patches * fleet.supply_time(est.t_count_total, 1.0)
        fails = [v * logical_error_rate(assume, 15) > config.options.e_qec
                 for v in (gate, supply)]
        assert fails == [False, True]
        assert (est.d, est.bottleneck) == (17, MAGIC_LIMITED)
        assert est.wall_time_seconds == pytest.approx(32029.24647, rel=1e-9)


class TestMetamorphic:
    @settings(max_examples=200, deadline=None)
    @given(run=runs(), factor=st.floats(1.01, 1.5))
    def test_raising_p_never_lowers_d_or_wall_time(self, run, factor):
        scheme, inst, assume, spec, options = run
        before = estimate(inst, scheme, assume, spec, options)
        after = estimate(inst, scheme, assume._replace(p=assume.p * factor), spec, options)
        assert after.d >= before.d
        assert after.wall_time_seconds >= before.wall_time_seconds

    @settings(max_examples=200, deadline=None)
    @given(run=runs(), factor=st.floats(1.01, 2))
    def test_raising_tau_r_never_lowers_wall_time(self, run, factor):
        scheme, inst, assume, spec, options = run
        before = estimate(inst, scheme, assume, spec, options)
        slower = assume._replace(tau_r=assume.tau_r * factor)
        after = estimate(inst, scheme, slower, spec, options)
        assert after.wall_time_seconds >= before.wall_time_seconds

    @settings(max_examples=200, deadline=None)
    @given(run=runs(), e_qec=st.floats(1e-3, 0.1), factor=st.floats(0.01, 0.99))
    def test_lowering_e_never_lowers_d(self, run, e_qec, factor):
        scheme, inst, assume, spec, options = run
        before = estimate(inst, scheme, assume, spec, options._replace(e_qec=e_qec))
        stricter = options._replace(e_qec=e_qec * factor)
        assert estimate(inst, scheme, assume, spec, stricter).d >= before.d

    @settings(max_examples=200, deadline=None)
    @given(run=runs())
    def test_band_orders_d_and_wall_time(self, run):
        scheme, inst, assume, spec, options = run
        band = sensitivity(inst, scheme, assume, spec, options)
        assert band.low.d <= band.nominal.d <= band.high.d
        assert (
            band.low.wall_time_seconds
            <= band.nominal.wall_time_seconds
            <= band.high.wall_time_seconds
        )

    @settings(max_examples=200, deadline=None)
    @given(run=runs_at_independent_clocks(), j=st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_scaling_both_clocks_scales_only_the_wall_time(self, run, j):
        """A power of two scales t_se, tau_r and every time exactly, and
        leaves their ratio, so d, the qubits, the volume and the bottleneck
        stay."""
        scheme, inst, assume, spec, options = run
        k = 2.0**j
        before = fitted(*run)
        scaled = assume._replace(t_se=assume.t_se * k, tau_r=assume.tau_r * k)
        after = fitted(scheme, inst, scaled, spec, options)
        if before is None:
            assert after is None
        else:
            assert after == before._replace(wall_time_seconds=before.wall_time_seconds * k)


def fitted(scheme, inst, assume, spec, options):
    """The estimate, or None when no distance up to d_max fits."""
    try:
        return estimate(inst, scheme, assume, spec, options)
    except BudgetInfeasibleError:
        return None


def assert_never_lower(before, after):
    """``after``'s d and wall time are at least ``before``'s. No fit counts as
    a d above every d_max, so a harder input that fits never follows one that
    does not."""
    if after is None:
        return
    assert before is not None
    assert after.d >= before.d
    assert after.wall_time_seconds >= before.wall_time_seconds


class TestHarderInputsNeverLowerDOrWallTime:
    """The five relations that hold on d and wall time: each makes the
    logical error rate larger or the circuit bigger. Total qubits and the
    volume are not pinned: neither is monotone in these inputs (README, Model
    notes)."""

    @settings(max_examples=150, deadline=None)
    @given(run=runs(), factor=st.floats(1.01, 3))
    def test_raising_prefactor_a(self, run, factor):
        scheme, inst, assume, spec, options = run
        worse = assume._replace(prefactor_a=assume.prefactor_a * factor)
        assert_never_lower(fitted(*run), fitted(scheme, inst, worse, spec, options))

    @settings(max_examples=150, deadline=None)
    @given(run=runs(), factor=st.floats(0.4, 0.99))
    def test_lowering_p_star(self, run, factor):
        scheme, inst, assume, spec, options = run
        worse = assume._replace(p_star=assume.p_star * factor)
        assert_never_lower(fitted(*run), fitted(scheme, inst, worse, spec, options))

    @settings(max_examples=150, deadline=None)
    @given(run=runs(), factor=st.floats(1.01, 3))
    def test_raising_t_evol(self, run, factor):
        scheme, inst, assume, spec, options = run
        longer = inst._replace(t_evol=inst.t_evol * factor)
        assert_never_lower(fitted(*run), fitted(scheme, longer, assume, spec, options))

    @settings(max_examples=150, deadline=None)
    @given(run=runs(), factor=st.floats(0.1, 0.99))
    def test_lowering_eps_total(self, run, factor):
        scheme, inst, assume, spec, options = run
        stricter = inst._replace(eps_total=inst.eps_total * factor)
        assert_never_lower(fitted(*run), fitted(scheme, stricter, assume, spec, options))

    @settings(max_examples=150, deadline=None)
    @given(run=runs())
    def test_growing_l_by_two(self, run):
        scheme, inst, assume, spec, options = run
        bigger = inst._replace(l_side=inst.l_side + 2)
        assert_never_lower(fitted(*run), fitted(scheme, bigger, assume, spec, options))


def bundled(sets):
    """The config and nominal estimate of the bundled config with ``sets``
    (dotted path -> value) applied, as ``--set`` applies them."""
    sections = read_sections(BUNDLED)
    for path, value in sets.items():
        section, key = path.split(".")
        sections[section][key.lower()] = value
    config = build_config(sections)
    return config, estimate_config(config)


class TestModelNotes:
    """The examples of README "Model notes": one input moved, then d,
    wall time, volume and qubits compared."""

    def test_raising_t_se_shortens_the_reaction_delays_and_lowers_d(self):
        sets = {"algorithm.T_evol": "100", "algorithm.eps_total": "0.05",
                "physical.tau_r": "1e-5"}
        _, e1 = bundled({**sets, "physical.t_se": "1.00e-7"})
        _, e2 = bundled({**sets, "physical.t_se": "1.05e-7"})
        assert (e1.d, e2.d) == (31, 29)
        assert e1.wall_time_seconds == pytest.approx(2390.54, rel=1e-5)
        assert e2.wall_time_seconds == pytest.approx(2373.14, rel=1e-5)

    def test_plaq_l2_volume_falls_as_l_grows(self):
        sets = {"physical.p": "6.72e-4", "algorithm.T_evol": "337.8",
                "algorithm.eps_total": "0.0317", "algorithm.f_r": "0.18"}
        _, e1 = bundled({**sets, "algorithm.L": "62"})
        _, e2 = bundled({**sets, "algorithm.L": "64"})
        assert (e1.d, e2.d) == (27, 29)
        assert e2.spacetime_volume < e1.spacetime_volume
        assert e2.wall_time_seconds > e1.wall_time_seconds

    @pytest.mark.parametrize("sets, moved, values, d", [
        ({"algorithm.L": "10"}, "physical.p", ("7.4e-4", "8.14e-4"), (25, 27)),
        ({"algorithm.scheme": "qsp", "algorithm.L": "20"}, "qec.E", ("0.005", "0.002"),
         (31, 33)),
    ], ids=["p", "E"])
    def test_total_qubits_fall_as_d_rises(self, sets, moved, values, d):
        (_, e1), (_, e2) = (bundled({**sets, moved: value}) for value in values)
        assert (e1.d, e2.d) == d
        assert e2.physical_qubits_total < e1.physical_qubits_total
        assert e2.wall_time_seconds > e1.wall_time_seconds
