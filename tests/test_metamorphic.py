"""Properties of random Fermi-Hubbard estimates.

The draws cover every scheme, even L in [4, 80], p log-uniform in
[1e-4, 2e-3], T_evol in [10, 1000], eps_total in [1e-3, 0.05], both built-in
factories with and without cultivation, three reaction times and f_r in
[0, 1]. One property checks the bottleneck label against the fleet's own
supply rule; the others are metamorphic: they change one input and check the
direction in which the estimate moves.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from ftqcost.estimator import EstimateOptions, estimate, sensitivity
from ftqcost.factories import builtin_catalog, cultivation_variant
from ftqcost.fermi_hubbard import SCHEMES, FHInstance, compile_scheme, layout_at
from ftqcost.qec import GATE_LIMITED, MAGIC_LIMITED, PhysicalAssumptions


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


class TestOneSupplyRule:
    @settings(max_examples=300, deadline=None)
    @given(run=runs())
    def test_magic_limited_exactly_when_the_fleet_is_slower(self, run):
        scheme, inst, assume, spec, options = run
        est = estimate(inst, scheme, assume, spec, options)
        summary, _ = compile_scheme(scheme, inst)
        fleet = layout_at(summary, spec, est.d, f_r=options.f_r).fleet
        assert fleet.count == est.factory_count
        supply = fleet.supply_time(summary.t_count_total, assume.t_se)
        slower = supply > est.wall_time_seconds * (1 + 1e-12)
        assert est.bottleneck == (MAGIC_LIMITED if slower else GATE_LIMITED)
        # Measured, not proven: every other scheme's fleet is provisioned to
        # its own consumption rate, so only plaq_L2's L^2 factories fall short.
        assert scheme == "plaq_L2" or est.bottleneck == GATE_LIMITED


class TestMetamorphic:
    @settings(max_examples=200, deadline=None)
    @given(run=runs(), factor=st.floats(1.01, 1.5))
    def test_raising_p_never_lowers_d_or_wall_time(self, run, factor):
        scheme, inst, assume, spec, options = run
        before = estimate(inst, scheme, assume, spec, options)
        after = estimate(inst, scheme, replace(assume, p=assume.p * factor), spec, options)
        assert after.d >= before.d
        assert after.wall_time_seconds >= before.wall_time_seconds

    @settings(max_examples=200, deadline=None)
    @given(run=runs(), factor=st.floats(1.01, 2))
    def test_raising_tau_r_never_lowers_wall_time(self, run, factor):
        scheme, inst, assume, spec, options = run
        before = estimate(inst, scheme, assume, spec, options)
        slower = replace(assume, tau_r=assume.tau_r * factor)
        after = estimate(inst, scheme, slower, spec, options)
        assert after.wall_time_seconds >= before.wall_time_seconds

    @settings(max_examples=200, deadline=None)
    @given(run=runs(), e_qec=st.floats(1e-3, 0.1), factor=st.floats(0.01, 0.99))
    def test_lowering_e_never_lowers_d(self, run, e_qec, factor):
        scheme, inst, assume, spec, options = run
        before = estimate(inst, scheme, assume, spec, replace(options, e_qec=e_qec))
        stricter = replace(options, e_qec=e_qec * factor)
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
