import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ftqcost.factories as factories
from ftqcost.config import build_config, read_sections
from ftqcost.errors import MagicStarvedError
from ftqcost.estimator import SENSITIVITY_FRACTION, _perturbed
from ftqcost.factories import (
    FactoryFleet,
    FactorySpec,
    builtin_catalog,
    cultivation_variant,
    factory_by_name,
    provision,
    t_budget_check,
)
from ftqcost.qec import PhysicalAssumptions


def f1():
    return factory_by_name("15to1x15to1-p3")


def f2():
    return factory_by_name("15to1x20to4-p4")


class TestCatalog:
    def test_f1_footprint(self):
        spec = f1()
        assert spec.q_f == 39100
        assert spec.tau_f_rounds == 97.5
        assert spec.n_out == 1
        assert spec.out_infidelity == 3.3e-14
        assert spec.valid_p == 1e-3

    def test_f2_batch(self):
        spec = f2()
        assert spec.q_f == 16400
        assert (spec.n_out, spec.tau_f_rounds) == (4, 90.0)

    def test_f2_rate(self):
        assert f2().rate_per_round == pytest.approx(4 / 90)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            factory_by_name("nonexistent")


class TestProvision:
    def test_one_per_25_rounds(self):
        assert provision(f1(), Fraction(1, 25)).count == 4

    def test_zero_rate(self):
        assert provision(f1(), 0).count == 0

    def test_60_per_25_rounds_is_exactly_234(self):
        # 2.4 * 97.5 = 234 exactly; float rounding must not bump it to 235.
        assert provision(f1(), Fraction(60, 25)).count == 234
        assert provision(f1(), 2.4).count == 234

    @given(st.fractions(min_value=0, max_value=1000))
    def test_never_under_provisions(self, rate):
        spec = f1()
        fleet = provision(spec, rate)
        achieved = Fraction(fleet.count * spec.n_out) / Fraction(
            spec.tau_f_rounds
        ).limit_denominator(10**9)
        assert achieved >= rate

    @given(st.fractions(min_value=0, max_value=1000))
    def test_f2_never_under_provisions(self, rate):
        spec = f2()
        fleet = provision(spec, rate)
        assert Fraction(fleet.count * spec.n_out, 90) >= rate

    @given(
        st.fractions(min_value=0, max_value=500),
        st.fractions(min_value=0, max_value=500),
    )
    def test_monotone(self, r1, r2):
        lo, hi = sorted([r1, r2])
        assert provision(f1(), lo).count <= provision(f1(), hi).count

    @pytest.mark.parametrize("rate", [-1, math.nan, math.inf, -math.inf])
    def test_negative_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="required_rate"):
            provision(f1(), rate)


class TestSupplyTime:
    def test_states_over_the_fleets_rate(self):
        # 234 factories of one state per 97.5 rounds, at 1 us per round.
        assert FactoryFleet(f1(), 234).supply_time(4680, 1e-6) == pytest.approx(
            4680 * 97.5e-6 / 234, rel=1e-15
        )
        # Four states per batch: a quarter of the time per state.
        assert FactoryFleet(f2(), 10).supply_time(400, 2e-6) == pytest.approx(
            400 * 90 * 2e-6 / (10 * 4), rel=1e-15
        )

    def test_no_states_take_no_time(self):
        assert FactoryFleet(f1(), 1).supply_time(0, 1e-6) == 0

    def test_empty_fleet_is_starved(self):
        with pytest.raises(MagicStarvedError, match="produces none"):
            FactoryFleet(f1(), 0).supply_time(1, 1e-6)

    @pytest.mark.parametrize(
        "tau_f_rounds, t_se",
        [(1e-320, 1e-6), (97.5, 1e-320), (1e-300, 1e-300), (1e308, 1e20)],
    )
    def test_rate_out_of_float_range_overflows(self, tau_f_rounds, t_se):
        # An infinite rate per round would read as no supply time at all, and
        # one that underflows to 0 as an endless one; so would a time that
        # leaves the float range. A rate per second that leaves it is no fault:
        # 2.4 states per round at 1e-320 s per round take 1e12 / 2.4 rounds.
        fleet = FactoryFleet(f1()._replace(tau_f_rounds=tau_f_rounds), 234)
        if (tau_f_rounds, t_se) == (97.5, 1e-320):
            seconds = fleet.supply_time(1e12, t_se)
            assert seconds == pytest.approx(1e12 / 2.4 * 1e-320)
            assert 4.1e-309 < seconds < 4.2e-309
            return
        with pytest.raises(OverflowError):
            fleet.supply_time(1e12, t_se)


class TestTauF:
    def test_exact_rational_parsed_once(self):
        spec = f1()
        assert spec.tau_f == Fraction(195, 2)
        assert spec.tau_f is spec.tau_f
        assert spec._replace(tau_f_rounds=2.4).tau_f == Fraction(12, 5)
        assert cultivation_variant(spec).tau_f == Fraction(39, 2)


    def test_catalog_spec_is_shared_and_parsed_once(self, monkeypatch):
        assert f1() is f1()
        calls = []
        real = factories._as_fraction

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(factories, "_as_fraction", counting)
        sections = read_sections(
            str(resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg"))
        )
        for _ in range(100):
            assert build_config(sections).spec.tau_f == Fraction(195, 2)
        # Zero when an earlier test in this process already parsed it.
        assert len(calls) <= 1

    def test_snap_keeps_every_catalog_rational(self):
        # A snap within a relative 1e-9 of the float is kept, so every built-in
        # rate, its cultivation variant and its +/-5% variants read as before.
        assume = PhysicalAssumptions(p=1e-3)
        for base in builtin_catalog():
            for spec in (base, cultivation_variant(base)):
                for fraction in (SENSITIVITY_FRACTION, -SENSITIVITY_FRACTION):
                    perturbed = _perturbed(assume, spec, fraction)[1]
                    for s in (spec, perturbed):
                        expected = Fraction(s.tau_f_rounds).limit_denominator(10**9)
                        assert s.tau_f == expected
                        assert s.tau_f.denominator < 10**4

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(5e-324)
    @example(1e-310)
    @example(2.4)
    @example(1e-300)
    @example(5e-10)
    # The catalog designs, their cultivation variants and each one's band
    # sides, in _perturbed's and cultivation_variant's arithmetic.
    @example(97.5 * (1 + SENSITIVITY_FRACTION))
    @example(97.5 * (1 - SENSITIVITY_FRACTION))
    @example(90.0 * (1 + SENSITIVITY_FRACTION))
    @example(90.0 * (1 - SENSITIVITY_FRACTION))
    @example(97.5 / 5)
    @example(90.0 / 5)
    @example(97.5 / 5 * (1 + SENSITIVITY_FRACTION))
    @example(97.5 / 5 * (1 - SENSITIVITY_FRACTION))
    @example(90.0 / 5 * (1 + SENSITIVITY_FRACTION))
    @example(90.0 / 5 * (1 - SENSITIVITY_FRACTION))
    def test_batch_ratio_is_tau_f(self, tau):
        # provision and _shared_patches read the batch time through
        # batch_ratio, which builds no Fraction unless the snap is needed.
        spec = f1()._replace(tau_f_rounds=tau)
        assert factories.batch_ratio(spec) == (spec.tau_f.numerator, spec.tau_f.denominator)
        assert provision(spec, Fraction(1, 25)).count == math.ceil(spec.tau_f / 25)

    @pytest.mark.parametrize("tau", [1e-300, 5e-10, 1e-12])
    def test_tiny_batch_time_is_not_snapped_to_zero(self, tau):
        spec = f1()._replace(tau_f_rounds=tau)
        assert spec.tau_f == Fraction(tau)
        assert provision(spec, Fraction(1, 25)).count == 1


class TestCultivation:
    def test_scaling(self):
        c = cultivation_variant(f1())
        assert c.q_f == 7820
        assert c.tau_f_rounds == pytest.approx(19.5)
        assert c.n_out == 1

    def test_volume_ratio_25(self):
        spec = f1()
        c = cultivation_variant(spec)
        assert (spec.q_f * spec.tau_f_rounds) / (c.q_f * c.tau_f_rounds) == pytest.approx(25)

    def test_infidelity_unchanged(self):
        assert cultivation_variant(f2()).out_infidelity == f2().out_infidelity

    def test_not_idempotent(self):
        twice = cultivation_variant(cultivation_variant(f1()))
        assert twice.q_f == math.ceil(math.ceil(39100 / 5) / 5)


class TestTBudget:
    def test_boundary_pass(self):
        result = t_budget_check(1.5e12, f1())
        assert result.passed
        assert result.accumulated_error == pytest.approx(0.0495)

    def test_zero_gates(self):
        result = t_budget_check(0, f1())
        assert result.passed
        assert result.headroom == result.budget

    def test_fail(self):
        result = t_budget_check(2e13, f1())
        assert not result.passed
        assert result.accumulated_error == pytest.approx(0.66)

    def test_required_infidelity_reported(self):
        result = t_budget_check(1e12, f1())
        assert result.required_infidelity == pytest.approx(5e-14)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(q_f=0),
            dict(tau_f_rounds=0),
            dict(n_out=0),
            dict(out_infidelity=0.0),
            dict(out_infidelity=1.0),
            dict(valid_p=-5.0),
            dict(valid_p=1.0),
        ],
    )
    def test_invalid_fields(self, kw):
        base = dict(
            name="x", q_f=10, tau_f_rounds=5.0, n_out=1, out_infidelity=1e-9, valid_p=1e-3
        )
        base.update(kw)
        with pytest.raises(ValueError):
            FactorySpec(**base)

    def test_catalog_has_two_entries(self):
        assert len(builtin_catalog()) >= 2
