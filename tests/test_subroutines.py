import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqcost import subroutines
from ftqcost.subroutines import (
    ShuttleParams,
    SubroutineCost,
    SymbolicCost,
    adder_cost,
    qroam_cost,
    qroam_optimal,
    qrom_cost,
    shuttle_time,
    synthesis_sigma,
)


class TestAdders:
    def test_ripple_cuccaro_64(self):
        cost = adder_cost("ripple_cuccaro", 64)
        assert (cost.count, cost.reaction_depth, cost.clean_ancillas) == (128, 128, 1)

    def test_ripple_takahashi_has_no_ancilla(self):
        cost = adder_cost("ripple_takahashi", 64)
        assert (cost.count, cost.clean_ancillas) == (128, 0)

    def test_ripple_gidney_halves_count(self):
        cost = adder_cost("ripple_gidney", 64)
        assert (cost.count, cost.reaction_depth, cost.clean_ancillas) == (64, 128, 64)

    def test_carry_lookahead_64(self):
        cost = adder_cost("carry_lookahead", 64)
        assert (cost.count, cost.reaction_depth, cost.clean_ancillas) == (448, 24, 128)

    def test_block_lookahead_formula(self):
        n, b = 64, 8
        cost = adder_cost("block_lookahead", n, b=b)
        assert cost.count == 5 * n - 4 * b + 8 * n / b
        assert cost.reaction_depth == 6 * b + 4 * math.log2(n / b)
        assert cost.clean_ancillas == 2 * n + 3 * n / b

    def test_block_lookahead_degenerate_b_equals_n(self):
        n = 32
        cost = adder_cost("block_lookahead", n, b=n)
        assert cost.count == 5 * n - 4 * n + 8
        assert cost.reaction_depth == 6 * n

    def test_cond_clean_is_symbolic(self):
        cost = adder_cost("cond_clean", 64)
        assert isinstance(cost, SymbolicCost)
        assert cost.count_class == "O(n log n)"
        assert cost.depth_class == "O(log^2 n)"

    def test_runway_formula(self):
        n, r, eps = 128, 4, 1e-3
        cost = adder_cost("runway", n, r=r, eps=eps)
        term = math.log2(r**2 / eps**4)
        assert cost.count == pytest.approx(2 * n + r * term)
        assert cost.reaction_depth == pytest.approx(2 * n / (r + 1) + term)
        assert cost.clean_ancillas == pytest.approx(r * math.log2(r / eps**2))

    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("block_lookahead", dict(b=0)),
            ("block_lookahead", dict(b=100)),
            ("runway", dict(r=0, eps=0.1)),
            ("runway", dict(r=2, eps=0.0)),
            ("nonsense", dict()),
        ],
    )
    def test_domain_errors(self, method, kwargs):
        with pytest.raises(ValueError):
            adder_cost(method, 64, **kwargs)

    def test_nan_width_rejected(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            adder_cost("ripple_cuccaro", math.nan)

    @given(st.integers(min_value=8, max_value=4096))
    def test_lookahead_trades_depth_for_count(self, n):
        ripple = adder_cost("ripple_cuccaro", n)
        lookahead = adder_cost("carry_lookahead", n)
        assert lookahead.reaction_depth < ripple.reaction_depth
        assert lookahead.count > ripple.count


class TestQrom:
    def test_single_entry(self):
        cost = qrom_cost(1)
        assert cost.count == 0

    def test_1024(self):
        cost = qrom_cost(1024)
        assert (cost.count, cost.clean_ancillas) == (1023, 10)

    def test_t_equivalent(self):
        assert qrom_cost(1024).t_count == 4 * 1024 - 4

    def test_nan_size_rejected(self):
        with pytest.raises(ValueError, match="^n_entries must be at least 1$"):
            qrom_cost(math.nan)


class TestQroam:
    def test_lambda_one(self):
        cost = qroam_cost(512, 16, 1)
        assert cost.count == 8 * 512 + 32 * 16

    def test_1024_by_8(self):
        lam, cost = qroam_optimal(1024, 8)
        assert lam == 6
        assert cost.count == 2904

    def test_closed_form_neighborhood(self):
        # Continuous optimum sqrt(N/4b) = sqrt(32) ~ 5.66 sits beside lam = 6.
        assert abs(math.sqrt(1024 / 32) - 6) < 1

    def test_ancilla_split(self):
        cost = qroam_cost(1024, 8, 6)
        assert cost.clean_ancillas == 8
        assert cost.dirty_ancillas == 48

    @given(
        st.integers(min_value=1, max_value=2048),
        st.sampled_from([1, 4, 8, 32]),
    )
    @settings(deadline=None)
    def test_optimal_beats_every_lambda(self, n, b):
        _, best = qroam_optimal(n, b)
        for lam in range(1, n + 1):
            assert best.count <= qroam_cost(n, b, lam).count

    @given(st.integers(min_value=1, max_value=2**12), st.integers(min_value=1, max_value=64))
    @settings(deadline=None)
    def test_optimal_is_smallest_minimizing_lambda(self, n, b):
        counts = [8 * -(-n // lam) + 32 * b * lam for lam in range(1, n + 1)]
        lam, cost = qroam_optimal(n, b)
        assert (lam, cost.count) == (counts.index(min(counts)) + 1, min(counts))

    def test_count_exact_past_2_53(self):
        count = qroam_cost(2**60 + 1, 1, 2).count
        assert type(count) is int
        assert count == 8 * (2**59 + 1) + 64

    def test_optimal_count_exact_past_2_53(self):
        n = 2**60 + 1
        lam, cost = qroam_optimal(n, 1)
        assert cost.count == 8 * -(-n // lam) + 32 * lam

    def test_one_record_per_lookup(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return SubroutineCost(*args)

        monkeypatch.setattr(subroutines, "SubroutineCost", counted)
        qroam_optimal(4096, 8)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "lookup, args, name",
        [
            (qroam_cost, (math.nan, 1, 1), "n_entries"),
            (qroam_cost, (8, math.nan, 1), "b_bits"),
            (qroam_optimal, (math.nan, 1), "n_entries"),
            (qroam_optimal, (8, math.nan), "b_bits"),
        ],
    )
    def test_nan_argument_rejected(self, lookup, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
            lookup(*args)

    def test_vs_qrom_at_lambda_one(self):
        n, b = 4096, 8
        serial = qroam_cost(n, b, 1).count
        assert serial == 8 * n + 32 * b
        assert qrom_cost(n).t_count == 4 * n - 4
        assert serial / qrom_cost(n).t_count < 3

    def test_large_n_local_search(self):
        n, b = 2**22, 8
        lam, cost = qroam_optimal(n, b)
        seed = math.sqrt(n / (4 * b))
        assert abs(lam - seed) <= 3
        assert cost.count <= 1.5 * 32 * math.sqrt(n * b)


class TestSynthesis:
    @pytest.mark.parametrize("eps,expected", [(1.0, 9), (1e-10, 28), (1e-15, 38)])
    def test_values(self, eps, expected):
        assert synthesis_sigma(eps) == expected

    @given(st.floats(min_value=1e-30, max_value=1.0))
    def test_nonincreasing(self, eps):
        assert synthesis_sigma(eps) >= synthesis_sigma(min(1.0, eps * 10))

    def test_domain(self):
        with pytest.raises(ValueError):
            synthesis_sigma(0.0)


class TestShuttle:
    def test_one_patch_distance(self):
        params = ShuttleParams()
        t = shuttle_time(params, params.patch_width(20))
        assert t == pytest.approx(0.42e-3, rel=0.02)

    def test_grid_diagonal(self):
        params = ShuttleParams()
        t = shuttle_time(params, params.grid_diagonal(10, 20))
        assert t == pytest.approx(1.57e-3, rel=0.02)

    def test_zero_distance(self):
        assert shuttle_time(ShuttleParams(), 0.0) == 0.0

    def test_nan_distance_rejected(self):
        with pytest.raises(ValueError, match="^distance must be nonnegative$"):
            shuttle_time(ShuttleParams(), math.nan)

    @given(st.floats(min_value=1e-9, max_value=1.0))
    def test_scales_as_sqrt(self, s):
        params = ShuttleParams()
        assert shuttle_time(params, 4 * s) == pytest.approx(2 * shuttle_time(params, s))
