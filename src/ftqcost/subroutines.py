"""Closed-form cost catalog for common subroutines.

Quantum adders, QROM/QROAM table lookups, arbitrary-rotation synthesis,
and neutral-atom shuttle timing. Counts are the asymptotically leading
terms only; lg denotes log base 2 throughout.
"""

from __future__ import annotations

import functools
import math
from typing import Literal, NamedTuple

from . import checked

TOFFOLI = "toffoli"
T_GATE = "t"


@checked
class SubroutineCost(NamedTuple):
    count: float
    count_kind: Literal["toffoli", "t"]
    reaction_depth: float
    clean_ancillas: float
    dirty_ancillas: float = 0.0

    def _new(cls, count, count_kind, reaction_depth, clean_ancillas, dirty_ancillas):
        if not (count >= 0 and reaction_depth >= 0
                and clean_ancillas >= 0 and dirty_ancillas >= 0):
            raise ValueError("all cost fields must be nonnegative")
        return tuple.__new__(cls, (count, count_kind, reaction_depth, clean_ancillas,
                                   dirty_ancillas))

    @property
    def t_count(self) -> float:
        """T-gate equivalent, at 4 T per Toffoli."""
        return 4 * self.count if self.count_kind == TOFFOLI else self.count


class SymbolicCost(NamedTuple):
    """Asymptotic cost class for rows with no published constants."""

    count_class: str
    depth_class: str
    ancilla_class: str


def adder_cost(
    method: str,
    n: int,
    b: int | None = None,
    r: int | None = None,
    eps: float | None = None,
) -> SubroutineCost | SymbolicCost:
    """Leading-term costs of n-bit quantum adders.

    ``b`` is the block size for block_lookahead; ``r`` and ``eps`` are the
    runway count and approximation error for the runway adder.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if method == "ripple_cuccaro":
        return SubroutineCost(2 * n, TOFFOLI, 2 * n, 1)
    if method == "ripple_takahashi":
        return SubroutineCost(2 * n, TOFFOLI, 2 * n, 0)
    if method == "ripple_gidney":
        return SubroutineCost(n, TOFFOLI, 2 * n, n)
    if method == "carry_lookahead":
        return SubroutineCost(7 * n, TOFFOLI, 4 * math.log2(n), 2 * n)
    if method == "block_lookahead":
        if b is None or not (1 <= b <= n):
            raise ValueError("block_lookahead requires block size b in [1, n]")
        return SubroutineCost(
            5 * n - 4 * b + 8 * n / b,
            TOFFOLI,
            6 * b + 4 * math.log2(n / b),
            2 * n + 3 * n / b,
        )
    if method == "cond_clean":
        return SymbolicCost("O(n log n)", "O(log^2 n)", "O(n)")
    if method == "runway":
        if r is None or r < 1 or r > max(1, n):
            raise ValueError("runway requires runway count r in [1, n]")
        if eps is None or not (0 < eps < 1):
            raise ValueError("runway requires eps in (0, 1)")
        term = math.log2(r**2 / eps**4)
        return SubroutineCost(
            2 * n + r * term,
            TOFFOLI,
            2 * n / (r + 1) + term,
            r * math.log2(r / eps**2),
        )
    raise ValueError(f"unknown adder method {method!r}")


def qrom_cost(n_entries: int) -> SubroutineCost:
    """Serial QROM lookup: N-1 Toffolis (4N-4 T), ceil(lg N) clean ancillas."""
    if not n_entries >= 1:
        raise ValueError("n_entries must be at least 1")
    ancillas = math.ceil(math.log2(n_entries)) if n_entries > 1 else 0
    return SubroutineCost(n_entries - 1, TOFFOLI, n_entries - 1, ancillas)


def qroam_cost(n_entries: int, b_bits: int, lam: int) -> SubroutineCost:
    """Blocked QROAM lookup: 8*ceil(N/lam) + 32*b*lam T gates.

    Uses b clean output ancillas plus b*lam dirty work ancillas.
    """
    if not n_entries >= 1:
        raise ValueError("n_entries must be at least 1")
    if not b_bits >= 1:
        raise ValueError("b_bits must be at least 1")
    if not (1 <= lam <= n_entries):
        raise ValueError("blocking factor lam must lie in [1, N]")
    t = _t_count(n_entries, b_bits, lam)
    return SubroutineCost(t, T_GATE, t, b_bits, b_bits * lam)


def _t_count(n_entries: int, b_bits: int, lam: int) -> int:
    """QROAM T count 8*ceil(N/lam) + 32*b*lam, exact in integer arithmetic."""
    return 8 * -(-n_entries // lam) + 32 * b_bits * lam


_BRUTE_FORCE_LIMIT = 2**20


def qroam_optimal(n_entries: int, b_bits: int) -> tuple[int, SubroutineCost]:
    """Integer blocking factor minimizing the QROAM T count.

    Exhaustive over lam in [1, N] for N up to 2^20; above that, a local
    search seeded at the continuous optimum sqrt(N / 4b). Candidates are
    scored by the integer T count, ties go to the smallest lam, and the
    count is exact for any int N.
    """
    if not n_entries >= 1:
        raise ValueError("n_entries must be at least 1")
    if not b_bits >= 1:
        raise ValueError("b_bits must be at least 1")
    if n_entries <= _BRUTE_FORCE_LIMIT:
        candidates = range(1, n_entries + 1)
    else:
        seed = math.sqrt(n_entries / (4 * b_bits))
        lo = max(1, math.floor(seed) - 2)
        hi = min(n_entries, math.ceil(seed) + 2)
        candidates = range(lo, hi + 1)
    best_lam = min(candidates, key=functools.partial(_t_count, n_entries, b_bits))
    return best_lam, qroam_cost(n_entries, b_bits, best_lam)


def synthesis_sigma(eps_s: float) -> int:
    """T count to synthesize one arbitrary rotation to error eps_s."""
    if not (0 < eps_s <= 1):
        raise ValueError("eps_s must lie in (0, 1]")
    return math.ceil(0.57 * math.log2(1 / eps_s) + 8.83)


@checked
class ShuttleParams(NamedTuple):
    acceleration: float = 5500.0
    site_separation: float = 12e-6

    def _new(cls, acceleration, site_separation):
        if not (acceleration > 0 and site_separation > 0):
            raise ValueError("acceleration and site_separation must be positive")
        return tuple.__new__(cls, (acceleration, site_separation))

    def patch_width(self, d: int) -> float:
        """Physical width of one distance-d patch, in meters.

        Width = d sites; inferred geometry needed to place the low end of
        the shuttle-time range at one patch width.
        """
        return d * self.site_separation

    def grid_diagonal(self, patches_per_side: int, d: int) -> float:
        """Diagonal of a square grid of distance-d patches, in meters."""
        return math.sqrt(2) * patches_per_side * self.patch_width(d)


def shuttle_time(params: ShuttleParams, distance: float) -> float:
    """Atom shuttle time over ``distance`` meters.

    Constant acceleration for the first half and deceleration for the
    second gives t = 2 sqrt(s / a).
    """
    if not distance >= 0:
        raise ValueError("distance must be nonnegative")
    return 2 * math.sqrt(distance / params.acceleration)
