"""Surface-code logical error model, distance selection, and logical timing.

The physical layer is abstracted to two clocks: the syndrome-extraction (SE)
round and the reaction time (measure, decode, conditionally act). A logical
timestep is ``d`` SE rounds, where ``d`` is the code distance.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import checked
from .errors import BudgetInfeasibleError, InvalidDistanceError

DEFAULT_QEC_BUDGET = 0.05
DEFAULT_MAX_DISTANCE = 99


@checked
class PhysicalAssumptions(NamedTuple):
    """Hardware-level parameters of the surface-code layer.

    Attributes:
        p: physical error probability per operation.
        p_star: surface-code threshold error rate.
        prefactor_a: prefactor of the logical error-rate law.
        t_se: duration of one syndrome-extraction round, in seconds.
        tau_r: reaction time (measure, decode, conditionally act), in seconds.
    """

    p: float
    p_star: float = 0.01
    prefactor_a: float = 0.1
    t_se: float = 1e-6
    tau_r: float = 1e-6

    def _new(cls, p, p_star, prefactor_a, t_se, tau_r):
        if not (0.0 < p_star <= 1.0):
            raise ValueError(f"p_star must lie in (0, 1], got {p_star}")
        if not (0.0 < p < p_star):
            raise ValueError(f"p must lie in (0, p_star), got p={p}, p_star={p_star}")
        if not prefactor_a > 0:
            raise ValueError("prefactor_a must be positive")
        if not t_se > 0:
            raise ValueError("t_se must be positive")
        if not tau_r > 0:
            raise ValueError("tau_r must be positive")
        if not math.isfinite(tau_r / t_se):
            raise ValueError("t_se must be large enough that tau_r / t_se is finite")
        return tuple.__new__(cls, (p, p_star, prefactor_a, t_se, tau_r))


CNOT_TIMESTEPS = 2
"""Logical timesteps (d SE rounds each) of a CNOT, the Clifford gate time tau_c."""

GATE_LIMITED = "gate-limited"
MAGIC_LIMITED = "magic-limited"
"""Bottleneck labels: the gate schedule, or the magic-state supply, sets the time."""


def run_time(gate: float, supply: float) -> tuple[float, str]:
    """The span of a run, the longer of its gate schedule's and its magic-state
    supply's times (in one unit), and the label of the clock that sets it. A
    supply that keeps pace to a relative 1e-12, float noise, is no bottleneck."""
    if supply > gate * (1 + 1e-12):
        return supply, MAGIC_LIMITED
    return gate, GATE_LIMITED


def run_cost(
    patches: float, depth: float, d: int, reactions: float, t_se: float, tau_r: float,
    supply: float = 0.0,
) -> tuple[float, float, str]:
    """A run's patch-rounds, seconds and bottleneck: ``patches`` protected
    patches over ``depth`` timesteps of d SE rounds of t_se each and
    ``reactions`` reaction delays of tau_r each, against a magic-state supply
    taking ``supply`` SE rounds, the span being run_time's. Syndrome extraction
    runs through each reaction delay, so the volume counts it as tau_r / t_se
    SE rounds."""
    seconds, bottleneck = run_time(depth * d * t_se + reactions * tau_r, supply * t_se)
    rounds = run_time(depth * d + reactions * (tau_r / t_se), supply)[0]
    return patches * rounds, seconds, bottleneck


def require_valid_distance(d: int) -> None:
    # Written so that NaN, infinities and non-integers fail it too.
    if not (isinstance(d, int) and d >= 3 and d % 2 == 1):
        raise InvalidDistanceError(f"code distance must be an odd integer >= 3, got {d!r}")


def logical_error_rate(assume: PhysicalAssumptions, d: int) -> float:
    """Logical error probability per patch per SE round at distance ``d``.

    Follows the standard suppression law A * (p / p*)^((d+1)/2); strictly
    decreasing in ``d`` whenever p < p*, and its float value never rises
    with ``d``.
    """
    require_valid_distance(d)
    return _suppression(assume.prefactor_a, assume.p / assume.p_star, d)


def _suppression(prefactor_a: float, ratio: float, d: int) -> float:
    """A * (p / p*)^((d+1)/2) for an already valid d, ``ratio`` being p / p*."""
    return prefactor_a * ratio ** ((d + 1) / 2)


def patch_physical_qubits(d: int) -> int:
    """Physical qubits per logical patch (data plus syndrome qubits): 2d^2."""
    require_valid_distance(d)
    return 2 * d * d


def fast_block_patches(q_data: int) -> int:
    """Total protected patches (data + routing) of the fast-block layout."""
    return 2 * q_data + math.isqrt(8 * q_data) + 1


def fast_block_routing(q_data: int) -> int:
    """Routing patches of the fast-block layout: the Q + sqrt(8Q) + 1 patches
    beyond its Q data patches."""
    return fast_block_patches(q_data) - q_data


def choose_distance(
    assume: PhysicalAssumptions,
    volume_at: Callable[[int], float],
    budget_e: float = DEFAULT_QEC_BUDGET,
    d_max: int = DEFAULT_MAX_DISTANCE,
    floor_at: Callable[[int], float] | None = None,
) -> int:
    """Smallest odd distance whose expected logical-failure count fits the budget.

    Accepts the first odd d >= 3 with volume_at(d) * p_L(d) <= budget_e.
    ``volume_at(d)`` is the volume at d in patch-rounds, with any reaction
    delays already folded in as SE rounds, as in run_cost's patch-rounds; it
    may itself depend on d (depth in timesteps scales with d, routing terms
    may shrink with d). Terminates because p_L decays geometrically while the
    volume grows polynomially.

    ``floor_at(d)``, patch-rounds that no volume at d or beyond falls below,
    skips candidates with the same result: where floor_at(d) * p_L(d) >
    budget_e, the scan bisects to the first odd d' where that floor fits and
    reads the floor there. A skip is exact because no skipped volume is under
    that floor and the float p_L never rises with d. A floor of 0 or NaN, or
    none, skips nothing.

    A search reads A and p / p* once and tests each candidate with the float
    operations of logical_error_rate, so its result is that of testing
    volume_at(d) * logical_error_rate(assume, d) <= budget_e.

    Raises:
        BudgetInfeasibleError: if no d <= d_max satisfies the bound.
    """
    if not (0.0 < budget_e < 1.0):
        raise ValueError("budget_e must lie in (0, 1)")
    a, ratio = assume.prefactor_a, assume.p / assume.p_star
    d = 3
    while d <= d_max:
        p_l, floor = _suppression(a, ratio, d), floor_at(d) if floor_at else 0.0
        if floor * p_l > budget_e:
            lo, hi = 1, (d_max - d) // 2 + 1  # odd steps from d; hi is past d_max
            while lo < hi:
                mid = (lo + hi) // 2
                if floor * _suppression(a, ratio, d + 2 * mid) <= budget_e:
                    hi = mid
                else:
                    lo = mid + 1
            d += 2 * lo
        elif volume_at(d) * p_l <= budget_e:
            return d
        else:
            d += 2
    raise BudgetInfeasibleError(
        f"no odd distance <= {d_max} meets failure budget {budget_e}"
    )
