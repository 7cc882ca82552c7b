"""Simplified space/time cost equations for lattice-surgery circuits.

Covers Clifford-only circuits, general circuits fed by a magic-state
factory fleet, the Pauli-based-computation (PBC) slowdown ratio, and the
reaction-limited (time-optimal) batching plan, each run timed by qec.run_cost.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import checked
from .errors import UndefinedRatioError
from .factories import FactoryFleet
from .qec import (
    CNOT_TIMESTEPS,
    PhysicalAssumptions,
    fast_block_routing,
    patch_physical_qubits,
    require_valid_distance,
    run_cost,
)


def ratio_routing(k: float, q_data: int) -> float:
    """Routing preset charging a fixed k routing patches per data patch."""
    return k * q_data


@checked
class CircuitProfile(NamedTuple):
    """Abstract summary of a logical circuit for the cost equations."""

    q_data: int
    n_clifford: float
    n_non_clifford: float
    p_clifford: float
    p_non_clifford: float
    m_layers: int = 1
    k_storage: float = 0.0
    routing: float | None = None

    def _new(cls, q_data, n_clifford, n_non_clifford, p_clifford, p_non_clifford,
             m_layers, k_storage, routing):
        self = tuple.__new__(cls, (q_data, n_clifford, n_non_clifford, p_clifford,
                                   p_non_clifford, m_layers, k_storage, routing))
        for name in ("q_data", "p_clifford", "p_non_clifford", "m_layers"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("n_clifford", "n_non_clifford", "k_storage"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if routing is not None and not routing >= 0:
            raise ValueError("routing must be nonnegative")
        return self

    def routing_patches(self) -> float:
        if self.routing is None:
            return fast_block_routing(self.q_data)
        return self.routing


class CostBreakdown(NamedTuple):
    space_physical: float
    space_by_role: dict[str, float]
    time_seconds: float
    gate_time_seconds: float
    magic_time_seconds: float
    bottleneck: str
    volume_patch_rounds: float


def _cost(
    profile: CircuitProfile,
    fleet: FactoryFleet | None,
    d: int,
    assume: PhysicalAssumptions,
) -> CostBreakdown:
    """The general_cost equations; ``fleet`` None drops every non-Clifford term."""
    q = patch_physical_qubits(d)
    r = profile.routing_patches()
    extra = 2 * (profile.m_layers - 1) * profile.p_clifford
    depth = CNOT_TIMESTEPS * profile.n_clifford / (profile.m_layers * profile.p_clifford)
    reactions = supply = magic_time = 0.0
    factory_qubits = 0
    if fleet is not None:
        tau_c_over_tau_r = CNOT_TIMESTEPS * d * assume.t_se / assume.tau_r
        extra = max(extra, profile.k_storage * tau_c_over_tau_r * profile.p_non_clifford)
        reactions = profile.n_non_clifford / profile.p_non_clifford
        depth += 0.0 if profile.k_storage else 2 * CNOT_TIMESTEPS * reactions
        magic_time = fleet.supply_time(profile.n_non_clifford, assume.t_se)
        supply = fleet.supply_time(profile.n_non_clifford, 1.0)
        factory_qubits = fleet.physical_qubits
    patches = profile.q_data + r + extra
    run = patches, depth, d, reactions, assume.t_se, assume.tau_r
    volume, time, bottleneck = run_cost(*run, supply)
    return CostBreakdown(
        space_physical=q * patches + factory_qubits,
        space_by_role={
            "data": q * profile.q_data,
            "routing": q * r,
            "teleport": q * extra,
            "factories": float(factory_qubits),
        },
        time_seconds=time,
        gate_time_seconds=run_cost(*run)[1],
        magic_time_seconds=magic_time,
        bottleneck=bottleneck,
        volume_patch_rounds=volume,
    )


def clifford_cost(
    profile: CircuitProfile,
    d: int,
    assume: PhysicalAssumptions,
) -> CostBreakdown:
    """Space and time for a Clifford-only circuit.

    S = q(d) * [Q + R + 2(M-1) P_c]; T = (N_c / (M P_c)) * tau_c(d).
    """
    if profile.n_non_clifford != 0:
        raise ValueError("clifford_cost requires n_non_clifford == 0; use general_cost")
    return _cost(profile, None, d, assume)


def general_cost(
    profile: CircuitProfile,
    fleet: FactoryFleet,
    d: int,
    assume: PhysicalAssumptions,
) -> CostBreakdown:
    """Space and time for a circuit with non-Clifford gates.

    S = q(d) * [Q + R + max(2(M-1) P_c, k (tau_c/tau_r) P_nc)] + fleet qubits
    T = max(N_c tau_c / (M P_c) + N_nc tau_nc / P_nc, fleet.supply_time(N_nc))

    tau_c is 2 timesteps of d SE rounds; tau_nc is tau_r if reaction-limited
    (k > 0), else 2 tau_c + tau_r. T, the bottleneck and the volume are one
    qec.run_cost call, with N_nc / P_nc reaction delays and the fleet's supply
    rounds; the gate time is its seconds with no supply. Without non-Cliffords
    this is clifford_cost, and the fleet is neither checked nor counted.
    """
    return _cost(profile, None if profile.n_non_clifford == 0 else fleet, d, assume)


def pbc_ratio(
    profile: CircuitProfile,
    d: int,
    assume: PhysicalAssumptions,
) -> float:
    """Run-time ratio T_PBC / T of compiling the circuit to serial PBC.

    ratio = P_nc / (1 + C*), C* = (N_c tau_c / P_c) / (N_nc tau_nc / P_nc), each
    arm timed by qec.run_cost. Above 1, PBC is slower than Clifford+T execution.
    """
    if profile.n_non_clifford == 0:
        raise UndefinedRatioError("PBC ratio is undefined without non-Clifford gates")
    if profile.m_layers != 1 or profile.k_storage != 0:
        raise ValueError("pbc_ratio assumes M=1 and k=0")
    require_valid_distance(d)
    clocks = assume.t_se, assume.tau_r
    reactions = profile.n_non_clifford / profile.p_non_clifford
    clifford_depth = CNOT_TIMESTEPS * profile.n_clifford / profile.p_clifford
    c_star = run_cost(0.0, clifford_depth, d, 0.0, *clocks)[1] / (
        run_cost(0.0, 2 * CNOT_TIMESTEPS * reactions, d, reactions, *clocks)[1]
    )
    return profile.p_non_clifford / (1 + c_star)


class ReactionPlan(NamedTuple):
    """Batched teleportation plan running at one reaction time per gate."""

    t_prep_seconds: float
    tau_r_seconds: float
    n_gates: int
    g_opt: int
    time_seconds: float
    logical_qubits: int


def reaction_limited_plan(
    t_prep: float, tau_r: float, n_gates: int, modules_qubits: int = 4
) -> ReactionPlan:
    """Time-optimal batching of teleported non-Clifford gates.

    Batches of G_opt = ceil(T_prep / tau_r) pre-built modules keep the
    pipeline limited by module preparation: total time
    ceil(n / G_opt) * T_prep, at modules_qubits logical qubits per module.
    """
    for name, value in (("t_prep", t_prep), ("tau_r", tau_r), ("n_gates", n_gates)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be {'finite' if value == math.inf else 'positive'}")
    if t_prep / tau_r == math.inf:
        raise ValueError("tau_r must be large enough that t_prep / tau_r is finite")
    g_opt = max(1, math.ceil(t_prep / tau_r))
    time = math.ceil(n_gates / g_opt) * t_prep
    return ReactionPlan(
        t_prep_seconds=t_prep, tau_r_seconds=tau_r, n_gates=n_gates, g_opt=g_opt,
        time_seconds=time, logical_qubits=g_opt * modules_qubits,
    )


def sequential_baseline(
    n_gates: int, d: int, assume: PhysicalAssumptions
) -> tuple[float, int]:
    """Serial lattice-surgery execution of n teleported gates.

    Each gate costs 1.5 d SE rounds of surgery plus one reaction delay and
    runs on 2 logical qubits (the data patch and one magic-state patch).
    """
    if not 0 < n_gates < math.inf:
        raise ValueError(f"n_gates must be {'finite' if n_gates == math.inf else 'positive'}")
    require_valid_distance(d)
    return run_cost(2, 1.5 * n_gates, d, n_gates, assume.t_se, assume.tau_r)[1], 2
