"""Fermi-Hubbard compilation schemes.

Trotter step-count bound, the three plaquette-Trotter (PLAQ) layouts
(serial, row-parallel, fully parallel), and the QSP/qubitization route via
PREPARE/SELECT/SWAPUP*. Each scheme is one Scheme record in REGISTRY: its
rotation load, its own CompilationSummary fields at a given sigma, its
factory fleet and protected patches at distance d, and its report flags.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Literal, NamedTuple

from . import checked
from .errors import CompileError
from .factories import DEFAULT_T_GATE_BUDGET, FactoryFleet, FactorySpec, batch_ratio, provision
from .qec import (
    DEFAULT_QEC_BUDGET, fast_block_routing, patch_physical_qubits, require_valid_distance,
)
from .subroutines import T_GATE, SubroutineCost, synthesis_sigma

if TYPE_CHECKING:
    from .config import RunConfig

LogBase = Literal["natural", "base2"]

DEFAULT_LOG_BASE: LogBase = "natural"
"""Logarithm convention of the QSP query bound."""

DEFAULT_F_R = 0.5
"""Fraction of time the fully-parallel scheme's factory area doubles as routing."""

ALGORITHM_BUDGET_SHARE = 0.99
"""Share of the total error budget given to the algorithmic (Trotter/QSP) error."""


@checked
class FHInstance(NamedTuple):
    """A square-lattice Fermi-Hubbard time-evolution problem."""

    l_side: int
    t_hop: float
    u_onsite: float
    t_evol: float
    eps_total: float

    def _new(cls, l_side, t_hop, u_onsite, t_evol, eps_total):
        if l_side < 2 or l_side % 2:
            raise ValueError("l_side must be an even integer >= 2")
        if not t_hop > 0:
            raise ValueError("t_hop must be positive")
        if not u_onsite >= 0:
            raise ValueError("u_onsite must be nonnegative")
        if not t_evol > 0:
            raise ValueError("t_evol must be positive")
        if not (0 < eps_total < 1):
            raise ValueError("eps_total must lie in (0, 1)")
        return tuple.__new__(cls, (l_side, t_hop, u_onsite, t_evol, eps_total))

    @property
    def n_modes(self) -> int:
        """Fermionic modes: two spins per site."""
        return 2 * self.l_side**2


class ErrorBudget(NamedTuple):
    """How the total error budget is split across error sources."""

    eps_total: float
    eps_algorithm: float
    eps_synthesis: float
    eps_s_per_rotation: float
    e_qec: float = DEFAULT_QEC_BUDGET
    t_gate_budget: float = DEFAULT_T_GATE_BUDGET


def allocate_budget(eps_total: float, rotation_count: float) -> ErrorBudget:
    """99%/1% split between algorithmic and synthesis error."""
    if not (0 < eps_total < 1):
        raise ValueError("eps_total must lie in (0, 1)")
    if rotation_count <= 0:
        raise ValueError("rotation_count must be positive")
    eps_alg = ALGORITHM_BUDGET_SHARE * eps_total
    eps_syn = eps_total - eps_alg
    eps_s = eps_syn / rotation_count
    if eps_s == 0:
        raise FloatingPointError("the per-rotation synthesis budget underflows to 0")
    return ErrorBudget(
        eps_total=eps_total, eps_algorithm=eps_alg, eps_synthesis=eps_syn, eps_s_per_rotation=eps_s,
    )


def trotter_kappa(u_over_t: float) -> float:
    """Commutator-norm constant of the second-order plaquette Trotter bound."""
    if u_over_t < 0:
        raise ValueError("u_over_t must be nonnegative")
    x = u_over_t
    return (1.5 * x**2 + 2 * x * (2 * math.sqrt(5) + 16) + 10) / 24


def trotter_steps(inst: FHInstance, eps_trotter: float) -> int:
    """Second-order Trotter step count meeting error eps_trotter."""
    if not (0 < eps_trotter < 1):
        raise ValueError("eps_trotter must lie in (0, 1)")
    kappa = trotter_kappa(inst.u_onsite / inst.t_hop)
    tau = inst.t_evol * inst.t_hop
    return math.ceil(math.sqrt(kappa) * inst.l_side * tau**1.5 / math.sqrt(eps_trotter))


def qsp_alpha(inst: FHInstance) -> float:
    """Block-encoding normalization: (2t + U/8) per mode."""
    return (2 * inst.t_hop + 0.125 * inst.u_onsite) * inst.n_modes


def qsp_queries(
    alpha: float, t_evol: float, eps_qsp: float, log_base: LogBase = DEFAULT_LOG_BASE
) -> float:
    """Queries to the block encoding for time t_evol and error eps_qsp."""
    if alpha <= 0 or t_evol <= 0:
        raise ValueError("alpha and t_evol must be positive")
    if not (0 < eps_qsp < 1):
        raise ValueError("eps_qsp must lie in (0, 1)")
    at = alpha * t_evol
    log = math.log2(1 / eps_qsp) if log_base == "base2" else math.log(1 / eps_qsp)
    return 2 * (at + (3 ** (2 / 3) / 2) * at ** (1 / 3) * log ** (2 / 3))


def swapup_cost(n: int) -> SubroutineCost:
    """Log-depth controlled-swap network: 4(N-1) T at T-depth 4*ceil(lg N)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return SubroutineCost(4 * (n - 1), T_GATE, 4 * math.ceil(math.log2(n)), 0)


def select_cost(n: int) -> SubroutineCost:
    """SELECT oracle: 8 SWAPUP* calls plus controlled-rotation layers.

    T count 8 * 4(N-1) + 8N = 40N - 32.
    """
    swap = swapup_cost(n)
    return SubroutineCost(
        8 * swap.count + 8 * n,
        T_GATE,
        8 * swap.reaction_depth + 4,
        swap.clean_ancillas,
    )


def prepare_cost(l_side: int, sigma: int) -> SubroutineCost:
    """State preparation for the block encoding, executed sequentially."""
    if l_side < 2:
        raise ValueError("l_side must be at least 2")
    n = 2 * l_side**2
    lg_n = math.ceil(math.log2(n))
    lg_l = math.ceil(math.log2(l_side))
    t = 16 * lg_n + 4 * (lg_l**2 + 7 * lg_l) + 6 * sigma
    return SubroutineCost(t, T_GATE, t, 0)


@checked
class CompilationSummary(NamedTuple):
    """Logical-level output of one compilation scheme.

    consumption_rate is the magic-state provisioning rate in states per d
    SE rounds (i.e. per logical timestep).
    """

    scheme: str
    l_side: int
    data_patches: int
    routing_patches: int
    aux_patches: int
    timestep_depth: float
    reaction_depth: float
    t_count_total: float
    peak_parallel_t: float
    consumption_rate: float
    rotation_count: float
    sigma: int

    def _new(cls, scheme, l_side, data_patches, routing_patches, aux_patches, timestep_depth,
             reaction_depth, t_count_total, peak_parallel_t, consumption_rate,
             rotation_count, sigma):
        if scheme not in REGISTRY:
            raise ValueError(f"unknown scheme {scheme!r}")
        if t_count_total < peak_parallel_t:
            raise ValueError("t_count_total must be at least peak_parallel_t")
        return tuple.__new__(cls, (scheme, l_side, data_patches, routing_patches, aux_patches,
                                   timestep_depth, reaction_depth, t_count_total,
                                   peak_parallel_t, consumption_rate, rotation_count, sigma))


class SchemeLayout(NamedTuple):
    """Distance-dependent physical layout of one compiled scheme."""

    protected_patches: float
    fleet: FactoryFleet | None


Load = tuple[float, float]
"""Trotter steps (or QSP queries), and the rotations they synthesize."""


def _base_patches(summary: CompilationSummary, *_: object) -> int:
    return summary.data_patches + summary.routing_patches + summary.aux_patches


class Scheme(NamedTuple):
    """A compilation scheme: its rotation load at the algorithmic budget, computed
    once before sigma is chosen; its own summary fields at sigma, given the load's
    steps or queries (both get the resolved HWP register m); its fleet and, all the
    distance search reads, its protected patches at distance d; the knobs the
    report echoes from the resolved run config; and, for the search's floor, a
    patch count at f_r that no distance's patches fall below."""

    load: Callable[[FHInstance, float, int, LogBase], Load]
    compile: Callable[[FHInstance, int, float, int], dict[str, float]]
    fleet: Callable[[CompilationSummary, FactorySpec, int], FactoryFleet]
    patches: Callable[[CompilationSummary, FactorySpec, int, float], float] = _base_patches
    report_flags: Callable[[RunConfig], dict[str, Any]] = lambda _: {}
    floor: Callable[[CompilationSummary, float], float] = _base_patches


def _hwp_m(inst: FHInstance, m: int | None) -> int:
    """The HWP register size: ``m``, or L^2 when it is not given."""
    return inst.l_side**2 if m is None else m


def _serial_load(inst: FHInstance, eps_alg: float, m: int, log_base: LogBase) -> Load:
    r = trotter_steps(inst, eps_alg)
    return r, r * 4 * (inst.l_side**2 / m) * math.log2(m)


def _plaquette_load(inst: FHInstance, eps_alg: float, m: int, log_base: LogBase) -> Load:
    r = trotter_steps(inst, eps_alg)
    return r, r * 4 * inst.l_side**2


def _qsp_load(inst: FHInstance, eps_alg: float, m: int, log_base: LogBase) -> Load:
    queries = qsp_queries(qsp_alpha(inst), inst.t_evol, eps_alg, log_base)
    # 6 rotations per PREPARE, two PREPAREs per query, one phase rotation.
    return queries, queries * 13


def _serial(inst: FHInstance, sigma: int, r: float, m: int) -> dict[str, float]:
    """Serial PLAQ compilation with Hamming-weight phasing on m ancillas.

    One pi/8 rotation per logical timestep in a fast-block layout.
    """
    l2 = inst.l_side**2
    per_step_t = 4 * l2 * (7 + math.log2(m) * sigma / m)
    total_t = r * per_step_t
    # One Hamming-weight register of m ancillas per spin sector.
    return dict(
        data_patches=2 * l2,
        routing_patches=fast_block_routing(2 * l2 + 2 * m),
        aux_patches=2 * m,
        timestep_depth=total_t,
        reaction_depth=total_t,
        t_count_total=total_t,
        peak_parallel_t=1,
        consumption_rate=1.0,
    )


def _row_parallel(inst: FHInstance, sigma: int, r: float, m: int) -> dict[str, float]:
    """Row-parallel PLAQ: depth L(2 sigma + 82) per Trotter step.

    Consumes 2L magic states per d rounds; 3 routing patches per data patch.
    """
    l = inst.l_side
    per_step_t = l**2 * (12 + 4 * sigma)
    return dict(
        data_patches=2 * l**2,
        routing_patches=6 * l**2,
        aux_patches=0,
        timestep_depth=r * l * (2 * sigma + 82),
        reaction_depth=r * l * (12 + 2 * sigma),
        t_count_total=r * per_step_t,
        peak_parallel_t=2 * l,
        consumption_rate=2 * l,
    )


def _full_parallel_step(sigma: int) -> tuple[int, int]:
    """Timesteps of one fully parallel Trotter step, and magic states per site."""
    return 6 * sigma + 354, 12 + 4 * sigma


def _full_parallel(inst: FHInstance, sigma: int, r: float, m: int) -> dict[str, float]:
    """Fully parallel PLAQ: depth 6 sigma + 354 per Trotter step.

    Local fermion-to-qubit mapping at 1.5 patches per mode (3L^2 data+aux)
    and two factories per four-site unit cell (L^2 factories in total).
    """
    l = inst.l_side
    depth_per_step, states_per_site = _full_parallel_step(sigma)
    per_step_t = l**2 * states_per_site
    return dict(
        data_patches=2 * l**2,
        routing_patches=9 * l**2,
        aux_patches=l**2,
        timestep_depth=r * depth_per_step,
        reaction_depth=r * 6 * (8 + sigma),
        t_count_total=r * per_step_t,
        peak_parallel_t=l**2,
        consumption_rate=per_step_t / depth_per_step,
    )


def _qsp(inst: FHInstance, sigma: int, queries: float, m: int) -> dict[str, float]:
    """QSP/qubitization compilation with the throttled SELECT schedule.

    Per query: one SELECT, two sequential PREPAREs, one phase rotation.
    Throttling caps peak parallel magic-state demand at N/4.
    """
    l = inst.l_side
    n = inst.n_modes
    lg_n = math.ceil(math.log2(n))
    prep = prepare_cost(l, sigma)
    t_per_query = select_cost(n).count + 2 * prep.count + sigma
    depth_per_query = (
        18 * (8 * lg_n + 1)  # throttled SWAPUP* sequences
        + 4 * (2 * lg_n - 1)  # CNOT ladders
        + 20  # controlled-rotation layers
        + 2 * prep.count
        + sigma
    )
    reactions_per_query = 32 * lg_n + 8 + 2 * prep.count + sigma
    aux = 3 * lg_n + 5
    return dict(
        data_patches=n,
        routing_patches=3 * (n + aux),
        aux_patches=aux,
        timestep_depth=queries * depth_per_query,
        reaction_depth=queries * reactions_per_query,
        t_count_total=queries * t_per_query,
        peak_parallel_t=n / 4,
        consumption_rate=n / 12,
    )


def _dedicated_fleet(summary: CompilationSummary, spec: FactorySpec, d: int) -> FactoryFleet:
    return provision(spec, round(summary.consumption_rate), d)


def _unit_cell_fleet(summary: CompilationSummary, spec: FactorySpec, d: int) -> FactoryFleet:
    """Two factories per four-site unit cell: L^2 in total."""
    return FactoryFleet(spec, summary.l_side**2)


def _shared_patches(
    summary: CompilationSummary, spec: FactorySpec, d: int, f_r: float
) -> float:
    """Patches plus the L^2 factories' area, routing for a share f_r of the
    time: ceil(q_f * ceil(tau_f / tau_m) / 2d^2) each, in integers. tau_m,
    the interval between non-Clifford layers, is d rounds times the step's
    timesteps per magic state a site consumes: d (6 sigma + 354)/(12 + 4 sigma)."""
    step, states = _full_parallel_step(summary.sigma)
    if step * states * d <= 0:
        raise ValueError("invalid consumption schedule: tau_m must be positive")
    tau_num, tau_den = batch_ratio(spec)
    batches = -(-tau_num * states // (tau_den * step * d))
    shared = -(-spec.q_f * batches // patch_physical_qubits(d))
    return _base_patches(summary) + f_r * summary.l_side**2 * shared


def _shared_floor(summary: CompilationSummary, f_r: float) -> float:
    """_shared_patches at its least: no factory's ceiling falls below 1."""
    return _base_patches(summary) + f_r * summary.l_side**2


def _factory_blocks(summary: CompilationSummary, spec: FactorySpec, d: int) -> FactoryFleet:
    """Factories per four data patches, each block owed a state every 3d rounds."""
    per_block = provision(spec, 1, 3 * d).count
    return FactoryFleet(spec, math.ceil(summary.data_patches / 4) * per_block)


def _hwp_flags(config: RunConfig) -> dict[str, Any]:
    return {
        "hwp_m": _hwp_m(config.inst, config.options.hwp_m),
        "hwp_m_default_is_L_squared": config.options.hwp_m is None,
    }


def _f_r_flags(config: RunConfig) -> dict[str, Any]:
    return {
        "f_r": config.options.f_r,
        "f_r_inferred": "algorithm.f_r" in config.absent,
        "tau_m_rule": "interval between non-Clifford layers in timesteps, times d rounds",
    }


REGISTRY: dict[str, Scheme] = {
    "plaq_serial": Scheme(_serial_load, _serial, _dedicated_fleet, report_flags=_hwp_flags),
    "plaq_L": Scheme(_plaquette_load, _row_parallel, _dedicated_fleet),
    "plaq_L2": Scheme(
        _plaquette_load, _full_parallel, _unit_cell_fleet, _shared_patches, _f_r_flags,
        _shared_floor,
    ),
    "qsp": Scheme(_qsp_load, _qsp, _factory_blocks),
}
"""Every compilation scheme by name; adding a scheme means adding a record here."""

SCHEMES = tuple(REGISTRY)


def scheme_record(scheme: str) -> Scheme:
    try:
        return REGISTRY[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


def compile_scheme(
    scheme: str, inst: FHInstance, m: int | None = None,
    log_base: LogBase = DEFAULT_LOG_BASE,
) -> tuple[CompilationSummary, ErrorBudget]:
    """Budget allocation, sigma selection, and compilation in one call.

    Settles what every scheme shares before any runs, the HWP register ``m``
    (L^2 when None, at least 2) and the algorithmic budget, and fills in scheme,
    l_side, rotation_count and sigma. A load, synthesis budget or summary that
    leaves the float range or its domain raises CompileError, laid by
    too_extreme to an instance field or ``m``.
    """
    record = scheme_record(scheme)
    hwp_m = _hwp_m(inst, m)
    if not hwp_m >= 2:
        # The Hamming-weight-phasing count formula degenerates at m=1
        # (lg 1 = 0 erases the synthesis term), so m=1 is rejected.
        raise ValueError("HWP ancilla count m must be at least 2")
    eps_alg = ALGORITHM_BUDGET_SHARE * inst.eps_total
    try:
        steps, rotations = record.load(inst, eps_alg, hwp_m, log_base)
        budget = allocate_budget(inst.eps_total, rotations)
        sigma = synthesis_sigma(budget.eps_s_per_rotation)
        summary = CompilationSummary(
            scheme=scheme, l_side=inst.l_side, rotation_count=rotations, sigma=sigma,
            **record.compile(inst, sigma, steps, hwp_m),
        )
    except (ArithmeticError, ValueError) as exc:
        raise too_extreme(instance_inputs(inst, m), f"compile {scheme}", exc) from exc
    return summary, budget


def instance_inputs(inst: FHInstance, m: int | None) -> dict[str, float]:
    """The instance's fields, and ``m`` as ``hwp_m`` when given, by name."""
    return inst._asdict() if m is None else {**inst._asdict(), "hwp_m": m}


def too_extreme(inputs: dict[str, float], action: str, exc: Exception) -> CompileError:
    """A CompileError for ``exc``, laid to the input farthest from 1 in magnitude."""
    field = max(inputs, key=lambda name: abs(math.log(inputs[name] or 1)))
    return CompileError(f"{field} = {inputs[field]!r} is too extreme to {action}: {exc}")


def layout_at(
    summary: CompilationSummary, spec: FactorySpec, d: int, f_r: float = DEFAULT_F_R
) -> SchemeLayout:
    """Protected patches and factory fleet at code distance d."""
    require_valid_distance(d)
    if not (0 <= f_r <= 1):
        raise ValueError("f_r must lie in [0, 1]")
    record = scheme_record(summary.scheme)
    return SchemeLayout(record.patches(summary, spec, d, f_r), record.fleet(summary, spec, d))
