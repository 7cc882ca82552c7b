"""End-to-end resource estimation.

Chains error-budget allocation, scheme compilation, distance selection on
the protected patches alone, factory provisioning once at the chosen
distance, and totals into a single ResourceEstimate; also provides the
minimal-footprint quick estimator, the +/-5% sensitivity band,
multi-scheme comparison, and the estimates of a grid of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import BudgetInfeasibleError
from .factories import DEFAULT_T_GATE_BUDGET, FactorySpec, t_budget_check
from .fermi_hubbard import (
    DEFAULT_F_R,
    DEFAULT_LOG_BASE,
    CompilationSummary,
    ErrorBudget,
    FHInstance,
    LogBase,
    SchemeLayout,
    compile_scheme,
    instance_inputs,
    layout_at,
    scheme_record,
    too_extreme,
)
from .qec import (
    DEFAULT_MAX_DISTANCE,
    DEFAULT_QEC_BUDGET,
    GATE_LIMITED,
    MAGIC_LIMITED,
    LogicalVolume,
    PhysicalAssumptions,
    choose_distance,
    patch_physical_qubits,
    wall_time,
)

SENSITIVITY_FRACTION = 0.05
"""Joint perturbation of the factory and QEC constants in a sensitivity band."""

ROUTING_FACTOR = 1.5
"""Patches per logical qubit in the minimal-footprint estimate, routing included."""


@dataclass(frozen=True)
class EstimateOptions:
    """Knobs of the estimation pipeline. With PhysicalAssumptions, these field
    defaults are the one table of defaults that config, CLI and report use."""

    e_qec: float = DEFAULT_QEC_BUDGET
    d_max: int = DEFAULT_MAX_DISTANCE
    f_r: float = DEFAULT_F_R
    hwp_m: int | None = None
    log_base: LogBase = DEFAULT_LOG_BASE
    t_gate_budget: float = DEFAULT_T_GATE_BUDGET

    def __post_init__(self) -> None:
        if not (0 < self.e_qec < 1):
            raise ValueError("e_qec must lie in (0, 1)")
        if not (0 < self.t_gate_budget <= 1):
            raise ValueError("t_gate_budget must lie in (0, 1]")
        if not (0 <= self.f_r <= 1):
            raise ValueError("f_r must lie in [0, 1]")
        if self.hwp_m is not None and not self.hwp_m >= 2:
            raise ValueError("hwp_m must be at least 2")
        if not self.d_max >= 3:
            raise ValueError("d_max must be at least 3")


class ResourceEstimate(NamedTuple):
    scheme: str
    d: int
    physical_qubits_total: float
    physical_qubits_by_role: dict[str, float]
    wall_time_seconds: float
    spacetime_volume: float
    factory_count: int
    t_count_total: float
    bottleneck: str
    budget_ledger: ErrorBudget | None = None
    summary: CompilationSummary | None = None
    warnings: tuple[str, ...] = ()


def _fit(
    assume: PhysicalAssumptions, patches_at: Callable[[int], float],
    layout_for: Callable[[int], SchemeLayout],
    timestep_depth: float, reaction_depth: float,
    data_aux_patches: float, routing_patches: float, e_qec: float, d_max: int,
    t_count_total: float, **fields: Any,
) -> ResourceEstimate:
    """Smallest distance meeting the failure budget, and the totals there.

    The search reads only patches_at(d), the protected patches at candidate
    d; layout_for(d) adds the fleet and runs once, at the chosen d. The depth
    is timestep_depth timesteps of d rounds plus reaction_depth reaction
    delays; a fleet slower to supply t_count_total states makes the run magic-limited.
    Patches beyond data/aux and routing count as routing; ``fields`` fill the
    rest. Totals that leave the float range raise OverflowError.
    """

    def volume(d: int, patches: float) -> LogicalVolume:
        return LogicalVolume(patches, timestep_depth * d, reaction_depth)

    # Every scheme's patches(d) is at least its base patches, and the rounds
    # grow with d, so the volume at d = 3 on base patches floors every candidate.
    d = choose_distance(
        assume, lambda d: volume(d, patches_at(d)), e_qec, d_max,
        volume(3, data_aux_patches + routing_patches),
    )
    patches, fleet = layout_for(d)
    vol = volume(d, patches)
    q = patch_physical_qubits(d)
    extra = patches - data_aux_patches - routing_patches
    seconds = wall_time(vol, assume)
    magic_limited, count, factory_qubits = False, 0, 0
    if fleet is not None:
        count, factory_qubits = fleet.count, fleet.physical_qubits
        magic_limited = fleet.supply_time(t_count_total, assume.t_se) > seconds * (1 + 1e-12)
    est = ResourceEstimate(
        d=d,
        physical_qubits_total=patches * q + factory_qubits,
        physical_qubits_by_role={
            "data_aux": data_aux_patches * q,
            "routing": (routing_patches + extra) * q,
            "factories": float(factory_qubits),
        },
        wall_time_seconds=seconds,
        spacetime_volume=vol.patch_rounds(assume.reaction_rounds),
        factory_count=count,
        t_count_total=t_count_total,
        bottleneck=MAGIC_LIMITED if magic_limited else GATE_LIMITED,
        **fields,
    )
    totals = est.physical_qubits_total, est.wall_time_seconds, est.spacetime_volume
    if not all(map(math.isfinite, totals)):
        raise OverflowError("the totals leave the float range")
    return est


def estimate(
    inst: FHInstance,
    scheme: str,
    assume: PhysicalAssumptions,
    spec: FactorySpec,
    options: EstimateOptions = EstimateOptions(),
) -> ResourceEstimate:
    """Full pipeline for one Fermi-Hubbard instance and scheme."""
    compiled = compile_scheme(scheme, inst, m=options.hwp_m, log_base=options.log_base)
    return _fit_compiled(compiled, inst, assume, spec, options)


def estimate_points(
    points: Iterable[
        tuple[FHInstance, str, PhysicalAssumptions, FactorySpec, EstimateOptions]
    ],
) -> Iterator[ResourceEstimate]:
    """``estimate(*point)`` for each point, in order, as each is reached.

    Each distinct (scheme, inst, hwp_m, log_base) is compiled once, at its
    first point, and every point is fitted to its compilation; what is
    compiled is kept for this call only.
    """
    compiled: dict[tuple, tuple[CompilationSummary, ErrorBudget]] = {}
    for inst, scheme, assume, spec, options in points:
        key = scheme, inst, options.hwp_m, options.log_base
        compilation = compiled.get(key)
        if compilation is None:
            compilation = compiled[key] = compile_scheme(
                scheme, inst, m=options.hwp_m, log_base=options.log_base
            )
        yield _fit_compiled(compilation, inst, assume, spec, options)


def _fit_compiled(
    compiled: tuple[CompilationSummary, ErrorBudget],
    inst: FHInstance,
    assume: PhysicalAssumptions,
    spec: FactorySpec,
    options: EstimateOptions,
) -> ResourceEstimate:
    """The estimate of one compiled scheme under ``assume`` and ``spec``.

    No scheme's protected patches depend on its fleet size, so the distance
    search reads the patches alone; the fleet is provisioned at the chosen d.
    """
    summary, budget = compiled
    warnings: list[str] = []
    if not math.isclose(spec.valid_p, assume.p, rel_tol=0.5):
        warnings.append(
            f"factory {spec.name} characterized at p={spec.valid_p}, "
            f"estimating at p={assume.p}"
        )

    check = t_budget_check(summary.t_count_total, spec, budget=options.t_gate_budget)
    if not check.passed:
        warnings.append(
            "T-state error budget exceeded: "
            f"accumulated {check.accumulated_error:.3g} > {check.budget}; "
            f"a factory with infidelity <= {check.required_infidelity:.3g} is required"
        )

    # The knobs actually used, not allocate_budget's defaults, go in the ledger.
    ledger = budget._replace(e_qec=options.e_qec, t_gate_budget=options.t_gate_budget)
    patches = scheme_record(summary.scheme).patches
    try:
        return _fit(
            assume, lambda d: patches(summary, spec, d, options.f_r),
            lambda d: layout_at(summary, spec, d, f_r=options.f_r),
            summary.timestep_depth, summary.reaction_depth,
            summary.data_patches + summary.aux_patches, summary.routing_patches,
            options.e_qec, options.d_max,
            scheme=summary.scheme, t_count_total=summary.t_count_total,
            budget_ledger=ledger, summary=summary, warnings=tuple(warnings),
        )
    except ArithmeticError as exc:
        inputs = instance_inputs(inst, options.hwp_m)
        inputs.update(
            t_se=assume.t_se, tau_r=assume.tau_r,
            q_f=spec.q_f, tau_f_rounds=spec.tau_f_rounds, n_out=spec.n_out,
        )
        raise too_extreme(inputs, f"estimate {summary.scheme}", exc) from exc


def simple_estimate(
    q_logical: int,
    gate_count: float,
    assume: PhysicalAssumptions,
    e_qec: float = DEFAULT_QEC_BUDGET,
    d_max: int = DEFAULT_MAX_DISTANCE,
) -> ResourceEstimate:
    """Minimal-footprint quick estimate: one T/Toffoli per d rounds.

    Patches are the data qubits times ROUTING_FACTOR; factory qubits are
    not included, matching the headline-table convention.
    """
    if q_logical < 1:
        raise ValueError("q_logical must be at least 1")
    if not 1 <= gate_count < math.inf:
        raise ValueError("gate_count must be finite and at least 1")
    try:
        layout = SchemeLayout(ROUTING_FACTOR * q_logical, fleet=None)
        return _fit(
            assume, lambda d: layout.protected_patches, lambda d: layout,
            timestep_depth=gate_count, reaction_depth=0.0,
            data_aux_patches=q_logical, routing_patches=0, e_qec=e_qec, d_max=d_max,
            scheme="simple", t_count_total=gate_count,
        )
    except ArithmeticError as exc:
        inputs = {"q_logical": q_logical, "gate_count": gate_count,
                  "t_se": assume.t_se, "tau_r": assume.tau_r}
        raise too_extreme(inputs, "estimate", exc) from exc


class SensitivityBand(NamedTuple):
    """Estimates under joint +/-5% perturbation of factory and QEC constants."""

    nominal: ResourceEstimate
    low: ResourceEstimate
    high: ResourceEstimate


_PERTURBED_FIELDS = (
    "factory.q_f", "factory.tau_f_rounds", "physical.p_star", "physical.prefactor_a"
)
"""The config fields _perturbed moves, by dotted path, for the report."""


def _perturbed(
    assume: PhysicalAssumptions, spec: FactorySpec, fraction: float
) -> tuple[PhysicalAssumptions, FactorySpec]:
    """Perturb factory qubits/time, threshold, and prefactor together.

    Positive ``fraction`` is adverse (more qubits, slower factories, lower
    threshold, larger prefactor); negative is favorable. The threshold stays
    at most 1; one lowered to p or below leaves no distance that fits.
    """
    p_star = min(1.0, assume.p_star * (1 - fraction))
    if not assume.p < p_star:
        raise BudgetInfeasibleError(
            f"no distance meets the failure budget at the {fraction:+.0%} band's "
            f"threshold p_star={p_star:g}, which is not above p={assume.p:g}"
        )
    assume2 = replace(
        assume, p_star=p_star, prefactor_a=assume.prefactor_a * (1 + fraction)
    )
    spec2 = replace(
        spec,
        q_f=max(1, round(spec.q_f * (1 + fraction))),
        tau_f_rounds=spec.tau_f_rounds * (1 + fraction),
    )
    return assume2, spec2


def sensitivity(
    inst: FHInstance,
    scheme: str,
    assume: PhysicalAssumptions,
    spec: FactorySpec,
    options: EstimateOptions = EstimateOptions(),
    fraction: float = SENSITIVITY_FRACTION,
) -> SensitivityBand:
    """Nominal and +/-fraction estimates: the perturbed constants do not enter
    the compilation, so the scheme is compiled once and fitted three times."""
    compiled = compile_scheme(scheme, inst, m=options.hwp_m, log_base=options.log_base)
    nominal = _fit_compiled(compiled, inst, assume, spec, options)
    adverse = _fit_compiled(compiled, inst, *_perturbed(assume, spec, fraction), options)
    favorable = _fit_compiled(compiled, inst, *_perturbed(assume, spec, -fraction), options)
    return SensitivityBand(nominal=nominal, low=favorable, high=adverse)


class ComparisonRow(NamedTuple):
    estimate: ResourceEstimate
    time_ratio: float
    qubit_ratio: float
    volume_ratio: float


def compare(
    inst: FHInstance,
    schemes: list[str],
    assume: PhysicalAssumptions,
    spec: FactorySpec,
    options: EstimateOptions = EstimateOptions(),
) -> list[ComparisonRow]:
    """One estimate per scheme, with ratios relative to the first row."""
    if not schemes:
        raise ValueError("at least one scheme is required")
    estimates = [estimate(inst, s, assume, spec, options) for s in schemes]
    base = estimates[0]
    return [
        ComparisonRow(
            estimate=e,
            time_ratio=e.wall_time_seconds / base.wall_time_seconds,
            qubit_ratio=e.physical_qubits_total / base.physical_qubits_total,
            volume_ratio=e.spacetime_volume / base.spacetime_volume,
        )
        for e in estimates
    ]
