"""End-to-end resource estimation.

Chains error-budget allocation, scheme compilation, the distance search,
factory provisioning, the run time (qec.run_time) and totals into a single
ResourceEstimate; also provides the
minimal-footprint quick estimator, the +/-5% sensitivity band,
multi-scheme comparison, and the estimates of a grid of points.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

from . import checked
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
    LogicalVolume,
    PhysicalAssumptions,
    choose_distance,
    patch_physical_qubits,
    run_time,
    wall_time,
)

SENSITIVITY_FRACTION = 0.05
"""Joint perturbation of the factory and QEC constants in a sensitivity band."""

ROUTING_FACTOR = 1.5
"""Patches per logical qubit in the minimal-footprint estimate, routing included."""


@checked
class EstimateOptions(NamedTuple):
    """Knobs of the estimation pipeline. Its ``_field_defaults``, with those of
    PhysicalAssumptions, are the one table of defaults config, CLI and report use."""

    e_qec: float = DEFAULT_QEC_BUDGET
    d_max: int = DEFAULT_MAX_DISTANCE
    f_r: float = DEFAULT_F_R
    hwp_m: int | None = None
    log_base: LogBase = DEFAULT_LOG_BASE
    t_gate_budget: float = DEFAULT_T_GATE_BUDGET

    def _new(cls, e_qec, d_max, f_r, hwp_m, log_base, t_gate_budget):
        if not (0 < e_qec < 1):
            raise ValueError("e_qec must lie in (0, 1)")
        if not (0 < t_gate_budget <= 1):
            raise ValueError("t_gate_budget must lie in (0, 1]")
        if not (0 <= f_r <= 1):
            raise ValueError("f_r must lie in [0, 1]")
        if hwp_m is not None and not hwp_m >= 2:
            raise ValueError("hwp_m must be at least 2")
        if not d_max >= 3:
            raise ValueError("d_max must be at least 3")
        return tuple.__new__(cls, (e_qec, d_max, f_r, hwp_m, log_base, t_gate_budget))


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
    assume: PhysicalAssumptions, volume_at: Callable[[int], LogicalVolume],
    floor: LogicalVolume, layout_for: Callable[[int], SchemeLayout],
    supply_for: Callable[[int], float], data_aux_patches: float, routing_patches: float,
    e_qec: float, d_max: int, **fields: Any,
) -> ResourceEstimate:
    """Smallest distance meeting the failure budget, and the totals there.

    qec.run_time sets the span from the gate schedule, whose volume on the
    protected patches at d is volume_at(d), and from supply_for(d), the SE
    rounds the fleet at d takes to make the T states; the volume counts the
    patches over that span. A supply only stretches a volume, so the first
    fit on volume_at, searched from ``floor``, is a lower bound; the search
    goes on from it only if the supply stretches the volume there. Patches
    beyond data/aux and routing count as routing; ``fields`` fill the rest.
    Totals that leave the float range raise OverflowError.
    """
    rr = assume.reaction_rounds

    def spanned(d: int) -> LogicalVolume:
        gate = volume_at(d)
        rounds, _ = run_time(gate.rounds + gate.reactions * rr, supply_for(d))
        return LogicalVolume(gate.patches, rounds, 0)

    d = choose_distance(assume, volume_at, e_qec, d_max, floor, reaction_rounds=rr)
    vol = spanned(d)
    if vol.patch_rounds(rr) > volume_at(d).patch_rounds(rr):  # the supply stretches it
        d = choose_distance(assume, spanned, e_qec, d_max, d_min=d, reaction_rounds=rr)
        vol = spanned(d)
    patches, fleet = layout_for(d)
    seconds, bottleneck = run_time(wall_time(volume_at(d), assume), supply_for(d) * assume.t_se)
    count, factory_qubits = (0, 0) if fleet is None else (fleet.count, fleet.physical_qubits)
    q = patch_physical_qubits(d)
    extra = patches - data_aux_patches - routing_patches
    est = ResourceEstimate(
        d=d,
        physical_qubits_total=patches * q + factory_qubits,
        physical_qubits_by_role={
            "data_aux": data_aux_patches * q,
            "routing": (routing_patches + extra) * q,
            "factories": float(factory_qubits),
        },
        wall_time_seconds=seconds,
        spacetime_volume=vol.patch_rounds(rr),
        factory_count=count,
        bottleneck=bottleneck,
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
    return _plan(compiled, spec, options)(inst, assume)


def point_estimator() -> Callable[..., ResourceEstimate]:
    """``estimate``, sharing work across its calls: each distinct (scheme,
    inst, hwp_m, log_base) is compiled once and each distinct (inst, scheme,
    spec, options) planned once. A call passing the records of the call before
    it, as a grid's consecutive points do, pays for its fit alone."""
    compiled = _Memo(lambda key: compile_scheme(key[0], key[1], m=key[2], log_base=key[3]))

    def planned(key: tuple) -> Callable[[FHInstance, PhysicalAssumptions], ResourceEstimate]:
        inst, scheme, spec, options = key
        return _plan(compiled[scheme, inst, options.hwp_m, options.log_base], spec, options)

    plans, last, plan = _Memo(planned), (None,) * 4, None

    def fit(
        inst: FHInstance, scheme: str, assume: PhysicalAssumptions, spec: FactorySpec,
        options: EstimateOptions,
    ) -> ResourceEstimate:
        nonlocal last, plan
        if not (inst is last[0] and scheme is last[1] and spec is last[2] and options is last[3]):
            last = inst, scheme, spec, options
            plan = plans[last]
        return plan(inst, assume)

    return fit


def _plan(
    compiled: tuple[CompilationSummary, ErrorBudget], spec: FactorySpec,
    options: EstimateOptions,
) -> Callable[[FHInstance, PhysicalAssumptions], ResourceEstimate]:
    """The fit of a compiled scheme, as a function of ``inst`` and ``assume``.

    What reads no PhysicalAssumptions field is settled here, once: the
    T-budget warning, the ledger, and the gate schedule's volume, layout and
    supply rounds at d, each computed at most once per d. No scheme's
    protected patches depend on its fleet size.
    """
    summary, budget = compiled
    t_count = summary.t_count_total
    check = t_budget_check(t_count, spec, budget=options.t_gate_budget)
    t_warnings = () if check.passed else (
        "T-state error budget exceeded: "
        f"accumulated {check.accumulated_error:.3g} > {check.budget}; "
        f"a factory with infidelity <= {check.required_infidelity:.3g} is required",
    )
    # The knobs actually used, not allocate_budget's defaults, go in the ledger.
    ledger = budget._replace(e_qec=options.e_qec, t_gate_budget=options.t_gate_budget)
    patches, f_r = scheme_record(summary.scheme).patches, options.f_r
    data_aux = summary.data_patches + summary.aux_patches
    volume_at, floor = _volumes(
        lambda d: patches(summary, spec, d, f_r), summary.timestep_depth,
        summary.reaction_depth, data_aux + summary.routing_patches,
    )
    layout_for = _Memo(lambda d: layout_at(summary, spec, d, f_r=f_r)).__getitem__
    supply_for = _Memo(lambda d: layout_for(d).fleet.supply_time(t_count, 1.0)).__getitem__

    def fit(inst: FHInstance, assume: PhysicalAssumptions) -> ResourceEstimate:
        warnings = t_warnings
        if not math.isclose(spec.valid_p, assume.p, rel_tol=0.5):
            warnings = (
                f"factory {spec.name} characterized at p={spec.valid_p}, "
                f"estimating at p={assume.p}",
                *warnings,
            )
        try:
            return _fit(
                assume, volume_at, floor, layout_for, supply_for, data_aux, summary.routing_patches,
                options.e_qec, options.d_max, scheme=summary.scheme, t_count_total=t_count,
                budget_ledger=ledger, summary=summary, warnings=warnings,
            )
        except ArithmeticError as exc:
            inputs = instance_inputs(inst, options.hwp_m)
            inputs.update(
                t_se=assume.t_se, tau_r=assume.tau_r,
                q_f=spec.q_f, tau_f_rounds=spec.tau_f_rounds, n_out=spec.n_out,
            )
            raise too_extreme(inputs, f"estimate {summary.scheme}", exc) from exc

    return fit


def _volumes(
    patches_at: Callable[[int], float], depth: float, reactions: float, base_patches: float,
) -> tuple[Callable[[int], LogicalVolume], LogicalVolume]:
    """The gate schedule's volume at each d, built once per d: patches_at(d)
    patches over depth timesteps of d rounds plus reactions reaction delays;
    and, as patches_at(d) >= base_patches, the floor under all of them."""
    volume_at = _Memo(lambda d: LogicalVolume(patches_at(d), depth * d, reactions))
    return volume_at.__getitem__, LogicalVolume(base_patches, depth * 3, reactions)


class _Memo(dict):
    """``make(key)`` by key, each made once, at its first lookup."""

    def __init__(self, make: Callable[[Any], Any]) -> None:
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


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
        volume_at, floor = _volumes(lambda d: layout.protected_patches, gate_count, 0.0, q_logical)
        return _fit(
            assume, volume_at, floor, lambda d: layout, lambda d: 0.0,
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
    assume2 = assume._replace(p_star=p_star, prefactor_a=assume.prefactor_a * (1 + fraction))
    spec2 = spec._replace(
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

    def fit(assume: PhysicalAssumptions, spec: FactorySpec) -> ResourceEstimate:
        return _plan(compiled, spec, options)(inst, assume)

    nominal = fit(assume, spec)
    adverse = fit(*_perturbed(assume, spec, fraction))
    favorable = fit(*_perturbed(assume, spec, -fraction))
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
