"""End-to-end resource estimation.

Chains error-budget allocation, scheme compilation, the distance search,
factory provisioning, the run's cost (qec.run_cost) and totals into a single
ResourceEstimate; also provides the
minimal-footprint quick estimator, the +/-5% sensitivity band,
multi-scheme comparison, and the estimates of a grid of points.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, NamedTuple

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
    compile_scheme,
    instance_inputs,
    layout_at,
    scheme_record,
    too_extreme,
)
from .qec import (
    DEFAULT_MAX_DISTANCE,
    DEFAULT_QEC_BUDGET,
    PhysicalAssumptions,
    choose_distance,
    patch_physical_qubits,
    run_cost,
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


def _fitter(
    depth: float, reactions: float, provisioned: Callable[[int], tuple[float, int, int, float]],
    data_aux_patches: float, routing_patches: float, floor_patches: float, e_qec: float,
    d_max: int, scheme: str, t_count: float, ledger: ErrorBudget | None = None,
    summary: CompilationSummary | None = None,
) -> Callable[[PhysicalAssumptions, tuple[str, ...]], ResourceEstimate]:
    """The fit of a gate schedule, as a function of ``assume`` and the warnings
    it reports: the smallest distance meeting the failure budget, and the
    totals there.

    At d, provisioned(d) gives the protected patches, at least data_aux_patches
    + routing_patches and at least floor_patches, the factory count and qubits,
    and the SE rounds the factories take to make the T states; qec.run_cost
    gives the patch-rounds, seconds and bottleneck of those patches over depth
    timesteps of d rounds plus reactions reaction delays, against that supply.
    The search's floor at d, floor_patches over run_cost's gate rounds, is
    under every volume at d or beyond. Patches beyond data/aux and routing
    count as routing. Totals that leave the float range raise OverflowError.

    Only t_se and tau_r enter a volume or a total; p, p_star and prefactor_a
    only choose d. So each clock pair gets a _Rows table over d, each row
    made at its first read, with provisioned(d) read once per d for them all;
    a fit builds its estimate from the row at the d it picks.
    """
    layouts, tables = {}, {}

    def fit(assume: PhysicalAssumptions, warnings: tuple[str, ...]) -> ResourceEstimate:
        clocks = assume.t_se, assume.tau_r
        table = tables.get(clocks)
        if table is None:
            rows, rounds = _Rows(), reactions * (assume.tau_r / assume.t_se)
            rows.of = (provisioned, layouts, depth, reactions, *clocks,
                       data_aux_patches, routing_patches)
            table = tables[clocks] = (
                rows, lambda d: rows[d][0], lambda d: floor_patches * (depth * d + rounds)
            )
        rows, volume_at, floor_at = table
        d = choose_distance(assume, volume_at, e_qec, d_max, floor_at)
        volume, totals = rows[d]
        if type(totals) is OverflowError:
            raise totals
        total, data_aux, routing, factories, seconds, count, bottleneck = totals
        return ResourceEstimate(
            scheme, d, total, {"data_aux": data_aux, "routing": routing, "factories": factories},
            seconds, volume, count, t_count, bottleneck, ledger, summary, warnings,
        )

    return fit


class _Rows(dict):
    """The rows by d at one clock pair, each from one provisioned(d) read: the
    patch-rounds, and the totals there or the OverflowError they raise,
    which a fit raises only at the d it picks."""

    __slots__ = ("of",)

    def __missing__(self, d: int) -> tuple[float, tuple | OverflowError]:
        provisioned, layouts, depth, reactions, t_se, tau_r, data_aux, routing = self.of
        patches, count, factory_qubits, supply = (
            layouts.get(d) or layouts.setdefault(d, provisioned(d))
        )
        volume, seconds, bottleneck = run_cost(
            patches, depth, d, reactions, t_se, tau_r, supply
        )
        q = patch_physical_qubits(d)
        try:
            total = patches * q + factory_qubits
            if not all(map(math.isfinite, (total, seconds, volume))):
                raise OverflowError("the totals leave the float range")
            extra = patches - data_aux - routing
            totals = (total, data_aux * q, (routing + extra) * q, float(factory_qubits),
                      seconds, count, bottleneck)
        except OverflowError as exc:
            totals = exc
        value = self[d] = volume, totals
        return value


def estimate(
    inst: FHInstance,
    scheme: str,
    assume: PhysicalAssumptions,
    spec: FactorySpec,
    options: EstimateOptions = EstimateOptions(),
) -> ResourceEstimate:
    """Full pipeline for one Fermi-Hubbard instance and scheme."""
    compiled = compile_scheme(scheme, inst, m=options.hwp_m, log_base=options.log_base)
    return _plan(inst, compiled, spec, options)(assume)


def point_estimator() -> Callable[..., ResourceEstimate]:
    """``estimate``, sharing work across its calls: each distinct (scheme,
    inst, hwp_m, log_base) is compiled once and each distinct (inst, scheme,
    spec, options) planned once, found by value."""
    compiled = cache(compile_scheme)

    @cache
    def plans(
        inst: FHInstance, scheme: str, spec: FactorySpec, options: EstimateOptions
    ) -> Callable[..., ResourceEstimate]:
        return _plan(inst, compiled(scheme, inst, options.hwp_m, options.log_base), spec, options)

    def fit(
        inst: FHInstance, scheme: str, assume: PhysicalAssumptions, spec: FactorySpec,
        options: EstimateOptions,
    ) -> ResourceEstimate:
        return plans(inst, scheme, spec, options)(assume)

    return fit


def _plan(
    inst: FHInstance, compiled: tuple[CompilationSummary, ErrorBudget], spec: FactorySpec,
    options: EstimateOptions,
) -> Callable[..., ResourceEstimate]:
    """The fit of a compiled scheme of ``inst``, as a function of ``assume``.

    What reads no PhysicalAssumptions field is settled here, once: the
    T-budget warning, the ledger, and the layout and supply rounds at each d
    a search reaches. _fitter tabulates the rows over d per clock pair; a
    fit adds the factory's valid_p warning. A band's fit passes its perturbed
    ``factory``, laid out for that fit alone; neither the T-budget warning
    nor the ledger reads a field the band perturbs.
    """
    summary, budget = compiled
    t_count = summary.t_count_total
    check = t_budget_check(t_count, spec, budget=options.t_gate_budget)
    t_warnings = () if check.passed else (
        "T-state error budget exceeded: "
        f"accumulated {check.accumulated_error:.3g} > {check.budget}; "
        f"a factory with infidelity <= {check.required_infidelity:.3g} is required",
    )
    # The knobs actually used, not allocate_budget's defaults, go in the ledger
    # (its last two fields).
    ledger = ErrorBudget(*budget[:4], options.e_qec, options.t_gate_budget)
    data_aux = summary.data_patches + summary.aux_patches
    floor = scheme_record(summary.scheme).floor(summary, options.f_r)

    def fitter(factory: FactorySpec) -> Callable[..., ResourceEstimate]:
        def provisioned(d: int) -> tuple[float, int, int, float]:
            patches, fleet = layout_at(summary, factory, d, f_r=options.f_r)
            return patches, fleet.count, fleet.physical_qubits, fleet.supply_time(t_count, 1.0)

        return _fitter(
            summary.timestep_depth, summary.reaction_depth, provisioned, data_aux,
            summary.routing_patches, floor, options.e_qec, options.d_max, summary.scheme,
            t_count, ledger, summary,
        )

    fitted = fitter(spec)

    def fit(assume: PhysicalAssumptions, factory: FactorySpec = spec) -> ResourceEstimate:
        warnings = t_warnings
        if not math.isclose(factory.valid_p, assume.p, rel_tol=0.5):
            warnings = (
                f"factory {factory.name} characterized at p={factory.valid_p}, "
                f"estimating at p={assume.p}",
                *warnings,
            )
        try:
            return (fitted if factory is spec else fitter(factory))(assume, warnings)
        except ArithmeticError as exc:
            inputs = instance_inputs(inst, options.hwp_m)
            inputs.update(
                t_se=assume.t_se, tau_r=assume.tau_r,
                q_f=factory.q_f, tau_f_rounds=factory.tau_f_rounds, n_out=factory.n_out,
            )
            raise too_extreme(inputs, f"estimate {summary.scheme}", exc) from exc

    return fit


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
        patches = ROUTING_FACTOR * q_logical
        return _fitter(
            gate_count, 0.0, lambda d: (patches, 0, 0, 0.0), data_aux_patches=q_logical,
            routing_patches=0, floor_patches=patches, e_qec=e_qec, d_max=d_max,
            scheme="simple", t_count=gate_count,
        )(assume, ())
    except ArithmeticError as exc:
        inputs = {"q_logical": q_logical, "gate_count": gate_count,
                  "t_se": assume.t_se, "tau_r": assume.tau_r}
        raise too_extreme(inputs, "estimate", exc) from exc


class SensitivityBand(NamedTuple):
    """Estimates under joint +/-5% perturbation of factory and QEC constants."""

    nominal: ResourceEstimate
    low: ResourceEstimate
    high: ResourceEstimate


PERTURBED_FIELDS = (
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
    p, _, prefactor_a, t_se, tau_r = assume
    name, q_f, tau_f_rounds, n_out, out_infidelity, valid_p = spec
    # One checked constructor call each; _replace would go through _make too.
    assume2 = PhysicalAssumptions(p, p_star, prefactor_a * (1 + fraction), t_se, tau_r)
    spec2 = FactorySpec(
        name, max(1, round(q_f * (1 + fraction))), tau_f_rounds * (1 + fraction),
        n_out, out_infidelity, valid_p,
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
    """Nominal and +/-fraction estimates. The perturbed constants enter
    neither the compilation nor the T-budget warning nor the ledger, so the
    scheme is compiled and planned once, and fitted three times, each
    perturbed fit on its own fleet and with its own valid_p warning."""
    compiled = compile_scheme(scheme, inst, m=options.hwp_m, log_base=options.log_base)
    fit = _plan(inst, compiled, spec, options)
    nominal = fit(assume)
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
