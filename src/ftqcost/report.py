"""Machine-readable report assembly and rendering.

One JSON document per run with a versioned schema; field names embed
units (e.g. wall_time_seconds). Every inferred default that influenced a
number is echoed under ``assumptions`` so no output is silently shaped by
an undisclosed choice. JSON output is deterministic (sorted keys), making
identical configs byte-identical.
"""

from __future__ import annotations

import csv
import io
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

try:
    # The C escaper json.encoder re-exports, without loading the json package.
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .config import RunConfig
from .estimator import (
    PERTURBED_FIELDS,
    SENSITIVITY_FRACTION,
    ResourceEstimate,
    SensitivityBand,
    compare,
    estimate,
    point_estimator,
    sensitivity,
)
from .fermi_hubbard import scheme_record

SCHEMA_VERSION = "2.0"

# Each headline number: its report key -> its ResourceEstimate attribute,
# which is also its CSV column. The order is the table's and the CSV's.
_HEADLINE = {
    "code_distance": "d",
    "physical_qubits_total": "physical_qubits_total",
    "wall_time_seconds": "wall_time_seconds",
    "spacetime_volume_patch_rounds": "spacetime_volume",
    "factory_count": "factory_count",
    "t_count_total": "t_count_total",
    "bottleneck": "bottleneck",
}

CSV_COLUMNS = ("scheme", "p", "factory", "cultivation", *_HEADLINE.values())
# A row's scheme and headline numbers: their report keys; read from a payload or an estimate.
_ROW_KEYS = ("scheme", *_HEADLINE)
_PAYLOAD_ROW = itemgetter(*_ROW_KEYS)
_ESTIMATE_ROW = attrgetter("scheme", *_HEADLINE.values())


def estimate_payload(est: ResourceEstimate) -> dict[str, Any]:
    payload = dict(zip(_ROW_KEYS, _ESTIMATE_ROW(est)))
    payload["physical_qubits_by_role"] = dict(est.physical_qubits_by_role)
    payload["warnings"] = list(est.warnings)
    if est.budget_ledger is not None:
        payload["budget_ledger"] = est.budget_ledger._asdict()
    if est.summary is not None:
        payload["compilation"] = {
            "sigma": est.summary.sigma,
            "rotation_count": est.summary.rotation_count,
            "timestep_depth": est.summary.timestep_depth,
            "reaction_depth": est.summary.reaction_depth,
            "peak_parallel_t": est.summary.peak_parallel_t,
            "consumption_rate_per_d_rounds": est.summary.consumption_rate,
        }
    return payload


def _assumptions(config: RunConfig, schemes: Iterable[str]) -> dict[str, Any]:
    """The inferred knobs that shaped the estimates of ``schemes``."""
    flags: dict[str, Any] = {
        "e_qec": config.options.e_qec,
        "e_qec_inferred": "qec.E" in config.absent,
        "log_base_qsp_queries": config.options.log_base,
        "log_base_inferred": "algorithm.log_base" in config.absent,
    }
    for scheme in schemes:
        flags.update(scheme_record(scheme).report_flags(config))
    if config.cultivation:
        flags["cultivation_infidelity_unchanged"] = True
    return flags


def _band_payload(band: SensitivityBand, nominal: dict[str, Any]) -> dict[str, Any]:
    """The band's payload, around ``nominal``, its nominal estimate's payload."""
    return {
        "nominal": nominal,
        "low": estimate_payload(band.low),
        "high": estimate_payload(band.high),
        "perturbed_fields": list(PERTURBED_FIELDS),
        "perturbation_fraction": SENSITIVITY_FRACTION,
    }


def estimate_config(config: RunConfig) -> ResourceEstimate:
    """The nominal estimate of one config, with its effective factory."""
    return estimate(
        config.inst, config.scheme, config.assume, config.effective_spec, config.options
    )


def estimate_configs(configs: Iterable[RunConfig]) -> Iterator[tuple[RunConfig, ResourceEstimate]]:
    """Each config with its nominal estimate, in order, as each is reached: a
    config is built, then estimated, before the next is built. One
    point_estimator serves them all, so configs with equal records share
    their compilation and plan."""
    fit = point_estimator()
    for c in configs:
        yield c, fit(c.inst, c.scheme, c.assume, c.effective_spec, c.options)


def _report(
    config: RunConfig, schemes: Iterable[str], estimates: Iterable[ResourceEstimate]
) -> dict[str, Any]:
    """The fields every report shares: the estimates of ``schemes``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": config.resolved_inputs(),
        "assumptions": _assumptions(config, schemes),
        "estimates": [estimate_payload(est) for est in estimates],
    }


def nominal_report(config: RunConfig, est: ResourceEstimate) -> dict[str, Any]:
    """The report of ``est``, the nominal estimate of ``config``, without a band."""
    return _report(config, [config.scheme], [est])


def build_report(config: RunConfig, with_sensitivity: bool = True) -> dict[str, Any]:
    """Full report for one config: estimate plus optional sensitivity band.

    With the band, the band's nominal is the report's estimate, and one payload
    (one dict) stands for it in both places."""
    if not with_sensitivity:
        return nominal_report(config, estimate_config(config))
    band = sensitivity(
        config.inst, config.scheme, config.assume, config.effective_spec, config.options
    )
    report = _report(config, [config.scheme], [band.nominal])
    report["sensitivity"] = _band_payload(band, report["estimates"][0])
    return report


def build_comparison(config: RunConfig, schemes: list[str]) -> dict[str, Any]:
    rows = compare(config.inst, schemes, config.assume, config.effective_spec, config.options)
    report = _report(config, schemes, [row.estimate for row in rows])
    report["ratios"] = [
        {
            "scheme": row.estimate.scheme,
            "time_ratio": row.time_ratio,
            "qubit_ratio": row.qubit_ratio,
            "volume_ratio": row.volume_ratio,
        }
        for row in rows
    ]
    return report


def render_json(report: dict[str, Any] | list[dict[str, Any]]) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for a tree of dicts with str keys, lists and tuples over str, int,
    float, bool and None (these exact types), written in one recursive pass."""
    out: list[str] = []
    _write_json(report, "\n", out.append)
    out.append("\n")
    return "".join(out)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The JSON text of a scalar by its exact type, once a non-finite float's
# repr is mapped through _NON_FINITE (no other scalar's text is a key there).
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_json(value: Any, newline: str, put: Callable[[str], None]) -> None:
    """``put`` the JSON text of ``value``, its nested lines indented two
    spaces past ``newline``, the line break and indent its closing bracket
    sits at. A dict's scalar member goes out in one put with its key."""
    scalar = _SCALAR_JSON.get(type(value))
    if scalar is not None:
        text = scalar(value)
        put(_NON_FINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            item = value[key]
            scalar = _SCALAR_JSON.get(type(item))
            if scalar is None:
                put(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(item, inner, put)
            else:
                text = scalar(item)
                put(f"{sep}{encode_basestring_ascii(key)}: {_NON_FINITE.get(text, text)}")
            sep = comma
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = comma
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_table(report: dict[str, Any]) -> str:
    """Human-readable fixed-width summary of the report's estimates."""
    lines = []
    for est in report["estimates"]:
        lines.append(f"scheme: {est['scheme']}")
        for key in _HEADLINE:
            lines.append(f"  {key:32s} {_fmt(est[key])}")
        for warning in est["warnings"]:
            lines.append(f"  warning: {warning}")
    for key, value in sorted(report.get("assumptions", {}).items()):
        lines.append(f"assumption: {key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def csv_row(config: RunConfig, est: ResourceEstimate | dict[str, Any]) -> tuple:
    """The CSV row, in CSV_COLUMNS order, of an estimate or of its payload."""
    scheme, *numbers = (_PAYLOAD_ROW if isinstance(est, dict) else _ESTIMATE_ROW)(est)
    return (scheme, config.assume.p, config.effective_spec.name, config.cultivation, *numbers)


def render_csv(rows: Iterable[Sequence[Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue()
