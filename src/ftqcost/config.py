"""Declarative run configuration.

Configs are INI files with sections mirroring the run pipeline:

    [physical]   p, p_star, prefactor_a, t_se, tau_r
    [algorithm]  scheme, L, t_hop, U, T_evol, eps_total, m, f_r, log_base
    [factory]    name | (q_f, tau_f_rounds, n_out, out_infidelity, valid_p),
                 cultivation
    [qec]        E, d_max, t_gate_budget
    [output]     format, path

Every value is validated against the owning module's preconditions before
any computation runs; violations are reported together with dotted field
paths. An absent optional field takes the default of the dataclass field it
feeds. In sweep mode, comma-separated values in at most three fields expand
to a cartesian grid.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, get_args

from .errors import ConfigError
from .estimator import EstimateOptions
from .factories import FactorySpec, cultivation_variant, factory_by_name
from .fermi_hubbard import SCHEMES, FHInstance, LogBase
from .qec import PhysicalAssumptions

Sections = dict[str, dict[str, str]]

# Every config field, by section, with the RunConfig attribute it resolves
# to. The known fields, the absent ones and the echoed inputs are read here.
_FIELDS = {
    "physical": {
        "p": "assume.p", "p_star": "assume.p_star", "prefactor_a": "assume.prefactor_a",
        "t_se": "assume.t_se", "tau_r": "assume.tau_r",
    },
    "algorithm": {
        "scheme": "scheme", "L": "inst.l_side", "t_hop": "inst.t_hop",
        "U": "inst.u_onsite", "T_evol": "inst.t_evol", "eps_total": "inst.eps_total",
        "m": "options.hwp_m", "f_r": "options.f_r", "log_base": "options.log_base",
    },
    "factory": {
        "name": "spec.name", "q_f": "spec.q_f", "tau_f_rounds": "spec.tau_f_rounds",
        "n_out": "spec.n_out", "out_infidelity": "spec.out_infidelity",
        "valid_p": "spec.valid_p", "cultivation": "cultivation",
    },
    "qec": {
        "E": "options.e_qec", "d_max": "options.d_max",
        "t_gate_budget": "options.t_gate_budget",
    },
    "output": {"format": "output_format", "path": "output_path"},
}
# Per section: the documented key -> the getter of its RunConfig attribute.
_GETTERS = {
    section: {key: attrgetter(path) for key, path in fields.items()}
    for section, fields in _FIELDS.items()
}
# Per section: configparser's lower-cased spelling -> the documented key.
_KEYS = {
    section: {key.lower(): key for key in fields} for section, fields in _FIELDS.items()
}
# Per section: the attribute a key sets -> that key, to name the field a
# constructor's or compiler's message opens with ("t_se must be positive").
_ATTRIBUTE_KEYS = {
    section: {path.rsplit(".", 1)[-1]: key for key, path in fields.items()}
    for section, fields in _FIELDS.items()
}

OUTPUT_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated and resolved inputs for one estimator run.

    ``spec`` is the base factory design; the cultivation what-if, when
    requested, is applied on first use via ``effective_spec``, once per
    config, so that echoed inputs round-trip without double-applying the
    scaling. ``absent`` holds
    the dotted paths of the fields the input did not give.
    """

    assume: PhysicalAssumptions
    inst: FHInstance
    scheme: str
    spec: FactorySpec
    cultivation: bool
    options: EstimateOptions
    output_format: str
    output_path: str | None
    absent: frozenset[str]

    @cached_property
    def effective_spec(self) -> FactorySpec:
        return cultivation_variant(self.spec) if self.cultivation else self.spec

    def resolved_inputs(self) -> dict[str, Any]:
        """Echo of every input after defaulting, suitable for re-ingestion."""
        return {
            section: {key: get(self) for key, get in getters.items()}
            for section, getters in _GETTERS.items()
        }


def read_sections(path: str) -> Sections:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError([f"config file not found or unreadable: {path}"])
    return {name: dict(parser[name]) for name in parser.sections()}


class _Builder:
    """Accumulates field-path diagnostics while coercing section values."""

    def __init__(self, sections: Sections) -> None:
        self.sections = sections
        self.problems: list[str] = []

    def _raw(self, section: str, key: str) -> str | None:
        # configparser lowercases keys; accept the documented spellings.
        return self.sections.get(section, {}).get(key.lower())

    def get(self, section: str, key: str, cast, default=None, required=False):
        raw = self._raw(section, key)
        if raw is None:
            if required:
                self.problems.append(f"{section}.{key}: missing required field")
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            self.problems.append(f"{section}.{key}: {exc}")
            return default

    def check_unknown(self) -> None:
        for section, fields in self.sections.items():
            known = _KEYS.get(section)
            if known is None:
                self.problems.append(f"{section}: unknown section")
                continue
            self.problems += [
                f"{section}.{key}: unknown field" for key in fields if key not in known
            ]

    def construct(self, path: str, factory, /, **kwargs):
        """Build ``factory`` from kwargs; a None kwarg takes the field default."""
        try:
            return factory(**{k: v for k, v in kwargs.items() if v is not None})
        except ValueError as exc:
            self.problems.append(f"{field_path(path, str(exc))}: {exc}")
            return None


def field_path(section: str, message: str) -> str:
    """``section.key`` if ``message`` opens with the attribute a key of
    ``section`` sets, else ``section``."""
    key = _ATTRIBUTE_KEYS.get(section, {}).get(message.split(" ", 1)[0])
    return f"{section}.{key}" if key else section


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _choice(options: tuple[str, ...]):
    def cast(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ValueError(f"expected one of {options}, got {raw!r}")
        return value

    return cast


def build_config(sections: Sections) -> RunConfig:
    """Validate one (non-ranged) section mapping into a RunConfig.

    Raises ConfigError listing every violation with its dotted field path.
    """
    b = _Builder(sections)
    b.check_unknown()

    assume = b.construct(
        "physical",
        PhysicalAssumptions,
        p=b.get("physical", "p", _finite, required=True, default=1e-3),
        p_star=b.get("physical", "p_star", _finite),
        prefactor_a=b.get("physical", "prefactor_a", _finite),
        t_se=b.get("physical", "t_se", _finite),
        tau_r=b.get("physical", "tau_r", _finite),
    )
    inst = b.construct(
        "algorithm",
        FHInstance,
        l_side=b.get("algorithm", "L", int, required=True, default=2),
        t_hop=b.get("algorithm", "t_hop", _finite, default=1.0),
        u_onsite=b.get("algorithm", "U", _finite, default=8.0),
        t_evol=b.get("algorithm", "T_evol", _finite, required=True, default=1.0),
        eps_total=b.get("algorithm", "eps_total", _finite, required=True, default=0.01),
    )
    scheme = b.get(
        "algorithm", "scheme", _choice(SCHEMES), required=True, default=SCHEMES[0]
    )

    name = b.get("factory", "name", str)
    if name is not None and name != "custom":
        try:
            spec = factory_by_name(name)
        except KeyError as exc:
            b.problems.append(f"factory.name: {exc.args[0]}")
            spec = None
    else:
        custom = {k: b._raw("factory", k) for k in ("q_f", "tau_f_rounds", "n_out")}
        if any(v is not None for v in custom.values()):
            spec = b.construct(
                "factory",
                FactorySpec,
                name="custom",
                q_f=b.get("factory", "q_f", int, required=True, default=1),
                tau_f_rounds=b.get(
                    "factory", "tau_f_rounds", _finite, required=True, default=1.0
                ),
                n_out=b.get("factory", "n_out", int, default=1),
                out_infidelity=b.get(
                    "factory", "out_infidelity", _finite, required=True, default=0.5
                ),
                valid_p=b.get("factory", "valid_p", _finite, default=1e-3),
            )
        else:
            # Default to the built-in design characterized nearest to p.
            p = assume.p if assume is not None else 1e-3
            spec = factory_by_name(
                "15to1x20to4-p4" if p <= 3e-4 else "15to1x15to1-p3"
            )
    cultivation = b.get("factory", "cultivation", _bool, default=False)

    options = b.construct(
        "options",
        EstimateOptions,
        e_qec=b.get("qec", "E", _finite),
        d_max=b.get("qec", "d_max", int),
        t_gate_budget=b.get("qec", "t_gate_budget", _finite),
        f_r=b.get("algorithm", "f_r", _finite),
        hwp_m=b.get("algorithm", "m", int),
        log_base=b.get("algorithm", "log_base", _choice(get_args(LogBase))),
    )
    output_format = b.get(
        "output", "format", _choice(OUTPUT_FORMATS), default="table"
    )
    output_path = b.get("output", "path", str)

    if options is not None:
        if not (0 < options.e_qec < 1):
            b.problems.append("qec.E: must lie in (0, 1)")
        if not (0 < options.t_gate_budget <= 1):
            b.problems.append("qec.t_gate_budget: must lie in (0, 1]")
        if not (0 <= options.f_r <= 1):
            b.problems.append("algorithm.f_r: must lie in [0, 1]")
        if options.hwp_m is not None and options.hwp_m < 2:
            b.problems.append("algorithm.m: must be at least 2")

    if b.problems or assume is None or inst is None or spec is None or options is None:
        raise ConfigError(sorted(set(b.problems)))
    return RunConfig(
        assume=assume,
        inst=inst,
        scheme=scheme,
        spec=spec,
        cultivation=bool(cultivation),
        options=options,
        output_format=output_format,
        output_path=output_path,
        absent=frozenset(
            f"{section}.{key}"
            for section, keys in _KEYS.items()
            for lower, key in keys.items()
            if lower not in sections.get(section, {})
        ),
    )


def sections_from_inputs(inputs: dict[str, Any]) -> Sections:
    """Inverse of RunConfig.resolved_inputs, enabling report round-trips."""
    sections: Sections = {}
    for section, fields in inputs.items():
        out: dict[str, str] = {}
        for key, value in fields.items():
            if value is None:
                continue
            out[key.lower()] = str(value)
        sections[section] = out
    return sections


def expand_sweep(sections: Sections, max_ranged: int = 3) -> list[Sections]:
    """Cartesian expansion of comma-separated field values.

    Grid order is lexicographic in (section, field) order with earlier
    fields varying slowest, so sweep output row order is stable.
    """
    ranged: list[tuple[str, str, list[str]]] = []
    for section in sorted(sections):
        for key in sorted(sections[section]):
            value = sections[section][key]
            if "," in value:
                parts = [v.strip() for v in value.split(",") if v.strip()]
                ranged.append((section, key, parts))
    if len(ranged) > max_ranged:
        paths = ", ".join(f"{s}.{k}" for s, k, _ in ranged)
        raise ConfigError(
            [f"sweep: at most {max_ranged} ranged fields allowed, got {paths}"]
        )
    if not ranged:
        return [sections]
    grids = []
    for combo in itertools.product(*(values for _, _, values in ranged)):
        point = {s: dict(fields) for s, fields in sections.items()}
        for (section, key, _), value in zip(ranged, combo):
            point[section][key] = value
        grids.append(point)
    return grids
