"""Declarative run configuration.

Configs are INI files with sections mirroring the run pipeline:

    [physical]   p, p_star, prefactor_a, t_se, tau_r
    [algorithm]  scheme, L, t_hop, U, T_evol, eps_total, m, f_r, log_base
    [factory]    name | (q_f, tau_f_rounds, n_out, out_infidelity, valid_p),
                 cultivation
    [qec]        E, d_max, t_gate_budget
    [output]     format, path

One field table, ``_FIELDS``, names every key with its cast and the
RunConfig attribute it resolves to. Every value is validated by the input
record it feeds before any computation runs; each record's first violation
and every unparsable or missing field are reported together with dotted
field paths. An absent optional field takes the default of the dataclass
field it feeds. In sweep mode, comma-separated values in at most MAX_RANGED
fields expand to a cartesian grid; sweep_configs casts the fixed fields once
and, at each point, only the ranged ones.
"""

from __future__ import annotations

import configparser
import itertools
import math
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterator, NamedTuple, get_args

from .errors import ConfigError
from .estimator import EstimateOptions
from .factories import FactorySpec, cultivation_variant, factory_by_name
from .fermi_hubbard import SCHEMES, FHInstance, LogBase
from .qec import PhysicalAssumptions

Sections = dict[str, dict[str, str]]

OUTPUT_FORMATS = ("table", "json", "csv")

MAX_RANGED = 3
"""Most fields a sweep may range over."""


class RunConfig(NamedTuple):
    """Fully validated and resolved inputs for one estimator run.

    ``spec`` is the base factory design and ``effective_spec`` the one
    estimated: its cultivation what-if when ``cultivation`` is on, else
    ``spec``, so that echoed inputs round-trip without double-applying the
    scaling. ``absent`` holds the dotted paths of the fields the input did
    not give.
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
    effective_spec: FactorySpec

    def resolved_inputs(self) -> dict[str, Any]:
        """Echo of every input after defaulting, suitable for re-ingestion."""
        return {
            section: {key: get(self) for key, get in getters.items()}
            for section, getters in _GETTERS.items()
        }


def read_sections(path: str) -> Sections:
    """The sections of an INI file, values read raw: ``%`` is not special."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: {' '.join(str(exc).split())}"]) from exc
    if not read:
        raise ConfigError([f"config file not found or unreadable: {path}"])
    return {name: dict(parser[name]) for name in parser.sections()}


def field_path(section: str, message: str) -> str:
    """The dotted path of the key whose attribute ``message`` opens with
    ("t_se must be positive" -> ``physical.t_se``), else ``section``."""
    return _ATTRIBUTE_PATHS.get(message.split(" ", 1)[0], section)


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


_OWN_DEFAULT = object()


class _Field(NamedTuple):
    """One config key. ``path`` is the RunConfig attribute it resolves to,
    ``input.keyword`` when it feeds a constructed input. ``default`` is taken
    when the key is absent and the constructor has none; a required field's
    default is a placeholder that lets the build go on and report every
    problem at once."""

    path: str
    cast: Callable[[str], Any]
    default: Any = _OWN_DEFAULT
    required: bool = False


# Every config key, by section: the one place to add one. Parsing, the
# unknown-key check, ``absent``, the inputs echo and field_path read it.
_FIELDS = {
    "physical": {
        "p": _Field("assume.p", _finite, 1e-3, required=True),
        "p_star": _Field("assume.p_star", _finite),
        "prefactor_a": _Field("assume.prefactor_a", _finite),
        "t_se": _Field("assume.t_se", _finite),
        "tau_r": _Field("assume.tau_r", _finite),
    },
    "algorithm": {
        "scheme": _Field("scheme", _choice(SCHEMES), SCHEMES[0], required=True),
        "L": _Field("inst.l_side", int, 2, required=True),
        "t_hop": _Field("inst.t_hop", _finite, 1.0),
        "U": _Field("inst.u_onsite", _finite, 8.0),
        "T_evol": _Field("inst.t_evol", _finite, 1.0, required=True),
        "eps_total": _Field("inst.eps_total", _finite, 0.01, required=True),
        "m": _Field("options.hwp_m", int),
        "f_r": _Field("options.f_r", _finite),
        "log_base": _Field("options.log_base", _choice(get_args(LogBase))),
    },
    # Any of q_f, tau_f_rounds and n_out selects a custom spec; the spec's
    # required fields are required only then.
    "factory": {
        "name": _Field("spec.name", str, "custom"),
        "q_f": _Field("spec.q_f", int, 1, required=True),
        "tau_f_rounds": _Field("spec.tau_f_rounds", _finite, 1.0, required=True),
        "n_out": _Field("spec.n_out", int, 1),
        "out_infidelity": _Field("spec.out_infidelity", _finite, 0.5, required=True),
        "valid_p": _Field("spec.valid_p", _finite, 1e-3),
        "cultivation": _Field("cultivation", _bool, False),
    },
    "qec": {
        "E": _Field("options.e_qec", _finite),
        "d_max": _Field("options.d_max", int),
        "t_gate_budget": _Field("options.t_gate_budget", _finite),
    },
    "output": {
        "format": _Field("output_format", _choice(OUTPUT_FORMATS), "table"),
        "path": _Field("output_path", str, None),
    },
}
_CUSTOM_KEYS = frozenset({"factory.q_f", "factory.tau_f_rounds", "factory.n_out"})


def _entry(section: str, key: str, field: _Field) -> tuple[str, str, str, _Field]:
    """(dotted path, input, keyword, field); the input "" is RunConfig itself."""
    target, _, keyword = field.path.rpartition(".")
    return f"{section}.{key}", target, keyword, field


# Derived once at import. Per section: configparser's lower-cased spelling
# -> its entry.
_LOOKUP = {
    section: {key.lower(): _entry(section, key, field) for key, field in fields.items()}
    for section, fields in _FIELDS.items()
}
_ENTRIES = [entry for entries in _LOOKUP.values() for entry in entries.values()]
_ALL_PATHS = frozenset(path for path, *_ in _ENTRIES)
_REQUIRED = frozenset(path for path, _, _, field in _ENTRIES if field.required)
_REQUIRED_BUILTIN = _REQUIRED - {path for path, target, *_ in _ENTRIES if target == "spec"}
# The fields that describe a factory design, by (dotted path, keyword).
_SPEC_FIELDS = [
    (path, keyword) for path, target, keyword, _ in _ENTRIES
    if target == "spec" and keyword != "name"
]
# Per input: the keyword arguments every build starts from.
_SEEDS = {
    target: {
        keyword: field.default
        for _, t, keyword, field in _ENTRIES
        if t == target and field.default is not _OWN_DEFAULT
    }
    for _, target, _, _ in _ENTRIES
}
# Per section: the documented key -> the getter of its RunConfig attribute.
_GETTERS = {
    section: {key: attrgetter(field.path) for key, field in fields.items()}
    for section, fields in _FIELDS.items()
}
# The attribute a key sets -> the key's dotted path, to name the field a
# constructor's, compiler's or estimator's message opens with. Attribute
# names are unique across sections.
_ATTRIBUTE_PATHS = {keyword: path for path, _, keyword, _ in _ENTRIES}


class _Cast(NamedTuple):
    """Sections cast key by key: per input, the keyword arguments it is built
    from; the dotted paths given and those that did not cast; the problems
    filed so far."""

    values: dict[str, dict[str, Any]]
    given: set[str]
    unparsed: set[str]
    problems: list[str]


def _seeded() -> _Cast:
    return _Cast({target: dict(seed) for target, seed in _SEEDS.items()}, set(), set(), [])


def _cast(sections: Sections, into: _Cast) -> _Cast:
    """Look each key of ``sections`` up in the field table, cast it and file
    it under its input in ``into``, which is returned."""
    values, given, unparsed, problems = into
    for section, fields in sections.items():
        lookup = _LOOKUP.get(section)
        if lookup is None:
            problems.append(f"{section}: unknown section")
            continue
        for key, raw in fields.items():
            entry = lookup.get(key)
            if entry is None:
                problems.append(f"{section}.{key}: unknown field")
                continue
            path, target, keyword, field = entry
            given.add(path)
            try:
                values[target][keyword] = field.cast(raw)
            except ValueError as exc:
                problems.append(f"{path}: {exc}")
                unparsed.add(path)
    return into


def _construct(section: str, factory, kwargs: dict[str, Any], problems: list[str]):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        problems.append(f"{field_path(section, str(exc))}: {exc}")
        return None


def _factory(
    kwargs: dict[str, Any], name: str, custom: bool, parsed: set[str], problems: list[str]
) -> FactorySpec | None:
    """The custom design ``kwargs`` describe, else the built-in ``name``."""
    if custom:
        return _construct("factory", FactorySpec, kwargs, problems)
    try:
        spec = factory_by_name(name)
    except KeyError as exc:
        problems.append(f"factory.name: {exc.args[0]}")
        return None
    # A built-in design is estimated as it is: a field given with it must
    # agree with it, or it would be dropped without a word.
    problems += [
        f"{path}: {kwargs[keyword]!r} differs from the built-in "
        f"factory {name}'s {getattr(spec, keyword)!r}"
        for path, keyword in _SPEC_FIELDS
        if path in parsed and kwargs[keyword] != getattr(spec, keyword)
    ]
    return spec


def _built(memo: dict | None, key, args, build, problems: list[str]):
    """``build(args, problems)``. A sweep's ``memo`` keeps each key's last
    args, record and filed problems, and gives them again, without a build,
    for args that are that very object."""
    if memo is None:
        return build(args, problems)
    last = memo.get(key)
    if last is None or last[0] is not args:
        filed: list[str] = []
        last = memo[key] = args, build(args, filed), filed
    problems += last[2]
    return last[1]


_ASSUME = partial(_construct, "physical", PhysicalAssumptions)
_INST = partial(_construct, "algorithm", FHInstance)
_OPTIONS = partial(_construct, "options", EstimateOptions)


def _resolve(cast: _Cast, memo: dict | None = None) -> RunConfig:
    """Build the inputs of ``cast`` into a RunConfig, or raise ConfigError
    listing the problems found, each with its dotted field path.

    With a sweep's ``memo``, an input whose keyword arguments are the very
    dict it was last built from is not built again. The factory is keyed on
    its design's name too, since p may choose it.
    """
    values, given, unparsed, problems = cast
    parsed = given - unparsed
    name = values["spec"]["name"]
    custom = name == "custom" and not given.isdisjoint(_CUSTOM_KEYS)
    required = _REQUIRED if custom else _REQUIRED_BUILTIN
    problems += [f"{path}: missing required field" for path in required - given]

    assume = _built(memo, "assume", values["assume"], _ASSUME, problems)
    inst = _built(memo, "inst", values["inst"], _INST, problems)
    options = _built(memo, "options", values["options"], _OPTIONS, problems)
    if custom or name != "custom" or (assume is not None and "physical.p" in parsed):
        if not custom and name == "custom":
            # Default to the built-in design characterized nearest to p. With
            # no valid p the design is unknown, and p's problem is filed.
            name = "15to1x20to4-p4" if assume.p <= 3e-4 else "15to1x15to1-p3"
        spec = _built(
            memo, ("spec", name), values["spec"],
            lambda kwargs, filed: _factory(kwargs, name, custom, parsed, filed),
            problems,
        )

    # Every construction that failed above filed a problem.
    if problems:
        raise ConfigError(sorted(set(problems)))
    effective = (
        _built(memo, "cultivation", spec, lambda s, _: cultivation_variant(s), problems)
        if values[""]["cultivation"] else spec
    )
    return RunConfig(
        assume=assume, inst=inst, spec=spec, options=options,
        absent=_ALL_PATHS - given, effective_spec=effective, **values[""],
    )


def build_config(sections: Sections) -> RunConfig:
    """Validate one (non-ranged) section mapping into a RunConfig.

    One pass over the given keys looks each up in the field table, casts it
    and files it under its input. Raises ConfigError listing the problems
    found, each with its dotted field path.
    """
    return _resolve(_cast(sections, _seeded()))


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


def _ranged(sections: Sections) -> list[tuple[str, str, list[str]]]:
    """Each ranged field, (section, key, its values), in grid order:
    lexicographic in (section, field), earlier fields varying slowest."""
    ranged = []
    for section in sorted(sections):
        for key in sorted(sections[section]):
            value = sections[section][key]
            if "," in value:
                parts = [v.strip() for v in value.split(",") if v.strip()]
                ranged.append((section, key, parts))
    if len(ranged) > MAX_RANGED:
        # Each key under its documented spelling; an unknown one as given.
        paths = ", ".join(
            _LOOKUP.get(s, {}).get(k, (f"{s}.{k}",))[0] for s, k, _ in ranged
        )
        raise ConfigError(
            [f"sweep: at most {MAX_RANGED} ranged fields allowed, got {paths}"]
        )
    return ranged


def expand_sweep(sections: Sections) -> list[Sections]:
    """Cartesian expansion of comma-separated field values.

    Grid order is lexicographic in (section, field) order with earlier
    fields varying slowest, so sweep output row order is stable.
    """
    ranged = _ranged(sections)
    grids = []
    for combo in itertools.product(*(values for _, _, values in ranged)):
        point = {s: dict(fields) for s, fields in sections.items()}
        for (section, key, _), value in zip(ranged, combo):
            point[section][key] = value
        grids.append(point)
    return grids


def sweep_configs(sections: Sections) -> Iterator[RunConfig]:
    """``build_config`` of each point of ``expand_sweep(sections)``, lazily.

    The fixed fields are cast once. Each point casts its ranged fields
    alone, and builds again only the inputs those fields feed, so that each
    input the point shares with the last is the same record. Too many ranged
    fields raise ConfigError at once; a point that does not build raises
    when it is reached.
    """
    ranged = _ranged(sections)
    keys = {(section, key) for section, key, _ in ranged}
    base = _cast(
        {s: {k: v for k, v in f.items() if (s, k) not in keys} for s, f in sections.items()},
        _seeded(),
    )
    # An input a ranged field feeds gets its own dict at every point, whether
    # the field casts or not; every other input keeps the base's dict, which
    # _resolve reads as unchanged. So a factory dict that is the base's also
    # means the same custom keys and the same parsed factory fields.
    touched = {_LOOKUP[s][k][1] for s, k in keys if k in _LOOKUP.get(s, ())}

    def points() -> Iterator[RunConfig]:
        memo: dict = {}
        for combo in itertools.product(*(values for _, _, values in ranged)):
            values = dict(base.values)
            for target in touched:
                values[target] = dict(values[target])
            point: Sections = {}
            for (section, key, _), raw in zip(ranged, combo):
                point.setdefault(section, {})[key] = raw
            cast = _Cast(values, set(base.given), set(base.unparsed), list(base.problems))
            yield _resolve(_cast(point, cast), memo)

    return points()
