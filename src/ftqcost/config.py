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
field paths. An absent optional field takes the default, in
``_field_defaults``, of the record it feeds. In sweep mode, comma-separated
values in at most MAX_RANGED fields expand to a cartesian grid; a sweep
casts each raw string once and builds each input once per distinct raws.
"""

from __future__ import annotations

import io
import itertools
import math
from functools import cache, partial
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, get_args

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
    """The sections of an INI file, in one pass over its lines, as
    ``configparser.ConfigParser(interpolation=None)`` reads them into
    ``{name: dict(parser[name])}``.

    A line whose first non-blank character is ``#`` or ``;`` is a comment.
    ``[name]`` opens a section; the options of ``DEFAULT`` fill in every
    other section. ``key = value`` or ``key: value`` sets a key, lower-cased,
    at the first ``=`` or ``:``. A line indented deeper than its key's line
    continues the value, and blank lines inside a value are kept. Values are
    read raw: ``%`` is not special, and a ``#`` after a value is part of it.
    A repeated section or key, a key before any section header, a line that
    is neither and bytes that do not decode raise ConfigError, worded as
    configparser words them.
    """
    try:
        with open(path, encoding=io.text_encoding(None)) as lines:
            return _parse(lines, path)
    except OSError:
        raise ConfigError([f"config file not found or unreadable: {path}"]) from None
    except UnicodeDecodeError as exc:
        raise _unparsable(path, str(exc)) from exc


def _unparsable(path: str, reason: str) -> ConfigError:
    return ConfigError([f"{path}: {' '.join(reason.split())}"])


def _parse(lines: Iterable[str], path: str) -> Sections:
    sections: Sections = {}
    defaults: dict[str, str] = {}
    seen: set[tuple[str, str]] = set()  # (section, key) pairs read
    fields = name = key = None  # the open section, its name and its last key
    indent = 0  # of the last header, key or bad line
    bad: list[str] = []  # the lines that are neither a header nor a key
    for lineno, line in enumerate(lines, 1):
        value = line.strip()
        if not value or value[0] in "#;":
            if not value and key:
                fields[key] += "\n"
            continue
        level = len(line) - len(line.lstrip())
        if key and level > indent:
            fields[key] += "\n" + value
            continue
        indent = level
        end = value.rfind("]")
        if value[0] == "[" and end > 1:
            name, key = value[1:end], None
            if name in sections:
                raise _unparsable(path, f"While reading from {path!r} [line {lineno:2d}]: "
                                        f"section {name!r} already exists")
            fields = defaults if name == "DEFAULT" else sections.setdefault(name, {})
            continue
        if fields is None:
            raise _unparsable(path, f"File contains no section headers.\n"
                                    f"file: {path!r}, line: {lineno}\n{line!r}")
        equals, colon = value.find("="), value.find(":")
        at = equals if colon < 0 or 0 <= equals < colon else colon
        if at < 0:
            bad.append(f"\n\t[line {lineno:2d}]: {line!r}")
            continue
        key = value[:at].rstrip().lower()
        if not key:
            bad.append(f"\n\t[line {lineno:2d}]: {line!r}")
        if (name, key) in seen:
            raise _unparsable(path, f"While reading from {path!r} [line {lineno:2d}]: "
                                    f"option {key!r} in section {name!r} already exists")
        seen.add((name, key))
        fields[key] = value[at + 1:].lstrip()
    if bad:
        raise _unparsable(path, f"Source contains parsing errors: {path!r}{''.join(bad)}")
    for fields in sections.values():
        for key, value in defaults.items():
            fields.setdefault(key, value)
    # A value ends at its last non-blank line.
    return {
        name: {key: value.rstrip() for key, value in fields.items()}
        for name, fields in sections.items()
    }


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


def _entry(section: str, key: str, field: _Field) -> tuple[str, str, str, Callable, _Field]:
    """(dotted path, input, keyword, cast, field); the input "" is RunConfig itself."""
    target, _, keyword = field.path.rpartition(".")
    return f"{section}.{key}", target, keyword, field.cast, field


# Derived once at import. Per section: the lower-cased spelling read_sections
# gives a key -> its entry.
_LOOKUP = {
    section: {key.lower(): _entry(section, key, field) for key, field in fields.items()}
    for section, fields in _FIELDS.items()
}
_ENTRIES = [entry for entries in _LOOKUP.values() for entry in entries.values()]
_ALL_PATHS = frozenset(path for path, *_ in _ENTRIES)
_REQUIRED = frozenset(path for path, *_, field in _ENTRIES if field.required)
_REQUIRED_BUILTIN = _REQUIRED - {path for path, target, *_ in _ENTRIES if target == "spec"}
# The fields that describe a factory design, by (dotted path, keyword).
_SPEC_FIELDS = [
    (path, keyword) for path, target, keyword, *_ in _ENTRIES
    if target == "spec" and keyword != "name"
]
# Per input: the keyword arguments every build starts from.
_SEEDS = {
    target: {
        keyword: field.default
        for _, t, keyword, _, field in _ENTRIES
        if t == target and field.default is not _OWN_DEFAULT
    }
    for _, target, *_ in _ENTRIES
}
# Per section: the documented key -> the getter of its RunConfig attribute.
_GETTERS = {
    section: {key: attrgetter(field.path) for key, field in fields.items()}
    for section, fields in _FIELDS.items()
}
# The attribute a key sets -> the key's dotted path, to name the field a
# constructor's, compiler's or estimator's message opens with. Attribute
# names are unique across sections.
_ATTRIBUTE_PATHS = {keyword: path for path, _, keyword, *_ in _ENTRIES}


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
            path, target, keyword, cast, _ = entry
            given.add(path)
            try:
                values[target][keyword] = cast(raw)
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


_ASSUME = partial(_construct, "physical", PhysicalAssumptions)
_INST = partial(_construct, "algorithm", FHInstance)
_OPTIONS = partial(_construct, "options", EstimateOptions)
# The record each input's keyword arguments build; RunConfig's own and the factory's stay kwargs.
_BUILDS = {"assume": _ASSUME, "inst": _INST, "options": _OPTIONS}
_NO_PATHS: frozenset[str] = frozenset()
_TARGETS = ("assume", "inst", "options", "", "spec")
_MISSING = "{}: missing required field".format


def _input(values: dict[str, dict[str, Any]], target: str, parts: Sequence[_Cast] = ()) -> tuple:
    """The input ``target``, from ``values`` and the casts ``parts`` of the
    ranged fields that feed it: the input built, or its keyword arguments;
    its paths that did not cast; its problems."""
    kwargs, bad, filed = values[target], _NO_PATHS, []
    if parts:
        kwargs = dict(kwargs)
        for part in parts:
            kwargs.update(part.values[target])
            bad |= part.unparsed
            filed += part.problems
    return (_BUILDS[target](kwargs, filed) if target in _BUILDS else kwargs), bad, filed


def _resolver(cast: _Cast) -> Callable[[list[tuple], Any], RunConfig]:
    """``resolve(inputs, spec_raws)``: the RunConfig of a point's inputs, one
    per _TARGETS as _input gives them, or ConfigError listing the problems
    found, each with its dotted field path. What no point changes is settled
    from ``cast``, the fixed fields, once: the paths absent and parsed, the
    missing required ones and whether a custom factory is described. The
    factory is built once per (spec_raws, design name, cultivation), since p
    may choose the design."""
    _, given, unparsed, problems = cast
    absent, parsed = _ALL_PATHS - given, given - unparsed
    custom_given = not given.isdisjoint(_CUSTOM_KEYS)
    missing = _REQUIRED_BUILTIN - given, _REQUIRED - given
    designs: dict[tuple, tuple] = {}  # -> (spec, effective spec, problems)

    def resolve(inputs: list[tuple], spec_raws: Any = None) -> RunConfig:
        (assume, assume_bad, a), (inst, _, b), (options, _, c), (fields, _, d), spec_input = inputs
        kwargs, spec_bad, e = spec_input
        name = kwargs["name"]
        custom = custom_given and name == "custom"
        spec, effective, f = None, None, ()
        if custom or name != "custom" or (
            assume is not None and "physical.p" in parsed and "physical.p" not in assume_bad
        ):
            if not custom and name == "custom":
                # Default to 15to1x20to4-p4 at p <= 3e-4 and to 15to1x15to1-p3 above
                # it: a fixed cut, a little below the log-midpoint 3.16e-4 of the
                # designs' valid_p. With no valid p the design is unknown, and
                # p's problem is filed.
                name = "15to1x20to4-p4" if assume.p <= 3e-4 else "15to1x15to1-p3"
            key = spec_raws, name, fields["cultivation"]
            if key not in designs:
                found: list[str] = []
                spec = effective = _factory(kwargs, name, custom, parsed - spec_bad, found)
                if spec and fields["cultivation"]:
                    effective = _construct("factory", cultivation_variant, {"spec": spec}, found)
                designs[key] = spec, effective, found
            spec, effective, f = designs[key]
        # Every construction that failed above filed a problem.
        if problems or a or b or c or d or e or f or missing[custom]:
            filed = {*problems, *a, *b, *c, *d, *e, *f, *map(_MISSING, missing[custom])}
            raise ConfigError(sorted(filed))
        return RunConfig(assume, inst, fields["scheme"], spec, fields["cultivation"], options,
                         fields["output_format"], fields["output_path"], absent, effective)

    return resolve


def build_config(sections: Sections) -> RunConfig:
    """Validate one (non-ranged) section mapping into a RunConfig.

    One pass over the given keys looks each up in the field table, casts it
    and files it under its input. Raises ConfigError listing the problems
    found, each with its dotted field path.
    """
    cast = _cast(sections, _seeded())
    return _resolver(cast)([_input(cast.values, target) for target in _TARGETS])


def sections_from_inputs(inputs: dict[str, Any]) -> Sections:
    """Inverse of RunConfig.resolved_inputs, enabling report round-trips."""
    return {
        section: {key.lower(): str(value) for key, value in fields.items() if value is not None}
        for section, fields in inputs.items()
    }


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
    # Each key under its documented spelling; an unknown one as given.
    paths = [_LOOKUP.get(s, {}).get(k, (f"{s}.{k}",))[0] for s, k, _ in ranged]
    if len(ranged) > MAX_RANGED:
        raise ConfigError(
            [f"sweep: at most {MAX_RANGED} ranged fields allowed, got {', '.join(paths)}"]
        )
    if blank := [path for path, (_, _, parts) in zip(paths, ranged) if not parts]:
        raise ConfigError([f"{path}: a ranged field needs a non-blank value" for path in blank])
    return ranged


def sweep_configs(sections: Sections) -> Iterator[RunConfig]:
    """``build_config`` of each point of the ranged fields' grid, lazily.

    Once per call, the fixed fields and each distinct raw string of a ranged
    field are cast, and what no point changes is settled; each input is built
    once per combination of the raw strings that feed it. A point looks its
    inputs up and builds its RunConfig alone. Too many or all-blank ranged
    fields raise ConfigError at once; a point that does not build raises when
    it is reached.
    """
    ranged = _ranged(sections)
    known = {(section, key) for section, key, _ in ranged if key in _LOOKUP.get(section, ())}
    fixed = {s: {k: v for k, v in f.items() if (s, k) not in known} for s, f in sections.items()}
    cast = _cast(fixed, _seeded())
    at: dict[str, list[int]] = {}  # an input -> the ranged fields that feed it
    casts: dict[int, dict[str, _Cast]] = {}  # a ranged field -> each distinct raw, cast
    for i, (section, key, raws) in enumerate(ranged):
        if (section, key) in known:
            target = _LOOKUP[section][key][1]
            at.setdefault(target, []).append(i)
            casts[i] = {
                raw: _cast({section: {key: raw}}, _Cast({target: {}}, cast.given, set(), []))
                for raw in set(raws)
            }
    resolve = _resolver(cast)

    @cache
    def inputs(target: str, raws: Any) -> tuple:
        """An input by its target and the raws that feed it at a point, None if none do."""
        fed = at.get(target, ())
        raws = raws if len(fed) > 1 else (raws,)
        return _input(cast.values, target, [casts[i][raw] for i, raw in zip(fed, raws)])

    # Per input: its target and the getter of its raws at a point, None if none feed it.
    keys = [(target, itemgetter(*at[target]) if target in at else None) for target in _TARGETS]
    spec_key = keys[-1][1]

    def point(raws: tuple[str, ...]) -> RunConfig:
        inputs_at = [inputs(target, key and key(raws)) for target, key in keys]
        return resolve(inputs_at, spec_key and spec_key(raws))

    return map(point, itertools.product(*(values for _, _, values in ranged)))
