"""Span tracing of ftqcost's layers, installed from outside the package.

Each public function is replaced, at the module attribute its callers look
it up through, by a wrapper that records a span: name, start, end, parent.
For example ``estimate`` reaches ``layout_at`` through
``ftqcost.estimator.layout_at`` (it was bound there by ``from ... import``),
so that is the attribute wrapped, not ``ftqcost.fermi_hubbard.layout_at``.

Spans of one unit of work (a sweep call, a report, a lookup) share the unit
id. Aggregates (count, total and self time per span name) are kept for every
span; raw spans are kept up to a cap and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# (module, attribute, span name). A span name may be installed at several
# attributes when callers reach the same function through different modules.
SITES = (
    ("ftqcost.cli", "main", "cli.main"),
    ("ftqcost.cli", "read_sections", "config.read_sections"),
    ("ftqcost.cli", "expand_sweep", "config.expand_sweep"),
    ("ftqcost.cli", "build_config", "config.build_config"),
    ("ftqcost.config", "read_sections", "config.read_sections"),
    ("ftqcost.config", "build_config", "config.build_config"),
    ("ftqcost.report", "load_defaults", "report.load_defaults"),
    ("ftqcost.report", "build_report", "report.build_report"),
    ("ftqcost.report", "build_comparison", "report.build_comparison"),
    ("ftqcost.report", "csv_row", "report.csv_row"),
    ("ftqcost.report", "render_json", "report.render"),
    ("ftqcost.report", "render_csv", "report.render"),
    ("ftqcost.report", "estimate", "estimator.estimate"),
    ("ftqcost.report", "sensitivity", "estimator.sensitivity"),
    ("ftqcost.report", "compare", "estimator.compare"),
    ("ftqcost.estimator", "estimate", "estimator.estimate"),
    ("ftqcost.estimator", "compile_scheme", "fermi_hubbard.compile_scheme"),
    ("ftqcost.estimator", "choose_distance", "qec.choose_distance"),
    ("ftqcost.estimator", "layout_at", "fermi_hubbard.layout_at"),
    ("ftqcost.fermi_hubbard", "provision", "factories.provision"),
    ("ftqcost.subroutines", "qroam_optimal", "subroutines.qroam_optimal"),
    ("ftqcost.subroutines", "qroam_cost", "subroutines.qroam_cost"),
)

# Spans that are only counted: they run inside tight loops, where a full span
# would cost more than the work it measures.
COUNT_ONLY = {"subroutines.qroam_cost"}

SPAN_CAP = 50_000


class Tracer:
    def __init__(self) -> None:
        self.unit = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # count, total s, self s
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._compile_keys: set = set()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((self.unit, span_id, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-site hooks ----------------------------------------------------

    def _count_candidates(self, fn):
        """Count the distances a search evaluates via its volume callback."""
        try:
            sig = inspect.signature(fn)
            if "volume_at" not in sig.parameters:
                raise TypeError("no volume_at parameter")
        except (TypeError, ValueError) as exc:
            self.absent["qec.candidates"] = f"choose_distance: {exc}"
            return None
        counts = self.counts

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            inner = bound.arguments["volume_at"]

            def volume_at(d):
                counts["qec.candidates"] += 1
                return inner(d)

            bound.arguments["volume_at"] = volume_at
            return bound.args, bound.kwargs

        return before

    def _record_compile_key(self, fn):
        """Count compile calls repeating an earlier (scheme, inst, m, log_base)."""
        names = ("scheme", "inst", "m", "log_base")
        try:
            sig = inspect.signature(fn)
            missing = [n for n in names if n not in sig.parameters]
            if missing:
                raise TypeError(f"no {', '.join(missing)} parameter")
        except (TypeError, ValueError) as exc:
            self.absent["fermi_hubbard.compile_repeats"] = f"compile_scheme: {exc}"
            return None
        keys, counts = self._compile_keys, self.counts

        def after(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments[n] for n in names)
            if key in keys:
                counts["fermi_hubbard.compile_repeats"] += 1
            keys.add(key)

        return after

    def _count_bytes(self, args, kwargs, result):
        if isinstance(result, str):
            self.counts["report.bytes_out"] += len(result.encode())

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every site that exists; note the ones that do not."""
        installed = set()
        for module_name, attr, name in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.setdefault(name, f"{module_name}.{attr} not found")
                continue
            if name in COUNT_ONLY:
                wrapped = self.counter(name, fn)
            elif name == "qec.choose_distance":
                wrapped = self.span(name, fn, before=self._count_candidates(fn))
            elif name == "fermi_hubbard.compile_scheme":
                wrapped = self.span(name, fn, after=self._record_compile_key(fn))
            elif name == "report.render":
                wrapped = self.span(name, fn, after=self._count_bytes)
            else:
                wrapped = self.span(name, fn)
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrapped)
            installed.add(name)
        for name in installed:
            self.absent.pop(name, None)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for unit, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"unit": unit, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _ms(seconds: float, units: int) -> float:
    return 1e3 * seconds / units


# Layer metric -> (unit, span names it needs, value from (stats, counts, units)).
# Every *_ms metric is self time per unit of work (a span's duration minus
# its child spans), so the *_ms metrics add up to the traced call time.
def _self(stats, *names):
    return sum(stats[n][2] for n in names)


def _calls(stats, *names):
    return sum(stats[n][0] for n in names)


LAYER_METRICS = {
    "config.build_ms": ("ms", ("config.build_config",),
                        lambda s, c, u: _ms(_self(s, "config.read_sections", "config.expand_sweep",
                                                  "config.build_config"), u)),
    "report.defaults_ms": ("ms", ("report.load_defaults",),
                           lambda s, c, u: _ms(_self(s, "report.load_defaults"), u)),
    "report.defaults_loads": ("count", ("report.load_defaults",),
                              lambda s, c, u: _calls(s, "report.load_defaults") / u),
    "fermi_hubbard.compile_ms": ("ms", ("fermi_hubbard.compile_scheme",),
                                 lambda s, c, u: _ms(_self(s, "fermi_hubbard.compile_scheme"), u)),
    "fermi_hubbard.compile_calls": ("count", ("fermi_hubbard.compile_scheme",),
                                    lambda s, c, u: _calls(s, "fermi_hubbard.compile_scheme") / u),
    "fermi_hubbard.compile_repeat_frac": (
        "fraction", ("fermi_hubbard.compile_scheme", "fermi_hubbard.compile_repeats"),
        lambda s, c, u: c["fermi_hubbard.compile_repeats"]
        / max(1, _calls(s, "fermi_hubbard.compile_scheme"))),
    "qec.search_ms": ("ms", ("qec.choose_distance",),
                      lambda s, c, u: _ms(_self(s, "qec.choose_distance"), u)),
    "qec.candidates_per_search": ("count", ("qec.choose_distance", "qec.candidates"),
                                  lambda s, c, u: c["qec.candidates"]
                                  / max(1, _calls(s, "qec.choose_distance"))),
    "fermi_hubbard.layout_ms": ("ms", ("fermi_hubbard.layout_at",),
                                lambda s, c, u: _ms(_self(s, "fermi_hubbard.layout_at"), u)),
    "fermi_hubbard.layout_calls": ("count", ("fermi_hubbard.layout_at",),
                                   lambda s, c, u: _calls(s, "fermi_hubbard.layout_at") / u),
    "factories.provision_ms": ("ms", ("factories.provision",),
                               lambda s, c, u: _ms(_self(s, "factories.provision"), u)),
    "factories.provision_calls": ("count", ("factories.provision",),
                                  lambda s, c, u: _calls(s, "factories.provision") / u),
    "estimator.self_ms": ("ms", ("estimator.estimate",),
                          lambda s, c, u: _ms(_self(s, "estimator.estimate", "estimator.sensitivity",
                                                    "estimator.compare"), u)),
    "estimator.estimates_per_unit": ("count", ("estimator.estimate",),
                                     lambda s, c, u: _calls(s, "estimator.estimate") / u),
    "report.assemble_ms": ("ms", ("report.build_report",),
                           lambda s, c, u: _ms(_self(s, "report.build_report",
                                                     "report.build_comparison", "report.csv_row"), u)),
    "report.render_ms": ("ms", ("report.render",),
                         lambda s, c, u: _ms(_self(s, "report.render"), u)),
    "report.bytes_out": ("bytes", ("report.render",),
                         lambda s, c, u: c["report.bytes_out"] / u),
    "cli.self_ms": ("ms", ("cli.main",), lambda s, c, u: _ms(_self(s, "cli.main"), u)),
    "subroutines.qroam_ms": ("ms", ("subroutines.qroam_optimal",),
                             lambda s, c, u: _ms(_self(s, "subroutines.qroam_optimal"), u)),
    "subroutines.candidates_per_lookup": (
        "count", ("subroutines.qroam_optimal", "subroutines.qroam_cost"),
        lambda s, c, u: c["subroutines.qroam_cost"] / max(1, _calls(s, "subroutines.qroam_optimal"))),
}


def layer_metrics(tracer: Tracer, units: int) -> tuple[dict, dict]:
    """Per-unit layer metrics, and the reason for each one that is absent.

    A metric is absent when a span or counter it needs could not be
    installed; it then reads 0 and its reason is returned.
    """
    values, reasons = {}, {}
    for metric, (unit, needs, compute) in LAYER_METRICS.items():
        missing = [tracer.absent[n] for n in needs if n in tracer.absent]
        if missing:
            values[metric] = (0.0, unit)
            reasons[metric] = "; ".join(missing)
        else:
            values[metric] = (compute(tracer.stats, tracer.counts, max(1, units)), unit)
    return values, reasons
