"""The three workloads: inputs generated from a seed, one call, one check.

Each workload hands out its operations in rounds. The benchmark loop only
stops between rounds, so every run measures whole rounds and the mix of
inputs in a run does not depend on where the clock ran out.

ftqcost is driven only through public entry points, and every call goes
through a module attribute (``cli.main``, ``report.render_json``) so that
the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random

import ftqcost.cli as cli
import ftqcost.config as config
import ftqcost.qec as qec
import ftqcost.report as report
import ftqcost.subroutines as subroutines

from checks import budget_problems, distance_problems, estimate_problems, qroam_problems

SCHEMES = ("plaq_serial", "plaq_L", "plaq_L2", "qsp")
BUDGET_E = 0.05
PHYSICAL = {"p_star": 0.01, "prefactor_a": 0.1, "t_se": 1e-6, "tau_r": 1e-6}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ini(sections: dict) -> str:
    lines = []
    for name, fields in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in fields.items()]
    return "\n".join(lines) + "\n"


def _assume(p: float):
    return qec.PhysicalAssumptions(p=p, **PHYSICAL)


class Workload:
    """Defaults: one unit of work per operation, equal weights, a round of warm-up."""

    units = 1

    def warmup(self):
        return self.round()

    @staticmethod
    def weight(op) -> float:
        return 1.0


class Sweep(Workload):
    """``ftqcost sweep`` in-process over a 960-point grid.

    40 log-spaced p in [1e-4, 2e-3] (each jittered within its slot by the
    seed) x 4 schemes x 6 even L in [10, 60] (chosen by the seed). Every
    (scheme, L) pair is compiled once per p value, which is the repetition
    a sweep-level cache would remove.
    """

    name = "sweep"
    unit = "grid point"
    entry_modules = ("ftqcost.cli",)
    aliases = {"sweep_points_per_s": "throughput_per_s"}

    def __init__(self, rng: random.Random, workdir) -> None:
        self.p_values = [
            f"{1e-4 * 20 ** ((i + rng.random()) / 40):.6g}" for i in range(40)
        ]
        self.l_values = sorted(rng.sample(range(10, 61, 2), 6))
        base = workdir / "sweep.ini"
        base.write_text(_ini({
            "physical": {"p": "1e-3", **PHYSICAL},
            "algorithm": {"scheme": "plaq_L2", "L": 30, "t_hop": 1.0, "U": 8.0,
                          "T_evol": 300, "eps_total": 0.01, "f_r": 0.5},
            "factory": {"name": "15to1x15to1-p3"},
            "qec": {"E": BUDGET_E},
        }))
        self.output = workdir / "sweep.csv"
        self.argv = [
            "sweep", str(base),
            "--set", "physical.p=" + ",".join(self.p_values),
            "--set", "algorithm.scheme=" + ",".join(SCHEMES),
            "--set", "algorithm.L=" + ",".join(map(str, self.l_values)),
            "--output", str(self.output),
        ]
        self.units = len(self.p_values) * len(SCHEMES) * len(self.l_values)
        self.digest = None

    def round(self):
        self.output.unlink(missing_ok=True)
        return [self.argv]

    def call(self, argv):
        return cli.main(argv)

    def check(self, argv, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"sweep exited with {exit_code}"]
        text = self.output.read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is not None:
            return [] if digest == self.digest else ["sweep CSV differs between repetitions"]
        problems = self._check_rows(list(csv.DictReader(io.StringIO(text))))
        if not problems:
            self.digest = digest
        return problems

    def _check_rows(self, rows) -> list[str]:
        expected = sorted(
            (s, float(p)) for s in SCHEMES for p in self.p_values for _ in self.l_values
        )
        got = sorted((row["scheme"], float(row["p"])) for row in rows)
        if got != expected:
            return [f"sweep CSV has {len(rows)} rows, not one per grid point ({self.units})"]
        problems = []
        for row in rows:
            numbers = [float(row[k]) for k in ("physical_qubits_total", "wall_time_seconds",
                                              "spacetime_volume", "t_count_total")]
            if not all(math.isfinite(x) for x in numbers):
                problems.append(f"{row['scheme']} p={row['p']}: non-finite number")
                continue
            d = int(row["d"])
            problems += distance_problems(row["scheme"], d) or budget_problems(
                row["scheme"], float(row["spacetime_volume"]), d,
                _assume(float(row["p"])), BUDGET_E, qec.logical_error_rate,
            )
        return problems


class Report(Workload):
    """One report request per seeded config, through the library path.

    Half the requests build one scheme's report with its +/-5% band, half
    compare all four schemes; both render JSON. Configs are drawn fresh for
    every request, so requests share almost nothing. A round is 50 requests,
    enough to average over the mix.
    """

    name = "report"
    unit = "report"
    entry_modules = ("ftqcost.config", "ftqcost.report")
    aliases = {"report_ms_p50": "latency_ms_p50", "report_ms_p99": "latency_ms_p99"}
    per_round = 50

    def __init__(self, rng: random.Random, workdir) -> None:
        self.rng = rng
        self.workdir = workdir

    def _request(self, index: int) -> dict:
        rng = self.rng
        request = {
            "kind": "estimate" if rng.random() < 0.5 else "compare",
            "p": _log_uniform(rng, 1e-4, 2e-3),
            "scheme": rng.choice(SCHEMES),
            "L": rng.randrange(4, 81, 2),
            "T_evol": _log_uniform(rng, 10, 1000),
            "eps_total": _log_uniform(rng, 1e-3, 0.05),
            "cultivation": rng.random() < 0.2,
            "path": str(self.workdir / f"request-{index}.ini"),
        }
        with open(request["path"], "w", encoding="utf-8") as fh:
            fh.write(_ini({
                "physical": {"p": repr(request["p"]), **PHYSICAL},
                "algorithm": {k: request[k] for k in ("scheme", "L", "T_evol", "eps_total")},
                "factory": {"cultivation": str(request["cultivation"]).lower()},
                "qec": {"E": BUDGET_E},
            }))
        return request

    def round(self):
        return [self._request(i) for i in range(self.per_round)]

    def call(self, request):
        cfg = config.build_config(config.read_sections(request["path"]))
        if request["kind"] == "estimate":
            doc = report.build_report(cfg, with_sensitivity=True)
        else:
            doc = report.build_comparison(cfg, list(SCHEMES))
        return report.render_json(doc)

    def check(self, request, text) -> list[str]:
        doc = json.loads(text)
        estimates = doc["estimates"]
        schemes = [est["scheme"] for est in estimates]
        want = [request["scheme"]] if request["kind"] == "estimate" else list(SCHEMES)
        if schemes != want:
            return [f"report has schemes {schemes}, expected {want}"]
        if doc["inputs"]["physical"]["p"] != request["p"]:
            return ["report does not echo the requested p"]
        assume = _assume(request["p"])
        problems = []
        for est in estimates:
            problems += estimate_problems(est, assume, BUDGET_E, qec.logical_error_rate)
        if request["kind"] == "estimate":
            band = doc["sensitivity"]
            if band["nominal"] != estimates[0]:
                problems.append("sensitivity nominal differs from the estimate")
            for side in ("low", "high"):
                problems += estimate_problems(band[side])
        else:
            ratios = [r[k] for r in doc["ratios"]
                      for k in ("time_ratio", "qubit_ratio", "volume_ratio")]
            if not all(math.isfinite(x) and x > 0 for x in ratios):
                problems.append("comparison ratios are not finite and positive")
        return problems


class Qroam(Workload):
    """QROAM blocking-factor lookups, N log-uniform in [2^4, 2^30], b in [1, 64].

    Lookup cost grows with N by five orders of magnitude, so plain random
    draws would make a run's total and its percentiles hinge on a few draws.
    A round is therefore stratified by octave [2^e, 2^(e+1)): octave e gets
    k_e exponent offsets, one in each 1/k_e of the octave, placed as mirrored
    pairs (x, 1 - x) with x = (j + v) / k_e and one v drawn per round, and
    each lookup is weighted 1 / k_e. Every octave thus carries equal weight,
    as under a log-uniform N, while cheap octaves get more lookups: the
    median (near N = 2^7) and p90 (near N = 2^17) rest on many lookups
    rather than on one or two, and the work of a round varies by under a
    percent.
    """

    name = "qroam"
    unit = "lookup"
    entry_modules = ("ftqcost.subroutines",)
    aliases = {"lookups_per_s": "throughput_per_s", "lookup_ms_p50": "latency_ms_p50"}
    # Lookups per octave, by the octave's exponent e.
    PER_OCTAVE = {**dict.fromkeys(range(4, 12), 32), **dict.fromkeys(range(12, 18), 8),
                  18: 2, 19: 2, **dict.fromkeys(range(20, 30), 8)}

    def __init__(self, rng: random.Random, workdir) -> None:
        self.rng = rng

    def round(self):
        rng = self.rng
        ops = []
        v = rng.random()
        for e, k in self.PER_OCTAVE.items():
            for j in range(k // 2):
                x = (j + v) / k
                for offset in (x, 1 - x):
                    n = min(int(2 ** (e + offset)), 2 ** (e + 1) - 1)
                    ops.append((n, rng.randint(1, 64), 1 / k))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [(2**10, 8, 1.0)]

    @staticmethod
    def weight(op) -> float:
        return op[2]

    def call(self, op):
        return subroutines.qroam_optimal(op[0], op[1])

    def check(self, op, result) -> list[str]:
        lam, cost = result
        return qroam_problems(op[0], op[1], lam, cost)


WORKLOADS = {w.name: w for w in (Sweep, Report, Qroam)}
