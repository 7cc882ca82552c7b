"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The QROAM oracle equals exhaustive search for every N <= 2^12 and
   b in {1, 4, 8, 32}.
2. A one-second run of every workload, traced and untraced, prints every
   metric named in BENCHMARK.json with its unit, and all outputs check out.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from checks import exhaustive_qroam, qroam_oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_oracle() -> list[str]:
    return [
        f"oracle {qroam_oracle(n, b)} != exhaustive {exhaustive_qroam(n, b)} at N={n} b={b}"
        for b in (1, 4, 8, 32)
        for n in range(1, 2**12 + 1)
        if qroam_oracle(n, b) != exhaustive_qroam(n, b)
    ]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: outputs failed checks\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for name in want:
                if f"\n{name} = " not in "\n" + proc.stdout:
                    problems.append(f"{where}: {name} not printed by name")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "sweep", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without the sources the benchmark must fail without a result"]
    return []


def main() -> int:
    problems = []
    for check in (check_oracle, check_metrics, check_bare_directory):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else f'{len(found)} problem(s)'}")
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
