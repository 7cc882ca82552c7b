"""Set-up cost: importing ftqcost's entry modules in a fresh interpreter."""

from __future__ import annotations

import statistics
import subprocess
import sys

# ftqcost modules reported one by one; every other module imported on the
# way (the standard library) is summed under "other".
MODULES = (
    "ftqcost",
    "ftqcost.errors",
    "ftqcost.qec",
    "ftqcost.factories",
    "ftqcost.costmodel",
    "ftqcost.subroutines",
    "ftqcost.fermi_hubbard",
    "ftqcost.estimator",
    "ftqcost.config",
    "ftqcost.report",
    "ftqcost.cli",
)
MARK = "@@perfbench-import"

_CHILD = f"""
import sys, time
sys.path.insert(0, "src")
sys.stderr.write("{MARK}\\n")
sys.stderr.flush()
start = time.perf_counter()
for name in sys.argv[1:]:
    __import__(name)  # the import statement's path, which -X importtime times
print(time.perf_counter() - start)
"""


def _child(root, entry_modules, importtime: bool) -> subprocess.CompletedProcess:
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CHILD, *entry_modules],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing {entry_modules} failed:\n{proc.stderr}")
    return proc


def import_seconds(root, entry_modules, repeats: int) -> list[float]:
    """Wall time of the import statement in ``repeats`` fresh interpreters.

    One untimed interpreter runs first so that bytecode caches are written.
    """
    _child(root, entry_modules, importtime=False)
    return [float(_child(root, entry_modules, False).stdout) for _ in range(repeats)]


def import_breakdown_ms(root, entry_modules, repeats: int) -> dict[str, float]:
    """Median self time per module from ``python -X importtime``."""
    samples = []
    for _ in range(repeats):
        stderr = _child(root, entry_modules, importtime=True).stderr
        per_module = dict.fromkeys((*MODULES, "other"), 0.0)
        seen_mark = False
        for line in stderr.splitlines():
            if line.strip() == MARK:
                seen_mark = True
                continue
            if not seen_mark or not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            key = name if name in per_module else "other"
            per_module[key] += int(fields[0]) / 1e3
        samples.append(per_module)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
