"""Output checks applied to every operation the benchmark runs.

Each check returns a list of problems; an empty list means the output is
correct. A non-empty list counts the operation as failed.
"""

from __future__ import annotations

import math


def estimate_problems(est: dict, assume=None, budget_e: float | None = None,
                      logical_error_rate=None) -> list[str]:
    """Invariants of one rendered estimate (a report ``estimates`` entry).

    With ``assume`` and ``budget_e`` given, also recomputes the failure bound
    ``spacetime_volume * p_L(d) <= E`` using ``logical_error_rate``.
    """
    problems = []
    scheme = est.get("scheme", "?")
    numbers = [
        est["physical_qubits_total"],
        est["wall_time_seconds"],
        est["spacetime_volume_patch_rounds"],
        est["factory_count"],
        est["t_count_total"],
        *est["physical_qubits_by_role"].values(),
    ]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers):
        problems.append(f"{scheme}: non-finite number in estimate")
    problems += distance_problems(scheme, est["code_distance"])
    roles = sum(est["physical_qubits_by_role"].values())
    if not math.isclose(roles, est["physical_qubits_total"], rel_tol=1e-9):
        problems.append(
            f"{scheme}: roles sum to {roles}, total is {est['physical_qubits_total']}"
        )
    if assume is not None and not problems:
        problems += budget_problems(
            scheme, est["spacetime_volume_patch_rounds"], est["code_distance"],
            assume, budget_e, logical_error_rate,
        )
    return problems


def distance_problems(scheme: str, d) -> list[str]:
    if not isinstance(d, int) or d < 3 or d % 2 == 0:
        return [f"{scheme}: code distance {d!r} is not an odd integer >= 3"]
    return []


def budget_problems(scheme, volume, d, assume, budget_e, logical_error_rate) -> list[str]:
    expected = volume * logical_error_rate(assume, d)
    if not expected <= budget_e:
        return [f"{scheme}: volume * p_L(d={d}) = {expected} exceeds E = {budget_e}"]
    return []


def qroam_oracle(n: int, b: int) -> tuple[int, int]:
    """Exact optimal QROAM blocking factor and T count, smallest on ties.

    The T count is f(lam) = 8*ceil(N/lam) + 32*b*lam and its convex bound
    g(lam) = 8N/lam + 32*b*lam satisfies g <= f. Any minimizer lam* of f
    therefore has g(lam*) <= f(lam*) <= f(lam0) for every lam0, so searching
    the contiguous window {lam : g(lam) <= f(lam0)} around the continuous
    optimum is exact. The comparison is done in integers.
    """
    def f(lam):
        return 8 * -(-n // lam) + 32 * b * lam

    def inside(lam, limit):  # g(lam) <= limit, multiplied through by lam
        return 8 * n + 32 * b * lam * lam <= limit * lam

    root = max(1, math.isqrt(n // (4 * b)))
    lam0 = min((x for x in (root, root + 1) if 1 <= x <= n), key=f)
    limit = f(lam0)
    lo = lam0
    while lo > 1 and inside(lo - 1, limit):
        lo -= 1
    hi = lam0
    while hi < n and inside(hi + 1, limit):
        hi += 1
    best = min(range(lo, hi + 1), key=f)
    return best, f(best)


def exhaustive_qroam(n: int, b: int) -> tuple[int, int]:
    """Reference search over every lam in [1, N], smallest on ties."""
    best = min(range(1, n + 1), key=lambda lam: 8 * -(-n // lam) + 32 * b * lam)
    return best, 8 * -(-n // best) + 32 * b * best


def qroam_problems(n: int, b: int, lam, cost) -> list[str]:
    """A returned blocking factor must reach the oracle's optimal T count.

    Several factors can tie at the optimum; any of them is a valid answer,
    so the factor itself is checked to attain the count, not to equal the
    oracle's smallest one.
    """
    _, best = qroam_oracle(n, b)
    if not (isinstance(lam, int) and 1 <= lam <= n):
        return [f"qroam N={n} b={b}: factor {lam!r} outside [1, N]"]
    attained = 8 * -(-n // lam) + 32 * b * lam
    if cost.count != best or attained != best:
        return [
            f"qroam N={n} b={b}: returned lam={lam} count={cost.count} "
            f"(attains {attained}), optimum is {best}"
        ]
    return []
