"""Magic state factory catalog, provisioning, and T-gate fidelity budgeting.

Factories are treated as black boxes: a footprint, a batch time, a batch
size, and an output infidelity. No distillation protocol is simulated.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import checked
from .errors import MagicStarvedError

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_T_GATE_BUDGET = 0.05
"""Error budget for the linearly accumulated T-state infidelity."""


@checked
class FactorySpec(NamedTuple):
    """One magic-state factory design.

    ``tau_f_rounds`` is the latency of one output batch in SE rounds; it may
    be fractional (e.g. 97.5) and is handled exactly during provisioning.
    ``valid_p`` records the physical error rate, in (0, 1), the design was
    characterized at.
    """

    name: str
    q_f: int
    tau_f_rounds: float
    n_out: int
    out_infidelity: float
    valid_p: float

    def _new(cls, name, q_f, tau_f_rounds, n_out, out_infidelity, valid_p):
        if not q_f > 0:
            raise ValueError("q_f must be positive")
        if not tau_f_rounds > 0:
            raise ValueError("tau_f_rounds must be positive")
        if not n_out >= 1:
            raise ValueError("n_out must be at least 1")
        if not (0.0 < out_infidelity < 1.0):
            raise ValueError("out_infidelity must lie in (0, 1)")
        if not (0.0 < valid_p < 1.0):
            raise ValueError("valid_p must lie in (0, 1)")
        return tuple.__new__(cls, (name, q_f, tau_f_rounds, n_out, out_infidelity, valid_p))

    @property
    def tau_f(self) -> Fraction:
        """``tau_f_rounds`` as an exact rational, parsed once per value."""
        return _exact_rounds(self.tau_f_rounds)

    @property
    def rate_per_round(self) -> float:
        """Magic states produced per SE round by a single factory."""
        return self.n_out / self.tau_f_rounds


@checked
class FactoryFleet(NamedTuple):
    spec: FactorySpec
    count: int

    def _new(cls, spec, count):
        if not count >= 0:
            raise ValueError("count must be nonnegative")
        return tuple.__new__(cls, (spec, count))

    @property
    def achieved_rate(self) -> float:
        """States per SE round across the whole fleet."""
        return self.count * self.spec.rate_per_round

    @property
    def physical_qubits(self) -> int:
        return self.count * self.spec.q_f

    def supply_time(self, states: float, t_se: float) -> float:
        """Seconds to make ``states`` magic states at ``t_se`` seconds per SE round."""
        if self.count == 0:
            raise MagicStarvedError(
                "circuit consumes magic states but the factory fleet produces none"
            )
        # Rounds first, then seconds: a per-second rate could overflow at a
        # tiny t_se although the time itself is representable.
        rate = self.achieved_rate
        if not 0 < rate < math.inf:
            raise OverflowError("the factory fleet's supply rate leaves the float range")
        seconds = states / rate * t_se
        if states and not 0 < seconds < math.inf:
            raise OverflowError("the factory fleet's supply time leaves the float range")
        return seconds


_CATALOG = (
    FactorySpec("15to1x15to1-p3", q_f=39100, tau_f_rounds=97.5, n_out=1,
                out_infidelity=3.3e-14, valid_p=1e-3),
    FactorySpec("15to1x20to4-p4", q_f=16400, tau_f_rounds=90.0, n_out=4,
                out_infidelity=2.4e-15, valid_p=1e-4),
)
_BY_NAME = {spec.name: spec for spec in _CATALOG}


def builtin_catalog() -> list[FactorySpec]:
    """The two built-in two-level distillation factory designs."""
    return list(_CATALOG)


def factory_by_name(name: str) -> FactorySpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(_BY_NAME)
        raise KeyError(f"unknown factory {name!r}; built-ins: {known}") from None


def _as_fraction(x) -> Fraction:
    # Imported here: a catalog batch time never needs the snap, so a run
    # that reaches none loads neither module.
    from fractions import Fraction
    from numbers import Rational

    if isinstance(x, Rational):
        return Fraction(x)
    # Floats like 2.4 are not binary-exact; snap to the intended rational so
    # provisioning ceilings do not overshoot by one. A snap that moves x by
    # more than a relative 1e-9 (1e-300 would snap to 0) is no snap.
    snapped = Fraction(x).limit_denominator(10**9)
    if abs(snapped - x) <= 1e-9 * abs(x):
        return snapped
    return Fraction(x)


@lru_cache(maxsize=256)
def _exact_rounds(rounds: float) -> Fraction:
    return _as_fraction(rounds)


def batch_ratio(spec: FactorySpec) -> tuple[int, int]:
    """``spec.tau_f`` as (numerator, denominator). A ratio whose denominator
    is at most 10**9 is the snap's own answer, so it builds no Fraction."""
    num, den = spec.tau_f_rounds.as_integer_ratio()
    if den <= 10**9:
        return num, den
    tau_f = spec.tau_f
    return tau_f.numerator, tau_f.denominator


def provision(spec: FactorySpec, required_rate, rounds: int = 1) -> FactoryFleet:
    """Smallest fleet whose output meets ``required_rate`` states per
    ``rounds`` SE rounds (a positive integer; one by default).

    ``required_rate`` may be an int, a float or a Fraction; rationals are
    honored exactly so that e.g. a demand of 60 states per 25 rounds
    against a 97.5-round factory yields exactly ceil(2.4 * 97.5) = 234
    factories, and a demand given as the integers ``60, 25`` builds no
    Fraction at all. The ceiling is taken in integers from the numerators
    and denominators.
    """
    if type(required_rate) is int:
        rate = required_rate
    elif isinstance(required_rate, float) and not math.isfinite(required_rate):
        raise ValueError("required_rate must be finite")
    else:
        rate = _as_fraction(required_rate)
    if rate < 0:
        raise ValueError("required_rate must be nonnegative")
    if not (type(rounds) is int and rounds >= 1):
        raise ValueError(f"rounds must be a positive integer, got {rounds!r}")
    tau_num, tau_den = batch_ratio(spec)
    count = -(-rate.numerator * tau_num // (rate.denominator * rounds * tau_den * spec.n_out))
    return FactoryFleet(spec=spec, count=count)


def cultivation_variant(spec: FactorySpec) -> FactorySpec:
    """What-if factory assuming cultivation-style production.

    Models a 25x spacetime-volume reduction as 5x fewer qubits and 5x less
    time per batch. Output infidelity is kept unchanged; currently reported
    cultivation error rates are not yet at this level, so reports must flag
    the assumption.
    """
    return spec._replace(
        name=spec.name + "+cultivation",
        q_f=math.ceil(spec.q_f / 5),
        tau_f_rounds=spec.tau_f_rounds / 5,
    )


class TBudgetResult(NamedTuple):
    passed: bool
    accumulated_error: float
    headroom: float
    budget: float
    required_infidelity: float
    """Largest per-state infidelity that would have passed, for reporting."""


def t_budget_check(
    total_t_count: float, spec: FactorySpec, budget: float = DEFAULT_T_GATE_BUDGET
) -> TBudgetResult:
    """Check that linearly accumulated T-state error stays within ``budget``."""
    if total_t_count < 0:
        raise ValueError("total_t_count must be nonnegative")
    accumulated = total_t_count * spec.out_infidelity
    required = budget / total_t_count if total_t_count > 0 else 1.0
    return TBudgetResult(
        passed=accumulated <= budget, accumulated_error=accumulated,
        headroom=budget - accumulated, budget=budget, required_infidelity=min(required, 1.0),
    )
