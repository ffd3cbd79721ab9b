"""Closed-form broadcast-time bounds, concentration inequalities, and the
constants of the delayed-schedule construction.

Everything here is a pure function of (n, p, eps).  Round counts are returned
as real numbers; ceilings happen only where a schedule consumes them.  The
schedule constants are evaluated in log-space because zeta and S overflow or
underflow doubles already for moderate phase lengths k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

_LN2 = math.log(2.0)
# ln(x) above this would need an integer too large to materialize
_MAX_LOG_ROUNDS = 1 << 19


def _check_p(p: float) -> None:
    """A real number in (0, 1], not a bool, passes; anything else is named by its repr."""
    real = type(p) is float or type(p) is not bool and isinstance(p, numbers.Real)
    if not real or not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must lie in (0, 1], got p={p!r}")


def _check_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """The one integer-and-range rule: a Python or numpy integer, not a bool,
    passes if it is at least low and at most high, where given; a float would
    be truncated.  high is given only with low."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if low is not None and value < low or high is not None and value > high:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name}: must be {span}, got {value}")


def _finite(value: float, what: str, p: float) -> float:
    """value, which a p near the smallest double can push to inf."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite at success probability p={p}")
    return value


def _check_eps(eps: float, open_right: bool = False) -> None:
    if not 0.0 < eps < (1.0 if open_right else math.inf):  # NaN fails every comparison
        hi = "1)" if open_right else "inf)"
        raise ValueError(f"eps must lie in (0, {hi}, got eps={eps}")


def lossy_bound(n: int, p: float) -> float:
    """log_{1+p}(n) + (1/p) ln(n): the broadcast-time law under loss."""
    _check_integer("n", n, 2)
    _check_p(p)
    return _finite(math.log(n) / math.log1p(p) + math.log(n) / p, "the broadcast-time law", p)


def baseline_bound(n: int) -> float:
    """log_2(n) + ln(n): the lossless (p = 1) law."""
    return lossy_bound(n, 1.0)


def lower_bound(n: int, p: float, eps: float) -> float:
    _check_eps(eps)
    return (1.0 - eps) * lossy_bound(n, p)


def upper_bound(n: int, p: float, eps: float) -> float:
    _check_eps(eps)
    return (1.0 + eps) * lossy_bound(n, p)


def success_prob(n: int, p: float, eps: float) -> float:
    """1 - n^(-p*eps/40), the guarantee attached to the upper bound.

    This is an asymptotic statement; at desk-scale n the value is often
    near zero or negative, and it is returned literally.
    """
    _check_integer("n", n, 2)
    _check_p(p)
    _check_eps(eps)
    return 1.0 - n ** (-p * eps / 40.0)


def slowdown_factor(p: float) -> float:
    """Asymptotic lossy/lossless broadcast-time ratio; below 1/p for p < 1."""
    _check_p(p)
    return (1.0 / (math.log1p(p) / _LN2) + _LN2 / p) / (1.0 + _LN2)


def _chernoff(expectation: float, delta: float, denominator: float) -> float:
    """exp(-delta^2 E[X] / denominator), with the arguments of both tails checked."""
    if not expectation >= 0:  # NaN fails every comparison
        raise ValueError(f"expectation must be >= 0, got {expectation}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return math.exp(-delta * delta * expectation / denominator)


def chernoff_lower(expectation: float, delta: float) -> float:
    """P(X <= (1-delta) E[X]) <= exp(-delta^2 E[X] / 2) for binomial-like X."""
    return _chernoff(expectation, delta, 2.0)


def chernoff_upper(expectation: float, delta: float) -> float:
    """P(X >= (1+delta) E[X]) <= exp(-delta^2 E[X] / 3) for binomial-like X."""
    return _chernoff(expectation, delta, 3.0)


def azuma_bound(t: float, effect_bounds) -> float:
    """P(|Y - E[Y]| >= t) <= 2 exp(-2 t^2 / sum c_i^2) for c_i-Lipschitz Y."""
    if not t > 0:
        raise ValueError(f"deviation t must be > 0, got {t}")
    total = 0.0
    for c in effect_bounds:
        if not c >= 0:
            raise ValueError(f"effect bounds must be >= 0, got {c}")
        total += float(c) * float(c)
    if total == 0.0:
        raise ValueError("all effect bounds are zero")
    return 2.0 * math.exp(-2.0 * t * t / total)


@dataclass(frozen=True)
class BoundReport:
    n: int
    p: float
    eps: float
    lower: float
    upper: float
    baseline: float
    success_prob_lower: float
    slowdown: float

    def to_dict(self) -> dict:
        return asdict(self)


def bound_report(n: int, p: float, eps: float) -> BoundReport:
    return BoundReport(
        n=n,
        p=p,
        eps=eps,
        lower=lower_bound(n, p, eps),
        upper=upper_bound(n, p, eps),
        baseline=baseline_bound(n),
        success_prob_lower=success_prob(n, p, eps),
        slowdown=slowdown_factor(p),
    )


def default_max_rounds(n: int, p: float) -> int:
    """Generous truncation horizon: 4x the expected law plus slack."""
    _check_integer("n", n, 1)
    _check_p(p)
    if n < 2:
        return 32
    return math.ceil(4.0 * lossy_bound(n, p)) + 32


@dataclass(frozen=True)
class ScheduleConstants:
    """Constants of the delayed-schedule construction for (n, p, eps).

    zeta and S routinely leave double range, so their natural logs are the
    authoritative fields; the plain floats are best-effort conveniences
    (0.0 or inf on under/overflow).
    """

    n: int
    p: float
    eps: float
    k_exact: float  # ((1+eps)/eps) (log_{1+p}(1/p) + 2), before ceiling
    k: int  # busy-phase length actually used
    zeta: float
    log_zeta: float
    zeta_prime: float
    log_zeta_prime: float
    s_rounds: float
    log_s: float
    ell_max: float  # (1+eps) log_{1+p}(n) / k, before ceiling


def schedule_constants(n: int, p: float, eps: float) -> ScheduleConstants:
    _check_integer("n", n, 2)
    _check_p(p)
    _check_eps(eps, open_right=True)

    k_exact = (1.0 + eps) / eps * (math.log(1.0 / p) / math.log1p(p) + 2.0)
    k_exact = _finite(k_exact, "the busy-phase length k", p)
    k = math.ceil(k_exact - 1e-12)

    # zeta = min{ (1/k) (2e)^(-(E + k + 1)), eps/12 }  with
    # E = 2^(k-1) / (p^3 (1+p)^(k-3)); E itself can overflow, so build its log
    log_e_term = (k - 1) * _LN2 - 3.0 * math.log(p) - (k - 3) * math.log1p(p)
    if log_e_term > 700.0:
        log_zeta_main = -math.inf
    else:
        exponent = math.exp(log_e_term) + k + 1
        log_zeta_main = -math.log(k) - exponent * math.log(2.0 * math.e)
    log_zeta = min(log_zeta_main, math.log(eps / 12.0))
    log_zeta_prime = log_zeta - k * _LN2

    # S = 2^k ln(1/zeta) / (p zeta')
    log_s = k * _LN2 + math.log(-log_zeta) - math.log(p) - log_zeta_prime

    def as_float(log_x: float) -> float:
        if log_x == -math.inf:
            return 0.0
        if log_x > 709.0:
            return math.inf
        return math.exp(log_x)

    return ScheduleConstants(
        n=n,
        p=p,
        eps=eps,
        k_exact=k_exact,
        k=k,
        zeta=as_float(log_zeta),
        log_zeta=log_zeta,
        zeta_prime=as_float(log_zeta_prime),
        log_zeta_prime=log_zeta_prime,
        s_rounds=as_float(log_s),
        log_s=log_s,
        ell_max=(1.0 + eps) * math.log(n) / math.log1p(p) / k,
    )


def int_ceil_exp(log_x: float) -> int:
    """Exact integer ceiling of e^log_x, for values far beyond float range.

    Biased upward by a relative 1e-9 so float rounding can never shorten a
    schedule that is meant to be at least as long as its defining formula.
    """
    if log_x == -math.inf:
        return 0
    if log_x > _MAX_LOG_ROUNDS:
        raise ValueError(
            f"e^{log_x:.3g} rounds cannot be materialized as an integer length"
        )
    if log_x <= 700.0:
        return math.ceil(math.exp(log_x) * (1.0 + 1e-9))
    shift = int(log_x / _LN2) - 900
    mantissa = math.exp(log_x - shift * _LN2)  # in [2^900, 2^901)-ish range
    return math.ceil(mantissa * (1.0 + 1e-9)) << shift
