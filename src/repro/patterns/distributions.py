"""The three distributions the models and the estimator evaluate, in numpy.

* :func:`hypergeom_pmf` — the in-cache overlap of a random visit (Eq. 5-6);
* :func:`binom_pmf` — Bernoulli block placement into cache sets (Eq. 8);
* :func:`student_t_ppf` — the Student-t quantile behind the sampling
  estimator's confidence half-widths.

Both pmfs are built over their whole support from the ratio of
consecutive terms, walking outward from the mode (where the pmf is
largest) and normalising by the sum.  Each step multiplies by one ratio
of a few exactly represented factors, so the relative error of a term
grows by a few ulps per step from the mode; terms far enough out to
collect many steps have long underflowed.  No factorial or big integer
is formed, so the cost is one ``cumprod`` over the support.
"""

from __future__ import annotations

import math

import numpy as np


def _pmf_from_mode(
    lo: int, hi: int, mode: int, up: np.ndarray, down: np.ndarray
) -> np.ndarray:
    """Pmf over ``lo..hi`` from its term ratios around ``mode``.

    ``up[i]`` is ``pmf(mode + i + 1) / pmf(mode + i)``; ``down[i]`` is
    ``pmf(mode - i - 1) / pmf(mode - i)``.
    """
    terms = np.empty(hi - lo + 1)
    terms[mode - lo] = 1.0
    terms[mode - lo + 1:] = np.cumprod(up)
    terms[: mode - lo] = np.cumprod(down)[::-1]
    return terms / terms.sum()


def _lookup(k, lo: int, support: np.ndarray) -> np.ndarray:
    """``support[k - lo]`` for ``k`` inside the support, 0 elsewhere."""
    k = np.asarray(k)
    inside = (k >= lo) & (k < lo + support.size)
    return np.where(inside, support[np.where(inside, k - lo, 0)], 0.0)


def hypergeom_pmf(k, total: int, successes: int, draws: int) -> np.ndarray:
    """``P(X = k)`` for ``X`` successes in ``draws`` draws without
    replacement from ``total`` items of which ``successes`` succeed.

    Argument order as ``scipy.stats.hypergeom.pmf(k, M, n, N)``.
    """
    big_m, n, big_n = int(total), int(successes), int(draws)
    if not 0 <= n <= big_m or not 0 <= big_n <= big_m:
        raise ValueError(
            f"need 0 <= successes, draws <= total; got total={big_m}, "
            f"successes={n}, draws={big_n}"
        )
    lo, hi = max(0, big_n - (big_m - n)), min(n, big_n)
    mode = min(max((big_n + 1) * (n + 1) // (big_m + 2), lo), hi)
    fail = big_m - n - big_n  # >= -lo, so every denominator below is > 0
    x = np.arange(mode, hi, dtype=float)
    up = (n - x) * (big_n - x) / ((x + 1) * (fail + x + 1))
    x = np.arange(mode, lo, -1, dtype=float)
    down = x * (fail + x) / ((n - x + 1) * (big_n - x + 1))
    return _lookup(k, lo, _pmf_from_mode(lo, hi, mode, up, down))


def binom_pmf(k, trials: int, p: float) -> np.ndarray:
    """``P(X = k)`` for ``X ~ Binomial(trials, p)``.

    Argument order as ``scipy.stats.binom.pmf(k, n, p)``.
    """
    n = int(trials)
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need trials >= 0 and 0 <= p <= 1; got {n}, {p}")
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    x = np.arange(mode, n, dtype=float)
    up = (n - x) * p / ((x + 1) * q)
    x = np.arange(mode, 0, -1, dtype=float)
    down = x * q / ((n - x + 1) * p)
    return _lookup(k, 0, _pmf_from_mode(0, n, mode, up, down))


# -- Student t ----------------------------------------------------------------
#: Stirling-series coefficients of ``lgamma(z) - ((z - 1/2) log z - z +
#: log(2 pi) / 2)`` in odd powers of ``1/z``.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
#: From here on the series above is exact to double precision.
_STIRLING_FROM = 15.0


def _stirling_error(z: float) -> float:
    inv, inv2 = 1.0 / z, 1.0 / (z * z)
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * inv2 + coefficient
    return total * inv


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2)``.

    For large ``a``, ``lgamma(a)`` and ``lgamma(a + 1/2)`` are both
    ~``a log a`` and their difference would lose the digits the t tail
    needs; the Stirling form takes the difference analytically.
    """
    if a < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    gamma_ratio = (
        a * math.log1p(0.5 / a)
        + 0.5 * math.log(a)
        - 0.5
        + _stirling_error(a + 0.5)
        - _stirling_error(a)
    )
    return 0.5 * math.log(math.pi) - gamma_ratio


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified
    Lentz); converges fast for ``x < (a + 1) / (a + b + 2)``."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 4e-16:
            return h
    raise ArithmeticError(f"incomplete beta did not converge: a={a}, b={b}, x={x}")


def _t_sf_pdf(t: float, df: float, log_beta: float) -> tuple[float, float]:
    """``(P(T > t), density at t)`` for ``t > 0``.

    ``P(T > t) = I_x(df/2, 1/2) / 2`` with ``x = df / (df + t^2)``;
    ``1 - x`` is formed from ``t`` directly, not by subtraction.
    """
    a, b = 0.5 * df, 0.5
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)
    log_front = -a * math.log1p(t2 / df) + b * math.log(y) - log_beta
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        tail = front * _beta_continued_fraction(a, b, x) / a
    else:
        tail = 1.0 - front * _beta_continued_fraction(b, a, y) / b
    pdf = math.exp(
        -(a + b) * math.log1p(t2 / df) - 0.5 * math.log(df) - log_beta
    )
    return 0.5 * tail, pdf


def student_t_ppf(p: float, df: float) -> float:
    """The ``p`` quantile of Student's t with ``df`` degrees of freedom,
    for ``1/2 <= p < 1`` (the upper half, all a two-sided interval uses).

    Newton's method on the upper tail ``P(T > t)``, from ``t = 0``.  The
    tail is convex and decreasing for ``t > 0``, so every step lands
    left of the root and the iterates rise monotonically onto it.
    """
    if not 0.5 <= p < 1.0 or not df > 0:
        raise ValueError(f"need 1/2 <= p < 1 and df > 0; got p={p}, df={df}")
    q = 1.0 - p
    log_beta = _log_beta_half(0.5 * df)
    t = 0.0
    tail, pdf = 0.5, math.exp(-0.5 * math.log(df) - log_beta)
    for _ in range(200):
        step = (tail - q) / pdf
        t += step
        if step <= 4e-16 * t:
            return t
        tail, pdf = _t_sf_pdf(t, df, log_beta)
    raise ArithmeticError(f"t quantile did not converge: p={p}, df={df}")
