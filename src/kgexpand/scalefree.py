"""Discrete power-law fitting of degree sequences and scale-free classification.

The fit follows the usual maximum-likelihood recipe for integer data: for each
candidate lower bound the exponent is estimated by maximizing the
Hurwitz-zeta-normalized log-likelihood, and the lower bound minimizing the
Kolmogorov-Smirnov distance between empirical and fitted tail CDFs wins. The
power law is then compared against a discrete exponential on the same tail via
a normalized (Vuong-style) log-likelihood-ratio test; the network counts as
scale-free when LR > 0 and p < 0.05. Zero-degree observations are excluded.

The Hurwitz zeta is a pure-Python port of Cephes' ``zeta(x, q)``, the routine
behind ``scipy.special.zeta``; it keeps Cephes' order of operations, and a
test checks that it returns the same bits as scipy over the fit's domain, so
the fit imports no scipy and its results match those computed with scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequence, InconclusiveTest, InsufficientData

ALPHA_LO = 1.01
ALPHA_HI = 6.0
ALPHA_TOL = 1e-4
MIN_OBSERVATIONS = 10
SIGNIFICANCE = 0.05

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class PowerLawFit:
    alpha: float
    xmin: int
    n_tail: int
    loglik: float


@dataclass
class ScaleFreeVerdict:
    lr: float
    p: float
    is_scale_free: bool


# Cephes' Euler-Maclaurin coefficients: (2k)! / B_2k for k = 1..12
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta ``sum((q + k) ** -x for k >= 0)`` for x > 1 and q > 0.

    A port of Cephes' ``zeta(x, q)``, the routine behind
    ``scipy.special.zeta``, with its operations in the same order, so the
    results are the same to the last bit (a test compares them): direct
    summation until the terms vanish or ``q + i`` passes 9, then
    Euler-Maclaurin with twelve Bernoulli terms; beyond q = 1e8, the
    asymptotic expansion (DLMF 25.11.43).
    """
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _tail_loglik(alpha: float, n: int, xmin: int, log_sum: float) -> float:
    return -n * math.log(_hurwitz_zeta(alpha, xmin)) - alpha * log_sum


def _mle_alpha(n: int, xmin: int, log_sum: float) -> tuple[float, float]:
    """Golden-section maximization of the tail log-likelihood over alpha."""
    lo, hi = ALPHA_LO, ALPHA_HI
    a = hi - _GOLDEN * (hi - lo)
    b = lo + _GOLDEN * (hi - lo)
    fa = _tail_loglik(a, n, xmin, log_sum)
    fb = _tail_loglik(b, n, xmin, log_sum)
    while hi - lo > ALPHA_TOL:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = _tail_loglik(b, n, xmin, log_sum)
        else:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = _tail_loglik(a, n, xmin, log_sum)
    alpha = (lo + hi) / 2.0
    return alpha, _tail_loglik(alpha, n, xmin, log_sum)


def _fitted_cdf(alpha: float, xmin: int, values):
    """The fitted power law's CDF at each of the integer array ``values``
    (all at least ``xmin``)."""
    tail_zeta = np.array([_hurwitz_zeta(alpha, q) for q in (values + 1).tolist()])
    return 1.0 - tail_zeta / _hurwitz_zeta(alpha, xmin)


def fit_power_law(degrees) -> PowerLawFit:
    """Fit a discrete power law to a degree sequence, choosing xmin by KS distance."""
    xs = np.asarray([int(d) for d in degrees if d > 0], dtype=np.int64)
    if xs.size < MIN_OBSERVATIONS:
        raise InsufficientData(
            f"need at least {MIN_OBSERVATIONS} nonzero observations, got {xs.size}"
        )
    xs.sort()
    # the distinct values of the sorted sample, their first offsets and their
    # counts, in one pass; np.unique would load numpy.ma
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    if starts.size == 1:
        raise DegenerateSequence("all observations are equal")
    uniq, counts = xs[starts], np.diff(starts, append=xs.size)

    best: tuple[float, int, float, float, int] | None = None  # ks, xmin, alpha, ll, n
    log_all = np.log(xs.astype(np.float64))
    # each distinct value but the largest starts a non-constant tail xs[first:]
    for i, (xmin, first) in enumerate(zip(uniq[:-1].tolist(), starts.tolist())):
        n = xs.size - first
        alpha, loglik = _mle_alpha(n, xmin, float(log_all[first:].sum()))
        emp_cdf = np.cumsum(counts[i:]) / n
        ks = float(np.max(np.abs(emp_cdf - _fitted_cdf(alpha, xmin, uniq[i:]))))
        if best is None or (ks, xmin) < (best[0], best[1]):
            best = (ks, xmin, alpha, loglik, n)
    _, xmin, alpha, loglik, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=xmin, n_tail=n_tail, loglik=loglik)


def compare_exponential(fit: PowerLawFit, degrees) -> ScaleFreeVerdict:
    """Likelihood-ratio test of the fitted power law against a discrete exponential.

    Both distributions are evaluated on the tail x >= xmin; the p-value comes
    from the normal approximation to the ratio's variance (two-sided).
    """
    xs = np.asarray([int(d) for d in degrees if d > 0], dtype=np.float64)
    tail = xs[xs >= fit.xmin]
    n = tail.size
    if n < 2:
        raise InsufficientData("tail too small for a likelihood-ratio test")
    shifted = tail - fit.xmin
    mean_shift = float(shifted.mean())
    if mean_shift <= 0.0:
        raise InconclusiveTest("entire tail sits at xmin; exponential fit degenerates")
    # geometric-tail MLE: success probability from the mean excess
    p_geom = 1.0 / (1.0 + mean_shift)
    ll_pl = -fit.alpha * np.log(tail) - math.log(_hurwitz_zeta(fit.alpha, fit.xmin))
    ll_exp = math.log(p_geom) + shifted * math.log(1.0 - p_geom)
    diffs = ll_pl - ll_exp
    lr = float(diffs.sum())
    sigma2 = float(np.mean((diffs - diffs.mean()) ** 2))
    if sigma2 <= 0.0:
        raise InconclusiveTest("pointwise log-likelihood differences have zero variance")
    p = math.erfc(abs(lr) / math.sqrt(2.0 * n * sigma2))
    return ScaleFreeVerdict(lr=lr, p=p, is_scale_free=(lr > 0.0 and p < SIGNIFICANCE))


def classify(degrees) -> tuple[PowerLawFit, ScaleFreeVerdict]:
    """Fit the power law and run the exponential comparison in one step."""
    fit = fit_power_law(degrees)
    return fit, compare_exponential(fit, degrees)
