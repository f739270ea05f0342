"""Discrete power-law fitting of degree sequences and scale-free classification.

The fit follows the usual maximum-likelihood recipe for integer data: for each
candidate lower bound the exponent is estimated by maximizing the
Hurwitz-zeta-normalized log-likelihood, and the lower bound minimizing the
Kolmogorov-Smirnov distance between empirical and fitted tail CDFs wins. The
power law is then compared against a discrete exponential on the same tail via
a normalized (Vuong-style) log-likelihood-ratio test; the network counts as
scale-free when LR > 0 and p < 0.05. Zero-degree observations are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _hurwitz_zeta():
    """scipy's Hurwitz zeta, imported on use: loading the CLI must not load scipy."""
    from scipy.special import zeta
    return zeta


def _tail_loglik(alpha: float, n: int, xmin: int, log_sum: float, zeta=None) -> float:
    if zeta is None:
        zeta = _hurwitz_zeta()
    return -n * math.log(zeta(alpha, xmin)) - alpha * log_sum


def _mle_alpha(n: int, xmin: int, log_sum: float, zeta) -> tuple[float, float]:
    """Golden-section maximization of the tail log-likelihood over alpha."""
    lo, hi = ALPHA_LO, ALPHA_HI
    a = hi - _GOLDEN * (hi - lo)
    b = lo + _GOLDEN * (hi - lo)
    fa = _tail_loglik(a, n, xmin, log_sum, zeta)
    fb = _tail_loglik(b, n, xmin, log_sum, zeta)
    while hi - lo > ALPHA_TOL:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = _tail_loglik(b, n, xmin, log_sum, zeta)
        else:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = _tail_loglik(a, n, xmin, log_sum, zeta)
    alpha = (lo + hi) / 2.0
    return alpha, _tail_loglik(alpha, n, xmin, log_sum, zeta)


def fit_power_law(degrees) -> PowerLawFit:
    """Fit a discrete power law to a degree sequence, choosing xmin by KS distance."""
    import numpy as np  # imported on use, like scipy: loading the CLI must not load it

    xs = np.asarray([int(d) for d in degrees if d > 0], dtype=np.int64)
    if xs.size < MIN_OBSERVATIONS:
        raise InsufficientData(
            f"need at least {MIN_OBSERVATIONS} nonzero observations, got {xs.size}"
        )
    xs.sort()
    uniq = np.unique(xs)
    if uniq.size == 1:
        raise DegenerateSequence("all observations are equal")

    zeta = _hurwitz_zeta()
    best: tuple[float, int, float, float, int] | None = None  # ks, xmin, alpha, ll, n
    log_all = np.log(xs.astype(np.float64))
    for xmin in uniq:
        tail = xs[xs >= xmin]
        n = int(tail.size)
        if n < 2 or tail[0] == tail[-1]:
            continue
        log_sum = float(log_all[xs.size - n:].sum())
        alpha, loglik = _mle_alpha(n, int(xmin), log_sum, zeta)
        tail_uniq, counts = np.unique(tail, return_counts=True)
        emp_cdf = np.cumsum(counts) / n
        fit_cdf = 1.0 - zeta(alpha, tail_uniq + 1) / zeta(alpha, int(xmin))
        ks = float(np.max(np.abs(emp_cdf - fit_cdf)))
        if best is None or (ks, int(xmin)) < (best[0], best[1]):
            best = (ks, int(xmin), alpha, loglik, n)
    if best is None:
        raise DegenerateSequence("no viable lower bound leaves a non-constant tail")
    _, xmin, alpha, loglik, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=xmin, n_tail=n_tail, loglik=loglik)


def compare_exponential(fit: PowerLawFit, degrees) -> ScaleFreeVerdict:
    """Likelihood-ratio test of the fitted power law against a discrete exponential.

    Both distributions are evaluated on the tail x >= xmin; the p-value comes
    from the normal approximation to the ratio's variance (two-sided).
    """
    import numpy as np

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
    ll_pl = -fit.alpha * np.log(tail) - math.log(_hurwitz_zeta()(fit.alpha, fit.xmin))
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
