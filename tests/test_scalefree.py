import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from kgexpand.errors import DegenerateSequence, InconclusiveTest, InsufficientData
from kgexpand.scalefree import (
    ALPHA_HI,
    ALPHA_LO,
    classify,
    compare_exponential,
    fit_power_law,
    _fitted_cdf,
    _hurwitz_zeta,
    _tail_loglik,
)

from . import oracles


def test_constant_sequence_is_degenerate():
    with pytest.raises(DegenerateSequence):
        fit_power_law([4] * 50)


def test_too_few_observations():
    with pytest.raises(InsufficientData):
        fit_power_law([1, 2, 3, 4, 5, 6, 7, 8, 9])


def test_zeros_are_excluded():
    data = [0] * 100 + [1, 2, 3, 4, 5, 6, 7, 8, 9]
    with pytest.raises(InsufficientData):
        fit_power_law(data)


def test_xmin_occurs_in_data_and_tail_is_big_enough():
    data = oracles.sample_discrete_power_law(2.5, 5, 2000, seed=1)
    fit = fit_power_law(data)
    assert fit.xmin in set(data)
    assert fit.n_tail >= 2
    assert fit.alpha > 1.0


def test_synthetic_power_law_recovery():
    data = oracles.sample_discrete_power_law(2.5, 5, 10000, seed=0)
    fit, verdict = classify(data)
    assert abs(fit.alpha - 2.5) <= 0.1
    assert abs(fit.xmin - 5) <= 2
    assert verdict.lr > 0
    assert verdict.p < 0.05
    assert verdict.is_scale_free


def test_geometric_data_prefers_exponential():
    data = oracles.sample_geometric(0.3, 1, 10000, seed=1)
    fit, verdict = classify(data)
    assert verdict.lr < 0
    assert not verdict.is_scale_free


def test_fitted_alpha_is_a_local_maximum():
    data = oracles.sample_discrete_power_law(2.5, 5, 3000, seed=3)
    fit = fit_power_law(data)
    tail = [x for x in data if x >= fit.xmin]
    log_sum = sum(math.log(x) for x in tail)
    center = _tail_loglik(fit.alpha, len(tail), fit.xmin, log_sum)
    for delta in (-0.01, 0.01):
        assert _tail_loglik(fit.alpha + delta, len(tail), fit.xmin,
                            log_sum) <= center + 1e-12


def test_duplication_leaves_alpha_xmin_and_lr_sign_unchanged():
    data = oracles.sample_discrete_power_law(2.3, 3, 2000, seed=5)
    fit1, verdict1 = classify(data)
    fit2, verdict2 = classify(data * 2)
    assert fit2.alpha == pytest.approx(fit1.alpha, abs=1e-6)
    assert fit2.xmin == fit1.xmin
    assert (verdict2.lr > 0) == (verdict1.lr > 0)
    assert verdict2.lr == pytest.approx(2 * verdict1.lr, rel=1e-9)


def test_p_value_in_unit_interval_and_lr_sign_matches_mean():
    for seed in range(5):
        data = oracles.sample_discrete_power_law(2.7, 2, 1500, seed=seed)
        fit, verdict = classify(data)
        assert 0.0 <= verdict.p <= 1.0
        tail = np.array([x for x in data if x >= fit.xmin], dtype=float)
        shifted = tail - fit.xmin
        p_geom = 1.0 / (1.0 + shifted.mean())
        from scipy.special import zeta

        ll_pl = -fit.alpha * np.log(tail) - math.log(zeta(fit.alpha, fit.xmin))
        ll_exp = math.log(p_geom) + shifted * math.log(1.0 - p_geom)
        assert (verdict.lr > 0) == ((ll_pl - ll_exp).mean() > 0)


def test_all_tail_at_xmin_is_inconclusive():
    # long constant tail at the top value forces the degenerate-exponential case
    data = [1, 2, 3, 4] * 10 + [50] * 30
    fit = fit_power_law(data)
    if fit.xmin == 50:
        with pytest.raises(InconclusiveTest):
            compare_exponential(fit, data)
    else:
        # xmin landed lower; craft the degenerate call directly
        from kgexpand.scalefree import PowerLawFit

        forced = PowerLawFit(alpha=2.5, xmin=50, n_tail=30, loglik=0.0)
        with pytest.raises(InconclusiveTest):
            compare_exponential(forced, data)


def test_insufficient_tail_for_comparison():
    from kgexpand.scalefree import PowerLawFit

    forced = PowerLawFit(alpha=2.0, xmin=999, n_tail=0, loglik=0.0)
    with pytest.raises(InsufficientData):
        compare_exponential(forced, [1] * 20)


def _fit_or_error(fit, degrees):
    try:
        return repr(fit(degrees))
    except Exception as exc:
        return type(exc)


@given(st.one_of(
    st.lists(st.integers(0, 30), max_size=60),
    st.builds(lambda alpha, xmin, n, seed: oracles.sample_discrete_power_law(
                  alpha, xmin, n, seed),
              st.floats(1.5, 3.5), st.integers(1, 6), st.integers(5, 300),
              st.integers(0, 2**32 - 1))))
@settings(max_examples=150, deadline=None)
def test_fit_equals_the_per_candidate_mask_fit(degrees):
    assert (_fit_or_error(fit_power_law, degrees)
            == _fit_or_error(oracles.fit_power_law, degrees))


def test_fit_is_deterministic():
    data = oracles.sample_discrete_power_law(2.5, 4, 4000, seed=9)
    assert fit_power_law(data) == fit_power_law(data)


# ---------------------------------------------------------------------------
# the Hurwitz zeta port against scipy.special.zeta, bit for bit


@pytest.mark.parametrize("alpha", [1.01, 1.0100001, 2.0, 3.5, 5.99999, 6.0])
def test_hurwitz_zeta_matches_scipy_bit_for_bit(alpha):
    for q in range(1, 2001):
        assert _hurwitz_zeta(alpha, q) == scipy_zeta(alpha, q), q


@given(st.floats(ALPHA_LO, ALPHA_HI),
       st.one_of(st.integers(1, 10_000), st.floats(1.0, 1e4)))
@settings(max_examples=500, deadline=None)
def test_hurwitz_zeta_matches_scipy_on_drawn_arguments(alpha, q):
    assert _hurwitz_zeta(alpha, q) == scipy_zeta(alpha, q)


@pytest.mark.parametrize("alpha", [1.01, 2.3, 6.0])
def test_fitted_cdf_matches_the_scipy_array_form(alpha):
    data = oracles.sample_discrete_power_law(2.5, 3, 3000, seed=2)
    xmin = 3
    values = np.unique(np.asarray([x for x in data if x >= xmin], dtype=np.int64))
    expected = 1.0 - scipy_zeta(alpha, values + 1) / scipy_zeta(alpha, xmin)
    assert _fitted_cdf(alpha, xmin, values).tobytes() == expected.tobytes()
