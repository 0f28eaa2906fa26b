import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.errors import DomainError, ValidationError
from katolab.rearrangement import (
    INVERSE_TOL,
    TINY,
    DistributionFunction,
    check_decreasing,
    layer_cake_criterion,
    radial_criterion,
    right_continuous_inverse,
)
from katolab.space import unit_ball_volume


# --------------------------------------------------------------------------
# right-continuous inverse


def test_inverse_of_power_profile():
    inv = right_continuous_inverse(lambda s: np.asarray(s, float) ** -2.0)
    # f(s) = s^-2 => f^{-1}(t) = t^{-1/2}
    for t in [0.25, 1.0, 9.0]:
        assert inv(t) == pytest.approx(t**-0.5, rel=1e-8)


def test_inverse_handles_plateaus_right_continuously():
    # step function: f = 2 on [0, 1), f = 1 on [1, 3), f = 0 beyond
    def f(s):
        s = np.asarray(s, dtype=float)
        return np.where(s < 1.0, 2.0, np.where(s < 3.0, 1.0, 0.0))

    inv = right_continuous_inverse(f)
    assert inv(1.5) == pytest.approx(1.0, abs=1e-8)   # sup{s : f(s) > 1.5}
    assert inv(0.5) == pytest.approx(3.0, abs=1e-8)
    assert inv(2.5) == pytest.approx(0.0, abs=1e-12)


def test_inverse_rejects_increasing_profile():
    with pytest.raises(ValidationError):
        right_continuous_inverse(lambda s: np.asarray(s, dtype=float))


def test_inverse_domain_guard():
    inv = right_continuous_inverse(lambda s: np.exp(-np.asarray(s, float)))
    with pytest.raises(DomainError):
        inv(-1.0)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(min_value=0.3, max_value=3.0))
def test_inverse_composition_identity(a):
    f = lambda s: (1.0 + np.asarray(s, dtype=float)) ** -a
    inv = right_continuous_inverse(f)
    for t in [0.1, 0.4, 0.9]:
        s = inv(t)
        # at continuity points f(f^{-1}(t)) = t
        assert float(np.asarray(f(np.array([s])))[0]) == pytest.approx(
            t, rel=1e-6)


def _scalar_inverse(f, t):
    """The one-t-at-a-time search right_continuous_inverse vectorizes: the
    reference it must equal bit for bit.  Where lo * hi is below the normal
    floats the midpoint is sqrt(lo) sqrt(hi) (sqrt(lo * hi) would stall)."""
    fval = lambda s: float(np.asarray(f(np.array([s])))[0])
    if fval(0.0) <= t:
        return 0.0
    hi = 1.0
    while fval(hi) > t:
        hi *= 2.0
        if hi > 1e15:
            return math.inf
    lo = hi / 2.0
    while fval(lo) <= t:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    while hi - lo > INVERSE_TOL * hi:
        mid = math.sqrt(lo * hi) if lo * hi >= TINY else math.sqrt(lo) * math.sqrt(hi)
        if fval(mid) > t:
            lo = mid
        else:
            hi = mid
    return lo


def test_inverse_equals_the_scalar_search_bit_for_bit():
    # the 20 profiles of acceptance criterion 10; t from 0 (inf: hi passes
    # 1e15) through 1e300 (0: lo falls below 1e-300) to t >= f(0) = inf
    from test_acceptance import REARR_PROFILES

    ts = np.concatenate([[0.0, 1e-300], np.geomspace(1e-30, 1e300, 46), [math.inf, 7.5]])
    kinds = set()
    for name, prof in REARR_PROFILES:
        got = right_continuous_inverse(prof)(ts)
        want = [_scalar_inverse(prof, t) for t in ts]
        assert repr(got.tolist()) == repr(want), name
        assert [right_continuous_inverse(prof)(t) for t in ts[:3]] == want[:3]
        kinds |= {0.0 if w == 0.0 else math.inf if math.isinf(w) else 1.0 for w in want}
    assert kinds == {0.0, 1.0, math.inf}


@pytest.mark.parametrize("a", [0.3, 0.9, 1.5])
def test_inverse_below_the_square_root_of_the_normal_floats(a):
    # f = s^-a: f^-1(t) = t^(-1/a) from 1e-155, where lo * hi underflows,
    # down to 1e-290 or t = 1e300; sqrt(lo * hi) reached 0 there, and the
    # search never ended
    inv = right_continuous_inverse(lambda s: np.asarray(s, float) ** -a)
    want = np.geomspace(1e-155, max(1e-290, 10.0 ** (-300.0 / a)), 8)
    got = inv(want ** -a)
    assert np.allclose(got, want, rtol=1e-11, atol=0.0)


# --------------------------------------------------------------------------
# distribution functions


def test_distribution_from_radial_power():
    # V = |x|^-1 in R^3: m(V >= t) = (4 pi / 3) t^-3
    dist = DistributionFunction.from_radial(
        lambda s: np.asarray(s, dtype=float) ** -1.0, d=3)
    for t in [0.5, 1.0, 2.0]:
        assert float(np.asarray(dist(t))) == pytest.approx(
            unit_ball_volume(3) * t**-3.0, rel=1e-7)


# --------------------------------------------------------------------------
# criteria agreement: centered radial test vs layer-cake test


@pytest.mark.parametrize("expo", [-0.3, -0.8, -1.2])
def test_radial_and_layer_cake_agree_on_powers(expo):
    # V = |x|^expo in R^3, alpha = 2, p = 1: both tests reduce to the
    # integrability of r^{expo} near 0 against the weight r^{d - p(d-a) - 1}
    f = lambda s: np.asarray(s, dtype=float) ** expo
    val_r, ok_r = radial_criterion(f, d=3, alpha_exponent=2.0, p=1.0)
    dist = DistributionFunction.from_radial(f, d=3)
    val_l, ok_l = layer_cake_criterion(dist, d=3, alpha_exponent=2.0, p=1.0)
    assert ok_r and ok_l


def test_radial_criterion_detects_divergence():
    f = lambda s: np.asarray(s, dtype=float) ** -2.5
    val, ok = radial_criterion(f, d=3, alpha_exponent=2.0, p=1.0)
    assert not ok and val == math.inf
    dist = DistributionFunction.from_radial(f, d=3)
    val_l, ok_l = layer_cake_criterion(dist, d=3, alpha_exponent=2.0, p=1.0)
    assert not ok_l


def test_radial_criterion_power_oracle():
    # d=3, a=2, p=1: weight r^{d-p(d-a)-1} = r, so the test integral is
    # int_0^1 r * r^-0.5 dr = 2/3
    f = lambda s: np.asarray(s, dtype=float) ** -0.5
    val, ok = radial_criterion(f, d=3, alpha_exponent=2.0, p=1.0)
    assert ok
    assert val == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_layer_cake_power_oracle():
    # V = |x|^-2 in R^3, alpha = 2, p = 1: m(V>=t) = omega_3 t^{-3/2},
    # exponent (d - p(d-a))/d = 2/3, so the tail integral from 1 is
    # omega_3^{2/3} * int_1^inf t^-1... diverges; use p slightly smaller
    dist = DistributionFunction.from_radial(
        lambda s: np.asarray(s, dtype=float) ** -2.0, d=3)
    # p = 0.8: exponent = (3 - 0.8)/3 -> tail t^{-1.1}, integral = 10 w^e
    val, ok = layer_cake_criterion(dist, d=3, alpha_exponent=2.0, p=0.8)
    expo = (3.0 - 0.8 * 1.0) / 3.0
    exact = unit_ball_volume(3) ** expo / (1.5 * expo - 1.0)
    assert ok
    assert val == pytest.approx(exact, rel=1e-3)


def test_layer_cake_exponent_guard():
    dist = DistributionFunction.from_radial(
        lambda s: np.asarray(s, dtype=float) ** -1.0, d=3)
    with pytest.raises(DomainError):
        layer_cake_criterion(dist, d=3, alpha_exponent=2.0, p=4.0)


def test_log_profile_borderline():
    # V = log(1/r) near 0 is in the class for every p in the power regime
    f = lambda s: np.maximum(np.log(1.0 / np.asarray(s, dtype=float)), 0.0)
    for p in [1.0, 2.0]:
        val, ok = radial_criterion(f, d=3, alpha_exponent=2.0, p=p)
        assert ok and math.isfinite(val)


def test_check_decreasing_passes_constants():
    check_decreasing(lambda s: np.ones_like(np.asarray(s, dtype=float)))
