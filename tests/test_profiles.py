import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.config import parse_profile
from katolab.errors import ConfigError, DomainError
from katolab.profiles import (
    constant_profile,
    exp_profile,
    log_profile,
    power_profile,
)


def test_power_profile_values():
    f = power_profile(-1.5, coeff=2.0)
    assert float(f(np.array([4.0]))[0]) == pytest.approx(2.0 * 4.0**-1.5)
    assert f.singularity == pytest.approx(1.5)


def test_log_profile_values():
    f = log_profile()
    assert float(f(np.array([np.exp(-2.0)]))[0]) == pytest.approx(2.0)


@pytest.mark.parametrize("make", [exp_profile, constant_profile], ids=["exp", "const"])
def test_a_nan_profile_argument_is_rejected(make):
    # NaN fails no `<= 0` or `< 0` test, so both built a NaN profile
    with pytest.raises(DomainError):
        make(math.nan)


def test_exp_and_constant_profiles():
    f = exp_profile(3.0, coeff=0.5)
    assert float(f(np.array([1.0]))[0]) == pytest.approx(0.5 * np.exp(-3.0))
    g = constant_profile(4.2)
    assert float(g(np.array([100.0]))[0]) == pytest.approx(4.2)
    assert g.singularity == 0.0


@pytest.mark.parametrize("text,probe,expected", [
    ("power:-2", 3.0, 3.0**-2),
    ("power:-1:5.0", 2.0, 2.5),
    ("log", np.exp(-1.0), 1.0),
    ("exp:2.0", 1.0, np.exp(-2.0)),
    ("const:7", 123.0, 7.0),
])
def test_parse_profile_round_trip(text, probe, expected):
    f = parse_profile(text)
    assert float(np.asarray(f(np.array([probe])))[0]) == pytest.approx(
        expected, rel=1e-12)


def test_parse_profile_rejects_garbage():
    for text in ["", "power", "nope:1", "power:a", "power:nan", "power:-1:inf", "const:nan"]:
        with pytest.raises(ConfigError):
            parse_profile(text)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(min_value=-3.0, max_value=3.0),
       c=st.floats(min_value=0.01, max_value=100.0))
def test_parse_power_matches_constructor(a, c):
    parsed = parse_profile(f"power:{a}:{c}")
    direct = power_profile(a, coeff=c)
    s = np.array([0.3, 1.0, 2.7])
    assert np.allclose(np.asarray(parsed(s)), np.asarray(direct(s)),
                       rtol=1e-12)
