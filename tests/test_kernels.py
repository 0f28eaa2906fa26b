import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from katolab import kernels, quadrature
from katolab.classification import ClassifyConfig
from katolab.errors import DomainError, ValidationError
from katolab.kernelcheck import eval_heat_kernel, kernel_invariant_suite
from katolab.kernels import (
    GaussianKernelModel,
    ScalingKernelModel,
    StableEstimateModel,
    StretchedExponentialModel,
    make_kernel_model,
    relativistic_psi,
    stable_jump_constant,
    synthetic_scaling_model,
)
from katolab.config import parse_profile
from katolab.space import SpaceModel


# --------------------------------------------------------------------------
# Gaussian closed forms against independent formulas


def test_gaussian_heat_kernel_values():
    m = GaussianKernelModel(dim=3)
    for t, r in [(0.5, 0.3), (2.0, 1.7), (0.01, 0.05)]:
        got = float(np.asarray(m.pt_radial(t, np.array([r])))[0])
        ref = (2.0 * math.pi * t) ** -1.5 * math.exp(-(r**2) / (2.0 * t))
        assert got == pytest.approx(ref, rel=1e-14)


def test_gaussian_qt_d1_oracle():
    # int_0^t (2 pi s)^{-1/2} e^{-r^2/2s} ds
    m = GaussianKernelModel(dim=1)
    for t, r in [(1.0, 0.4), (0.25, 1.1), (2.0, 0.0)]:
        got = float(np.asarray(m.qt_radial(t)(np.array([r])))[0])
        ref, _ = integrate.quad(
            lambda s: (2 * math.pi * s) ** -0.5 * math.exp(-(r**2) / (2 * s)),
            0.0, t, epsrel=1e-12)
        assert got == pytest.approx(ref, rel=1e-10)


def test_gaussian_qt_d1_far_tail_oracle():
    # sqrt(2t/pi) e^{-z^2} and r erfc(z) nearly cancel for large z = r/sqrt(2t)
    m = GaussianKernelModel(dim=1)
    for t, r in [(1.0, 30.0), (4.0**-8, 0.072), (4.0**-8, 0.1)]:
        got = float(np.asarray(m.qt_radial(t)(np.array([r])))[0])
        ref, _ = integrate.quad(
            lambda s: (2 * math.pi * s) ** -0.5 * math.exp(-(r**2) / (2 * s)),
            0.0, t, epsrel=1e-13, epsabs=0.0, limit=200)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_gaussian_qt_d3_oracle():
    m = GaussianKernelModel(dim=3)
    for t, r in [(1.0, 0.4), (0.04, 0.9)]:
        got = float(np.asarray(m.qt_radial(t)(np.array([r])))[0])
        ref, _ = integrate.quad(
            lambda s: (2 * math.pi * s) ** -1.5 * math.exp(-(r**2) / (2 * s)),
            0.0, t, epsrel=1e-12)
        assert got == pytest.approx(ref, rel=1e-10)


def test_gaussian_resolvent_d1_closed_form():
    # r_alpha(x, y) = e^{-sqrt(2 alpha) |x-y|} / sqrt(2 alpha)
    m = GaussianKernelModel(dim=1)
    for a in [0.5, 1.0, 7.3]:
        for r in [0.0, 1e-9, 0.2, 1.5, 6.0]:
            got = m.resolvent_scalar(a, r)
            ref = math.exp(-math.sqrt(2 * a) * r) / math.sqrt(2 * a)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_gaussian_resolvent_d3_closed_form():
    # r_alpha(x, y) = e^{-sqrt(2 alpha) r} / (2 pi r), down to radii far
    # below the reach of a scaling model's r_1 panels
    m = GaussianKernelModel(dim=3)
    cases = ([(a, r) for a in [1.0, 4.0] for r in [0.1, 0.7, 3.0]]
             + [(a, r) for a in [1.0, 16.0] for r in [1e-16, 1e-14]])
    for a, r in cases:
        got = m.resolvent_scalar(a, r)
        ref = math.exp(-math.sqrt(2 * a) * r) / (2 * math.pi * r)
        assert got == pytest.approx(ref, rel=1e-13)


def test_gaussian_qt_d1_far_tail_against_mpmath():
    # z = r/sqrt(2t) on [2, 26] with t = 1/2 and dyadic r, so that z^2 is
    # exact in double precision and the comparison sees only the kernel
    mpmath = pytest.importorskip("mpmath")
    m = GaussianKernelModel(dim=1)
    zs = np.arange(2.0, 26.0 + 1e-9, 0.125)
    got = m.qt_radial(0.5)(zs)
    for z, g in zip(zs, got):
        with mpmath.workdps(40):
            zm = mpmath.mpf(z)
            ref = float(mpmath.exp(-zm**2) / mpmath.sqrt(mpmath.pi) - zm * mpmath.erfc(zm))
        assert g == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_gaussian_qt_d1_continuous_across_branch_switch():
    # the erfc difference serves z < 2, the continued fraction z >= 2
    m = GaussianKernelModel(dim=1)
    for t in [1.0, 4.0**-8]:
        for z in [1.999, 2.0, 2.001]:
            r = z * math.sqrt(2.0 * t)
            got = float(m.qt_radial(t)(np.array([r]))[0])
            ref, _ = integrate.quad(
                lambda s: (2 * math.pi * s) ** -0.5 * math.exp(-(r**2) / (2 * s)),
                0.0, t, epsrel=1e-13, epsabs=0.0, limit=200)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def _gaussian_p(d, s, r):
    return (2 * math.pi * s) ** (-d / 2) * math.exp(-(r**2) / (2 * s))


def test_gaussian_d5_kernels_against_time_integrals():
    # d = 5: K_{3/2} in r_alpha and Gamma(3/2, x) in q_t, each against a
    # quad in time of the heat kernel itself
    m = GaussianKernelModel(dim=5)
    for a, r in [(1.0, 0.3), (7.9, 1.9), (30.0, 0.02), (0.5, 4.0)]:
        f = lambda s: math.exp(-a * s) * _gaussian_p(5, s, r)
        ref = sum(integrate.quad(f, lo, hi, epsrel=1e-13, epsabs=0.0, limit=400)[0]
                  for lo, hi in [(0.0, r * r), (r * r, 1.0), (1.0, np.inf)])
        assert m.resolvent_scalar(a, r) == pytest.approx(ref, rel=1e-12)
        assert float(m.resolvent_radial(a)(np.array([r]))[0]) == m.resolvent_scalar(a, r)
    for t, r in [(1.0, 0.4), (0.04, 0.9), (2.0, 3.0)]:
        ref = sum(integrate.quad(lambda s: _gaussian_p(5, s, r), lo, hi,
                                 epsrel=1e-13, epsabs=0.0, limit=400)[0]
                  for lo, hi in [(0.0, min(r * r, t) / 2), (min(r * r, t) / 2, t)])
        got = float(m.qt_radial(t)(np.array([r]))[0])
        assert got == pytest.approx(ref, rel=1e-12)


def test_resolvent_interpolant_matches_scalar():
    m = GaussianKernelModel(dim=3)
    g = m.resolvent_radial(2.0)
    rs = np.geomspace(1e-3, 5.0, 40)
    got = np.asarray(g(rs))
    ref = np.exp(-2.0 * rs) / (2.0 * math.pi * rs)
    assert np.allclose(got, ref, rtol=1e-6)


def test_resolvent_table_small_r_closed_form():
    # large alphas reach far below the old 1e-6 table floor in r
    rs = np.geomspace(1e-9, 1.0, 400)
    m3, m1 = GaussianKernelModel(dim=3), GaussianKernelModel(dim=1)
    for a in [1.0, 16.0, 4096.0, 65536.0]:
        k = math.sqrt(2.0 * a)
        got3 = np.asarray(m3.resolvent_radial(a)(rs))
        assert np.allclose(got3, np.exp(-k * rs) / (2.0 * math.pi * rs),
                           rtol=1e-5, atol=0.0)
        r1 = np.concatenate([[0.0], rs])
        got1 = np.asarray(m1.resolvent_radial(a)(r1))
        assert np.allclose(got1, np.exp(-k * r1) / k, rtol=1e-5, atol=0.0)


def test_even_gaussian_resolvent_against_mpmath():
    # 2 (2 pi)^{-d/2} (r/k)^{1-d/2} K_{d/2-1}(kr), k = sqrt(2 alpha), at 50 digits
    mpmath = pytest.importorskip("mpmath")
    for d in [2, 4, 6]:
        m = GaussianKernelModel(dim=d)
        for a in [1.0, 16.0, 4096.0]:
            for r in [1e-16, 1e-13, 1e-6, 0.3, 3.0]:
                with mpmath.workdps(50):
                    k, rm, nu = mpmath.sqrt(2 * mpmath.mpf(a)), mpmath.mpf(r), mpmath.mpf(d) / 2
                    ref = float(2 * (2 * mpmath.pi) ** -nu * (rm / k) ** (1 - nu)
                                * mpmath.besselk(nu - 1, k * rm))
                assert m.resolvent_scalar(a, r) == pytest.approx(ref, rel=1e-12, abs=0.0)
                assert float(m.resolvent_radial(a)(np.array([r]))[0]) == m.resolvent_scalar(a, r)
        assert "_unit_resolvent" not in vars(m) and "_panels" not in vars(m)  # no table


@pytest.mark.parametrize("d", [1, 3, 5])
def test_odd_gaussian_builds_no_resolvent_table(d):
    cfg = ClassifyConfig()
    alphas = sorted(set(cfg.localized_alphas) | set(cfg.alpha_grid))
    m = GaussianKernelModel(dim=d)
    rs = np.geomspace(1e-20, 30.0, 50)
    for a in alphas:
        assert np.all(np.isfinite(m.resolvent_radial(a)(rs)))
        assert math.isfinite(m.resolvent_scalar(a, 0.3))
    assert np.all(np.isfinite(m.qt_radial(0.5)(rs)))
    assert "_panels" not in vars(m)


@pytest.mark.parametrize("model", [
    StableEstimateModel(dim=2, alpha=1.2),
    make_kernel_model("custom", dim=3, nu=3.0, beta=2.0,
                      profile=parse_profile("exp:2")),
], ids=["stable", "custom-exp"])
def test_rescaled_resolvent_table_matches_scalar(model):
    rs = np.array([0.003, 0.02, 0.3, 1.0, 1.9, 5.0])
    for a in [0.5, 1.0, 7.9, 30.0]:
        radial = model.resolvent_radial(a)(rs)
        assert np.array_equal(radial, [model.resolvent_scalar(a, float(r)) for r in rs])


# every family the engine batches, as configs name them
COLUMN_FAMILIES = {
    "gaussian-d1": lambda: GaussianKernelModel(dim=1),
    "gaussian-d2": lambda: GaussianKernelModel(dim=2),
    "gaussian-d3": lambda: GaussianKernelModel(dim=3),
    "custom-exp": lambda: make_kernel_model("custom", dim=3, nu=3.0, beta=2.0,
                                            profile=parse_profile("exp:2.0")),
    "stable-m0": lambda: make_kernel_model("stable_estimate", dim=2, alpha=1.2),
    "stable-m": lambda: make_kernel_model("stable_estimate", dim=2, alpha=1.2, m=0.5),
    "relativistic": lambda: make_kernel_model("relativistic", dim=3, alpha=1.0, m=1.0),
    "stretched": lambda: make_kernel_model("stretched_exponential", d_f=math.log2(3.0),
                                           d_w=math.log2(5.0)),
}


@pytest.mark.parametrize("family", list(COLUMN_FAMILIES))
def test_kernel_parameter_column_equals_per_parameter_calls(family):
    # the engine evaluates the rows of many t (or alpha) with one call on a
    # column of parameters; each row must be what that parameter's own call
    # gives on the same nodes, bit for bit.  The nodes are dyadic panels
    # [b/2, b] of three ladders; the times and orders those of classify (and,
    # past t0 = 1/m of a massive family, t of the late branch) and random
    # ones, on which numpy's vector exp and pow would differ from libm's
    model = COLUMN_FAMILIES[family]()
    cfg = ClassifyConfig()
    b = np.ldexp(np.repeat([0.5, 0.75, 0.6], 44), np.tile(np.arange(-38, 6), 3))
    nodes = quadrature.panel_nodes(0.5 * b, b)
    rng = np.random.default_rng(5)
    times = [*cfg.t_grid, *cfg.localized_times, 1.5, 3.0, *np.geomspace(1e-5, 3.0, 40) * rng.uniform(0.9, 1.1, 40)]
    orders = [*cfg.alpha_grid, *cfg.localized_alphas, 0.3, *np.geomspace(0.3, 1e5, 40) * rng.uniform(0.9, 1.1, 40)]
    for kernel, params in [(model.qt_radial, times), (model.resolvent_radial, orders)]:
        pick = rng.choice(params, len(nodes))
        got = np.asarray(kernel(pick[:, None])(nodes))
        assert got.shape == nodes.shape
        for v in set(pick.tolist()):
            rows = pick == v
            assert got[rows].tobytes() == np.asarray(kernel(v)(nodes[rows])).tobytes()


def test_relativistic_model_builds_no_table():
    m = StableEstimateModel(dim=2, alpha=1.2, m=1.0)
    rs = np.array([0.0, 1e-9, 0.02, 0.3, 1.9, 5.0])
    for a in [1.0, 16.0, 64.0]:
        radial = m.resolvent_radial(a)(rs)
        assert np.array_equal(radial, [m.resolvent_scalar(a, float(r)) for r in rs])
    assert "_panels" not in vars(m)


# --------------------------------------------------------------------------
# generic scaling model: q_t and r_1 from one log-space weight


class StableProfileModel(ScalingKernelModel):
    """The stable estimate's profile, served by the generic log-space q_t."""

    def __init__(self, d: int, a: float):
        A = stable_jump_constant(d, a)
        self.profile_kinks = (A ** (1.0 / (d + a)),)
        super().__init__(
            SpaceModel(ambient_dim=d, nu=float(d), beta=a),
            lambda u: 1.0 / np.maximum(1.0, np.asarray(u, float) ** (d + a) / A))


def assert_close_above(got, ref, rel, floor):
    """Infinite references must be met exactly, finite ones above floor to rel."""
    inf = np.isinf(ref)
    assert np.array_equal(got[inf], ref[inf])
    big = ~inf & (ref > floor)
    assert np.all(np.abs(got[big] - ref[big]) <= rel * ref[big])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("a", [0.8, 1.2, 1.5])
def test_generic_qt_matches_stable_closed_form(d, a):
    generic, exact = StableProfileModel(d, a), StableEstimateModel(d, a)
    rs = np.geomspace(1e-20, 100.0, 221)
    for t in [0.5, 4.0**-8]:
        assert_close_above(generic.qt_radial(t)(rs), exact.qt_radial(t)(rs), 1e-12, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])  # nu < beta, nu = beta, nu > beta
def test_generic_qt_matches_gaussian_closed_form(d):
    exact = GaussianKernelModel(dim=d)
    generic = ScalingKernelModel(exact.space, exact.profile)
    rs = np.concatenate([[0.0], np.geomspace(1e-20, 100.0, 400)])
    for t in [0.5, 4.0**-8]:
        assert_close_above(generic.qt_radial(t)(rs), exact.qt_radial(t)(rs), 1e-12, 1e-250)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_generic_kernels_match_gaussian_closed_forms_on_the_classify_grids(d):
    # the panel-sum q_t and r_alpha of the Gaussian profile against the closed
    # forms, at every t and alpha of the classify grids and t = alpha = 1
    exact = GaussianKernelModel(dim=d)
    generic = ScalingKernelModel(exact.space, exact.profile)
    rs = np.geomspace(1e-8, 30.0, 1000)
    for k in range(9):
        t, alpha = 4.0**-k, 4.0**k
        assert_close_above(generic.qt_radial(t)(rs), exact.qt_radial(t)(rs), 2e-12, 1e-200)
        assert_close_above(generic.resolvent_radial(alpha)(rs),
                           exact.resolvent_radial(alpha)(rs), 5e-13, 1e-200)


def test_shared_panels_guard_both_tables_against_divergent_tail():
    # w(x) = e^{(nu-beta)x} profile(e^x) grows like e^{x/10}: the tail moment
    # int^inf u^{nu-beta-1} profile(u) du that q_t and r_alpha integrate diverges
    space = SpaceModel(ambient_dim=2, nu=2.0, beta=1.5)
    upper = lambda u: np.exp(-np.asarray(u, float))
    m = ScalingKernelModel(space, lambda u: (1.0 + np.asarray(u, float)) ** -0.4,
                           phi_lower=lambda u: 0.5 * upper(u), phi_upper=upper)
    with pytest.raises(ValidationError):
        m.qt_radial(0.5)
    with pytest.raises(ValidationError):
        m.resolvent_radial(1.0)
    with pytest.raises(ValidationError):
        m.resolvent_scalar(1.0, 1.0)


# --------------------------------------------------------------------------
# stable estimate model


def test_a_negative_mass_is_rejected():
    # t0 = 1/m would be -1, and classify would fail with "t must lie in ]0, t0["
    with pytest.raises(DomainError, match="m must be >= 0"):
        StableEstimateModel(dim=3, alpha=1.0, m=-1.0)
    assert StableEstimateModel(dim=3, alpha=1.0, m=0.0).t0 == math.inf


def test_an_infinite_mass_is_rejected():
    # t0 = 1/m would be 0, and classify would fail with "t must lie in ]0, t0["
    with pytest.raises(DomainError, match="m must be >= 0 and finite"):
        StableEstimateModel(dim=3, alpha=1.0, m=math.inf)


def test_stable_jump_constant_d1_cauchy():
    # alpha = 1, d = 1: the Cauchy jump density is r^-2 / pi
    assert stable_jump_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_stable_qt_matches_direct_time_integral():
    m = StableEstimateModel(dim=2, alpha=1.2)
    for t, r in [(0.3, 0.05), (0.3, 1.5), (0.01, 0.4)]:
        got = float(np.asarray(m.qt_radial(t)(np.array([r])))[0])
        ref, _ = integrate.quad(
            lambda s: float(np.asarray(m.pt_radial(s, np.array([r])))[0]),
            0.0, t, epsrel=1e-11, limit=300)
        assert got == pytest.approx(ref, rel=1e-9)


def test_stable_resolvent_matches_laplace_transform():
    m = StableEstimateModel(dim=2, alpha=1.2)
    for a, r in [(1.0, 0.3), (7.9, 1.9), (30.0, 0.02)]:
        got = m.resolvent_scalar(a, r)
        ref, _ = integrate.quad(
            lambda s: math.exp(-a * s)
            * float(np.asarray(m.pt_radial(s, np.array([r])))[0]),
            0.0, np.inf, epsrel=1e-11, limit=600)
        assert got == pytest.approx(ref, rel=1e-5)


def test_custom_resolvent_matches_laplace_transform():
    # an oracle independent of the r_1 panels that both the table and the
    # scalar read: the Laplace transform in time of p_s(r)
    m = make_kernel_model("custom", dim=3, nu=3.0, beta=2.0,
                          profile=parse_profile("exp:2"))
    for a, r in [(1.0, 0.3), (7.9, 1.9), (30.0, 0.02)]:
        got = m.resolvent_scalar(a, r)
        f = lambda s: (math.exp(-a * s)
                       * float(np.asarray(m.pt_radial(s, np.array([r])))[0]))
        ref = sum(integrate.quad(f, lo, hi, epsrel=1e-12, limit=600)[0]
                  for lo, hi in [(0.0, r * r), (r * r, 1.0), (1.0, np.inf)])
        assert got == pytest.approx(ref, rel=1e-9)


def test_stable_resolvent_at_zero_closed_form():
    # d < alpha: r_a(0) = int_0^inf e^{-a s} p_s(0) ds with p_s(0) = s^{-d/alpha}
    m = StableEstimateModel(dim=1, alpha=1.5)
    for a in [0.3, 1.0, 7.9]:
        ref, _ = integrate.quad(lambda s: math.exp(-a * s) * s ** (-1.0 / 1.5),
                                0.0, np.inf, epsrel=1e-12, limit=400)
        assert m.resolvent_scalar(a, 0.0) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("m, q1", [(0.0, 0.037400838787634325),
                                   (0.5, 0.03097079235115248)],
                         ids=["m0", "m0.5"])
def test_stable_values_at_zero_raise_no_warning(m, q1):
    # d < alpha: every value at r = 0 is finite, and the overflow and inf * 0
    # on the way there are discarded
    model = StableEstimateModel(dim=1, alpha=1.5, m=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = model.qt_radial(0.5)(np.array([0.0, 1.0]))
        p0 = float(model.pt_radial(0.5, 0.0))
        r0 = model.resolvent_scalar(1.0, 0.0)
    assert q.tolist() == [2.3811015779522986, q1]
    assert p0 == 1.5874010519681994
    assert r0 == {0.0: 2.678938534707747, 0.5: 2.6826505342788476}[m]


@pytest.mark.parametrize("m", [0.0, 0.5], ids=["m0", "m0.5"])
def test_stable_qt_is_finite_where_the_jump_density_overflows(m):
    # J = A psi r^-(d+a) overflows at these radii; the head then comes from
    # A psi and r apart.  d < a: the value meets its r = 0 limit; d > a: it
    # keeps the r^(a-d) growth it has at 1e-60
    for (d, a), r in (((1, 1.5), 1e-200), ((2, 1.2), 1e-100)):
        model = StableEstimateModel(dim=d, alpha=a, m=m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q0, qr, q60 = model.qt_radial(0.5)(np.array([0.0, r, 1e-60]))
        assert math.isfinite(qr)
        if d < a:
            assert qr == pytest.approx(q0, rel=1e-12)
        else:
            assert qr == pytest.approx(q60 * (r / 1e-60) ** (a - d), rel=1e-12)


def test_relativistic_resolvent_at_zero_has_late_branch():
    # d < alpha, m > 0: p_s(0) = s^{-d/alpha} up to s = 1/m, then
    # m^{d/alpha - d/2} s^{-d/2}
    m = StableEstimateModel(dim=1, alpha=1.5, m=0.5)
    a = 0.3
    p0 = lambda s: (s ** (-1.0 / 1.5) if s <= 2.0
                    else 0.5 ** (1.0 / 1.5 - 0.5) * s ** -0.5)
    ref = sum(integrate.quad(lambda s: math.exp(-a * s) * p0(s), lo, hi,
                             epsrel=1e-12, limit=400)[0]
              for lo, hi in [(0.0, 2.0), (2.0, np.inf)])
    assert ref == pytest.approx(4.0858, abs=1e-4)
    assert m.resolvent_scalar(a, 0.0) == pytest.approx(ref, rel=1e-8)


def test_relativistic_resolvent_past_jump_density_underflow():
    # the jump density underflows to 0 near r = 1342 here
    m = StableEstimateModel(dim=1, alpha=1.5, m=0.5)
    for r in [1342.0, 2000.0, 1e5]:
        assert float(m.jump_density(np.array([r]))[0]) == 0.0
        v = m.resolvent_scalar(1.0, r)
        assert math.isfinite(v) and v >= 0.0


RELATIVISTIC = [(1, 1.5, 0.5), (3, 1.0, 1.0)]  # (d, a, m): d < a and d > a


def _relativistic_p(model, r):
    """s -> p_s(r) of the relativistic estimate, in math functions."""
    d, a, m = model.dim, model.alpha, model.m
    J = float(model.jump_density(np.array([r]))[0]) if r > 0 else math.inf

    def p(s):
        if s <= 1.0 / m:
            return min(s ** (-d / a), s * J)
        expo = min(m ** (1 / a) * r, m ** (2 / a - 1) * r * r / s)
        return m ** (d / a - d / 2) * s ** (-d / 2) * math.exp(-expo)

    return p, J


def _split_quad(f, cuts, top):
    """int_0^top f by quad: one piece up to cuts[0], then 30 log-spaced
    sub-intervals between consecutive cuts and up to a finite top."""
    edges = [0.0, cuts[0]]
    for lo, hi in zip(cuts, cuts[1:] + [top]):
        if hi > lo:
            edges += list(np.geomspace(lo, hi, 31)[1:])
    return sum(integrate.quad(f, lo, hi, epsrel=1e-13, epsabs=0.0, limit=200)[0]
               for lo, hi in zip(edges, edges[1:]))


def _relativistic_cuts(model, r, J):
    """s* (or 1e-6/m at r = 0), 1/m and s_c, each at least the one before."""
    d, a, m = model.dim, model.alpha, model.m
    T = 1.0 / m
    s_star = min(J ** (-a / (d + a)), T) if r > 0 else 1e-6 * T
    return [s_star, T, max(T, m ** (1 / a - 1) * r)]


@pytest.mark.parametrize("d,a,m", RELATIVISTIC)
def test_relativistic_resolvent_against_split_quad(d, a, m):
    # the quad reference splits at s*, 1/m and s_c and runs past the saddle
    # sqrt(c/alpha) of e^{-alpha s - c/s}, c = m^{2/a-1} r^2, and to infinity
    model = StableEstimateModel(dim=d, alpha=a, m=m)
    for alpha in [0.3, 1.0, 16.0]:
        for r in [1e-4, 0.3, 3.0, 10.0, 40.0]:
            p, J = _relativistic_p(model, r)
            f = lambda s: math.exp(-alpha * s) * p(s)
            cuts = _relativistic_cuts(model, r, J)
            top = cuts[-1] + 200.0 / alpha + 4.0 * r * m ** (1 / a - 0.5) / math.sqrt(alpha)
            ref = _split_quad(f, cuts, top) + integrate.quad(f, top, np.inf)[0]
            assert model.resolvent_scalar(alpha, r) == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("d,a,m", RELATIVISTIC)
def test_relativistic_qt_late_branch_against_split_quad(d, a, m):
    model = StableEstimateModel(dim=d, alpha=a, m=m)
    rs = [0.3, 3.0, 10.0, 40.0] + ([0.0] if d < a else [])
    for t in [1.5 / m, 3.0 / m, 30.0 / m]:
        got = model.qt_radial(t)(np.array(rs))
        for r, g in zip(rs, got):
            p, J = _relativistic_p(model, r)
            ref = _split_quad(p, [c for c in _relativistic_cuts(model, r, J) if c < t], t)
            assert g == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_stable_resolvent_power_tail():
    # heavy jump tails Laplace-transform to heavy tails: r_alpha ~ J(r)/alpha^2
    m = StableEstimateModel(dim=2, alpha=1.2)
    a = 2.0
    v1 = m.resolvent_scalar(a, 20.0)
    v2 = m.resolvent_scalar(a, 40.0)
    slope = math.log(v1 / v2) / math.log(2.0)
    assert slope == pytest.approx(2.0 + 1.2, abs=0.05)


# --------------------------------------------------------------------------
# r_alpha without tables: the generic panel sum, the stable closed form and
# the incomplete gamma they share


def test_r1_below_the_panels_when_nu_equals_beta():
    # nu = beta = 2, profile e^{-u^2}: r_1(r) = int_0^inf e^{-s - r^2/s} ds / s
    # = 2 K_0(2r), a log divergence at 0; below r = 1e-12 the profile is
    # continued by its value at 0, profile(0) E_1((r e^{-x0})^2)
    mpmath = pytest.importorskip("mpmath")
    m = synthetic_scaling_model(2.0, 2.0, 2)
    rs = np.array([1e-13, 1e-15, 1e-18, 1e-30, 1e-100])
    got = m.resolvent_radial(1.0)(rs)
    for r, g in zip(rs, got):
        with mpmath.workdps(30):
            ref = float(2 * mpmath.besselk(0, 2 * mpmath.mpf(r)))
        assert abs(g - ref) <= 1e-13 * ref
        assert m.resolvent_scalar(1.0, float(r)) == g
    assert m.resolvent_scalar(1.0, 0.0) == math.inf


STABLE_DA = [(2, 1.2), (1, 1.5), (1, 0.7), (1, 1.0), (2, 1.0), (3, 0.5)]


@pytest.mark.parametrize("d,a", STABLE_DA)
def test_stable_resolvent_against_closed_form(d, a):
    # m = 0, J = A r^-(d+a), u = J^(-a/(d+a)): r_alpha = J gamma(2, alpha u) /
    # alpha^2 + alpha^(d/a-1) Gamma(1-d/a, alpha u), at 30 digits
    mpmath = pytest.importorskip("mpmath")
    model = StableEstimateModel(dim=d, alpha=a)
    rs = np.geomspace(1e-6, 30.0, 300)
    with mpmath.workdps(30):
        A, dm = mpmath.mpf(stable_jump_constant(d, a)), mpmath.mpf(d)
        for alpha in [1.0, 16.0, 4096.0]:
            got = model.resolvent_radial(alpha)(rs)
            for r, g in zip(rs, got):
                J = A * mpmath.mpf(r) ** -(dm + a)
                u = J ** (-a / (dm + a))
                ref = float(J * mpmath.gammainc(2, 0, alpha * u) / alpha**2
                            + mpmath.mpf(alpha) ** (dm / a - 1)
                            * mpmath.gammainc(1 - dm / a, alpha * u))
                assert abs(g - ref) <= 1e-12 * ref, (alpha, r)
    assert "_panels" not in vars(model)


@pytest.mark.parametrize("model", [
    make_kernel_model("custom", dim=3, nu=3.0, beta=2.0,
                      profile=parse_profile("exp:2")),
    StretchedExponentialModel(d_f=1.585, d_w=2.32, d_J=2.32,
                              c1=1.0, c2=1.0, c3=1.0, c4=1.0),
    synthetic_scaling_model(nu=2.5, beta=2.0),
], ids=["custom-exp", "stretched-exp", "synthetic"])
def test_generic_resolvent_equals_the_full_panel_sum(model):
    # every panel node in one exactly rounded sum of exp(-u^beta e^{-beta x}) w,
    # against the chunks and the Taylor tail that _r1 reads per radius
    nu, beta = model.space.nu, model.space.beta
    _, x, w = model._panels
    rs = np.geomspace(1e-12, 30.0, 1000)
    for alpha in [1.0, 16.0, 4096.0]:
        u = alpha ** (1.0 / beta) * rs
        terms = np.exp(-(u[:, None] ** beta) * np.exp(-beta * x)) * w
        ref = (alpha ** (nu / beta - 1.0) * beta * u ** (beta - nu)
               * np.array([math.fsum(row) for row in terms]))
        got = model.resolvent_radial(alpha)(rs)
        big = ref > 1e-280
        assert big.sum() > 500
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-13 * ref[big])


@pytest.mark.parametrize("s", [1 / 3, -0.43, -2 / 3, 0.0, -1.0, -2.0, -4.5, -5.0,
                               0.001, -0.001, 0.01, -0.99, -1.01])
def test_upper_gamma_against_mpmath(s):
    # Gamma(s, x) on both sides of the switch from series to continued
    # fraction at x = 2, near an integer s too (Temme's form: the plain series
    # lost digits like 1e-15 / |s - round(s)| there); a subnormal value is held
    # to a few units of 2^-1074
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.geomspace(1e-12, 700.0, 400), [1.0, 2.0 - 1e-12, 2.0]])
    got = kernels._upper_gamma(s, xs)
    for x, g in zip(xs, got):
        with mpmath.workdps(30):
            ref = float(mpmath.gammainc(s, x))
        assert abs(g - ref) <= max(1e-13 * ref, 4 * 2.0**-1074), x
    ends = kernels._upper_gamma(s, np.array([0.0, 800.0, np.inf]))
    assert ends.tolist() == [math.gamma(s) if s > 0 else math.inf, 0.0, 0.0]


@pytest.mark.parametrize("m", [0.0, 1.0], ids=["stable", "relativistic"])
def test_stable_resolvent_is_finite_at_tiny_radii(m):
    # J = A psi r^-(d+a) overflows below about 1e-100; s* and J u^2 come from
    # A psi and r apart.  d < a: r_alpha meets its value at 0; d > a: it keeps
    # the r^(a-d) growth it has at 1e-60; d = a: it grows like log(1/r)
    for (d, a), tiny in (((1, 1.5), [1e-100, 1e-200]), ((2, 1.2), [1e-100, 1e-200]),
                         ((3, 1.0), [1e-100]), ((1, 1.0), [1e-100, 1e-200])):
        model = StableEstimateModel(dim=d, alpha=a, m=m)
        for alpha in [1.0, 16.0]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v0, v60, *vs = model.resolvent_radial(alpha)(np.array([0.0, 1e-60] + tiny))
            assert np.all(np.isfinite(vs))
            for r, v in zip(tiny, vs):
                if d < a:
                    assert v == pytest.approx(v0, rel=1e-12)
                elif d > a:
                    assert v == pytest.approx(v60 * (r / 1e-60) ** (a - d), rel=1e-12)
                else:
                    assert v > v60 and v0 == math.inf


def test_stable_alpha_out_of_range():
    with pytest.raises(DomainError):
        StableEstimateModel(dim=1, alpha=2.0)


# --------------------------------------------------------------------------
# relativistic correction profile Psi


def test_relativistic_psi_normalization_and_monotone():
    vals = [relativistic_psi(3, 1.0, r) for r in np.linspace(0.0, 50.0, 120)]
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("d,a", [(3, 1.0), (1, 1.5), (2, 1.2)])
def test_relativistic_psi_against_its_integral(d, a):
    # Psi(r) = I(r)/I(0), I(r) = int_0^inf s^{k-1} e^{-s/4 - r^2/s} ds, by quad
    # around the saddle s = 2r with the factor e^{-r} taken out
    k = (d + a) / 2.0
    rs = np.concatenate([[0.0, 1e-3, 0.1], np.linspace(0.5, 600.0, 41)])
    got = relativistic_psi(d, a, rs)
    for r, g in zip(rs, got):
        f = lambda s: math.exp((k - 1) * math.log(s) - s / 4 - r * r / s + r)
        edges = [0.0] + list(max(2.0 * r, 1.0) * np.geomspace(1e-3, 1e2, 51))
        # epsabs: I >= 1 here, and far pieces are subnormal
        I = sum(integrate.quad(f, lo, hi, epsrel=1e-13, epsabs=1e-200, limit=200)[0]
                for lo, hi in zip(edges, edges[1:])) + integrate.quad(f, edges[-1], np.inf)[0]
        ref = math.exp(-r) * I / (4.0**k * math.gamma(k))
        assert g == pytest.approx(ref, rel=1e-9, abs=0.0)
    assert relativistic_psi(d, a, 0.0) == 1.0 and isinstance(relativistic_psi(d, a, 3.0), float)


def test_relativistic_psi_exponential_envelope():
    # Psi(r) tracks e^{-r} (1 + r^{(d+alpha-1)/2}) up to bounded constants
    d, alpha = 3, 1.0
    k = (d + alpha - 1.0) / 2.0
    ratios = [relativistic_psi(d, alpha, r) / (math.exp(-r) * (1 + r**k))
              for r in np.linspace(5.0, 50.0, 24)]
    assert max(ratios) / min(ratios) < 2.0


# --------------------------------------------------------------------------
# pointwise evaluation


def test_eval_wrappers_agree_with_model():
    m = GaussianKernelModel(dim=1)
    x, y = np.array([0.2]), np.array([-0.3])
    assert eval_heat_kernel(m, 0.7, x, y) == pytest.approx(
        float(np.asarray(m.pt_radial(0.7, np.array([0.5])))[0]), rel=1e-13)


def test_misordered_profiles_rejected():
    space = SpaceModel(ambient_dim=1, nu=1.0, beta=2.0)
    profile = lambda u: np.exp(-np.asarray(u, float) ** 2)
    with pytest.raises(ValidationError):
        ScalingKernelModel(space, profile,
                           phi_lower=lambda u: 2.0 * np.asarray(profile(u)),
                           phi_upper=lambda u: 0.5 * np.asarray(profile(u)))


def test_infinite_upper_profile_fails_tail_test():
    # an infinite Phi2 tail makes the H(Phi2) integral infinite, not negligible
    space = SpaceModel(ambient_dim=2, nu=2.0, beta=1.5)
    profile = lambda u: np.exp(-np.asarray(u, float))
    upper = lambda u: np.where(np.asarray(u, float) > 4.0, np.inf, 1.0)
    with pytest.raises(ValidationError):
        ScalingKernelModel(space, profile, phi_upper=upper)


def test_heavy_upper_profile_fails_tail_test():
    # Phi2(u) ~ u^-nu makes the tail-ratio integral diverge; u^-(nu + 1/2)
    # passes, so the test's decision sits between the two
    space = SpaceModel(ambient_dim=2, nu=2.0, beta=1.5)
    heavy = lambda u: (1.0 + np.asarray(u, float)) ** -2.0
    with pytest.raises(ValidationError):
        ScalingKernelModel(space, heavy, phi_lower=lambda u: 0.5 * heavy(u),
                           phi_upper=heavy)
    lighter = lambda u: (1.0 + np.asarray(u, float)) ** -2.5
    ScalingKernelModel(space, lighter, phi_lower=lambda u: 0.5 * lighter(u),
                       phi_upper=lighter)


def test_space_model_is_euclidean_with_two_exponents():
    assert [f.name for f in dataclasses.fields(SpaceModel)] == ["ambient_dim", "nu", "beta"]
    with pytest.raises(TypeError):
        SpaceModel(ambient_dim=2, nu=2.0, beta=2.0, metric=lambda x, y: 0.0)


# --------------------------------------------------------------------------
# factory and invariant suite


def test_factory_families():
    assert make_kernel_model("gaussian", dim=2).family == "gaussian"
    assert make_kernel_model("stable_estimate", dim=1,
                             alpha=0.8).family == "stable_estimate"
    m = make_kernel_model("relativistic", dim=3, alpha=1.0, m=1.0)
    assert m.m == 1.0
    with pytest.raises(DomainError):
        make_kernel_model("no-such-family")


def test_stretched_exponential_upper_constant():
    m = StretchedExponentialModel(d_f=2.0, d_w=3.0, d_J=2.5,
                                  c1=1.0, c2=1.0, c3=1.0, c4=1.0)
    assert m.space.nu == pytest.approx(2.0)
    assert m.space.beta == pytest.approx(3.0)


@pytest.mark.parametrize("family,kw", [
    ("gaussian", {"dim": 3}),
    ("gaussian", {"dim": 1}),
    ("stable_estimate", {"dim": 2, "alpha": 1.2}),
    ("relativistic", {"dim": 3, "alpha": 1.0, "m": 1.0}),
])
def test_invariant_suite_clean(family, kw):
    model = make_kernel_model(family, **kw)
    rows = kernel_invariant_suite(model, n_samples=200, seed=1)
    assert all(fails == 0 for _, _, fails in rows), rows


# --------------------------------------------------------------------------
# panel arrays: a dyadic sweep hands every kernel an (n, 32) node array


def _panel_nodes(n: int = 6) -> np.ndarray:
    """The nodes of n dyadic panels below r = 1.5, one panel per row."""
    edges = 1.5 * 2.0 ** -np.arange(n + 1.0)
    a, b = edges[1:, None], edges[:-1, None]
    return 0.5 * (b - a) * np.polynomial.legendre.leggauss(32)[0] + 0.5 * (a + b)


def _assert_rowwise(f, s):
    out = np.asarray(f(s))
    assert out.shape == s.shape
    assert np.array_equal(out, np.stack([np.asarray(f(row)) for row in s]))


@pytest.mark.parametrize("model", [
    GaussianKernelModel(dim=1),
    GaussianKernelModel(dim=2),
    GaussianKernelModel(dim=3),
    GaussianKernelModel(dim=5),
    StableEstimateModel(dim=2, alpha=1.2),
    StableEstimateModel(dim=1, alpha=1.5, m=0.5),
    StretchedExponentialModel(d_f=2.0, d_w=3.0, d_J=2.5,
                              c1=1.0, c2=1.0, c3=1.0, c4=1.0),
    synthetic_scaling_model(nu=2.0, beta=1.5, dim=2),
    make_kernel_model("custom", dim=3, nu=3.0, beta=2.0, profile=parse_profile("exp:2")),
], ids=["gauss-d1", "gauss-d2", "gauss-d3", "gauss-d5", "stable", "relativistic",
        "stretched-exp", "synthetic", "custom-exp"])
def test_radial_kernels_map_panel_arrays_row_by_row(model):
    s = _panel_nodes()
    for t in [0.05, 0.5]:
        _assert_rowwise(model.qt_radial(t), s)
    for a in [0.5, 4.0]:
        _assert_rowwise(model.resolvent_radial(a), s)


def test_relativistic_late_branch_maps_panel_arrays_row_by_row():
    # t > 1/m adds the late branch, panels in log s per radius
    m = StableEstimateModel(dim=1, alpha=1.5, m=0.5)
    _assert_rowwise(m.qt_radial(3.0), _panel_nodes()[::3, ::8])
