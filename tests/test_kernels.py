from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from bnlab import geometry as geo
from bnlab import kernels as K


def test_gauss_density_values():
    assert K.gauss_density(0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert K.gauss_density(0.0, 4.0) == pytest.approx(0.19947114020071635, abs=1e-12)
    # scaling identity g_t(z) = t^{-1/2} g_1(z / sqrt t)
    z, t = 0.7, 3.0
    assert K.gauss_density(z, t) == pytest.approx(K.gauss_density(z / np.sqrt(t), 1.0) / np.sqrt(t))


def test_gauss_density_normalization_2d():
    xs = np.linspace(-8, 8, 801)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs)
    Z = np.stack([X, Y], axis=-1)
    total = K.gauss_density(Z, 0.5, d=2).sum() * h * h
    assert total == pytest.approx(1.0, abs=1e-8)


def test_gauss_density_errors():
    with pytest.raises(ValueError):
        K.gauss_density(0.0, -1.0)
    with pytest.raises(ValueError):
        K.GaussianParams(1.0, 0.0)


def test_barrier_factor():
    I = geo.interval01()
    assert K.barrier_factor(I, 0.25, 0.1) == pytest.approx(0.2)
    assert K.barrier_factor(geo.half_line(), 1.0, 2.0) == pytest.approx(1.0)
    assert K.barrier_factor(I, 1e-8, 0.3) == pytest.approx(1.0)


def test_halfline_kernel_closed_form():
    ker = K.HeatKernel(geo.half_line())
    assert ker.value(0.25, 1.0, 1.0) == pytest.approx(np.pi ** -0.5 * (1 - np.exp(-4)), abs=1e-14)
    assert ker.value(0.3, 1.2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_interval_series_cross_representation():
    im = K.HeatKernel(geo.interval01(), "image")
    sn = K.HeatKernel(geo.interval01(), "sine")
    xs = np.linspace(0.03, 0.97, 21)
    for t in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        d = np.max(np.abs(im.value(t, xs[:, None], xs[None, :])
                          - sn.value(t, xs[:, None], xs[None, :])))
        assert d < 1e-10


def test_kernel_symmetry_and_positivity():
    ker = K.HeatKernel(geo.interval01())
    xs = np.linspace(0.05, 0.95, 15)
    G = ker.value(0.07, xs[:, None], xs[None, :])
    assert np.allclose(G, G.T, atol=1e-15)
    assert np.all(G >= 0)


def test_boundary_vanishing_linear_rate():
    ker = K.HeatKernel(geo.interval01())
    t, x = 0.1, 0.4
    r1 = ker.value(t, x, 1e-3) / 1e-3
    r2 = ker.value(t, x, 1e-4) / 1e-4
    assert r1 == pytest.approx(r2, rel=5e-3)


def test_chapman_kolmogorov():
    for dom, n, hi in ((geo.interval01(), 4096, 1.0), (geo.half_line(), 8192, 14.0)):
        ker = K.HeatKernel(dom)
        zs = np.linspace(hi / n / 2, hi - hi / n / 2, n)
        w = hi / n
        for (t, s) in ((0.05, 0.05), (0.05, 0.1), (0.1, 0.1)):
            for (x, y) in ((0.3, 0.7), (0.5, 0.2)):
                conv = np.sum(ker.value(t, x, zs) * ker.value(s, zs, y)) * w
                assert abs(conv - ker.value(t + s, x, y)) < 1e-6


def test_normal_derivative_halfline():
    ker = K.HeatKernel(geo.half_line())
    assert ker.normal_derivative(1.0, 2.0, 0.0) == pytest.approx(-np.exp(-1) / np.sqrt(np.pi), abs=1e-12)
    assert ker.normal_derivative(0.5, 1e-9, 0.0) == pytest.approx(0.0, abs=1e-8)


def test_normal_derivative_finite_difference_oracle():
    ker = K.HeatKernel(geo.interval01())
    eps = 1e-4
    for b, sgn in ((0.0, -1.0), (1.0, 1.0)):
        for x in (0.25, 0.6):
            t = 0.08
            if b == 0.0:
                fd = (ker.value(t, x, eps) - 0.0) / eps
                nd = -fd * (-sgn)               # outward normal at 0 is -d/dy
                assert ker.normal_derivative(t, x, b) == pytest.approx(-fd, rel=1e-5)
            else:
                fd = (0.0 - ker.value(t, x, 1 - eps)) / eps
                assert ker.normal_derivative(t, x, b) == pytest.approx(fd, rel=1e-5)


def test_resolvent_halfline_closed_form():
    ker = K.HeatKernel(geo.half_line())
    assert ker.resolvent(1.0, 1.0, 2.0) == pytest.approx((np.exp(-1) - np.exp(-3)) / 2, abs=1e-10)
    assert ker.resolvent(1.0, 1.0, 1.0) == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-10)
    assert ker.resolvent(2.0, 1.3, 0.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ker.resolvent(-1.0, 1.0, 1.0)


def test_resolvent_matches_exact_on_grid():
    ker = K.HeatKernel(geo.half_line())
    for lam in (0.5, 2.0):
        for (x, y) in ((0.4, 1.1), (2.0, 2.0)):
            assert ker.resolvent(lam, x, y) == pytest.approx(
                K.halfline_resolvent_exact(lam, x, y), abs=1e-8)


def test_unsupported_kernel_domains():
    with pytest.raises(geo.UnsupportedDomainError):
        K.HeatKernel(geo.unit_ball(2))


def test_sqrt_bracketing_inequality():
    # 1 - sqrt(1-r^2) sits between r^2/2 and r^2 on [0, 1]
    r = np.linspace(0, 1, 20001)
    val = 1 - np.sqrt(np.clip(1 - r ** 2, 0, None))
    assert np.all(val >= r ** 2 / 2 - 1e-14)
    assert np.all(val <= r ** 2 + 1e-14)


def test_difference_bound_certified():
    rep = K.difference_bound_report(n_z=200, n_v=200)
    assert rep.verdict == "bounded"
    assert 0 < rep.fitted["C"] < 10
    # identity case v = 0
    assert abs(np.exp(-1.0) - np.exp(-1.0)) <= rep.fitted["C"] * 0.0 + 1e-15


def test_kernel_upper_bounds_halfline_bounded():
    ker = K.HeatKernel(geo.half_line())
    val, grad = K.verify_kernel_upper_bounds(ker, c=4.0)
    assert val.verdict == "bounded"
    assert grad.verdict == "bounded"
    assert val.fitted["C"] < 10


def test_kernel_upper_bounds_tight_scale_diverges():
    ker = K.HeatKernel(geo.interval01())
    val, _ = K.verify_kernel_upper_bounds(ker, c=1.0)
    assert val.verdict == "diverging"


def test_boundary_mass_center_closed_form():
    B2 = geo.unit_ball(2)
    for t in (0.1, 0.3, 1.0):
        quad = K.gaussian_boundary_mass(B2, t, np.array([0.0, 0.0]), c=1.0)
        assert quad == pytest.approx(2 * np.pi * np.exp(-1 / t), rel=1e-8)


def test_boundary_mass_quadrature_vs_exact_radial():
    B2, B3 = geo.unit_ball(2), geo.unit_ball(3)
    for rho in (0.0, 0.2, 0.5):
        x2 = np.array([1 - rho, 0.0])
        x3 = np.array([1 - rho, 0.0, 0.0])
        for t in (0.05, 0.4):
            assert K.gaussian_boundary_mass(B2, t, x2) == pytest.approx(
                K.ball_boundary_mass_exact(2, t, rho), rel=1e-8)
            assert K.gaussian_boundary_mass(B3, t, x3, level=7) == pytest.approx(
                K.ball_boundary_mass_exact(3, t, rho), rel=1e-6)


def test_boundary_mass_superpolynomial_decay():
    vals = [K.ball_boundary_mass_exact(2, t, 0.5) for t in (1e-2, 1e-3)]
    # decays faster than any power: ratio across a decade beats t^6
    assert vals[1] / vals[0] < 10.0 ** -6


def test_boundary_mass_constant_fit_stability():
    for d in (2, 3):
        rep = K.fit_boundary_mass_constant(d)
        assert rep.fitted["relative_spread"] <= 0.10
        assert np.isfinite(rep.fitted["C1_mean"])


def test_singular_moment_exponent_fits():
    for dom in (geo.half_line(), geo.interval01()):
        rep = K.fit_singular_moment_exponent(dom, -0.5)
        assert rep.fitted["exponent"] == pytest.approx(-0.25, abs=0.03)


def test_singular_moment_flat_for_small_alpha():
    rep = K.fit_singular_moment_exponent(geo.half_line(), -0.05, n_t=5)
    assert abs(rep.fitted["exponent"]) < 0.05


def test_singular_moment_rejects_bad_alpha():
    with pytest.raises(ValueError):
        K.singular_moment(geo.half_line(), 0.5, 1.0, 0.1)


def test_far_weight_constants():
    rep = K.far_weight_constants(theta=0.0, c=1.0)
    assert rep.fitted["N"] == pytest.approx(2 * np.sqrt(np.pi), rel=1e-9)
    assert rep.fitted["A1"] + rep.fitted["A2"] <= rep.fitted["N"]
    assert rep.verdict == "bounded"
    # ratio-1 case: A1 <= N/2 when theta = 0
    assert rep.fitted["A1"] <= rep.fitted["N"] / 2 + 1e-12
    rep2 = K.far_weight_constants(theta=1.5, c=1.0)
    assert rep2.fitted["A1"] + rep2.fitted["A2"] <= rep2.fitted["N"]


def test_tabulated_kernel_through_verifier():
    # an externally supplied kernel (here: the half-line closed form wrapped as
    # tables) runs through the same estimate verifier as the built-ins
    H = geo.half_line()
    ref = K.HeatKernel(H)
    tab = K.TabulatedKernel(H, value_fn=ref.value, grad_fn=ref.grad_x,
                            normal_fn=ref.normal_derivative)
    val, grad = K.verify_kernel_upper_bounds(tab, c=4.0, levels=2)
    assert val.verdict == "bounded"
    assert grad.verdict == "bounded"
    with pytest.raises(geo.UnsupportedDomainError):
        K.TabulatedKernel(H, value_fn=ref.value).grad_x(0.1, 1.0, 1.0)


def test_boundary_mass_on_generic_polygon():
    square = geo.polygon_domain([[0, 0], [2, 0], [2, 2], [0, 2]])
    t, c = 0.05, 1.0
    center = np.array([1.0, 1.0])
    val = K.gaussian_boundary_mass(square, t, center, c=c, level=9)
    # each of the four sides contributes a 1-d Gaussian integral at distance 1
    side = np.exp(-1.0 / (c * t)) * integrate.quad(
        lambda s: np.exp(-s * s / (c * t)), -1, 1)[0]
    assert val == pytest.approx(4 * side, rel=1e-6)


def test_resolvent_quadrature_refuses_when_not_converged(monkeypatch):
    # quad_vec reports an unconverged mesh only through full_output's status
    monkeypatch.setattr(K.integrate, "quad_vec",
                        lambda *args, **kwargs: (0.0, 0.0, SimpleNamespace(status=1)))
    ker = K.HeatKernel(geo.interval01())
    with pytest.raises(K.NumericalRefusal, match=r"lambda=2\b.*boundary point 1\.0"):
        ker.resolvent_normal(2.0, np.linspace(0.1, 0.9, 5), 1.0)
    with pytest.raises(K.NumericalRefusal, match=r"lambda=0\.5\b"):
        K.HeatKernel(geo.half_line()).resolvent(0.5, 1.0, 2.0)
