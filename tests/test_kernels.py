from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from bnlab import geometry as geo
from bnlab import kernels as K


def test_gauss_density_values():
    assert K.gauss_density(0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert K.gauss_density(0.0, 4.0) == pytest.approx(0.19947114020071635, abs=1e-12)
    # scaling identity g_t(z) = t^{-1/2} g_1(z / sqrt t)
    z, t = 0.7, 3.0
    assert K.gauss_density(z, t) == pytest.approx(K.gauss_density(z / np.sqrt(t), 1.0) / np.sqrt(t))


def test_gauss_density_errors():
    with pytest.raises(ValueError):
        K.gauss_density(0.0, -1.0)


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


@pytest.mark.parametrize("rep", ["auto", "image"])
def test_kernel_is_nonnegative_on_the_graded_grid(rep):
    # the 480-node grid of the smoothing certificates, 9.5e-7 from either end
    ker = K.HeatKernel(geo.interval01(), rep)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=14, per_panel=16)
    for t in np.geomspace(1e-3, 0.1, 7):
        assert np.all(ker.value(t, grid.x[:, None], grid.x[None, :]) >= 0.0)


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


def test_halfline_resolvent_exact_keeps_relative_accuracy_at_the_boundary():
    # (1 - e^{-2a}) / 2 = a - a^2 + ... at a = 1e-12; the plain difference of
    # exponentials gave 9.99978e-13
    assert K.halfline_resolvent_exact(1.0, 1e-12, 1e-12) == pytest.approx(1e-12 - 1e-24,
                                                                          rel=1e-14, abs=0)


def test_resolvent_matches_exact_on_grid():
    ker = K.HeatKernel(geo.half_line())
    for lam in (0.5, 2.0):
        for (x, y) in ((0.4, 1.1), (2.0, 2.0)):
            assert ker.resolvent(lam, x, y) == pytest.approx(
                K.halfline_resolvent_exact(lam, x, y), abs=1e-8)


def test_unsupported_kernel_domains():
    with pytest.raises(geo.UnsupportedDomainError):
        K.HeatKernel(geo.unit_ball(2))


@pytest.mark.parametrize("rep", ["closed", "image", "sine"])
def test_half_line_takes_only_the_auto_representation(rep):
    with pytest.raises(ValueError, match="series representations exist only on the interval"):
        K.HeatKernel(geo.half_line(), rep)


def test_half_plane_has_no_heat_kernel():
    # the half plane's flux is the half-line influx times frequency-cell modes,
    # so the refusal names the 1-d kernels, not the ball's majorant route
    with pytest.raises(geo.UnsupportedDomainError, match="one-dimensional") as err:
        K.HeatKernel(geo.half_space(2))
    assert "majorant" not in str(err.value)


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
        quad = K.gaussian_boundary_mass(B2, t, np.array([0.0, 0.0]))
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
    rep = K.fit_singular_moment_exponent(geo.half_line(), -0.05)
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


def test_resolvent_quadrature_refuses_when_not_converged(monkeypatch):
    # quad_vec reports an unconverged mesh only through full_output's status
    monkeypatch.setattr("scipy.integrate.quad_vec",
                        lambda *args, **kwargs: (0.0, 0.0, SimpleNamespace(status=1)))
    ker = K.HeatKernel(geo.interval01())
    with pytest.raises(K.NumericalRefusal, match=r"lambda=2\b.*boundary point 1\.0"):
        ker.resolvent_normal(2.0, np.linspace(0.1, 0.9, 5), 1.0)
    with pytest.raises(K.NumericalRefusal, match=r"lambda=0\.5\b"):
        K.HeatKernel(geo.half_line()).resolvent(0.5, 1.0, 2.0)


def _ball_mass_2d_everywhere(t, rho, c):
    # the former d = 2 form, i0e at every entry: the reference
    q = 1.0 - np.asarray(rho, float)
    a = c * t
    return 2 * np.pi * special.i0e(2 * q / a) * np.exp(-(1 - q) ** 2 / a)


@pytest.mark.parametrize("t, rho", [
    (1e-3, 1 - 1e-12), (1e-3, 1.0), (1e-4, 0.999), (1e-4, 0.37), (0.5, 0.2), (1.0, 0.0),
    (0.0, 1.0), (0.0, 0.5), (np.nan, 0.3), (0.1, np.nan)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ball_mass_skips_i0e_only_where_the_product_is_zero(t, rho):
    # scalar inputs toward rho -> 1, where e^{-rho^2/(ct)} underflows to 0.0;
    # (1e-4, 0.37) is tiny but positive, t = 0 at the centre makes i0e's
    # argument 0/0, and NaN inputs stay NaN
    got, ref = K.ball_boundary_mass_exact(2, t, rho, 2.0), _ball_mass_2d_everywhere(t, rho, 2.0)
    assert type(got) is type(ref)
    np.testing.assert_array_equal(got, ref)


def test_ball_mass_on_a_grid_equals_i0e_everywhere_bit_for_bit():
    u = np.geomspace(1e-6, 1.0, 300)
    rho = np.linspace(0.0, 1.0, 101)[:, None]
    got = K.ball_boundary_mass_exact(2, u, rho, 2.0)
    assert np.count_nonzero(got == 0.0) > 0.2 * got.size      # the skipped entries
    np.testing.assert_array_equal(got, _ball_mass_2d_everywhere(u, rho, 2.0))
