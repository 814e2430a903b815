import numpy as np
import pytest
from scipy import integrate, special

from bnlab import geometry as geo
from bnlab import noise as nz
from bnlab.reports import loglog_slope


def test_increment_moments():
    spec = nz.endpoint_noise(geo.interval01())
    inc = nz.sample_increments(spec, 0.01, 100000, 42)
    var = inc.coefficients.var(axis=0)
    se = 0.01 * np.sqrt(2 / 100000)
    assert np.all(np.abs(var - 0.01) < 3 * se)
    cov = np.cov(inc.coefficients.T)[0, 1]
    assert abs(cov) < 3 * 0.01 / np.sqrt(100000)
    assert np.abs(inc.coefficients.mean(axis=0)).max() < 3 * 0.1 / np.sqrt(100000)


def test_increment_replay_deterministic():
    spec = nz.endpoint_noise(geo.interval01())
    a = nz.sample_increments(spec, 0.05, 1000, 7, stream_index=3)
    b = nz.sample_increments(spec, 0.05, 1000, 7, stream_index=3)
    c = nz.sample_increments(spec, 0.05, 1000, 7, stream_index=4)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)
    assert "7" in a.seed_lineage


def test_increment_variance_additivity():
    spec = nz.endpoint_noise(geo.half_line())
    full = nz.sample_increments(spec, 0.02, 200000, 1, stream_index=0)
    h1 = nz.sample_increments(spec, 0.01, 200000, 1, stream_index=1)
    h2 = nz.sample_increments(spec, 0.01, 200000, 1, stream_index=2)
    v_full = full.coefficients.var()
    v_sum = (h1.coefficients + h2.coefficients).var()
    se = 0.02 * np.sqrt(2 / 200000)
    assert abs(v_full - v_sum) < 4 * se


def test_spectral_correlation_bessel_closed_form():
    mu = nz.bessel_measure(2.0)
    assert nz.spectral_correlation(mu, 1.0) == pytest.approx(np.pi * np.exp(-1), rel=1e-7)
    assert nz.spectral_correlation(mu, -1.3) == nz.spectral_correlation(mu, 1.3)


def test_spectral_correlation_small_scale_exponent():
    mu = nz.bessel_measure(0.5)
    ys = np.geomspace(1e-3, 1e-2, 5)
    vals = [nz.spectral_correlation(mu, y) for y in ys]
    assert loglog_slope(ys, vals) == pytest.approx(-0.5, abs=0.05)


def test_spectral_correlation_supercritical_bounded():
    mu = nz.bessel_measure(3.0)
    v0 = nz.spectral_correlation(mu, 0.0)
    assert nz.spectral_correlation(mu, 1e-5) == pytest.approx(v0, rel=1e-4)
    assert np.isfinite(v0)


def test_spectral_correlation_lebesgue_unsupported():
    with pytest.raises(geo.UnsupportedDomainError):
        nz.spectral_correlation(nz.lebesgue_measure(), 1.0)


def test_gauss_transform_families():
    leb = nz.lebesgue_measure()
    assert leb.gauss_transform(0.3) == pytest.approx(np.sqrt(np.pi / 0.3), rel=1e-12)
    mu = nz.bessel_measure(2.0)
    assert mu.total_mass() == pytest.approx(np.pi, rel=1e-9)
    direct = 2 * integrate.quad(lambda z: (1 + z * z) ** -1 * np.exp(-0.4 * z * z),
                                0, np.inf)[0]
    assert mu.gauss_transform(0.4) == pytest.approx(direct, rel=1e-7)
    at = nz.atomic_measure([[0.5], [1.5]], [0.3, 0.2])
    assert at.gauss_transform(1.0) == pytest.approx(
        2 * (0.3 * np.exp(-0.25) + 0.2 * np.exp(-2.25)), rel=1e-12)


def test_time_decay_integral_values():
    # Gamma(alpha+1) at r=0, modified-Bessel closed form elsewhere
    assert nz.time_decay_integral(0.0, 0.0) == pytest.approx(1.0, rel=1e-10)
    assert nz.time_decay_integral(0.0, 1.0) == pytest.approx(1.0, rel=1e-10)
    for a, r in ((0.5, 1.3), (0.0, 2.0), (1.5, 0.7)):
        oracle = 2 * r ** (a + 1) * special.kv(a + 1, 2 * r)
        assert nz.time_decay_integral(r, a) == pytest.approx(oracle, rel=1e-9)


def test_time_decay_integral_monotone_and_fast_decay():
    rs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    vals = nz.time_decay_integral(rs, 0.5)
    assert np.all(np.diff(vals) < 0)
    # exponential-type decay: r^2 * (-d log K / dr) grows with r
    dlog = -np.diff(np.log(vals)) / np.diff(rs)
    growth = rs[1:] ** 2 * dlog
    assert np.all(np.diff(growth) > 0)


def test_circle_basis_gram_identity():
    B2 = geo.unit_ball(2)
    basis = nz.rkhs_basis(nz.circle_white_noise(8), B2)
    assert basis.n_modes == 17
    grid = geo.boundary_quadrature(B2, level=7)
    G = basis.gram_matrix(grid)
    assert np.max(np.abs(G - np.eye(17))) < 1e-10


def test_endpoint_rkhs_two_atoms():
    I = geo.interval01()
    basis = nz.rkhs_basis(nz.endpoint_noise(I), I)
    assert basis.kind == "atoms"
    assert np.allclose(np.sort(basis.atom_points.ravel()), [0.0, 1.0])


def test_single_unit_mode_is_itself():
    B2 = geo.unit_ball(2)
    f = lambda pts: np.full(np.atleast_2d(pts).shape[0], (2 * np.pi) ** -0.5)
    spec = nz.NoiseSpec("finite_series", functions=(f,), sup_norms=((2 * np.pi) ** -0.5,))
    basis = nz.rkhs_basis(spec, B2)
    grid = geo.boundary_quadrature(B2, level=6)
    G = basis.gram_matrix(grid)
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_cells_orthonormal():
    mu = nz.bessel_measure(2.0)
    cells = nz.frequency_cells(mu, z_max=8.0, n_cells=16)
    assert cells.n_cells == 16
    assert sum(cells.masses) == pytest.approx(
        integrate.quad(lambda z: (1 + z * z) ** -1, 0, 8.0)[0], rel=1e-10)


def test_rotational_field_stationarity():
    # ensemble covariance depends on y - z only; closed form sum a_k^2 cos<b_k, y-z> t
    amps = [0.8, 0.5]
    vecs = [[1.0, 0.0], [2.0, 1.0]]
    spec = nz.rotational_noise(amps, vecs)
    t = 1.0
    n = 200000
    gen = nz.substream(3, 0)
    W = gen.normal(size=(n, len(spec.functions))) * np.sqrt(t)
    ang = np.array([0.3, 1.1, 2.0, 4.4])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    vals = np.stack([f(pts) for f in spec.functions])      # (modes, npts)
    field = W @ vals                                       # (n, npts)
    emp = (field[:, :, None] * field[:, None, :]).mean(axis=0)
    closed = np.zeros((4, 4))
    for a, b in zip(amps, np.asarray(vecs)):
        closed += a * a * np.cos((pts - pts[:, None]) @ b) * t
    se = 3 * t * (sum(a * a for a in amps)) / np.sqrt(n)
    assert np.max(np.abs(emp - closed)) < 3 * se
    # translation invariance of the closed covariance itself
    y, z, h = pts[0], pts[1], np.array([0.05, -0.02])
    cov = lambda u, v: sum(a * a * np.cos((u - v) @ np.asarray(b)) for a, b in zip(amps, vecs))
    assert cov(y, z) == pytest.approx(cov(y + h, z + h), rel=1e-12)


def test_student_t_increments_variance_matched():
    spec = nz.endpoint_noise(geo.half_line())
    inc = nz.sample_increments(spec, 0.04, 200000, 9, law="student_t", df=3.0)
    assert inc.coefficients.var() == pytest.approx(0.04, rel=0.05)


def test_student_t_increments_need_df_above_two():
    spec = nz.endpoint_noise(geo.half_line())
    with pytest.raises(ValueError, match=r"df > 2"):
        nz.sample_increments(spec, 0.04, 10, 9, law="student_t", df=2.0)


def test_circle_truncation_rule_stable():
    for t, rho in ((0.05, 0.3), (0.01, 0.15)):
        out = nz.circle_truncation_check(t, rho)
        assert out["doubling_rel_change"] < 0.01
        assert out["parseval_rel_gap"] < 0.01
