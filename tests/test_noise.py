import numpy as np
import pytest
from scipy import integrate

from bnlab import geometry as geo
from bnlab import noise as nz
from bnlab.reports import loglog_slope


def test_spectral_correlation_bessel_closed_form():
    mu = nz.bessel_measure(2.0)
    assert nz.spectral_correlation(mu, 1.0) == pytest.approx(np.pi * np.exp(-1), rel=1e-7)
    assert nz.spectral_correlation(mu, -1.3) == nz.spectral_correlation(mu, 1.3)
    with pytest.raises(TypeError):      # a lag on the boundary line is one number
        nz.spectral_correlation(mu, [1.0, 1.3])


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
    direct = 2 * integrate.quad(lambda z: (1 + z * z) ** -1 * np.exp(-0.4 * z * z),
                                0, np.inf)[0]
    assert mu.gauss_transform(0.4) == pytest.approx(direct, rel=1e-7)
    at = nz.atomic_measure([0.5, 1.5], [0.3, 0.2])
    assert at.gauss_transform(1.0) == pytest.approx(
        2 * (0.3 * np.exp(-0.25) + 0.2 * np.exp(-2.25)), rel=1e-12)


@pytest.mark.parametrize("measure", [
    nz.lebesgue_measure(), nz.bessel_measure(0.5), nz.bessel_measure(2.0),
    nz.atomic_measure([0.5, 1.5, 3.0], [0.3, 0.2, 0.1])],
    ids=lambda m: m.kind + (f"{m.kappa:g}" if m.kappa else ""))
def test_gauss_transform_of_an_array_is_the_scalar_transform_per_entry(measure):
    s = np.array([[1e-6, 0.3], [1.0, 40.0]])
    out = measure.gauss_transform(s)
    assert out.shape == s.shape
    assert np.array_equal(out, [[measure.gauss_transform(v) for v in row] for row in s])
    assert isinstance(measure.gauss_transform(0.3), float)
    with pytest.raises(ValueError, match="s must be positive"):
        measure.gauss_transform(np.array([0.3, 0.0]))


@pytest.mark.parametrize("points", [[[0.5, 1.0]], [[0.5], [1.5]], [0.5, 1.5, 3.0]])
def test_atoms_take_one_frequency_each_on_the_line(points):
    # the boundary of the half plane is a line: an atom in R^2 is refused
    # up front, not left to a failing reshape in the frequency cells
    with pytest.raises(ValueError, match="2 atoms need 2 frequencies on the line"):
        nz.atomic_measure(points, [0.3, 0.2])


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = geo.gauss_legendre(12)
    ref = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    assert geo.gauss_legendre(12)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_homogeneous_cells_orthonormal():
    mu = nz.bessel_measure(2.0)
    cells = nz.frequency_cells(mu, z_max=8.0, n_cells=16)
    assert cells.n_cells == 16
    assert sum(cells.masses) == pytest.approx(
        integrate.quad(lambda z: (1 + z * z) ** -1, 0, 8.0)[0], rel=1e-10)

