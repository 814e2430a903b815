import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from bnlab import geometry as geo
from bnlab import noise as nz
from bnlab.reports import loglog_slope


# the space correlation of a measure is its transform at a = 0, K(0, d)


def test_spectral_correlation_bessel_closed_form():
    mu = nz.bessel_measure(2.0)
    assert mu.transform(0.0, 1.0) == pytest.approx(np.pi * np.exp(-1), rel=1e-13)
    assert mu.transform(0.0, -1.3) == mu.transform(0.0, 1.3)
    lags = np.array([0.2, 1.0, 3.0])
    assert np.array_equal(mu.transform(0.0, lags), [mu.transform(0.0, y) for y in lags])


def test_spectral_correlation_small_scale_exponent():
    mu = nz.bessel_measure(0.5)
    ys = np.geomspace(1e-3, 1e-2, 5)
    vals = [mu.transform(0.0, y) for y in ys]
    assert loglog_slope(ys, vals) == pytest.approx(-0.5, abs=0.05)


def test_spectral_correlation_supercritical_bounded():
    # K(0, 0) is the total mass, sqrt(pi) Gamma((kappa-1)/2) / Gamma(kappa/2)
    mu = nz.bessel_measure(3.0)
    v0 = mu.transform(0.0, 0.0)
    assert v0 == pytest.approx(2.0, rel=1e-15)
    assert mu.transform(0.0, 1e-5) == pytest.approx(v0, rel=1e-4)
    assert nz.bessel_measure(1.0).transform(0.0, 0.0) == np.inf


def test_spectral_correlation_lebesgue_unsupported():
    with pytest.raises(geo.UnsupportedDomainError):
        nz.lebesgue_measure().transform(0.0, 1.0)


def test_gauss_transform_families():
    # the Gauss transform of a measure is its transform at lag 0, K(a, 0)
    leb = nz.lebesgue_measure()
    assert leb.transform(0.3) == pytest.approx(np.sqrt(np.pi / 0.3), rel=1e-12)
    mu = nz.bessel_measure(2.0)
    direct = 2 * integrate.quad(lambda z: (1 + z * z) ** -1 * np.exp(-0.4 * z * z),
                                0, np.inf, epsabs=0, epsrel=1e-13)[0]
    assert mu.transform(0.4) == pytest.approx(direct, rel=1e-12)
    at = nz.atomic_measure([0.5, 1.5], [0.3, 0.2])
    assert at.transform(1.0) == pytest.approx(
        2 * (0.3 * np.exp(-0.25) + 0.2 * np.exp(-2.25)), rel=1e-12)


@pytest.mark.parametrize("measure", [
    nz.lebesgue_measure(), nz.bessel_measure(0.5), nz.bessel_measure(2.0),
    nz.atomic_measure([0.5, 1.5, 3.0], [0.3, 0.2, 0.1])],
    ids=lambda m: m.kind + (f"{m.kappa:g}" if m.kappa else ""))
def test_gauss_transform_of_an_array_is_the_scalar_transform_per_entry(measure):
    # entry by entry, lags included: a Bessel entry takes its own nodes, so
    # its value does not depend on the batch it comes in
    s = np.array([[1e-6, 0.3], [1.0, 40.0]])
    lag = np.array([0.0, 1.1])
    for d in (0.0, lag):
        out = measure.transform(s, d)
        assert out.shape == s.shape
        dd = np.broadcast_to(d, s.shape)
        assert np.array_equal(out, [[measure.transform(v, y) for v, y in zip(row, lags)]
                                    for row, lags in zip(s, dd)])
    assert isinstance(measure.transform(0.3), float)
    with pytest.raises(ValueError, match="a must be nonnegative"):
        measure.transform(np.array([0.3, -1e-9]))


def _bessel_reference(kappa, a, d):
    """K(a, d) of the Bessel density to 30 digits, by mpmath on routes of its own:
    sqrt(pi) U(1/2, (3-kappa)/2, a) at d = 0, and at d > 0 the Gamma mixture of
    kappa (kappa + 2 with one (1 - d/da) below 1), r = w^(1/b) for b < 1."""
    import mpmath as mp
    with mp.workdps(30):
        kappa, a, d = mp.mpf(kappa), mp.mpf(a), mp.mpf(d)
        if d == 0:
            return mp.sqrt(mp.pi) * mp.hyperu(mp.mpf(1) / 2, (3 - kappa) / 2, a)
        big_d, n = d * d / 4, int(kappa < 1)
        b = kappa / 2 + n

        def h(r):
            s = a + r
            val = mp.exp(-r - big_d / s) * mp.sqrt(mp.pi / s)
            return val * (1 + 1 / (2 * s) - big_d / (s * s)) if n else val

        if b < 1:
            val = mp.quad(lambda w: h(w ** (1 / b)) / b,
                          [0] + sorted({a ** b, big_d ** b, mp.mpf(1)}) + [mp.inf])
        else:
            val = mp.quad(lambda r: r ** (b - 1) * h(r),
                          [0] + sorted({a, big_d, b}) + [mp.inf])
        return val / mp.gamma(b)


@given(kappa=st.floats(-1.0, nz.BESSEL_KAPPA_MAX, exclude_min=True),
       log_a=st.floats(np.log(1e-20), np.log(1e3)),
       d=st.one_of(st.just(0.0), st.floats(1e-6, 5.0)))
@example(kappa=0.5, log_a=np.log(2e-18), d=0.0)
@example(kappa=-0.999, log_a=np.log(1e-12), d=1e-4)
@example(kappa=nz.BESSEL_KAPPA_MAX, log_a=np.log(20.0), d=1.1)
def test_bessel_transform_matches_30_digit_mpmath(kappa, log_a, d):
    # over every kappa the CLI accepts for p718: the error is measured against
    # K(a, 0), the largest |K(a, d)| at this a
    a = float(np.exp(log_a))
    mu = nz.bessel_measure(kappa)
    scale = float(_bessel_reference(kappa, a, 0.0))
    ref = scale if d == 0.0 else float(_bessel_reference(kappa, a, d))
    assert abs(mu.transform(a, d) - ref) <= 2e-14 * scale


@pytest.mark.parametrize("kappa", [-1.0, -3.0, np.nextafter(nz.BESSEL_KAPPA_MAX, np.inf), 150.0])
def test_bessel_transform_refuses_kappa_outside_the_checked_range(kappa):
    with pytest.raises(ValueError, match="where the Bessel transform is checked"):
        nz.bessel_measure(kappa).transform(1.0)


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
