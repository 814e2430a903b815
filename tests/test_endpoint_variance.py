"""The closed-form time integral of the squared endpoint flux (EndpointFlux.variance).

Checked against a 30-digit mpmath quadrature of the image and sine series, against
the log-panel quadrature that the homogeneous and majorant fluxes still use, and
against the half-line limits at t = inf.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlab import convolution as cv
from bnlab import geometry as geo
from bnlab.noise import NoiseSpec, endpoint_noise

HALF = cv.EndpointFlux(geo.half_line())
INTERVAL = cv.EndpointFlux(geo.interval01())
alphas = st.floats(0.0, 0.9)
log_times = st.floats(np.log(1e-3), np.log(2.0)).map(np.exp)


def _mp_variance(x, t_hi, alpha, boundaries, interval):
    """30-digit quadrature of int_0^t_hi s^-alpha sum_b psi_b(s, x)^2 ds.

    Images |m| <= 4 carry s <= 1/2 on the interval (the first one left out
    weighs e^{-81/2}); sine modes k <= 12 carry s > 1/2.  The half line has its
    single image for every s.
    """
    with mp.workdps(30):
        x, t_hi, alpha = mp.mpf(x), mp.mpf(t_hi), mp.mpf(alpha)
        images = range(-4, 5) if interval else (0,)

        def image_sq(s):
            out = 0
            for b in boundaries:
                psi = sum((x - b + 2 * m) * mp.exp(-(x - b + 2 * m) ** 2 / (4 * s))
                          for m in images)
                out += (psi / mp.sqrt(4 * mp.pi) * s ** mp.mpf(-1.5)) ** 2
            return s ** -alpha * out

        def sine_sq(s):
            out = 0
            for b in boundaries:
                psi = sum(2 * k * mp.pi * mp.sin(k * mp.pi * x) * (-1) ** (k * b)
                          * mp.exp(-k * k * mp.pi ** 2 * s) for k in range(1, 13))
                out += psi ** 2
            return s ** -alpha * out

        split = min(t_hi, mp.mpf(0.5)) if interval else t_hi
        # breakpoints where the exponent c/s of a nearest image, c = (x-b)^2/2,
        # has grown by j past its value at the split
        cs = [(x - b) ** 2 / 2 for b in boundaries]
        pts = sorted({mp.mpf(0), split} | {c / (c / split + j) for c in cs
                                            for j in (1, 4, 16, 64)})
        # quad's tolerance is absolute: scale the integrand to order one at the split
        scale = 1 / image_sq(split)
        total = mp.quad(lambda s: scale * image_sq(s), pts) / scale
        if t_hi > split:
            total += mp.quad(sine_sq, [split, 1, t_hi] if t_hi > 1 else [split, t_hi])
        return float(total)


@given(x=st.floats(np.log(1e-4), np.log(10.0)).map(np.exp), t=log_times, alpha=alphas)
def test_halfline_closed_form_matches_mpmath(x, t, alpha):
    # t is raised where needed to keep r = x^2/(2t) <= 600: beyond, the value is
    # subnormal in double and carries no 12 digits
    t = max(t, x * x / 1200.0)
    ref = _mp_variance(x, t, alpha, (0,), interval=False)
    np.testing.assert_allclose(HALF.variance(t, np.array([x]), alpha), [ref], rtol=1e-12)


@pytest.mark.parametrize("x, t, alpha", [
    (0.5, 0.3, 0.0), (1e-3, 0.05, 0.5), (0.97, 0.5, 0.9), (0.2, 1e-3, 0.3),
    (0.01, 0.8, 0.0), (0.6, 1.5, 0.4), (0.35, 3.0, 1.3), (0.999, 2.0, 0.7)])
def test_interval_closed_form_matches_mpmath(x, t, alpha):
    ref = _mp_variance(x, t, alpha, (0, 1), interval=True)
    np.testing.assert_allclose(INTERVAL.variance(t, np.array([x]), alpha), [ref], rtol=1e-12)


@given(x=st.floats(1e-6, 1.0), t=log_times, alpha=alphas,
       domain=st.sampled_from(["halfline", "interval01"]))
def test_quadrature_matches_closed_form_where_certified(x, t, alpha, domain):
    # the log-panel quadrature holds 1e-10 for r = rho^2/(2t) <= 8 only; t is
    # raised where needed to stay there
    flux = HALF if domain == "halfline" else INTERVAL
    x = min(x, 1.0 - 1e-6)
    rho = x if domain == "halfline" else min(x, 1.0 - x)
    t = max(t, rho * rho / 16.0)
    pts = np.array([x])
    np.testing.assert_allclose(cv._quadrature_variance(flux, t, pts, alpha),
                               flux.variance(t, pts, alpha), rtol=1e-10)


@given(x=st.floats(np.log(1e-4), np.log(10.0)).map(np.exp), t=log_times)
def test_halfline_limit_and_tail(x, t):
    pts = np.array([x])
    scale = 1.0 / (np.pi * x * x)
    inf = HALF.variance(np.inf, pts)
    np.testing.assert_allclose(inf, [scale], rtol=1e-14)
    # the tail beyond t: (1 - (1 + a) e^{-a}) / (pi x^2) with a = x^2/(2t)
    a = x * x / (2.0 * t)
    tail = (1.0 - (1.0 + a) * np.exp(-a)) * scale
    assert abs(inf[0] - HALF.variance(t, pts)[0] - tail) <= 1e-14 * scale


def _sine_tail(x, t_from):
    # int_{t_from}^inf of the squared flux of both endpoints, from the sine series
    return sum(cv._sine_pairs(x, b, t_from, np.inf, 0.0) for b in (0, 1))


def test_interval_at_infinity_adds_the_sine_tail():
    x = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(INTERVAL.variance(np.inf, x),
                               INTERVAL.variance(1.0, x) + _sine_tail(x, 1.0),
                               rtol=1e-14)
    # from t = 0.05 the six sine modes reach e^{-50 pi^2 / 20} of the tail, and
    # every mode pair and both endpoint signs count
    x = np.linspace(0.2, 0.8, 5)
    np.testing.assert_allclose(_sine_tail(x, 0.05),
                               INTERVAL.variance(np.inf, x) - INTERVAL.variance(0.05, x),
                               rtol=1e-9)


def test_atoms_switch_endpoints_off():
    x = np.linspace(0.05, 0.95, 7)
    for dom in (geo.interval01(), geo.half_line()):
        zero = cv.EndpointFlux(dom, n_atoms=0)
        assert np.all(zero.variance(0.5, x) == 0.0)
        assert np.all(zero.variance(np.inf, x) == 0.0)
    # one atom keeps b = 0, whose flux at x is the b = 1 flux at 1 - x
    one = cv.EndpointFlux(geo.interval01(), n_atoms=1)
    assert one.boundary == [0.0]
    np.testing.assert_allclose(INTERVAL.variance(0.5, x),
                               one.variance(0.5, x) + one.variance(0.5, 1.0 - x), rtol=1e-13)
    assert not np.allclose(one.variance(0.5, x), one.variance(0.5, 1.0 - x))


def test_variance_profile_routes_endpoint_fluxes_to_the_closed_form():
    setup = cv.ConvolutionSetup(geo.interval01(), endpoint_noise(geo.interval01()),
                                geo.WeightedSpaceParams(2, 2, 0))
    flux = cv.flux_for(setup)
    x = np.array([1e-3, 0.3, 0.9])
    # pts_per_octave does not reach the closed form
    assert np.array_equal(cv.variance_profile(flux, 0.4, x, alpha=0.2, pts_per_octave=3),
                          flux.variance(0.4, x, 0.2))
    setup0 = cv.ConvolutionSetup(geo.interval01(), NoiseSpec("endpoints", n_atoms=0),
                                 geo.WeightedSpaceParams(2, 2, 0))
    assert np.all(cv.variance_profile(cv.flux_for(setup0), 0.4, x) == 0.0)
