"""Property tests of the Dirichlet boundary flux -dG/dn behind every flux mode."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlab import geometry as geo
from bnlab import kernels as K

SETTINGS = settings(max_examples=40, deadline=None)

# log-uniform times in [1e-6, 2]: draws land on both sides of IMAGE_SINE_SWITCH
log_times = st.lists(st.floats(np.log(1e-6), np.log(2.0)), min_size=1, max_size=12).map(
    lambda v: np.exp(np.asarray(v)))
unit_points = st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=8).map(np.asarray)
INTERVAL = [K.HeatKernel(geo.interval01(), rep) for rep in ("auto", "image", "sine")]


def _stacked(kernel, ts, x, b):
    return np.stack([kernel.normal_derivative(float(t), x, b) for t in ts], axis=-1)


@SETTINGS
@given(ts=log_times, x=unit_points, rep=st.sampled_from(range(3)), b=st.sampled_from([0.0, 1.0]))
def test_interval_time_array_matches_scalar_calls(ts, x, rep, b):
    ker = INTERVAL[rep]
    vec = ker.normal_derivative(ts, x, b)
    assert vec.shape == (x.size, ts.size)
    np.testing.assert_allclose(vec, _stacked(ker, ts, x, b), rtol=1e-14, atol=0)
    # a time grid of any shape appends its axes after the point axes
    np.testing.assert_array_equal(ker.normal_derivative(ts[None, :], x, b), vec[:, None, :])


@SETTINGS
@given(ts=log_times, x=st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_time_array_matches_scalar_calls(ts, x):
    ker = K.HeatKernel(geo.half_line())
    np.testing.assert_allclose(ker.normal_derivative(ts, x, 0.0), _stacked(ker, ts, x, 0.0),
                               rtol=1e-14, atol=0)


@SETTINGS
@given(ts=log_times,
       pts=st.lists(st.tuples(st.floats(1e-3, 4.0), st.floats(-3.0, 3.0)),
                    min_size=1, max_size=6).map(np.asarray),
       b1=st.floats(-2.0, 2.0))
def test_halfspace_time_array_matches_scalar_calls(ts, pts, b1):
    ker = K.HeatKernel(geo.half_space(2))
    b = np.array([0.0, b1])
    vec = ker.normal_derivative(ts, pts, b)
    assert vec.shape == (len(pts), ts.size)
    np.testing.assert_allclose(vec, _stacked(ker, ts, pts, b), rtol=1e-14, atol=0)


@SETTINGS
@given(ts=log_times, x=unit_points, rep=st.sampled_from(range(2)), b=st.sampled_from([0.0, 1.0]))
def test_interval_influx_is_nonnegative(ts, x, rep, b):
    # auto and image only: the pure sine series at t << 1e-3 cancels thousands of
    # O(k) terms and dips below zero by rounding; above 1e-3 it equals the images
    assert np.all(-INTERVAL[rep].normal_derivative(ts, x, b) >= 0.0)


@SETTINGS
@given(ts=log_times, x=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_influx_is_nonnegative(ts, x):
    assert np.all(-K.HeatKernel(geo.half_line()).normal_derivative(ts, x, 0.0) >= 0.0)


@SETTINGS
@given(ts=log_times,
       pts=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(-3.0, 3.0)),
                    min_size=1, max_size=6).map(np.asarray),
       b1=st.floats(-2.0, 2.0))
def test_halfspace_influx_is_nonnegative(ts, pts, b1):
    ker = K.HeatKernel(geo.half_space(2))
    assert np.all(-ker.normal_derivative(ts, pts, np.array([0.0, b1])) >= 0.0)


@SETTINGS
@given(ts=st.lists(st.floats(np.log(1e-3), np.log(2.0)), min_size=1, max_size=12).map(
           lambda v: np.exp(np.asarray(v))),
       x=unit_points, b=st.sampled_from([0.0, 1.0]))
def test_image_and_sine_series_agree(ts, x, b):
    image, sine = INTERVAL[1], INTERVAL[2]
    np.testing.assert_allclose(image.normal_derivative(ts, x, b),
                               sine.normal_derivative(ts, x, b), rtol=1e-10, atol=1e-10)


# -- the resolvent influx -d/dn G_lam behind the Dirichlet map D_lam -----------

lams = st.one_of(st.just(0.0), st.floats(1e-3, 20.0))


def _interval_harmonic(lam, x, b):
    # the lam-harmonic function on (0, 1) equal to 1 at b and 0 at the other end
    z = 1.0 - x if b == 0.0 else x
    if lam == 0.0:
        return z
    s = np.sqrt(lam)
    return np.sinh(s * z) / np.sinh(s)


@SETTINGS
@given(lam=lams, x=unit_points, b=st.sampled_from([0.0, 1.0]))
def test_interval_resolvent_influx_is_the_harmonic_extension(lam, x, b):
    ker = K.HeatKernel(geo.interval01())
    np.testing.assert_allclose(-ker.resolvent_normal(lam, x, b), _interval_harmonic(lam, x, b),
                               rtol=0, atol=1e-12)


@SETTINGS
@given(lam=st.floats(1e-3, 20.0),
       x=st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_resolvent_influx_is_the_decaying_exponential(lam, x):
    ker = K.HeatKernel(geo.half_line())
    np.testing.assert_allclose(-ker.resolvent_normal(lam, x, 0.0), np.exp(-np.sqrt(lam) * x),
                               rtol=0, atol=1e-12)


@SETTINGS
@given(lam=st.floats(1e-3, 20.0), x=unit_points, b=st.sampled_from([0.0, 1.0]),
       interval=st.booleans())
def test_resolvent_normal_array_matches_single_points(lam, x, b, interval):
    # one shared adaptive mesh for all points agrees with a mesh per point
    ker = K.HeatKernel(geo.interval01() if interval else geo.half_line())
    b = b if interval else 0.0
    single = np.array([ker.resolvent_normal(lam, float(xi), b) for xi in x])
    np.testing.assert_allclose(ker.resolvent_normal(lam, x, b), single if x.size > 1 else single[0],
                               rtol=0, atol=1e-14)


# the boundary itself, or at least 1e-3 from it: at x = y = 1e-10 the mass of
# G(., x, x) sits near t = 1e-20, below anything the adaptive mesh samples
halfline_or_boundary = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 6.0)),
                                min_size=1, max_size=6).map(np.asarray)


@SETTINGS
@given(lam=st.floats(1e-2, 20.0), x=halfline_or_boundary, y=halfline_or_boundary)
def test_halfline_resolvent_array_matches_closed_form(lam, x, y):
    ker = K.HeatKernel(geo.half_line())
    X, Y = x[:, None], y[None, :]
    np.testing.assert_allclose(ker.resolvent(lam, X, Y), K.halfline_resolvent_exact(lam, X, Y),
                               rtol=0, atol=1e-12)


# -- the kernel G itself ------------------------------------------------------

log_time = st.floats(np.log(1e-6), np.log(2.0)).map(np.exp)
closed_unit_points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(np.asarray)


@SETTINGS
@given(t=st.floats(np.log(1e-3), np.log(2.0)).map(np.exp), x=unit_points, y=unit_points)
def test_image_and_sine_kernels_agree(t, x, y):
    image, sine = INTERVAL[1], INTERVAL[2]
    np.testing.assert_allclose(image.value(t, x[:, None], y[None, :]),
                               sine.value(t, x[:, None], y[None, :]), rtol=1e-10, atol=1e-10)


@SETTINGS
@given(t=log_time, x=closed_unit_points, y=closed_unit_points, rep=st.sampled_from(range(3)))
def test_interval_kernel_is_symmetric_and_vanishes_on_the_boundary(t, x, y, rep):
    ker = INTERVAL[rep]
    # round-off is relative to one free-kernel term (4 pi t)^(-1/2), not to G,
    # which the image sum cancels down to exp(-pi^2 t) at large t
    scale = 1.0 / np.sqrt(4 * np.pi * t)
    np.testing.assert_allclose(ker.value(t, x[:, None], y[None, :]),
                               ker.value(t, y[None, :], x[:, None]), rtol=0, atol=1e-14 * scale)
    for b in (0.0, 1.0):
        np.testing.assert_allclose(ker.value(t, b, y), 0.0, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(ker.value(t, x, b), 0.0, rtol=0, atol=1e-12 * scale)


@SETTINGS
@given(t=log_time, x=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8).map(np.asarray),
       y=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_kernel_is_symmetric_and_vanishes_on_the_boundary(t, x, y):
    ker = K.HeatKernel(geo.half_line())
    np.testing.assert_array_equal(ker.value(t, x[:, None], y[None, :]),
                                  ker.value(t, y[None, :], x[:, None]))
    np.testing.assert_array_equal(ker.value(t, 0.0, y), 0.0)


@SETTINGS
@given(t=log_time,
       pts=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(-3.0, 3.0)),
                    min_size=2, max_size=6).map(np.asarray))
def test_halfspace_kernel_is_symmetric_and_vanishes_on_the_boundary(t, pts):
    ker = K.HeatKernel(geo.half_space(2))
    X, Y = pts[:, None, :], pts[None, :, :]
    G = ker.value(t, X, Y)
    np.testing.assert_array_equal(G, ker.value(t, Y, X))
    on_boundary = pts.copy()
    on_boundary[:, 0] = 0.0
    np.testing.assert_array_equal(ker.value(t, on_boundary[:, None, :], Y), 0.0)
