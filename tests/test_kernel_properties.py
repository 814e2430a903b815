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
