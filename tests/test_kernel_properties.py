"""Property tests of the Dirichlet heat kernel G, its x-derivatives and its boundary flux."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bnlab import geometry as geo
from bnlab import kernels as K


# log-uniform times in [1e-6, 2]: draws land on both sides of IMAGE_SINE_SWITCH
log_times = st.lists(st.floats(np.log(1e-6), np.log(2.0)), min_size=1, max_size=12).map(
    lambda v: np.exp(np.asarray(v)))
unit_points = st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=8).map(np.asarray)
INTERVAL = [K.HeatKernel(geo.interval01(), rep) for rep in ("auto", "image", "sine")]


def _stacked(kernel, ts, x, b):
    return np.stack([kernel.normal_derivative(float(t), x, b) for t in ts], axis=-1)


@given(ts=log_times, x=unit_points, rep=st.sampled_from(range(3)), b=st.sampled_from([0.0, 1.0]))
def test_interval_time_array_matches_scalar_calls(ts, x, rep, b):
    ker = INTERVAL[rep]
    vec = ker.normal_derivative(ts, x, b)
    assert vec.shape == (x.size, ts.size)
    np.testing.assert_allclose(vec, _stacked(ker, ts, x, b), rtol=1e-14, atol=0)
    # a time grid of any shape appends its axes after the point axes
    np.testing.assert_array_equal(ker.normal_derivative(ts[None, :], x, b), vec[:, None, :])


@given(ts=log_times, x=st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_time_array_matches_scalar_calls(ts, x):
    ker = K.HeatKernel(geo.half_line())
    np.testing.assert_allclose(ker.normal_derivative(ts, x, 0.0), _stacked(ker, ts, x, 0.0),
                               rtol=1e-14, atol=0)


@given(ts=log_times, x=unit_points, rep=st.sampled_from(range(2)), b=st.sampled_from([0.0, 1.0]))
def test_interval_influx_is_nonnegative(ts, x, rep, b):
    # auto and image only: the pure sine series at t << 1e-3 cancels thousands of
    # O(k) terms and dips below zero by rounding; above 1e-3 it equals the images
    assert np.all(-INTERVAL[rep].normal_derivative(ts, x, b) >= 0.0)


@given(ts=log_times, x=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_influx_is_nonnegative(ts, x):
    assert np.all(-K.HeatKernel(geo.half_line()).normal_derivative(ts, x, 0.0) >= 0.0)


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


@given(lam=lams, x=unit_points, b=st.sampled_from([0.0, 1.0]))
def test_interval_resolvent_influx_is_the_harmonic_extension(lam, x, b):
    ker = K.HeatKernel(geo.interval01())
    np.testing.assert_allclose(-ker.resolvent_normal(lam, x, b), _interval_harmonic(lam, x, b),
                               rtol=0, atol=1e-12)


@given(lam=st.floats(1e-3, 20.0),
       x=st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_resolvent_influx_is_the_decaying_exponential(lam, x):
    ker = K.HeatKernel(geo.half_line())
    np.testing.assert_allclose(-ker.resolvent_normal(lam, x, 0.0), np.exp(-np.sqrt(lam) * x),
                               rtol=0, atol=1e-12)


@given(lam=st.floats(1e-3, 20.0), x=unit_points, b=st.sampled_from([0.0, 1.0]),
       interval=st.booleans())
@example(lam=14.0625, x=np.array([0.5, 0.5226453]), b=0.0, interval=False)
def test_resolvent_normal_array_matches_single_points(lam, x, b, interval):
    # one shared adaptive mesh for all points and a mesh per point each meet the
    # closed form at the quadrature's own 1e-12.  The two routes are not
    # compared with each other: their meshes may differ, and each is certified
    # only to 1e-12 (the example: 2.8e-17 and 4.3e-13 from it)
    ker = K.HeatKernel(geo.interval01() if interval else geo.half_line())
    b = b if interval else 0.0
    exact = -(_interval_harmonic(lam, x, b) if interval else np.exp(-np.sqrt(lam) * x))
    single = np.array([ker.resolvent_normal(lam, float(xi), b) for xi in x])
    array = ker.resolvent_normal(lam, x, b)
    np.testing.assert_allclose(array, exact if x.size > 1 else exact[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(single, exact, rtol=0, atol=1e-12)


# the boundary itself, or at least 1e-3 from it (the boundary layer has its own
# property below)
halfline_or_boundary = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 6.0)),
                                min_size=1, max_size=6).map(np.asarray)


@given(lam=st.floats(1e-2, 20.0), x=halfline_or_boundary, y=halfline_or_boundary)
def test_halfline_resolvent_array_matches_closed_form(lam, x, y):
    ker = K.HeatKernel(geo.half_line())
    X, Y = x[:, None], y[None, :]
    np.testing.assert_allclose(ker.resolvent(lam, X, Y), K.halfline_resolvent_exact(lam, X, Y),
                               rtol=0, atol=1e-12)


# points log-uniform over twelve decades: the mass of G(., x, y) sits near
# t = min(x, y)^2 and t = |x - y|^2, far below the head panel of the Laplace
# quadrature when either is small
halfline_log = st.lists(st.floats(np.log(1e-12), np.log(10.0)), min_size=1,
                        max_size=6).map(lambda v: np.exp(np.asarray(v)))


@example(lam=1.0, x=np.array([1e-10]), y=np.array([1e-10]))
@example(lam=1.0, x=np.array([1.0]), y=np.array([1.0 + 1e-10]))
@given(lam=st.floats(1e-2, 20.0), x=halfline_log, y=halfline_log)
def test_halfline_resolvent_matches_closed_form_near_the_boundary(lam, x, y):
    ker = K.HeatKernel(geo.half_line())
    X, Y = x[:, None], y[None, :]
    # the quadrature's absolute tolerance; without breakpoints x = y = 1e-10 gave
    # 1.5e-17, and x = 1, y = 1 + 1e-10 missed the closed form by 5e-11
    np.testing.assert_allclose(ker.resolvent(lam, X, Y), K.halfline_resolvent_exact(lam, X, Y),
                               rtol=0, atol=1e-12)


# -- the kernel G itself ------------------------------------------------------

log_time = st.floats(np.log(1e-6), np.log(2.0)).map(np.exp)
closed_unit_points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(np.asarray)


@given(t=st.floats(np.log(1e-3), np.log(2.0)).map(np.exp), x=unit_points, y=unit_points)
def test_image_and_sine_kernels_agree(t, x, y):
    image, sine = INTERVAL[1], INTERVAL[2]
    np.testing.assert_allclose(image.value(t, x[:, None], y[None, :]),
                               sine.value(t, x[:, None], y[None, :]), rtol=1e-10, atol=1e-10)


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


@given(t=log_time, x=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8).map(np.asarray),
       y=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8).map(np.asarray))
def test_halfline_kernel_is_symmetric_and_vanishes_on_the_boundary(t, x, y):
    ker = K.HeatKernel(geo.half_line())
    np.testing.assert_array_equal(ker.value(t, x[:, None], y[None, :]),
                                  ker.value(t, y[None, :], x[:, None]))
    np.testing.assert_array_equal(ker.value(t, 0.0, y), 0.0)


# the midpoint sums of test_kernels.test_chapman_kolmogorov: (kernel, cells, reach)
CK_SUMS = [pytest.param(INTERVAL[1], 4096, 1.0, id="image"),
           pytest.param(INTERVAL[2], 4096, 1.0, id="sine"),
           pytest.param(K.HeatKernel(geo.half_line()), 8192, 14.0, id="halfline")]
ck_time = st.floats(np.log(1e-2), np.log(0.5)).map(np.exp)
ck_point = st.floats(0.05, 0.95)


@pytest.mark.parametrize("ker, n, hi", CK_SUMS)
@given(t=ck_time, s=ck_time, x=ck_point, y=ck_point)
def test_chapman_kolmogorov_property(ker, n, hi, t, s, x, y):
    # int G(t, x, z) G(s, z, y) dz = G(t + s, x, y); both factors vanish at the
    # boundary, so the integrand extends evenly and the midpoint sum converges fast
    zs = np.linspace(hi / n / 2, hi - hi / n / 2, n)
    conv = np.sum(ker.value(t, x, zs) * ker.value(s, zs, y)) * (hi / n)
    assert abs(conv - ker.value(t + s, x, y)) < 1e-6


# points that hug both endpoints: log-uniform distances in [1e-6, 0.5] from
# either end (the graded grids come within 9.5e-7).  Two points within ~1e-7 of
# the same end make G smaller than the rounding of its O((4 pi t)^-1/2) image
# terms, and the image series then dips below zero by ~1e-16
hugging_points = st.lists(
    st.tuples(st.floats(np.log(1e-6), np.log(0.5)), st.booleans()).map(
        lambda p: 1.0 - np.exp(p[0]) if p[1] else np.exp(p[0])),
    min_size=1, max_size=8).map(np.asarray)
SHAPES = {"scalar": lambda x, y: (x[0], y[0]), "vector": lambda x, y: (x, y[0]),
          "outer": lambda x, y: (x[:, None], y[None, :])}


@given(t=st.floats(np.log(1e-4), 0.0).map(np.exp), x=hugging_points, y=hugging_points,
       rep=st.sampled_from(range(2)), shape=st.sampled_from(sorted(SHAPES)))
def test_interval_kernel_is_nonnegative(t, x, y, rep, shape):
    # auto and image only, as for the influx above.  Far from the diagonal G
    # underflows, and rounding may leave a subnormal below zero (-7.4e-323)
    assert np.all(INTERVAL[rep].value(t, *SHAPES[shape](x, y)) >= -1e-300)


@example(t=3.2e-4, y=np.array([0.995, 0.999]))
@given(t=st.floats(np.log(1e-4), np.log(K.IMAGE_SINE_SWITCH), exclude_max=True).map(np.exp),
       y=hugging_points)
def test_interval_kernel_vanishes_at_the_far_end_to_one_rounding(t, y):
    # at x = 1 exactly each reflected image cancels its direct partner, as at
    # x = 0; what is left is one rounding of an O((4 pi t)^-1/2) partial sum
    # (forming x + y - 2 instead left -4.1 of these at t = 3.2e-4, y = 0.995)
    atol = np.finfo(float).eps / np.sqrt(4 * np.pi * t)
    for ker in INTERVAL[:2]:
        assert np.all(np.abs(ker.value(t, 1.0, y)) <= atol)
        assert np.all(np.abs(ker.value(t, y, 1.0)) <= atol)


# -- the derivative-order series behind value, grad_x and dxx ----------------

SERIES = [pytest.param(ker, 1.0, id=ker.representation) for ker in INTERVAL] \
    + [pytest.param(K.HeatKernel(geo.half_line()), 4.0, id="halfline")]
series_time = st.floats(np.log(1e-3), 0.0).map(np.exp)


@pytest.mark.parametrize("ker, hi", SERIES)
@given(t=series_time, x=unit_points, y=unit_points)
def test_kernel_solves_the_heat_equation(ker, hi, t, x, y):
    X, Y = hi * x[:, None], hi * y[None, :]
    h = 1e-4 * t
    dt = (ker.value(t + h, X, Y) - ker.value(t - h, X, Y)) / (2 * h)
    dxx = ker.dxx(t, X, Y)
    np.testing.assert_allclose(dt, dxx, rtol=0, atol=1e-6 * (np.max(np.abs(dxx)) + t ** -1.5))


@pytest.mark.parametrize("ker, hi", SERIES)
@given(t=series_time, x=unit_points, y=unit_points)
def test_grad_x_is_the_x_difference_of_the_kernel(ker, hi, t, x, y):
    X, Y = hi * x[:, None], hi * y[None, :]
    h = 1e-5 * np.sqrt(t)
    dx = (ker.value(t, X + h, Y) - ker.value(t, X - h, Y)) / (2 * h)
    grad = ker.grad_x(t, X, Y)
    np.testing.assert_allclose(dx, grad, rtol=0, atol=1e-8 * (np.max(np.abs(grad)) + 1 / t))


@pytest.mark.parametrize("ker, hi", SERIES)
@pytest.mark.parametrize("name", ["value", "grad_x", "dxx"])
# at large t the image sum cancels its O((4 pi t)^-1/2) terms down to
# exp(-pi^2 t), so one rounding of a term that differs between a scalar and an
# array time shows far above 1e-14
@example(ts=np.array([1.0, np.exp(0.25)]), x=np.array([0.25]), y=np.array([0.999]))
@given(ts=log_times, x=unit_points, y=unit_points)
def test_series_time_array_matches_scalar_calls(ker, hi, name, ts, x, y):
    X, Y = hi * x[:, None], hi * y[None, :]
    series = getattr(ker, name)
    vec = series(ts, X, Y)
    assert vec.shape == (x.size, y.size, ts.size)
    stacked = np.stack([series(float(t), X, Y) for t in ts], axis=-1)
    np.testing.assert_allclose(vec, stacked, rtol=1e-14, atol=0)
    # a time grid of any shape appends its axes after the point axes
    np.testing.assert_array_equal(series(ts[None, :], X, Y), vec[:, :, None, :])


def _every_image(order, t, x, y):
    # the image series with every n in +-_n_images(t), none dropped; reflected
    # shifts for m >= 1 are formed from the far end, as the kernel forms them
    n = K._n_images(t)
    out = np.zeros(np.broadcast(x, y).shape)
    for m in range(-n, n + 1):
        reflected = x + y - 2 * m if m <= 0 else (x - 1) + (y - 1) - 2 * (m - 1)
        out += K._dg1(order, x - y - 2 * m, t) - K._dg1(order, reflected, t)
    return out


@pytest.mark.parametrize("order, name", [(0, "value"), (1, "grad_x"), (2, "dxx")])
# x + y + 2 = 2.05 lies between the value's tail reach (2.01) and the second
# derivative's (2.13): a reach that ignores the derivative factor fails here
@example(t=0.0275, x=np.array([0.025]), y=np.array([0.025]), shape="scalar")
@given(t=st.floats(np.log(1e-4), np.log(0.05), exclude_max=True).map(np.exp),
       x=hugging_points, y=hugging_points, shape=st.sampled_from(sorted(SHAPES)))
def test_images_beyond_the_points_reach_are_below_the_tail(order, name, t, x, y, shape):
    X, Y = SHAPES[shape](x, y)
    # the peak of the order-th derivative of the free kernel g_2t
    g0 = (4 * np.pi * t) ** -0.5
    peak = (g0, g0 * np.exp(-0.5) / np.sqrt(2 * t), g0 / (2 * t))[order]
    # the tail budget plus one rounding of a peak-sized partial sum
    np.testing.assert_allclose(getattr(INTERVAL[1], name)(t, X, Y), _every_image(order, t, X, Y),
                               rtol=0, atol=(K.SERIES_TAIL + np.finfo(float).eps) * peak)


def _mode_by_mode(order, t, x, y):
    # the sine series summed one mode at a time, and the sum of the terms' sizes
    out, size = np.zeros(np.broadcast(x, y).shape), 0.0
    phi = np.cos if order == 1 else np.sin
    for k in range(1, K._n_modes(t) + 1):
        coef = (2, 2 * k * np.pi, -2 * (k * np.pi) ** 2)[order]
        term = coef * phi(k * np.pi * x) * np.sin(k * np.pi * y) * np.exp(-k * k * np.pi ** 2 * t)
        out += term
        size = size + np.abs(term)
    return out, size


@pytest.mark.parametrize("order, name", [(0, "value"), (1, "grad_x"), (2, "dxx")])
@given(t=st.floats(np.log(1e-3), np.log(2.0)).map(np.exp), x=unit_points, y=unit_points,
       shape=st.sampled_from(sorted(SHAPES)))
def test_sine_contraction_matches_the_mode_loop(order, name, t, x, y, shape):
    X, Y = SHAPES[shape](x, y)
    ref, size = _mode_by_mode(order, t, X, Y)
    # another summation order over n_modes terms, each rounded in a few steps
    tol = (K._n_modes(t) + 16) * np.finfo(float).eps * size
    assert np.all(np.abs(getattr(INTERVAL[2], name)(t, X, Y) - ref) <= tol)


# -- row blocks of the image series and the exp floor ------------------------

BLOCK_SHAPES = {"outer": lambda x, y: (x[:, None], y[None, :]), "vector": lambda x, y: (x, y[0]),
                "scalar": lambda x, y: (x[0], y[0]), "flux": lambda x, y: (1.0, y)}


def _graded(n, lo, hi):
    # n points from lo to hi, clustered toward lo like the graded grids
    return lo + (hi - lo) * np.linspace(0.0, 1.0, n) ** 2


@pytest.mark.parametrize("order", range(3))
@given(t=st.floats(np.log(1e-4), np.log(0.05), exclude_max=True).map(np.exp),
       n_times=st.sampled_from([0, 1, 3]), rows=st.integers(1, 300), cols=st.integers(1, 80),
       lo=st.floats(1e-6, 0.5), hi=st.floats(0.5, 1.0 - 1e-6),
       shape=st.sampled_from(sorted(BLOCK_SHAPES)),
       block=st.sampled_from([1, 7, 64, 1000, K._BLOCK]))
def test_row_blocks_equal_one_block_bit_for_bit(order, t, n_times, rows, cols, lo, hi, shape,
                                                block):
    # the block size only cuts the rows that the call's one plan runs over; a
    # huge block is the one-block reference.  n_times = 0 is a scalar time,
    # else times spread over a factor 1.5 (one image group)
    ts = t if n_times == 0 else t * np.linspace(1.0, 1.5, n_times) ** 2
    X, Y = BLOCK_SHAPES[shape](_graded(rows, lo, hi), _graded(cols, 1.0 - hi, 1.0 - lo))
    ker = INTERVAL[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "_BLOCK", 1 << 62)
        whole = ker._series(order, ts, X, Y)
        mp.setattr(K, "_BLOCK", block)
        blocked = ker._series(order, ts, X, Y)
    assert blocked.shape == whole.shape
    np.testing.assert_array_equal(blocked, whole)


def test_a_480_node_matrix_spans_many_blocks_and_equals_one_block(monkeypatch):
    # the operator suite's grid: 480^2 entries are 15 blocks of 34 rows
    grid = geo.interior_grid(geo.interval01(), graded=True, level=14, per_panel=16)
    X, Y = grid.x[:, None], grid.x[None, :]
    ker = INTERVAL[1]
    assert X.size * Y.size > 10 * K._BLOCK
    blocked = [ker._series(order, t, X, Y) for order in range(3) for t in (1e-3, 1e-2)]
    monkeypatch.setattr(K, "_BLOCK", 1 << 62)
    for got, (order, t) in zip(blocked, [(o, t) for o in range(3) for t in (1e-3, 1e-2)]):
        np.testing.assert_array_equal(got, ker._series(order, t, X, Y))


def _g1(z, s):
    # the Gaussian as np.exp computes it everywhere, the reference for _g1_floored
    return np.exp(z * z / (-2 * s)) / np.sqrt(2 * np.pi * s)


def test_exp_floor_skips_only_exact_zeros(monkeypatch):
    # e = z^2 / (-2 s) with s = 1/2 is -z^2: exponents across the last subnormal
    # (exp(-745.13) rounds to 5e-324), far below it, at 0, above it, and NaN
    e = np.concatenate([np.linspace(-746.0, -744.0, K._EXP_MASKED_FROM), [-1e300, -np.inf, -0.0]])
    z = np.sqrt(-e)
    z = np.concatenate([z, [np.nan, np.inf, -3.0, 2.5]])
    got = K._g1_floored(z, 0.5)
    np.testing.assert_array_equal(got, _g1(z, 0.5))
    assert np.isnan(got[-4]) and got[-3] == 0.0
    assert np.exp(K._EXP_FLOOR) == 0.0 and np.any((got > 0) & (got < 1e-320))
    # times broadcast against the points, and a large array without underflow
    s = np.array([0.5, 0.25, 2.0])
    np.testing.assert_array_equal(K._g1_floored(z[:, None], s), _g1(z[:, None], s))
    near = np.linspace(0.0, 5.0, K._EXP_MASKED_FROM)
    np.testing.assert_array_equal(K._g1_floored(near, 0.5), _g1(near, 0.5))
    # scalars and arrays below _EXP_MASKED_FROM entries take np.exp as it is
    monkeypatch.setattr(np, "copyto", None)
    for n in (1, K._EXP_MASKED_FROM - 1):
        np.testing.assert_array_equal(K._g1_floored(z[:n], 0.5), _g1(z[:n], 0.5))
    assert K._g1_floored(np.float64(38.6), 0.5) == _g1(38.6, 0.5)
