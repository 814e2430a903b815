"""Dirichlet heat kernels for the concrete domains and their estimate certifiers.

The Laplacian kernels are exact and one-dimensional: method of images on the
interval (with the sine eigenseries as an independent second representation),
reflection formula on the half line.  The half plane needs no kernel of its
own, since its flux is the half-line influx times frequency-cell modes; the
ball has none and goes through its radial boundary-mass majorant.  Resolvent
kernels come from Laplace-transform quadrature in time, cross-checked on the
half line against the ODE closed form.
The verifier operations re-derive, as numerical suprema with refinement traces,
the Gaussian upper bounds with boundary decay that the whole construction rests
on; the caller supplies the Gaussian scale c, the best constant is fitted.
"""

import numpy as np
from scipy import special

from .geometry import UnsupportedDomainError, boundary_quadrature
from .reports import EstimateReport, loglog_slope

SERIES_TAIL = 1e-16     # first omitted series term below this is dropped
IMAGE_SINE_SWITCH = 0.05  # auto representation: images for small t, sine series otherwise
_LOG_TAIL = np.log(1.0 / SERIES_TAIL)
_LAPLACE_LIMIT = 300    # subintervals per half of the split resolvent quadrature
# the lowest GK21 node of the head's first panel [0, 1] sits at u ~ 2e-3; mass at
# smaller scales gets a geometric ladder of breakpoints up to _HEAD_PANEL
_HEAD_PANEL = 1e-2
_LADDER = 8.0
# image-series calls run their terms over row blocks of at most this many
# entries (~128 KB a float array), so the ~10 passes of a term stay in cache
_BLOCK = 1 << 14
# exp(e) rounds to 0.0 for e < -1075 ln 2 = -745.13; arrays of at least
# _EXP_MASKED_FROM entries skip the exponents at or below the floor (_g1_floored)
_EXP_FLOOR = -745.2
_EXP_MASKED_FROM = _BLOCK // 4


class NumericalRefusal(RuntimeError):
    """Requested discretization cannot honor the declared tolerance."""


def gauss_density(z, t):
    """Centered 1-d Gaussian density (2 pi t)^(-1/2) exp(-z^2 / (2 t)).

    The argument is used entrywise, so broadcast matrices of differences work.
    """
    if np.any(np.asarray(t) <= 0):
        raise ValueError("t must be positive")
    z = np.asarray(z, dtype=float)
    return (2 * np.pi * t) ** (-0.5) * np.exp(-(z * z) / (2.0 * t))


def _n_images(t):
    # first omitted image sits at distance >= 2n-2; Gaussian scale 2t per image
    return 2 + np.ceil(np.sqrt(np.maximum(t, 1e-12) * _LOG_TAIL)).astype(int)


def _n_modes(t):
    # sine series tail exp(-k^2 pi^2 t)
    k = np.sqrt(_LOG_TAIL / (np.pi ** 2 * np.maximum(t, 1e-12)))
    return np.minimum(6000, 1 + np.ceil(k).astype(int))


def _tail_reach(order):
    # z = |u|/sqrt(t) past which the order-th u-derivative of g_{2t}(u) stays below
    # SERIES_TAIL of its own peak: exp(-z^2/4) times the derivative's polynomial
    # factor relative to its peak (1, z e^{1/2}/sqrt 2, z^2/2 - 1), by fixed point
    z = np.sqrt(4 * _LOG_TAIL)
    for _ in range(8):
        poly = (1.0, z * np.exp(0.5) / np.sqrt(2.0), z * z / 2 - 1)[order]
        z = np.sqrt(4 * (_LOG_TAIL + np.log(poly)))
    return z


_TAIL_REACH = tuple(_tail_reach(order) for order in range(3))


def _range(a):
    # (min, max) of a numpy scalar or array as Python floats, whose gap tests
    # cost a fraction of numpy scalar ones; a scalar skips the reductions
    return (float(a),) * 2 if a.ndim == 0 else (float(a.min()), float(a.max()))


def _g1(z, s):
    # dividing by sqrt rounds alike for numpy scalars and arrays, ** -0.5 does
    # not, and the image sums cancel, so scalar and time-array calls would differ
    return np.exp(z * z / (-2 * s)) / np.sqrt(2 * np.pi * s)


def _g1_floored(z, s):
    """_g1 of a numpy scalar or array z, bit for bit, without np.exp's underflow path.

    An exponent at or below _EXP_FLOOR rounds to exactly 0.0, but np.exp
    takes a slow underflow path there (~14x the cost of a normal entry).  So
    an array of at least _EXP_MASKED_FROM entries that has such exponents
    skips them and writes the 0.0 itself, in place; the mask is
    ~(e <= floor), so a NaN still reaches np.exp.  Smaller inputs, and arrays
    without such exponents, take np.exp as it is.  The kernel series and the
    half-line flux call this; the scalar quadrature integrands call _g1,
    which has no size test to pay on every call.
    """
    e = z * z / (-2 * s)
    if e.size >= _EXP_MASKED_FROM:
        under = e <= _EXP_FLOOR
        if under.any():
            np.exp(e, out=e, where=~under)
            np.copyto(e, 0.0, where=under)
            e /= np.sqrt(2 * np.pi * s)
            return e
    return np.exp(e) / np.sqrt(2 * np.pi * s)


def _dg1(order, u, t):
    # order-th u-derivative of the free kernel g_{2t}(u), as a polynomial factor times it
    g = _g1_floored(u, 2 * t)
    if order == 0:
        return g
    if order == 1:
        return u * (g / (-2 * t))
    return (u * u / (4 * t * t) - 1 / (2 * t)) * g


def _interval_series(order, image, n_terms, t, x, y):
    """Image shifts -n_terms..n_terms or sine modes 1..n_terms, at every time of t.

    x and y end in one length-one axis per axis of t.  The image sum fixes its
    terms once from the ranges of the whole call (`_image_plan`), then adds
    them over row blocks of at most _BLOCK entries along the first output
    axis (`_add_images`): every entry gets the same terms in the same order,
    so the blocks give the one-block values bit for bit.  A call that fits in
    one block adds them once, without slicing.
    """
    if not image:
        # d^order/dx^order sin(k pi x) is (k pi)^order times sin, cos, -sin; one
        # contraction over a trailing mode axis serves every input shape
        kpi = np.arange(1, n_terms + 1) * np.pi
        coef = (2.0, 2 * kpi, -2 * kpi ** 2)[order] * np.exp(-kpi * kpi * t[..., None])
        phi = (np.cos if order == 1 else np.sin)(kpi * x[..., None])
        return np.einsum("...k,...k->...", phi, coef * np.sin(kpi * y[..., None]))
    out = np.zeros(np.broadcast(x, y, t).shape)
    if out.size == 0:
        return out
    reach = _TAIL_REACH[order] * np.sqrt(t)
    plan, low = _image_plan(n_terms, reach, x, y)
    n_rows = out.shape[0] if out.ndim else 1
    step = max(1, _BLOCK * n_rows // out.size)
    if step >= n_rows:      # one block: scalar calls skip the slicing
        _add_images(out, plan, order, t, x, y, reach, low)
        return out
    for r in range(0, n_rows, step):
        rows = slice(r, r + step)
        # an operand that spans the first output axis is cut to the block
        t_b, reach_b, x_b, y_b = [a[rows] if a.ndim == out.ndim and a.shape[0] > 1 else a
                                  for a in (t, reach, x, y)]
        _add_images(out[rows], plan, order, t_b, x_b, y_b, reach_b, low)
    return out


def _image_plan(n_terms, reach, x, y):
    """The image terms a call keeps, [(n, direct gap, reflected gap)], and the
    shortest tail reach of its times.

    A term whose shift stays beyond the tail reach at every point is below
    SERIES_TAIL of the order's peak; the ranges of x - y and x + y bound the
    shifts without forming them.  The five terms next to the domain always
    stay: dropping direct n = +-1 leaves G < 0 at far corners.  A gap is None
    where that part of the term is dropped.
    """
    low, high = _range(reach)
    (xlo, xhi), (ylo, yhi) = _range(x), _range(y)
    dlo, dhi, slo, shi = xlo - yhi, xhi - ylo, xlo + ylo, xhi + yhi
    plan = []
    for n in range(-n_terms, n_terms + 1):
        # a gap is the smallest |u - 2n| over u in the range of x - y or x + y
        gd = 0.0 if -1 <= n <= 1 else max(dlo - 2 * n, 2 * n - dhi, 0.0)
        gr = 0.0 if 0 <= n <= 1 else max(slo - 2 * n, 2 * n - shi, 0.0)
        if gd <= high or gr <= high:
            plan.append((n, gd if gd <= high else None, gr if gr <= high else None))
    return plan, low


def _add_images(out, plan, order, t, x, y, reach, low):
    """Add the planned image terms into out, in the order of n.

    A term kept for the group's longest time but beyond the reach of a
    shorter one adds an exact 0.0 there, so every time sums the terms of its
    scalar call.  The reflected shift x + y - 2n is formed from the end it
    mirrors: (x - 1) + (y - 1) - 2(n - 1) for n >= 1 rounds like the direct
    x - y, so at x = 1 the pairs cancel as they do at x = 0.
    """
    def term(u, gap):
        v = _dg1(order, u, t)
        return v if gap <= low else np.where(gap <= reach, v, 0.0)

    diff, near, far = x - y, x + y, (x - 1.0) + (y - 1.0)
    for n, gd, gr in plan:
        if gr is not None:
            shift = near - 2 * n if n <= 0 else far - 2 * (n - 1)
        if gd is not None and gr is not None:
            out += term(diff - 2 * n, gd) - term(shift, gr)
        elif gd is not None:
            out += term(diff - 2 * n, gd)
        else:
            out -= term(shift, gr)


class HeatKernel:
    """Dirichlet heat kernel G(t, x, y) of the Laplacian on a concrete domain.

    representation: "image" | "sine" | "auto" on the interval (the two series
    agree to 1e-10 for t >= 1e-3 and cross-check each other); the half line
    takes only "auto", its reflection closed form.  Other domains have no
    kernel here: the half plane's flux is built from the half-line kernel,
    and the ball is handled through majorants only.  Times broadcast against the points: a
    scalar t keeps the point shape, an array of times appends its axes after
    the point axes.
    """

    def __init__(self, domain, representation="auto"):
        if domain.kind not in ("interval01", "halfline"):
            raise UnsupportedDomainError(
                f"heat kernels are one-dimensional (interval or half line), not {domain.kind}")
        if domain.kind != "interval01" and representation != "auto":
            raise ValueError("series representations exist only on the interval")
        self.domain = domain
        self.representation = representation

    def _rep(self, t):
        if self.representation != "auto":
            return self.representation
        return "image" if t < IMAGE_SINE_SWITCH else "sine"

    def _series_groups(self, t):
        """Split interval times into (is_image, n_terms, cols) groups.

        Every node keeps the representation and term count it gets as a
        scalar time; nodes that share both are summed together.  A group
        that holds every node has cols = Ellipsis.
        """
        if t.ndim == 0:     # scalar quadrature callers skip the array bookkeeping
            image = self._rep(float(t)) == "image"
            return [(image, int(_n_images(t) if image else _n_modes(t)), ...)]
        if self.representation == "auto":
            image = t < IMAGE_SINE_SWITCH
        else:
            image = np.full(t.shape, self.representation == "image")
        key = np.where(image, -_n_images(t), _n_modes(t))     # image groups negative
        keys = np.unique(key)
        if keys.size == 1:
            return [(bool(keys[0] < 0), abs(int(keys[0])), ...)]
        return [(bool(k < 0), abs(int(k)), key == k) for k in keys]

    # -- kernel value and x-derivatives ---------------------------------------

    def value(self, t, x, y):
        return self._series(0, t, x, y)

    def grad_x(self, t, x, y):
        """d/dx G."""
        return self._series(1, t, x, y)

    def dxx(self, t, x, y):
        """Second x-derivative."""
        return self._series(2, t, x, y)

    def _series(self, order, t, x, y):
        """d^order/dx^order G: image or sine series on the interval, reflection on the half line."""
        # a single time or point computes in numpy scalars
        t, x, y = np.asarray(t, float)[()], np.asarray(x, float)[()], np.asarray(y, float)[()]
        if (t <= 0 if t.ndim == 0 else (t <= 0).any()):
            raise ValueError("t must be positive")
        trail = (1,) * t.ndim
        if self.domain.kind == "halfline":
            x, y = x.reshape(x.shape + trail), y.reshape(y.shape + trail)
            return _dg1(order, x - y, t) - _dg1(order, x + y, t)
        groups = self._series_groups(t)
        if len(groups) == 1:
            image, n, _ = groups[0]
            return _interval_series(order, image, n, t, x.reshape(x.shape + trail),
                                    y.reshape(y.shape + trail))
        out = np.empty(np.broadcast_shapes(x.shape, y.shape) + t.shape)
        for image, n, cols in groups:
            out[..., cols] = _interval_series(order, image, n, t[cols], x[..., None], y[..., None])
        return out

    # -- boundary flux ------------------------------------------------------

    def normal_derivative(self, t, x, b):
        """dG/dn_y(t, x, b) with outward normal at the boundary point b.

        Nonpositive everywhere (the kernel vanishes at the boundary from
        positive values), so -dG/dn is the heat influx density.
        """
        if self.domain.kind == "interval01":
            bval = float(b)
            if abs(bval) > 1e-14 and abs(bval - 1.0) > 1e-14:
                raise ValueError("interval boundary points are 0 and 1")
            # G is symmetric, so dG/dn_y(t, x, b) = n_b dG/dx(t, b, x)
            return self._series(1, t, 1.0, x) if bval > 0.5 else -self._series(1, t, 0.0, x)
        t = np.asarray(t, float)
        x = np.asarray(x, float)
        if float(np.max(np.abs(np.asarray(b, float)))) > 1e-14:
            raise ValueError("the half line boundary is the origin")
        xe = x.reshape(x.shape + (1,) * t.ndim)
        return -(xe / t) * _g1_floored(xe, 2 * t)

    # -- resolvent ----------------------------------------------------------

    def resolvent(self, lam, x, y):
        """Laplace transform int_0^inf e^{-lam t} G(t,x,y) dt by split quadrature."""
        if lam <= 0:
            raise ValueError("lambda must be positive")
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        if self.domain.kind == "interval01":
            inside = np.ones(x.shape, bool)
        else:
            inside = (x > 0) & (y >= 0)
        out = np.zeros(x.shape)
        if inside.any():
            xi, yi = x[inside], y[inside]
            # G(., x, y) has mass near t = |x - y|^2 (the direct term) and near
            # t = rho^2, rho the smaller boundary distance (the reflection)
            rho = np.minimum(xi, yi)
            if self.domain.kind == "interval01":
                rho = np.minimum(rho, 1.0 - np.maximum(xi, yi))
            out[inside] = _laplace(lambda t: self.value(t, xi, yi), lam,
                                   f"y in [{yi.min():.6g}, {yi.max():.6g}]",
                                   scales=np.concatenate([rho, np.abs(xi - yi)]))
        return out if out.shape else float(out)

    def resolvent_normal(self, lam, x, b):
        """d/dn_y of the resolvent kernel at boundary point b (time quadrature)."""
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        if lam == 0 and self.domain.kind != "interval01":
            raise ValueError("lambda = 0 is not in the resolvent set on unbounded domains")
        x = np.asarray(x, float)
        out = _laplace(lambda t: self.normal_derivative(t, x, b), lam, f"boundary point {b}")
        return out if out.size > 1 else float(out.reshape(-1)[0])


def _laplace(fn, lam, where, scales=()):
    """int_0^inf e^{-lam t} fn(t) dt for an array-valued fn, all entries on one mesh.

    The split at t = 1 and the t = u^2 substitution on the head (which removes
    the t^(-1/2) spike near t = 0) are shared by every entry; the adaptive mesh
    refines until the largest entry error meets the tolerance.  An entry whose
    mass sits at u ~ scale below _HEAD_PANEL looks like zero to the head's first
    panel, which never refines toward it, so the head gets breakpoints from the
    smallest such scale up by factors of _LADDER.  quad_vec does not warn when
    it stops short, so its status is checked here.
    """
    from scipy import integrate
    scales = np.asarray(scales, float)
    scales = scales[scales > 0]
    low = float(scales.min()) if scales.size else _HEAD_PANEL
    points = low * _LADDER ** np.arange(np.ceil(np.log(_HEAD_PANEL / low) / np.log(_LADDER)))
    opts = dict(epsrel=1e-12, norm="max", limit=_LAPLACE_LIMIT, full_output=True)
    head, _, h_info = integrate.quad_vec(
        lambda u: 2 * u * np.exp(-lam * u * u) * fn(u * u), 0.0, 1.0, epsabs=1e-12,
        points=points, **opts)
    tail, _, t_info = integrate.quad_vec(
        lambda t: np.exp(-lam * t) * fn(t), 1.0, np.inf, epsabs=1e-13, **opts)
    if h_info.status or t_info.status:
        raise NumericalRefusal(
            f"Laplace quadrature at lambda={lam:g}, {where} did not reach its tolerance "
            f"within {_LAPLACE_LIMIT} subintervals")
    return head + tail


def halfline_resolvent_exact(lam, x, y):
    """ODE closed form on the half line, (e^{-s|x-y|} - e^{-s(x+y)}) / (2s) with s = sqrt(lam).

    Evaluated as -e^{-s|x-y|} expm1(-2s min(x, y)) / (2s), which keeps full
    relative accuracy where the difference would cancel near the boundary.
    """
    s = np.sqrt(lam)
    x, y = np.asarray(x, float), np.asarray(y, float)
    return -np.exp(-s * np.abs(x - y)) * np.expm1(-2 * s * np.minimum(x, y)) / (2 * s)


# ---------------------------------------------------------------------------
# estimate certifiers


def difference_bound_report(n_z=200, n_v=200):
    """Certify |e^{-z^2} - e^{-(z+v)^2}| <= C (v ^ 1) e^{-z^2/2} on the kernel region.

    The substitution behind the inequality has z = (x1-y1)/(2 sqrt t),
    v = y1/sqrt t with x1, y1 >= 0, so only z >= -v/2 occurs; without that
    restriction the inequality is false (z large negative, v = -z).
    """
    z_range, v_max = (-5.0, 8.0), 10.0
    sups = []
    for level, (nz, nv) in enumerate([(n_z // 2, n_v // 2), (n_z, n_v), (2 * n_z, 2 * n_v)]):
        z = np.linspace(z_range[0], z_range[1], nz)
        v = np.linspace(v_max / nv, v_max, nv)
        Z, V = np.meshgrid(z, v, indexing="ij")
        mask = Z >= -V / 2
        lhs = np.abs(np.exp(-Z ** 2) - np.exp(-(Z + V) ** 2))
        rhs = np.minimum(V, 1.0) * np.exp(-Z ** 2 / 2)
        ratio = np.where(mask, lhs / rhs, 0.0)
        sups.append(ratio.max())
    return EstimateReport.from_trace(
        "one_d_gaussian_difference_bound",
        f"z in {z_range}, v in (0,{v_max}], {n_z}x{n_v} base grid, region z >= -v/2",
        sups, fitted={"C": sups[-1]})


def verify_kernel_upper_bounds(kernel, c):
    """Suprema of G/(m_t(y) g_ct(x-y)) and |dG/dx| sqrt(t)/(m_t(y) g_ct(x-y)).

    Returns (value_report, gradient_report).  Divergence is a verdict, not an
    error: each of the three refinement levels extends the t-grid downward and
    doubles the (x, y) sampling density, so scales c that are too tight show
    monotone growth.  Off the interval, x and y run over (0, 6].
    """
    dom = kernel.domain
    levels = 3
    x_hi = 1.0 if dom.kind == "interval01" else 6.0
    sup_val, sup_grad = [], []
    for lev in range(levels):
        ts = np.geomspace(10.0 ** -(2 + lev), 1.0, 8 + 4 * lev)
        n = 48 * 2 ** lev
        sv = sg = 0.0
        for t in ts:
            xs = np.linspace(x_hi / n, x_hi, n) if dom.kind != "interval01" \
                else np.linspace(1.0 / (n + 1), n / (n + 1.0), n)
            ys = xs
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            G = kernel.value(t, X, Y)
            dG = kernel.grad_x(t, X, Y)
            m = np.minimum(1.0, Y / np.sqrt(t))
            denom = m * gauss_density(X - Y, c * t)
            with np.errstate(divide="ignore", invalid="ignore"):
                rv = np.where(denom > 0, G / denom, 0.0)
                rg = np.where(denom > 0, np.abs(dG) * np.sqrt(t) / denom, 0.0)
            sv = max(sv, float(np.max(rv)))
            sg = max(sg, float(np.max(rg)))
        sup_val.append(sv)
        sup_grad.append(sg)
    spec = f"{dom.kind}, c={c}, levels={levels}"
    return (EstimateReport.from_trace("kernel_gaussian_bound", spec, sup_val, {"C": sup_val[-1]}),
            EstimateReport.from_trace("kernel_gradient_bound", spec, sup_grad, {"C": sup_grad[-1]}))


# -- Gaussian boundary mass --------------------------------------------------


def gaussian_boundary_mass(domain, t, x, level=None):
    """Surface integral int_{boundary} exp(-|x-y|^2/t) ds(y) by quadrature.

    The quadrature reference for the closed form `ball_boundary_mass_exact` at c = 1.
    """
    if level is None:
        # resolve the Gaussian angular scale sqrt(t)
        level = int(np.clip(np.ceil(np.log2(64.0 / np.sqrt(t))), 6, 13))
    grid = boundary_quadrature(domain, level=level)
    pts = np.atleast_2d(np.asarray(x, float))
    d2 = ((pts[:, None, :] - grid.nodes[None, :, :]) ** 2).sum(axis=-1)
    vals = (np.exp(-d2 / t) * grid.weights[None, :]).sum(axis=1)
    return float(vals[0]) if np.ndim(x) <= 1 else vals


def ball_boundary_mass_exact(d, t, rho, c=1.0):
    """Closed form of the boundary mass on the unit ball for x on a radius.

    d=2: 2 pi i0e(2q/(ct)) e^{-rho^2/(ct)};  d=3: (pi c t / q) e^{-rho^2/(ct)} (1 - e^{-4q/(ct)}),
    with q = 1 - rho the radial position.  Used as the fit backend and as the
    oracle for the quadrature route.  For d = 2, i0e is evaluated only where
    the exponential is not 0.0 (it underflows at small t) or i0e's own
    argument is NaN; elsewhere the product is 0.0 anyway.  The product order
    stays 2 pi i0e exp, so every value is that of the full evaluation, bit
    for bit.
    """
    q = 1.0 - np.asarray(rho, float)
    a = c * t
    if d == 2:
        arg = np.asarray(2 * q / a)
        gauss = np.exp(-(1 - q) ** 2 / a)
        live = ~(gauss == 0.0) | np.isnan(arg)
        i0 = np.zeros(arg.shape)
        i0[live] = special.i0e(arg[live])
        return 2 * np.pi * i0 * gauss
    if d == 3:
        out = np.pi * a / q * np.exp(-(1 - q) ** 2 / a) * (1 - np.exp(-4 * q / a))
        center = 4 * np.pi * np.exp(-1 / a)     # the q -> 0 limit, at the ball's centre
        return np.where(q > 1e-12, out, center)
    raise UnsupportedDomainError("closed forms for d=2,3 only")


def fit_boundary_mass_constant(d):
    """Fit the smallest C1 with I(t,x) <= C1 t^{(d-1)/2} e^{-rho^2/(C1 t)} on a (t,x) grid.

    I is the boundary mass at c = 1 over t in [1e-3, 1] and rho <= 0.6, on a
    12 x 20 grid doubled twice.  The existence bound pins no value, so the fit
    is the oracle: the report gives the fitted constant per grid-refinement
    level and its relative spread, which certifies that the fit itself is
    stable.
    """
    c, t_range, rho_max = 1.0, (1e-3, 1.0), 0.6
    levels, n_t, n_rho = 3, 12, 20

    def fit_on(nt, nr):
        ts = np.geomspace(t_range[0], t_range[1], nt)
        rhos = np.linspace(0.0, rho_max, nr)
        T, R = np.meshgrid(ts, rhos, indexing="ij")
        I = ball_boundary_mass_exact(d, T, R, c)

        def feasible(C1):
            bound = C1 * T ** ((d - 1) / 2.0) * np.exp(-R ** 2 / (C1 * T))
            return np.all(I <= bound)

        loC, hiC = 1e-3, 1e6
        if not feasible(hiC):
            return np.inf
        for _ in range(100):
            mid = np.sqrt(loC * hiC)
            if feasible(mid):
                hiC = mid
            else:
                loC = mid
        return hiC

    fits = np.asarray([fit_on(n_t * 2 ** lev, n_rho * 2 ** lev) for lev in range(levels)])
    spread = float((fits.max() - fits.min()) / fits.mean())
    rep = EstimateReport.from_trace(
        f"boundary_mass_constant_d{d}",
        f"t in {t_range}, rho <= {rho_max}, c={c}, {levels} grid levels",
        list(fits), fitted={"C1": float(fits[-1]), "C1_mean": float(fits.mean()),
                            "relative_spread": spread})
    rep.verdict = "bounded" if spread <= 0.10 and np.all(np.isfinite(fits)) else "inconclusive"
    return rep


# -- distance-power Gaussian moments (the scaling assumption) ----------------


def singular_moment(domain, alpha, c, t):
    """sup_x int_domain rho(y)^alpha g_{ct}(x-y) dy for alpha in (-1, 0).

    The endpoint singularity is removed by the substitution y = v^{1/(1+alpha)}.
    The sup runs over x = 0 and x = (1/4 ... 3) sqrt(ct), plus x = 1/2 on the
    interval, where the points beyond 1/2 are clipped to it.
    """
    if not -1.0 < alpha < 0.0:
        raise ValueError("alpha must lie in (-1, 0)")
    if domain.kind not in ("halfline", "interval01"):
        raise UnsupportedDomainError("distance-power moments implemented on 1-d domains")
    from scipy import integrate
    s = c * t
    q = 1.0 / (1.0 + alpha)

    def from_end(d, upper):
        # the part of the moment measured from a boundary end at distance d from x
        return integrate.quad(lambda v: _g1(d - v ** q, s) / (1.0 + alpha), 0.0, upper,
                              epsabs=1e-12, epsrel=1e-10, limit=300)[0]

    if domain.kind == "halfline":
        def integral(x):
            return from_end(x, (x + 10 * np.sqrt(s) + 1.0) ** (1.0 / q))
        x_values = np.concatenate([[0.0], np.sqrt(s) * np.array([0.25, 0.5, 1, 1.5, 2, 3])])
    else:
        def integral(x):
            # split at 1/2: each half is measured from its own end
            return from_end(x, 0.5 ** (1.0 / q)) + from_end(1.0 - x, 0.5 ** (1.0 / q))
        base = np.sqrt(s) * np.array([0.25, 0.5, 1, 1.5, 2, 3])
        x_values = np.clip(np.concatenate([[0.0], base, [0.5]]), 0.0, 0.5)
    return max(integral(float(xx)) for xx in x_values)


def fit_singular_moment_exponent(domain, alpha):
    """Log-log slope of the sup-moment at c = 1 against 9 times in [1e-3, 1]; the
    scaling assumption predicts alpha/2."""
    c, t_range = 1.0, (1e-3, 1.0)
    ts = np.geomspace(t_range[0], t_range[1], 9)
    sups = np.array([singular_moment(domain, alpha, c, t) for t in ts])
    slope = loglog_slope(ts, sups)
    return EstimateReport.from_trace(
        f"singular_moment_exponent_{domain.kind}",
        f"alpha={alpha}, c={c}, t in {t_range}",
        list(sups[::-1]), fitted={"exponent": slope, "target": alpha / 2.0})


# -- far-field weight constants ----------------------------------------------


def far_weight_constants(theta, c=1.0):
    """A1, A2 and the dominating constant N = 2 int (1+|z|)^theta e^{-|z|^2/c} dz.

    A1 = sup_{y: rho(y)>=1} int_{rho(x)>=1} (rho(x)/rho(y))^theta e^{-|x-y|^2/c} dx,
    A2 = sup_{y: rho(y)<1}  int_{rho(x)>=1} rho(x)^theta e^{-|x-y|^2/c} dx,
    both on the half line (the far set {rho >= 1} is empty on the interval).
    """
    from scipy import integrate
    N = 2 * integrate.quad(lambda z: (1 + abs(z)) ** theta * np.exp(-z * z / c),
                           -np.inf, np.inf, limit=200)[0]
    A1 = 0.0
    for y in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 9.0, 17.0):
        val = integrate.quad(lambda x: (x / y) ** theta * np.exp(-(x - y) ** 2 / c),
                             1.0, np.inf, limit=200)[0]
        A1 = max(A1, val)
    A2 = 0.0
    for y in np.linspace(0.02, 0.999, 25):
        val = integrate.quad(lambda x: x ** theta * np.exp(-(x - y) ** 2 / c),
                             1.0, np.inf, limit=200)[0]
        A2 = max(A2, val)
    rep = EstimateReport.from_trace(
        "far_weight_constants", f"halfline, theta={theta}, c={c}, d=1",
        [A1 + A2, A1 + A2], fitted={"A1": A1, "A2": A2, "N": N})
    rep.verdict = "bounded" if A1 + A2 <= N * (1 + 1e-12) else "diverging"
    return rep
