"""Dirichlet heat kernels for the concrete domains and their estimate certifiers.

The Laplacian kernels are exact: method of images on the interval (with the
sine eigenseries as an independent second representation), reflection formula
on the half line and half space.  Resolvent kernels come from Laplace-transform
quadrature in time, cross-checked on the half line against the ODE closed form.
The verifier operations re-derive, as numerical suprema with refinement traces,
the Gaussian upper bounds with boundary decay that the whole construction rests
on; the caller supplies the Gaussian scale c, the best constant is fitted.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .geometry import (UnsupportedDomainError, boundary_quadrature, distance_to_boundary,
                       gaussian_truncation_radius)
from .reports import EstimateReport, loglog_slope

SERIES_TAIL = 1e-16     # first omitted series term below this is dropped
IMAGE_SINE_SWITCH = 0.05  # auto representation: images for small t, sine series otherwise
_LOG_TAIL = np.log(1.0 / SERIES_TAIL)
_LAPLACE_LIMIT = 300    # subintervals per half of the split resolvent quadrature


class NumericalRefusal(RuntimeError):
    """Requested discretization cannot honor the declared tolerance."""


@dataclass(frozen=True)
class GaussianParams:
    c: float
    t: float
    d: int = 1

    def __post_init__(self):
        if self.t <= 0 or self.c <= 0:
            raise ValueError("Gaussian parameters need positive c and t")


def gauss_density(z, t, d=1):
    """Centered Gaussian density (2 pi t)^(-d/2) exp(-|z|^2 / (2 t)).

    For d > 1 the coordinates run along the last axis of z; for d = 1 the
    argument is used entrywise (so broadcast matrices of differences work).
    """
    if np.any(np.asarray(t) <= 0):
        raise ValueError("t must be positive")
    z = np.asarray(z, dtype=float)
    sq = z * z if d == 1 else np.sum(z ** 2, axis=-1)
    return (2 * np.pi * t) ** (-0.5 * d) * np.exp(-sq / (2.0 * t))


def gaussian_density(params, z):
    return gauss_density(z, params.t, params.d)


def barrier_factor(domain, t, z):
    """Boundary decay factor min(1, rho(z)/sqrt(t))."""
    rho = distance_to_boundary(domain, z)
    return np.minimum(1.0, rho / np.sqrt(t))


def _n_images(t):
    # first omitted image sits at distance >= 2n-2; Gaussian scale 2t per image
    return 2 + np.ceil(np.sqrt(np.maximum(t, 1e-12) * _LOG_TAIL)).astype(int)


def _n_modes(t):
    # sine series tail exp(-k^2 pi^2 t)
    k = np.sqrt(_LOG_TAIL / (np.pi ** 2 * np.maximum(t, 1e-12)))
    return np.minimum(6000, 1 + np.ceil(k).astype(int))


def _g1(z, s):
    return (2 * np.pi * s) ** -0.5 * np.exp(-z * z / (2 * s))


class HeatKernel:
    """Dirichlet heat kernel G(t, x, y) of the Laplacian on a concrete domain.

    representation: "image" | "sine" | "auto" on the interval (the two series
    agree to 1e-10 for t >= 1e-3 and cross-check each other); the half line and
    half space use the reflection closed form.  Balls and generic domains have
    no exact kernel here and are handled downstream through majorants only.
    """

    def __init__(self, domain, representation="auto"):
        if domain.kind not in ("interval01", "halfline", "halfspace"):
            raise UnsupportedDomainError(
                f"no exact Green kernel for {domain.kind}; use the majorant route")
        if domain.kind != "interval01" and representation not in ("auto", "closed"):
            raise ValueError("series representations exist only on the interval")
        self.domain = domain
        self.representation = representation

    def _rep(self, t):
        if self.domain.kind != "interval01":
            return "closed"
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

    # -- kernel value -------------------------------------------------------

    def value(self, t, x, y):
        if t <= 0:
            raise ValueError("t must be positive")
        kind = self.domain.kind
        if kind == "halfline":
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            return _g1(x - y, 2 * t) - _g1(x + y, 2 * t)
        if kind == "halfspace":
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            d = self.domain.dim
            xb = np.array(x, float, copy=True)
            xb[..., 0] = -xb[..., 0]
            return gauss_density(x - y, 2 * t, d) - gauss_density(xb - y, 2 * t, d)
        rep = self._rep(t)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if rep == "image":
            out = np.zeros(np.broadcast(x, y).shape)
            for n in range(-_n_images(t), _n_images(t) + 1):
                out += _g1(x - y - 2 * n, 2 * t) - _g1(x + y - 2 * n, 2 * t)
            return out
        out = np.zeros(np.broadcast(x, y).shape)
        for k in range(1, _n_modes(t) + 1):
            out += 2 * np.sin(k * np.pi * x) * np.sin(k * np.pi * y) * np.exp(-k * k * np.pi ** 2 * t)
        return out

    def grad_x(self, t, x, y):
        """d/dx G (first coordinate only in the half space)."""
        kind = self.domain.kind
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if kind == "halfline":
            return (-(x - y) / (2 * t) * _g1(x - y, 2 * t)
                    + (x + y) / (2 * t) * _g1(x + y, 2 * t))
        if kind == "halfspace":
            d = self.domain.dim
            xb = np.array(x, float, copy=True)
            xb[..., 0] = -xb[..., 0]
            u = x[..., 0] - y[..., 0]
            ub = xb[..., 0] - y[..., 0]
            return (-(u / (2 * t)) * gauss_density(x - y, 2 * t, d)
                    + (ub / (2 * t)) * gauss_density(xb - y, 2 * t, d))
        rep = self._rep(t)
        if rep == "image":
            out = np.zeros(np.broadcast(x, y).shape)
            for n in range(-_n_images(t), _n_images(t) + 1):
                u, v = x - y - 2 * n, x + y - 2 * n
                out += -(u / (2 * t)) * _g1(u, 2 * t) + (v / (2 * t)) * _g1(v, 2 * t)
            return out
        out = np.zeros(np.broadcast(x, y).shape)
        for k in range(1, _n_modes(t) + 1):
            out += (2 * k * np.pi * np.cos(k * np.pi * x) * np.sin(k * np.pi * y)
                    * np.exp(-k * k * np.pi ** 2 * t))
        return out

    def dxx(self, t, x, y):
        """Second x-derivative (1-d domains)."""
        kind = self.domain.kind
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if kind == "halfline":
            u, v = x - y, x + y
            return ((u * u / (4 * t * t) - 1 / (2 * t)) * _g1(u, 2 * t)
                    - (v * v / (4 * t * t) - 1 / (2 * t)) * _g1(v, 2 * t))
        if kind == "interval01":
            rep = self._rep(t)
            if rep == "image":
                out = np.zeros(np.broadcast(x, y).shape)
                for n in range(-_n_images(t), _n_images(t) + 1):
                    u, v = x - y - 2 * n, x + y - 2 * n
                    out += ((u * u / (4 * t * t) - 1 / (2 * t)) * _g1(u, 2 * t)
                            - (v * v / (4 * t * t) - 1 / (2 * t)) * _g1(v, 2 * t))
                return out
            out = np.zeros(np.broadcast(x, y).shape)
            for k in range(1, _n_modes(t) + 1):
                out += (-2 * (k * np.pi) ** 2 * np.sin(k * np.pi * x) * np.sin(k * np.pi * y)
                        * np.exp(-k * k * np.pi ** 2 * t))
            return out
        raise UnsupportedDomainError("second derivative implemented for 1-d domains")

    # -- boundary flux ------------------------------------------------------

    def normal_derivative(self, t, x, b):
        """dG/dn_y(t, x, b) with outward normal at the boundary point b.

        Nonpositive everywhere (the kernel vanishes at the boundary from
        positive values), so -dG/dn is the heat influx density.  The times
        broadcast against the points: a scalar t keeps the point shape, an
        array of times appends its axes after the point axes.
        """
        kind = self.domain.kind
        t = np.asarray(t, float)
        x = np.asarray(x, float)
        if kind == "halfspace":
            lead = x.shape[:-1] + (1,) * t.ndim
            diff = (x - np.asarray(b, float)).reshape(lead + x.shape[-1:])
            return -(x[..., 0].reshape(lead) / t) * gauss_density(diff, 2 * t, self.domain.dim)
        xe = x.reshape(x.shape + (1,) * t.ndim)
        if kind == "halfline":
            if float(np.max(np.abs(np.asarray(b, float)))) > 1e-14:
                raise ValueError("the half line boundary is the origin")
            return -(xe / t) * _g1(xe, 2 * t)
        bval = float(b)
        if abs(bval) > 1e-14 and abs(bval - 1.0) > 1e-14:
            raise ValueError("interval boundary points are 0 and 1")
        groups = self._series_groups(t)
        if len(groups) == 1:
            image, n, _ = groups[0]
            return self._flux_series(image, n, t, xe, bval)
        out = np.empty(x.shape + t.shape)
        for image, n, cols in groups:
            out[..., cols] = self._flux_series(image, n, t[cols], x[..., None], bval)
        return out

    @staticmethod
    def _flux_series(image, n, t, x, bval):
        # interval dG/dn at boundary point bval; the point and time axes of x
        # and t broadcast into one 2-d accumulator, summed term by term
        t, x = t[()], x[()]     # a single node computes in numpy scalars
        acc = 0.0
        if image:
            base = x if bval == 0.0 else x - 1.0
            # _g1(u, 2t) with its normaliser hoisted; sqrt rounds alike for numpy
            # scalars and arrays, ** -0.5 does not, and the image sum cancels
            s = 2 * t
            norm = 1.0 / np.sqrt(2 * np.pi * s)
            for m in range(-n, n + 1):
                u = base - 2 * m
                acc += (u / t) * (norm * np.exp(-u * u / (2 * s)))
        else:
            for k in range(1, n + 1):
                sgn = 1.0 if bval == 0.0 else (-1.0) ** k
                acc += 2 * k * np.pi * sgn * np.sin(k * np.pi * x) * np.exp(-k * k * np.pi ** 2 * t)
        return -acc if bval == 0.0 else acc

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
            out[inside] = _laplace(lambda t: self.value(t, xi, yi), lam,
                                   f"y in [{yi.min():.6g}, {yi.max():.6g}]")
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


def _laplace(fn, lam, where):
    """int_0^inf e^{-lam t} fn(t) dt for an array-valued fn, all entries on one mesh.

    The split at t = 1 and the t = u^2 substitution on the head (which removes
    the t^(-1/2) spike near t = 0) are shared by every entry; the adaptive mesh
    refines until the largest entry error meets the tolerance.  quad_vec does
    not warn when it stops short, so its status is checked here.
    """
    opts = dict(epsrel=1e-12, norm="max", limit=_LAPLACE_LIMIT, full_output=True)
    head, _, h_info = integrate.quad_vec(
        lambda u: 2 * u * np.exp(-lam * u * u) * fn(u * u), 0.0, 1.0, epsabs=1e-12, **opts)
    tail, _, t_info = integrate.quad_vec(
        lambda t: np.exp(-lam * t) * fn(t), 1.0, np.inf, epsabs=1e-13, **opts)
    if h_info.status or t_info.status:
        raise NumericalRefusal(
            f"Laplace quadrature at lambda={lam:g}, {where} did not reach its tolerance "
            f"within {_LAPLACE_LIMIT} subintervals")
    return head + tail


def green_kernel(kernel, t, x, y):
    return kernel.value(t, x, y)


def boundary_normal_derivative(kernel, t, x, b):
    return kernel.normal_derivative(t, x, b)


def resolvent_kernel(kernel, lam, x, y):
    return kernel.resolvent(lam, x, y)


class TabulatedKernel:
    """Externally supplied kernel for the estimate verifiers.

    Operators with drift or variable coefficients have no exact kernel here;
    callers hand in evaluators (tables, interpolants, other codes) and the
    verifier operations treat them like the built-in kernels.  For
    non-identity diffusion matrices the boundary flux must already be the
    conormal one (direction sum_j a_ij n_j).
    """

    def __init__(self, domain, value_fn, grad_fn=None, normal_fn=None):
        self.domain = domain
        self._value = value_fn
        self._grad = grad_fn
        self._normal = normal_fn

    def value(self, t, x, y):
        return np.asarray(self._value(t, x, y), dtype=float)

    def grad_x(self, t, x, y):
        if self._grad is None:
            raise UnsupportedDomainError("tabulated kernel has no gradient table")
        return np.asarray(self._grad(t, x, y), dtype=float)

    def normal_derivative(self, t, x, b):
        if self._normal is None:
            raise UnsupportedDomainError("tabulated kernel has no boundary flux table")
        return np.asarray(self._normal(t, x, b), dtype=float)


def halfline_resolvent_exact(lam, x, y):
    """ODE closed form on the half line: (e^{-sqrt(lam)|x-y|} - e^{-sqrt(lam)(x+y)}) / (2 sqrt(lam))."""
    s = np.sqrt(lam)
    return (np.exp(-s * np.abs(np.asarray(x) - y)) - np.exp(-s * (np.asarray(x) + y))) / (2 * s)


# ---------------------------------------------------------------------------
# estimate certifiers


def difference_bound_report(n_z=200, n_v=200, z_range=(-5.0, 8.0), v_max=10.0):
    """Certify |e^{-z^2} - e^{-(z+v)^2}| <= C (v ^ 1) e^{-z^2/2} on the kernel region.

    The substitution behind the inequality has z = (x1-y1)/(2 sqrt t),
    v = y1/sqrt t with x1, y1 >= 0, so only z >= -v/2 occurs; without that
    restriction the inequality is false (z large negative, v = -z).
    """
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


def verify_kernel_upper_bounds(kernel, c, t_grid=None, levels=3, x_max=None):
    """Suprema of G/(m_t(y) g_ct(x-y)) and |dG/dx| sqrt(t)/(m_t(y) g_ct(x-y)).

    Returns (value_report, gradient_report).  Divergence is a verdict, not an
    error: refinement extends the t-grid downward and doubles the (x, y)
    sampling density, so scales c that are too tight show monotone growth.
    """
    dom = kernel.domain
    if dom.kind == "interval01":
        x_hi = 1.0
    else:
        x_hi = x_max or 6.0
    sup_val, sup_grad = [], []
    for lev in range(levels):
        if t_grid is None:
            ts = np.geomspace(10.0 ** -(2 + lev), 1.0, 8 + 4 * lev)
        else:
            ts = np.asarray(t_grid, float)
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


def gaussian_boundary_mass(domain, t, x, c=1.0, level=None):
    """Surface integral int_{boundary} exp(-|x-y|^2/(c t)) ds(y) by quadrature."""
    if level is None:
        # resolve the Gaussian angular scale sqrt(ct)
        level = int(np.clip(np.ceil(np.log2(64.0 / np.sqrt(c * t))), 6, 13))
    grid = boundary_quadrature(domain, level=level, c=c, t_max=max(t, 1.0))
    pts = np.atleast_2d(np.asarray(x, float))
    d2 = ((pts[:, None, :] - grid.nodes[None, :, :]) ** 2).sum(axis=-1)
    vals = (np.exp(-d2 / (c * t)) * grid.weights[None, :]).sum(axis=1)
    return float(vals[0]) if np.ndim(x) <= 1 else vals


def ball_boundary_mass_exact(d, t, rho, c=1.0):
    """Closed form of the boundary mass on the unit ball for x on a radius.

    d=2: 2 pi i0e(2q/(ct)) e^{-rho^2/(ct)};  d=3: (pi c t / q) e^{-rho^2/(ct)} (1 - e^{-4q/(ct)}),
    with q = 1 - rho the radial position.  Used as the fit backend and as the
    oracle for the quadrature route.
    """
    q = 1.0 - np.asarray(rho, float)
    a = c * t
    if d == 2:
        return 2 * np.pi * special.i0e(2 * q / a) * np.exp(-(1 - q) ** 2 / a)
    if d == 3:
        out = np.pi * a / q * np.exp(-(1 - q) ** 2 / a) * (1 - np.exp(-4 * q / a))
        center = 4 * np.pi * np.exp(-1 / a)     # q -> 0 limit... q=1-rho -> x at center is q=... rho=1
        return np.where(q > 1e-12, out, center)
    raise UnsupportedDomainError("closed forms for d=2,3 only")


def fit_boundary_mass_constant(d, c=1.0, t_range=(1e-3, 1.0), rho_max=0.6, levels=3,
                               n_t=12, n_rho=20):
    """Fit the smallest C1 with I(t,x) <= C1 t^{(d-1)/2} e^{-rho^2/(C1 t)} on a (t,x) grid.

    The existence bound pins no value, so the fit is the oracle: the report
    gives the fitted constant per grid-refinement level and its relative
    spread, which certifies that the fit itself is stable.
    """

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


def singular_moment(domain, alpha, c, t, x_values=None):
    """sup_x int_domain rho(y)^alpha g_{ct}(x-y) dy for alpha in (-1, 0).

    The endpoint singularity is removed by the substitution y = v^{1/(1+alpha)}.
    """
    if not -1.0 < alpha < 0.0:
        raise ValueError("alpha must lie in (-1, 0)")
    if domain.kind not in ("halfline", "interval01"):
        raise UnsupportedDomainError("distance-power moments implemented on 1-d domains")
    s = c * t
    q = 1.0 / (1.0 + alpha)

    if domain.kind == "halfline":
        def integral(x):
            f = lambda v: q ** 0 * _g1(x - v ** q, s) / (1.0 + alpha)
            upper = (x + 10 * np.sqrt(s) + 1.0) ** (1.0 / q)
            return integrate.quad(f, 0.0, upper, epsabs=1e-12, epsrel=1e-10, limit=300)[0]
        if x_values is None:
            x_values = np.concatenate([[0.0], np.sqrt(s) * np.array([0.25, 0.5, 1, 1.5, 2, 3])])
    else:
        def integral(x):
            # split at 1/2; mirror the right half onto the left form
            f1 = lambda v: _g1(x - v ** q, s) / (1.0 + alpha)
            f2 = lambda v: _g1((1.0 - x) - v ** q, s) / (1.0 + alpha)
            ub = 0.5 ** (1.0 / q)
            a = integrate.quad(f1, 0.0, ub, epsabs=1e-12, epsrel=1e-10, limit=300)[0]
            b = integrate.quad(f2, 0.0, ub, epsabs=1e-12, epsrel=1e-10, limit=300)[0]
            return a + b
        if x_values is None:
            base = np.sqrt(s) * np.array([0.25, 0.5, 1, 1.5, 2, 3])
            x_values = np.clip(np.concatenate([[0.0], base, [0.5]]), 0.0, 0.5)
    return max(integral(float(xx)) for xx in np.atleast_1d(x_values))


def fit_singular_moment_exponent(domain, alpha, c=1.0, t_range=(1e-3, 1.0), n_t=9):
    """Log-log slope of the sup-moment against t; the scaling assumption predicts alpha/2."""
    ts = np.geomspace(t_range[0], t_range[1], n_t)
    sups = np.array([singular_moment(domain, alpha, c, t) for t in ts])
    slope = loglog_slope(ts, sups)
    return EstimateReport.from_trace(
        f"singular_moment_exponent_{domain.kind}",
        f"alpha={alpha}, c={c}, t in {t_range}",
        list(sups[::-1]), fitted={"exponent": slope, "target": alpha / 2.0})


# -- far-field weight constants ----------------------------------------------


def far_weight_constants(theta, c=1.0, d=1, y_grid=None, domain_kind="halfline"):
    """A1, A2 and the dominating constant N = 2 int (1+|z|)^theta e^{-|z|^2/c} dz.

    A1 = sup_{y: rho(y)>=1} int_{rho(x)>=1} (rho(x)/rho(y))^theta e^{-|x-y|^2/c} dx,
    A2 = sup_{y: rho(y)<1}  int_{rho(x)>=1} rho(x)^theta e^{-|x-y|^2/c} dx,
    both on the half line (the far set {rho >= 1} is empty on the interval).
    """
    if domain_kind != "halfline":
        raise UnsupportedDomainError("far-field constants computed on the half line")
    if d == 1:
        N = 2 * integrate.quad(lambda z: (1 + abs(z)) ** theta * np.exp(-z * z / c),
                               -np.inf, np.inf, limit=200)[0]
    else:
        area = 2 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)
        N = 2 * area * integrate.quad(lambda r: (1 + r) ** theta * np.exp(-r * r / c) * r ** (d - 1),
                                      0, np.inf, limit=200)[0]
    ys_far = y_grid if y_grid is not None else np.array([1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 9.0, 17.0])
    A1 = 0.0
    for y in ys_far:
        val = integrate.quad(lambda x: (x / y) ** theta * np.exp(-(x - y) ** 2 / c),
                             1.0, np.inf, limit=200)[0]
        A1 = max(A1, val)
    A2 = 0.0
    for y in np.linspace(0.02, 0.999, 25):
        val = integrate.quad(lambda x: x ** theta * np.exp(-(x - y) ** 2 / c),
                             1.0, np.inf, limit=200)[0]
        A2 = max(A2, val)
    rep = EstimateReport.from_trace(
        "far_weight_constants", f"halfline, theta={theta}, c={c}, d={d}",
        [A1 + A2, A1 + A2], fitted={"A1": A1, "A2": A2, "N": N})
    rep.verdict = "bounded" if A1 + A2 <= N * (1 + 1e-12) else "diverging"
    return rep
