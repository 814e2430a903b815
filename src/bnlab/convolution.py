"""Stochastic convolution diagnostics: variance profiles, well-posedness integrals,
Monte Carlo ensembles of the mild solution, and the semilinear fixed-point solver.

The boundary flux of mode k is psi_k(t, x) = -int dG/dn(t,x,y) e_k(y) ds(y);
everything here is built from the per-mode squared flux.  Exact mode evaluates
psi_k from the closed 1-d kernels (interval, half line; the half plane takes
the half-line influx times frequency-cell modes); majorant mode, mandatory on
the ball, replaces the squared-flux sum by the Gaussian surface majorant the
existence proofs bound it with.  Stochastic sums are Ito: left
(independent-forward) Wiener increments with no Stratonovich correction; the
deterministic coefficient is sampled at cell midpoints.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import exp1, gamma, gammaincc

from .geometry import (UnsupportedDomainError, WeightedSpaceParams, _graded_edges_01,
                       distance_to_boundary, gauss_legendre, half_line, halfline_grid,
                       interior_grid, weight)
from .kernels import HeatKernel, NumericalRefusal, ball_boundary_mass_exact
from .noise import NoiseSpec, frequency_cells, substream
from .semigroup import _lp, semigroup_matrix


class ConfigurationError(ValueError):
    """Setup inconsistent with the supported scenario combinations."""


@dataclass
class ConvolutionSetup:
    """Domain + noise + weighted space + (T, alpha)."""

    domain: object
    noise: NoiseSpec
    params: WeightedSpaceParams
    horizon: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.horizon <= 0 or self.alpha < 0:
            raise ConfigurationError("need horizon > 0 and alpha >= 0")

    @property
    def mode(self):
        """The flux route: "majorant" on the unit ball (no exact kernel here), else "exact"."""
        return "majorant" if self.domain.kind == "unitball" else "exact"


# ---------------------------------------------------------------------------
# flux modes
#
# Every flux answers the same four calls: rho(x), the boundary distances of the
# nodes x; sum_sq(u, x), the (nx, nu) squared-flux sum over its modes; psi(u, x),
# the (n_modes, nx, nu) per-mode flux; and variance(t_hi, x, alpha,
# pts_per_octave), the weighted time integral of sum_sq.


class EndpointFlux:
    """Unit-atom boundary modes on the interval or half line.

    n_atoms from the noise spec may switch off modes (zero boundary noise).
    Nodes are 1-d coordinates, and the time integral is closed form.
    """

    exact_in_time = True

    def __init__(self, domain, n_atoms=None):
        self.domain = domain
        self.kernel = HeatKernel(domain)
        full = [0.0, 1.0] if domain.kind == "interval01" else [0.0]
        self.boundary = full if n_atoms is None else full[:max(0, int(n_atoms))]

    @property
    def n_modes(self):
        return len(self.boundary)

    def psi(self, u, x):
        """(n_modes, nx, nu) flux array over times u and interior nodes x."""
        u = np.atleast_1d(np.asarray(u, float))
        x = np.atleast_1d(np.asarray(x, float))
        out = np.empty((self.n_modes, x.size, u.size))
        for k, b in enumerate(self.boundary):
            out[k] = -self.kernel.normal_derivative(u, x, b)
        return out

    def sum_sq(self, u, x):
        p = self.psi(u, x)
        return np.sum(p * p, axis=0)

    def rho(self, x):
        return distance_to_boundary(self.domain, np.asarray(x).reshape(-1, 1))

    def variance(self, t_hi, x, alpha=0.0, pts_per_octave=8):
        """Exact int_0^t_hi s^{-alpha} sum_b psi_b(s, x)^2 ds at interior nodes x.

        pts_per_octave is unused: there is no time quadrature to refine.

        psi_b(s, x) = +-sum_m a_m (4 pi)^{-1/2} s^{-3/2} e^{-a_m^2/(4s)} with image
        distances a_m = x - b + 2m (m = 0 alone on the half line), so each image
        pair integrates to an upper incomplete gamma function (DLMF 8.2):
        (4 pi)^{-1} Gamma(2+alpha) a_m a_n c^{-(2+alpha)} Q(2+alpha, c/t_hi) with
        c = (a_m^2 + a_n^2)/4.  On the interval the images stop at s = 1 and the
        sine modes of the same flux carry s > 1 (see `_sine_pairs`), so the cost
        does not grow with t_hi and t_hi = inf is allowed on both domains.
        """
        x = np.atleast_1d(np.asarray(x, float))
        interval = self.domain.kind == "interval01"
        t_img = min(t_hi, _SINE_FROM) if interval else t_hi
        total = np.zeros_like(x)
        for b in self.boundary:
            total += _image_pairs(x - b, t_img, 2.0 + alpha, shells=interval)
            if interval and t_hi > _SINE_FROM:
                total += _sine_pairs(x, b, _SINE_FROM, t_hi, alpha)
        return total


# the interval flux integrates over images up to s = 1, where a few shells
# converge, and over sine modes beyond, where images would need O(sqrt(s)) shells
_SINE_FROM = 1.0


def _image_pairs(a0, t_hi, order, shells):
    """(4 pi)^{-1} Gamma(order) sum_{m,n} a_m a_n c^{-order} Q(order, c/t_hi), a_m = a0 + 2m.

    Without shells only m = n = 0 (the half line).  Shells max(|m|, |n|) = K
    are added until a whole shell lies below 1e-17 of the m = n = 0 term at
    every node; pairs run over m <= n.  A shell is one (pair, node) array and
    one gammaincc call; its rows are added to the total one at a time in the
    pair order (m, K) for m = -K..K, then (-K, n) for n = -K..K-1, each
    weighted 1 on the diagonal and 2 off it.  That is the per-pair loop's
    arithmetic bit for bit, and memory is one shell of the nodes.
    """
    def pairs(m, n):
        am, an = a0 + 2 * m[:, None], a0 + 2 * n[:, None]
        c = 0.25 * (am * am + an * an)
        return am * an * c ** -order * gammaincc(order, c / t_hi)

    lead = pairs(np.zeros(1, int), np.zeros(1, int))[0]
    total = lead.copy()
    shell, small = 0, not shells
    while not small:
        shell += 1
        # m <= n with max(|m|, |n|) = shell: n = shell, or m = -shell
        ks = np.arange(-shell, shell + 1)
        m = np.concatenate([ks, np.full(2 * shell, -shell)])
        n = np.concatenate([np.full(2 * shell + 1, shell), ks[:-1]])
        terms = pairs(m, n) * np.where(m == n, 1.0, 2.0)[:, None]
        for term in terms:
            total += term
        small = bool(np.all(np.abs(terms) <= 1e-17 * lead))
    return total * (gamma(order) / (4.0 * np.pi))


def _upper_gamma(a, z):
    """Gamma(a, z) for real a and z > 0 (DLMF 8.2.2); a <= 0 recurs down from
    a + k in [0, 1) by Gamma(a, z) = (Gamma(a+1, z) - z^a e^{-z}) / a (DLMF 8.8.2)."""
    steps = int(np.ceil(-a)) if a <= 0 else 0
    top = a + steps
    out = exp1(z) if top == 0 else gamma(top) * gammaincc(top, z)
    for s in top - 1 - np.arange(steps):
        out = (out - z ** s * np.exp(-z)) / s
    return out


def _sine_pairs(x, b, t_lo, t_hi, alpha):
    """int_{t_lo}^{t_hi} s^{-alpha} psi_b(s, x)^2 ds from the sine series of the flux.

    psi_b = +-sum_k A_k e^{-k^2 pi^2 s} with A_k = 2 k pi sin(k pi x) (+-1)^k, so
    each mode pair integrates to lam^{alpha-1} (Gamma(1-alpha, lam t_lo) -
    Gamma(1-alpha, lam t_hi)), lam = (k^2 + j^2) pi^2.  Modes k = 1..6 are kept:
    from t_lo = 1 the first mode left out weighs e^{-50 pi^2} against them.
    """
    k = np.arange(1, 7)
    amp = 2 * np.pi * k * np.sin(np.pi * np.outer(x, k)) * ((-1.0) ** k if b else 1.0)
    lam = np.pi ** 2 * (k[:, None] ** 2 + k[None, :] ** 2)
    w = lam ** (alpha - 1.0) * (_upper_gamma(1.0 - alpha, lam * t_lo)
                                - _upper_gamma(1.0 - alpha, lam * t_hi))
    return np.einsum("ik,kj,ij->i", amp, w, amp)


class _TimeQuadrature:
    """The log-panel time quadrature of the fluxes without a closed form in time.

    Their nodes are boundary distances (1-d) or points of the domain (2-d).
    """

    exact_in_time = False

    def rho(self, x):
        x = np.asarray(x, float)
        return np.atleast_1d(x) if x.ndim <= 1 else distance_to_boundary(self.domain, x)

    def variance(self, t_hi, x, alpha=0.0, pts_per_octave=8):
        return _quadrature_variance(self, t_hi, x, alpha, pts_per_octave)


class HomogeneousFlux(_TimeQuadrature):
    """Spatially homogeneous boundary noise on the half space {x0 > 0} x R^m, m = 1.

    The exact squared-flux sum over a complete basis collapses by Parseval to
    (x0/t)^2 g_{2t}(x0)^2 * int e^{-2t z^2} d mu(z), a profile in x0.  The modes
    that simulations draw are cosine/sine pairs per frequency cell (`psi`); an
    atom of the measure is a one-node cell, so its pair is an exact mode.  A
    truncated flux sums those modes instead, at points (x0, x1).
    """

    def __init__(self, domain, spec, truncated=False):
        if domain.kind != "halfspace" or domain.dim != 2:
            raise ConfigurationError("homogeneous flux implemented for the half plane (m = 1)")
        self.domain = domain
        # the normal factor (x0/t) g_{2t}(x0) of the flux is the half-line influx
        self.normal = HeatKernel(half_line())
        self.spec = spec
        self.measure = spec.measure
        self.truncated = truncated
        self.cells = frequency_cells(spec.measure, spec.z_max, spec.n_cells)

    @property
    def n_modes(self):
        return 2 * self.cells.n_cells

    def psi(self, u, xy):
        """(n_modes, nx, nu) flux array: the cosine and sine mode of each cell in turn."""
        u = np.atleast_1d(np.asarray(u, float))
        out = np.empty((self.n_modes, np.atleast_2d(xy).shape[0], u.size))
        for kc, (cos_mode, sin_mode) in enumerate(self._cell_modes(u, xy)):
            out[2 * kc], out[2 * kc + 1] = cos_mode, sin_mode
        return out

    def _cell_modes(self, u, xy, sines=True):
        # the (cosine, sine) mode pair of each cell in cell order, (nx, nu) each:
        # sqrt(2/m_k) * amp * (trig(outer(x1, z_k)) @ damp_k), with the cos and
        # sin of every cell's phases formed once, rounded as per cell; with
        # sines=False, the cosine mode alone
        pts = np.atleast_2d(np.asarray(xy, float))
        x0, x1 = pts[:, 0], pts[:, 1]
        amp = -self.normal.normal_derivative(u, x0, 0.0)     # (nx, nu)
        phase = x1[None, :, None] * self.cells.nodes[:, None, :]     # (cell, nx, q)
        trig = (np.cos(phase), np.sin(phase)) if sines else (np.cos(phase),)
        for kc in range(self.cells.n_cells):
            z = self.cells.nodes[kc]                        # (q,)
            w = self.cells.weights[kc]
            damp = np.exp(-u[None, :] * z[:, None] ** 2) * w[:, None]    # (q, nu)
            scaled = np.sqrt(2.0 / self.cells.masses[kc]) * amp
            yield tuple(scaled * (f[kc] @ damp) for f in trig)

    def sum_sq(self, u, x):
        """(nx, nu) squared-flux sum: the Parseval profile, or the truncated modes.

        The truncated sum adds the squares in mode order (cosine then sine of
        each cell), the sequential sum np.sum(psi * psi, axis=0) makes, bit for
        bit, without forming the (mode, node, time) array.  Where every point
        has x1 = 0, each sine mode is sin(0) = 0 times its amplitude, whose
        square adds an exact zero, so only the cosines are formed.
        """
        u = np.atleast_1d(np.asarray(u, float))
        if self.truncated:
            pts = np.atleast_2d(np.asarray(x, float))
            total = np.zeros((pts.shape[0], u.size))
            for modes in self._cell_modes(u, pts, sines=bool(np.any(pts[:, 1]))):
                for p in modes:
                    total += p * p
            return total
        return self.normal.normal_derivative(u, self.rho(x), 0.0) ** 2 \
            * self.measure.gauss_transform(2 * u)[None, :]


# the Gaussian time scale c and the amplitude C of the majorant's pointwise flux bound
_MAJORANT_C = 4.0
_MAJORANT_BIG_C = 1.0


class MajorantFlux(_TimeQuadrature):
    """Squared-flux surrogate on the unit ball, which has no exact kernel here.

    White noise (complete basis): Parseval then the pointwise Gaussian bound,
    sum psi_k^2 <= (C^2/t) int g_ct(x-y)^2 ds(y).  Sup-summable series with
    A = sum_k sup e_k^2: sum psi_k^2 <= (C^2/t) A (int g_ct(x-y) ds(y))^2.
    Both reduce to the radial boundary-mass profile on the ball.
    """

    def __init__(self, domain, spec):
        if domain.kind != "unitball":
            raise ConfigurationError("majorant flux implemented on the unit ball")
        self.domain = domain
        self.spec = spec
        if spec.kind == "circle_white":
            if domain.dim != 2:
                raise ConfigurationError("circle white noise lives on the 2-d ball")
            self.white = True
            self.A = None
        elif spec.kind == "finite_series":
            self.white = False
            self.A = float(np.sum(np.asarray(spec.sup_norms) ** 2))
        else:
            raise ConfigurationError("majorant flux needs circle white noise or a finite series")

    def sum_sq(self, u, x):
        """Profile in the boundary distance rho (rotation invariance of the bound)."""
        u = np.atleast_1d(np.asarray(u, float))
        rho = self.rho(x)[:, None]
        d = self.domain.dim
        if self.white:
            # g_ct^2 = (2 pi c t)^{-d} exp(-|z|^2/(ct)); surface integral of the
            # half-scale Gaussian is the boundary-mass profile at scale c/2
            mass = ball_boundary_mass_exact(d, u, rho, _MAJORANT_C / 2.0)
            return (_MAJORANT_BIG_C ** 2 / u) * (2 * np.pi * _MAJORANT_C * u) ** (-d) * mass
        mass = ball_boundary_mass_exact(d, u, rho, 2.0 * _MAJORANT_C)
        return (_MAJORANT_BIG_C ** 2 / u) * self.A \
            * ((2 * np.pi * _MAJORANT_C * u) ** (-d / 2.0) * mass) ** 2


def flux_for(setup, truncated=False):
    """The setup's flux; `truncated` makes a homogeneous flux sum the modes it draws."""
    if setup.mode == "majorant":
        return MajorantFlux(setup.domain, setup.noise)
    if setup.noise.kind == "endpoints":
        return EndpointFlux(setup.domain, n_atoms=setup.noise.n_atoms)
    if setup.noise.kind == "homogeneous":
        return HomogeneousFlux(setup.domain, setup.noise, truncated=truncated)
    raise ConfigurationError(f"no exact flux for noise kind {setup.noise.kind}")


# ---------------------------------------------------------------------------
# time quadrature of squared fluxes


def log_time_panels(s_floor, t_hi, pts_per_octave=8):
    """Gauss-Legendre nodes/weights for int_{s_floor}^{t_hi} f(s) ds on a log axis.

    One octave per panel, the first cut at s_floor.  The (panel, point) nodes
    come from one broadcast expression and one exp, and the weights reuse that
    exp: each entry is rounded as in a loop over the panels, bit for bit.
    """
    if not 0 < s_floor < t_hi:
        raise ValueError("need 0 < s_floor < t_hi")
    n_oct = int(np.ceil(np.log2(t_hi / s_floor)))
    gx, gw = gauss_legendre(pts_per_octave)
    v_edges = np.log(t_hi) - np.log(2.0) * np.arange(n_oct + 1)[::-1]
    v_edges[0] = np.log(s_floor)
    a, b = v_edges[:-1, None], v_edges[1:, None]
    half = 0.5 * (b - a)
    nodes = np.exp(half * gx + 0.5 * (a + b))
    return nodes.ravel(), (half * gw * nodes).ravel()


def variance_profile(flux, t_hi, x, alpha=0.0, pts_per_octave=8):
    """sigma_alpha^2(x) = int_0^{t_hi} s^{-alpha} sum_k psi_k(s,x)^2 ds, vectorized in x.

    Endpoint fluxes return their closed form, exact in time, so pts_per_octave
    acts on the homogeneous and majorant fluxes only, which take the log-panel
    quadrature (`_quadrature_variance`).
    """
    return flux.variance(t_hi, x, alpha, pts_per_octave)


# the squared flux at boundary distance rho carries e^{-rho^2/(2s)}, which is
# e^{-40} at the quadrature floor s = rho^2/80
_FLOOR_SCALE = 80.0


def _quadrature_variance(flux, t_hi, x, alpha=0.0, pts_per_octave=8):
    """Log-panel Gauss-Legendre quadrature of the squared flux sum in time.

    The quadrature floor is set from the smallest boundary distance among the
    nodes.  Against the endpoint closed form it holds 1e-10 relative where
    rho^2/(2 t_hi) <= 8, and loses accuracy beyond, where the panels
    under-resolve the cutoff.
    """
    s, w = _time_panels(flux, t_hi, x, pts_per_octave)
    integ = flux.sum_sq(s, x) * (s ** (-alpha) * w)[None, :]
    return integ.sum(axis=1)


def _time_panels(flux, t_hi, x, pts_per_octave):
    # the time nodes and weights of a call on the nodes x: the floor comes from
    # their smallest boundary distance, so each node set has its own
    rho_min = max(float(np.min(flux.rho(x))), 1e-30)
    s_floor = min(rho_min ** 2 / _FLOOR_SCALE, t_hi / 4.0)
    if not s_floor > t_hi * 2.0 ** -1000:       # also a floor that underflows to 0
        raise NumericalRefusal(f"horizon {t_hi:.3g} spans too many octaves for time panels")
    return log_time_panels(s_floor, t_hi, pts_per_octave)


def _level_profiles(flux, t_hi, xs, alpha, pts_per_octave):
    """variance_profile on each node set of xs, from one evaluation on their union.

    t_hi is one horizon for all sets, or one per set.  Each set gets the
    values of its own variance_profile call, bit for bit.  The closed form of
    an endpoint flux is entrywise in the nodes, so it is evaluated once per
    horizon on the union of the nodes.  The time quadrature is not: its floor
    comes from a set's smallest node and its horizon, so each set keeps its
    own time nodes.  The squared flux, entrywise in node and time, is
    evaluated once on the union of the nodes (rows, for 2-d points) and the
    union of the time nodes, and each set sums its own rows and columns in
    its own order.
    """
    horizons = np.broadcast_to(t_hi, len(xs)).tolist()
    nodes, inverse = np.unique(np.concatenate(xs), return_inverse=True,
                               axis=0 if xs[0].ndim == 2 else None)
    rows = np.split(inverse, np.cumsum([len(x) for x in xs])[:-1])
    if flux.exact_in_time:
        profs = {t: variance_profile(flux, t, nodes, alpha=alpha) for t in set(horizons)}
        return [profs[t][r] for t, r in zip(horizons, rows)]
    panels = [_time_panels(flux, t, x, pts_per_octave) for t, x in zip(horizons, xs)]
    times, inverse = np.unique(np.concatenate([s for s, _ in panels]), return_inverse=True)
    cols = np.split(inverse, np.cumsum([s.size for s, _ in panels])[:-1])
    sq = flux.sum_sq(times, nodes)
    # take keeps each block C-ordered, as a fresh sum_sq result is, so the row
    # sums run in the same order (a[r][:, c] is F-ordered and sums otherwise)
    return [(sq[r].take(c, axis=1) * (s ** (-alpha) * w)[None, :]).sum(axis=1)
            for r, c, (s, w) in zip(rows, cols, panels)]


# ---------------------------------------------------------------------------
# the well-posedness integral


@dataclass
class JReport:
    """Refinement trace and verdict of the weighted space-time flux integral."""

    setup_desc: str
    j_values: list
    verdict: str
    reason: str = ""
    predicted: str = ""
    agreement: bool = None
    checks: dict = field(default_factory=dict)

    def to_text(self):
        lines = [f"setup: {self.setup_desc}",
                 "j_per_level: " + " ".join(f"{v:.10g}" for v in self.j_values),
                 f"verdict: {self.verdict}"]
        if self.reason:
            lines.append(f"reason: {self.reason}")
        if self.predicted:
            lines.append(f"predicted: {self.predicted}  agreement: {self.agreement}")
        for k in sorted(self.checks):
            lines.append(f"check {k}: {self.checks[k]}")
        return "\n".join(lines) + "\n"


def _j_verdict(js):
    js = [float(v) for v in js]
    if abs(js[-1] - js[-2]) <= 0.01 * abs(js[-1]):
        return "finite"
    increasing = all(b > a for a, b in zip(js[:-1], js[1:]))
    if increasing and js[-1] > 2.0 * js[0]:
        return "divergent"
    return "inconclusive"


def _tangential_weight(theta, delta, x0):
    """Tangential integral of the half-space weight in the product reduction.

    The half-space propositions integrate min(x0,1)^theta x0-powers against
    (1 + x0^2 + |s|^2)^(-delta) in the tangential directions; closed form
    int (a^2+s^2)^(-delta) ds = a^(1-2 delta) sqrt(pi) Gamma(delta-1/2)/Gamma(delta).
    (With the raw min-form weight the tangential crossover would shift every
    threshold by the factor 2 delta/(2 delta - 1); the catalogued intervals
    are the product-form ones.)
    """
    if delta <= 0.5:
        raise ConfigurationError("half-space scenarios need delta > 1/2")
    x0 = np.atleast_1d(np.asarray(x0, float))
    const = np.sqrt(np.pi) * gamma(delta - 0.5) / gamma(delta)
    return np.minimum(x0, 1.0) ** theta * (1.0 + x0 ** 2) ** (0.5 - delta) * const


def _gap_ratio(gap, scale):
    """gap / scale: 0 where the gap is 0 (0/0 included), +-inf where only the scale is."""
    with np.errstate(divide="ignore"):
        return np.divide(gap, scale, out=np.zeros_like(gap), where=gap != 0)


# Gauss-Legendre points per octave of the J time quadrature; the time-refinement
# check doubles them
_J_PTS_PER_OCTAVE = 8


def j_integral(setup, levels=(10, 14, 18, 22, 26), prediction=None):
    """The weighted space-time integral of the squared flux sum, with verdict.

    Refinement runs over boundary-grading levels of the outer space grid,
    whose nested grids share one profile evaluation (`_j_levels`).  The
    report also records stability under time-quadrature doubling (`exact` for
    endpoint fluxes, whose time integral is closed form), a separate call at
    the finest level, and under mode-truncation doubling.  A finite integral
    only certifies well-posedness when the state space itself is admissible
    (theta < 2p-1), so inadmissible theta reports the divergent verdict with
    the reason attached.  The prediction reads both theta and delta.
    """
    if len(levels) < 2:
        raise ValueError("the J verdict compares the last two levels; give at least 2")
    flux = flux_for(setup)
    p, theta, delta = setup.params.p, setup.params.theta, setup.params.delta
    js = _j_levels(setup, flux, levels)
    checks = {}
    if flux.exact_in_time:
        checks["time_refinement_rel_change"] = "exact"
    else:
        fine = _j_grid(setup, levels[-1])
        prof = variance_profile(flux, setup.horizon, fine[0], alpha=setup.alpha,
                                pts_per_octave=2 * _J_PTS_PER_OCTAVE)
        checks["time_refinement_rel_change"] = abs(_j_sum(setup, fine, prof) - js[-1]) \
            / abs(js[-1]) if js[-1] > 0 else 0.0
    if setup.noise.kind == "homogeneous" and setup.noise.measure.kind != "atoms":
        # the J verdict uses the complete-basis sum; the declared truncation is
        # what simulations consume, so certify its K-stability at simulation
        # probes (a frequency cutoff can never resolve the x0 < 1/z_max layer,
        # where the complete route remains authoritative)
        wider = NoiseSpec("homogeneous", measure=setup.noise.measure,
                          z_max=2 * setup.noise.z_max, n_cells=2 * setup.noise.n_cells)
        fluxes = [HomogeneousFlux(setup.domain, spec, truncated=True)
                  for spec in (setup.noise, wider)]
        probes = np.array([[x0, 0.0] for x0 in (0.2, 0.5, 1.0)])
        # each flux once, over the union of the time nodes of the three horizons
        horizons = (setup.horizon / 8, setup.horizon / 2, setup.horizon)
        profs_k, profs_2k = (_level_profiles(f, horizons, [probes] * 3, setup.alpha,
                                             _J_PTS_PER_OCTAVE) for f in fluxes)
        rel = 0.0
        for vk, v2k in zip(profs_k, profs_2k):
            rel = max(rel, float(np.max(_gap_ratio(np.abs(v2k - vk), v2k))))
        checks["probe_variance_mode_doubling_rel_change"] = rel
    verdict = _j_verdict(js)
    if verdict == "finite" and any(v > 0.01 for v in checks.values() if not isinstance(v, str)):
        verdict = "inconclusive"
    reason = ""
    if not setup.params.extension_ok:
        verdict = "divergent"
        reason = "semigroup extension fails (theta >= 2p-1)"
    rep = JReport(
        f"{setup.domain.kind}/{setup.noise.kind} p={p} theta={theta} delta={delta} "
        f"T={setup.horizon} alpha={setup.alpha} mode={setup.mode}",
        js, verdict, reason=reason, checks=checks)
    if prediction is not None:
        rep.predicted = "finite" if prediction.admits(theta, delta) else "divergent"
        rep.agreement = rep.predicted == rep.verdict
    return rep


def _j_levels(setup, flux, levels):
    """J at each grading level, bit for bit as one profile call per level.

    The graded grids of the levels are nested apart from their innermost
    panel, so the profile is evaluated once for all of them
    (`_level_profiles`); each level keeps its own product order.
    """
    grids = [_j_grid(setup, lev) for lev in levels]
    profs = _level_profiles(flux, setup.horizon, [x for x, _, _ in grids], setup.alpha,
                            _J_PTS_PER_OCTAVE)
    return [_j_sum(setup, grid, prof) for grid, prof in zip(grids, profs)]


def _j_sum(setup, grid, prof):
    # scale * sum(prof^(p/2) * factor_1 * factor_2 ...), the factors in their
    # order; a sum that is not finite (an overflow at a large p) is refused
    _, factors, scale = grid
    with np.errstate(over="ignore"):
        v = prof ** (setup.params.p / 2.0)
        for f in factors:
            v = v * f
        j = float(scale * np.sum(v))
    if not np.isfinite(j):
        raise NumericalRefusal(f"J is not finite at p = {setup.params.p}: {j}")
    return j


def _j_grid(setup, level):
    """(nodes, weight factors, scale) of the level-th J grid.

    J = scale * sum(profile(nodes)^(p/2) * factor_1 * factor_2 ...), the
    factors multiplied in the order given.
    """
    dom, params = setup.domain, setup.params
    if dom.kind == "unitball":
        # rotation invariance: J = |S^{d-1}| int_0^1 prof(1 - r)^(p/2) (1 - r)^theta
        # r^(d-1) dr on a radial grid graded toward r = 1; delta plays no role
        d = dom.dim
        redges = 1.0 - _graded_edges_01(level, 6)[::-1]
        rc = 0.5 * (redges[:-1] + redges[1:])
        rho = 1.0 - rc
        area = 2 * np.pi if d == 2 else 4 * np.pi
        return rho, (rho ** params.theta, rc ** (d - 1), np.diff(redges)), area
    cutoff = max(4.0, np.sqrt(2 * 2 * setup.horizon * np.log(1e16)))
    if dom.kind in ("interval01", "halfline"):      # the interval grid ignores the cutoff
        grid = interior_grid(dom, graded=True, level=level, per_panel=6, cutoff=cutoff)
        return grid.x, (weight(dom, grid.nodes, params), grid.weights), 1.0
    if dom.kind == "halfspace":
        g1 = halfline_grid(level=level, per_panel=6, cutoff=cutoff)
        return g1.x, (_tangential_weight(params.theta, params.delta, g1.x), g1.weights), 1.0
    raise UnsupportedDomainError(dom.kind)


# ---------------------------------------------------------------------------
# Monte Carlo simulation (one-shot convolution at probe points)


@dataclass
class PathEnsemble:
    """Sampled paths: values[path, probe] or values[path, time, node]."""

    values: np.ndarray
    meta: dict


def _step_schedule(t_max, probe_times, base_steps, rho_min):
    """Uniform backbone with geometric ladders toward s = 0 and every probe time.

    The squared flux concentrates toward u = t - s -> 0 near the boundary and
    has an exponential layer at s -> 0 when the probe sits far from it; both
    ends are graded, ten steps per octave.  The ladder is one run of repeated
    multiplication; the backbone, the ladder, its (time, step) shifts t_i - u
    and the times are merged by np.unique, and gaps up to 1e-15 are dropped.
    """
    d0 = t_max / base_steps
    ladder, u = [], min(rho_min ** 2 / _FLOOR_SCALE, d0 / 4.0)
    while u < 2 * d0:           # one ladder of steps u serves s = u and s = t_i - u
        ladder.append(u)
        u *= 2.0 ** (1.0 / 10)
    ladder = np.array(ladder)
    times = np.asarray(probe_times, float)
    shifted = times[:, None] - ladder
    edges = np.concatenate([np.linspace(0.0, t_max, base_steps + 1), ladder,
                            shifted[ladder < times[:, None]], times])
    edges = np.unique(edges[(edges >= 0.0) & (edges <= t_max)])
    keep = np.concatenate([[True], np.diff(edges) > 1e-15])
    return edges[keep]


def _coefficient_tensor(flux, probe_t, xs, edges):
    """Ito coefficients (mode, probe, step): psi_k(t_i - s_mid, x_i) sqrt(ds) for s < t_i.

    Probes sharing a time share u = t - s, so one flux call covers them all.
    The cell next to a probe time takes its midpoint like every other cell:
    the schedule puts an edge at t_i - u0, u0 <= rho_min^2/80, so the squared
    flux there carries e^{-rho^2/(2u)} <= e^{-40}.

    Returns the tensor and the number of time nodes the flux calls took.
    """
    smid = 0.5 * (edges[:-1] + edges[1:])
    ds = np.diff(edges)
    coeff = np.zeros((flux.n_modes, len(probe_t), len(smid)))
    n_nodes = 0
    for ti in np.unique(probe_t):
        rows = np.flatnonzero(probe_t == ti)
        n_live = int(np.count_nonzero(smid < ti))       # a prefix: smid increases
        # with many modes pv is the largest transient here: work in place and
        # free it before the next call, so peak memory stays that of the draws
        pv = flux.psi(ti - smid[:n_live], xs[rows])
        n_nodes += n_live
        pv *= np.sqrt(ds[:n_live])
        coeff[:, rows, :n_live] = pv
        del pv
    return coeff, n_nodes


def _gaussian_factor(coeff):
    """F = C^{1/2} D^{1/2}, so F^T F = Sigma = sum_k C_k C_k^T over the modes C_k of coeff.

    D = diag Sigma, C = D^{-1/2} Sigma D^{-1/2}, and C^{1/2} is the symmetric root
    from `eigh` with negative eigenvalues clipped.  It is Hoelder-1/2 in Sigma, so
    round-off in coeff cannot redraw the paths, and D keeps small variances to
    relative round-off.  One row per probe of positive variance.
    """
    sigma = np.zeros((coeff.shape[1],) * 2)
    for c in coeff:                     # mode by mode: no copy of the tensor
        sigma += c @ c.T
    sd = np.sqrt(np.diag(sigma))
    live = sd > 0
    w, v = np.linalg.eigh(sigma[np.ix_(live, live)] / np.outer(sd[live], sd[live]))
    factor = np.zeros((len(w), len(sd)))
    factor[:, live] = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T * sd[live]
    return factor


# paths per draw block, which is also the sub-block of the probe statistics;
# draws are path-major, so the block size bounds memory without entering the
# bitstream
_BLOCK_PATHS = 4096


def _draw_plan(setup, probes, base_steps):
    """Flux, probe points and times, the factor F of a probe set and the plan's counts."""
    if setup.mode != "exact":
        raise ConfigurationError("simulation requires exact mode")
    flux = flux_for(setup, truncated=True)
    times = sorted({float(t) for t, _ in probes})
    pts = [p for _, p in probes]
    dom1d = setup.domain.dim == 1
    xs = np.array([float(p) for p in pts]) if dom1d else np.atleast_2d(np.asarray(pts, float))
    rho = distance_to_boundary(setup.domain, xs.reshape(-1, 1) if dom1d else xs)
    rho_min = float(np.min(rho))
    if not rho_min ** 2 / _FLOOR_SCALE > 0:     # the step ladder would start at u = 0
        raise NumericalRefusal(f"probe at boundary distance {rho_min:.3g}: no step schedule "
                               "resolves a probe on the boundary")
    t_max = max(times)
    step = t_max / base_steps if base_steps else np.inf
    if base_steps < 64 or step > min(times) / 4.0:
        raise NumericalRefusal(
            f"base step {step:.3g} too coarse for probe times down to "
            f"{min(times):.3g}; need base_steps >= 64 and step <= t_min/4")
    if step <= 1e-13:           # the schedule merges edges 1e-15 apart
        raise NumericalRefusal(f"base step {step:.3g} below 1e-13")
    edges = _step_schedule(t_max, times, base_steps, rho_min)
    probe_t = np.array([float(t) for t, _ in probes])
    coeff, n_nodes = _coefficient_tensor(flux, probe_t, xs, edges)
    counts = {"n_steps": len(edges) - 1, "flux_time_nodes": n_nodes}
    return flux, xs, probe_t, _gaussian_factor(coeff), counts


def _draws(factor, n_paths, root_seed, law="gaussian"):
    """The one draw loop: path-major blocks of xi from the substream (root_seed, 0).

    Student-t entries have df = 5, scaled to unit variance.
    """
    df = 5.0
    width = factor.shape[0]
    gen = substream(root_seed, 0)
    for start in range(0, n_paths, _BLOCK_PATHS):
        m = min(_BLOCK_PATHS, n_paths - start)
        if law == "gaussian":
            yield gen.normal(size=(m, width))
        else:
            xi = gen.standard_t(df, size=(m, width))
            xi *= np.sqrt((df - 2.0) / df)
            yield xi


def _paths_into(out, xi, factor):
    """out = xi @ factor, each row rounded as in a product of two or more rows.

    numpy sends a one-row product to BLAS gemv, which sums in another order
    than gemm; a lone row goes through a two-row product instead.
    """
    if len(xi) == 1:
        out[:] = (np.concatenate([xi, xi]) @ factor)[:1]
    else:
        np.matmul(xi, factor, out=out)


def _block_moments(X):
    """(count, mean, M2, M3, M4) of the rows of X, M_k the centred power sums.

    numpy's own mean and centring; the powers are products (d^4 = d^2 d^2), as
    libm pow costs tens of ns per element.
    """
    mean = X.mean(axis=0)
    d = X - mean
    d2 = d * d
    m2 = d2.sum(axis=0)
    d *= d2
    m3 = d.sum(axis=0)
    d2 *= d2
    return len(X), mean, m2, m3, d2.sum(axis=0)


def _merge_moments(a, b):
    """Moments of the union of two disjoint path sets; `a` None is the empty set.

    Pairwise updates of Chan, Golub & LeVeque (1979) for M2 and Pebay (2008)
    for M3 and M4; M3 is carried because the M4 update needs it.
    """
    if a is None:
        return b
    na, ma, m2a, m3a, m4a = a
    nb, mb, m2b, m3b, m4b = b
    n = na + nb
    delta = mb - ma
    dn = delta / n
    dn2 = dn * dn
    cross = delta * dn * na * nb                 # na nb delta^2 / n
    m4 = (m4a + m4b + cross * dn2 * (na * na - na * nb + nb * nb)
          + 6.0 * dn2 * (na * na * m2b + nb * nb * m2a) + 4.0 * dn * (na * m3b - nb * m3a))
    m3 = m3a + m3b + cross * dn * (na - nb) + 3.0 * dn * (na * m2b - nb * m2a)
    return n, ma + nb * dn, m2a + m2b + cross, m3, m4


def _convolution_paths(setup, probes, n_paths, base_steps=512, root_seed=2024):
    """The Gaussian paths of `simulate_convolution` (paths x probes) and its draw
    counts, without probe statistics or the isometry oracle."""
    _, _, _, factor, counts = _draw_plan(setup, probes, base_steps)
    M = np.empty((n_paths, len(probes)))
    start = 0
    for xi in _draws(factor, n_paths, root_seed):
        _paths_into(M[start:start + len(xi)], xi, factor)
        start += len(xi)
    return M, {**counts, "normals_drawn": factor.shape[0] * n_paths}


def simulate_convolution(setup, probes, n_paths=10000, base_steps=512, root_seed=2024,
                         return_paths=False, law="gaussian"):
    """One-shot ensemble of M(t, x) at (t, x) probe pairs.

    Gaussian by default; the Ito sums use the global step schedule with
    geometric refinement toward every probe time.  Returns probe statistics
    plus the quadrature variance at each probe (the isometry oracle); `meta`
    holds the largest relative gap between it and the Ito sums' variance,
    `max_isometry_bias`, a deterministic bias of the step schedule.
    law "student_t" is the heavy-tailed negative control for tail diagnostics.

    Both laws draw one variate per probe, whatever the mode count: a path is
    xi @ F, xi from the one substream (root_seed, 0) and F the scaled square
    root of the Ito sums' probe covariance (see `_gaussian_factor`).  xi is
    N(0, I), or has i.i.d. variance-matched standard_t(5) entries: the same
    covariance, with innovations in the probe basis rather than per step and
    mode.  The substream advances path by path, so the values do not depend
    on the draw block size.

    The statistics are folded in path order over the draw blocks of
    `_BLOCK_PATHS` paths: numpy's mean and centred sums per block, merged
    pairwise (`_merge_moments`).  A run of at most one block gives numpy's
    mean and variance bit for bit.  The paths array exists only with
    `return_paths`; otherwise memory is one draw block, whatever `n_paths`.
    """
    if law not in ("gaussian", "student_t"):
        raise ValueError(f"unknown law {law!r}; expected 'gaussian' or 'student_t'")
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2 for sample variances, got {n_paths}")
    flux, xs, probe_t, factor, counts = _draw_plan(setup, probes, base_steps)
    width, n_probes = factor.shape[0], len(probes)
    # with paths kept, each block is a view of M; without, M is one block reused
    M = np.empty((n_paths if return_paths else min(n_paths, _BLOCK_PATHS), n_probes))
    moments, start = None, 0
    for xi in _draws(factor, n_paths, root_seed, law):
        block = M[start:start + len(xi)] if return_paths else M[:len(xi)]
        # row i of xi @ factor is path i's sum; coeff already carries sqrt(ds)
        _paths_into(block, xi, factor)
        moments = _merge_moments(moments, _block_moments(block))
        start += len(xi)
    # the isometry oracle: one evaluation over the probe sets of the distinct
    # times, each set with the values of its own variance_profile call
    times = np.unique(probe_t)
    rows = [np.flatnonzero(probe_t == ti) for ti in times]
    var_oracle = np.empty(n_probes)
    for r, v in zip(rows, _level_profiles(flux, times, [xs[r] for r in rows], 0.0, 12)):
        var_oracle[r] = v
    # the Ito sums' own variance against the oracle: |Sigma_ii / var_oracle - 1|
    bias = _gap_ratio(np.abs(np.sum(factor * factor, axis=0) - var_oracle), var_oracle)
    _, mean, m2, _, m4 = moments
    var1, var0 = m2 / (n_paths - 1), m2 / n_paths
    stats = {
        "mean": mean,
        "var": var1,
        "fourth_moment_ratio": m4 / n_paths / np.maximum(var0 * var0, 1e-300),
        "var_oracle": var_oracle,
        "var_se": var1 * np.sqrt(2.0 / (n_paths - 1)),
        "mean_se": np.sqrt(var1) / np.sqrt(n_paths),
    }
    ens = PathEnsemble(M if return_paths else np.empty((0, n_probes)),
                       meta={**counts, "normals_drawn": width * n_paths,
                             "stat_block_paths": _BLOCK_PATHS,
                             "max_isometry_bias": float(np.max(bias))})
    return ens, stats


# ---------------------------------------------------------------------------
# trajectory engine (recursion over a time grid) and the semilinear solver


# a path's Picard iteration stops once its increment falls below this tolerance;
# a run that keeps a live path past _PICARD_MAX iterations is refused
_PICARD_TOL = 1e-10
_PICARD_MAX = 50


def simulate_mild(setup, x0_field, time_grid, n_paths=200, root_seed=7, grid=None,
                  drift=None):
    """Trajectory ensemble of the mild solution X(t) = S(t)X0 + convolution.

    The grid is uniform and the flux does not depend on time, so the noise of
    step i is M(dt, .) with fresh increments (the flow property): every (path,
    step) pair is one path-major row of a single `simulate_convolution`
    ensemble at the probes (dt, x), drawn without its statistics.  With
    `drift` f (scalar Lipschitz), solves the semilinear fixed point by Picard
    iteration over all paths at once; a path freezes once its own increment
    falls below _PICARD_TOL.  Drift None is the linear equation, and drift
    f = 0 reproduces it path by path under the same seed.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    edges = np.asarray(time_grid, float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError(f"time_grid must be 1-d with at least 2 points, got shape {edges.shape}")
    if edges[0] != 0.0 or np.any(np.diff(edges) <= 0):
        raise ValueError("time grid must start at 0 and increase")
    if setup.mode != "exact":
        raise ConfigurationError("simulation requires exact mode")
    dom = setup.domain
    if dom.dim != 1:
        raise UnsupportedDomainError("mild trajectories on interval or half line")
    grid = grid or interior_grid(dom, graded=True, level=8, per_panel=8)
    kernel = HeatKernel(dom)
    steps = np.diff(edges)
    if np.ptp(steps) > 1e-12 * steps[0]:
        raise ValueError("uniform time grid expected")
    dt = float(steps[0])
    P = semigroup_matrix(kernel, dt, grid)
    n_t = len(edges)
    nx = grid.n
    x = grid.x
    noise, draws = _convolution_paths(setup, [(dt, node) for node in x], n_paths * (n_t - 1),
                                      root_seed=root_seed)
    meta = draws
    eta = noise.reshape(n_paths, n_t - 1, nx)
    # deterministic part, one-shot per output time (no compounding quadrature error)
    xdet = np.zeros((n_t, nx))
    if x0_field is not None:
        xdet[0] = x0_field.values
        for i in range(1, n_t):
            xdet[i] = semigroup_matrix(kernel, edges[i], grid) @ x0_field.values
    base = np.zeros((n_paths, n_t, nx))
    for i in range(n_t - 1):
        base[:, i + 1] = base[:, i] @ P.T + eta[:, i]
    del noise, eta                  # the draws live on in base; free them before Picard
    base += xdet
    iters = np.zeros(n_paths, int)
    Y = base
    if drift is not None:
        p = setup.params.p
        w = weight(dom, grid.nodes, setup.params)     # for the Picard stopping rule
        Y = base.copy()
        live = np.arange(n_paths)
        for it in range(_PICARD_MAX):
            # one time row of the live paths at a time, so no copy of their iterate
            Z = np.zeros((live.size, n_t, nx))
            for i in range(n_t - 1):
                Z[:, i + 1] = (Z[:, i] + dt * drift(Y[live, i])) @ P.T
            Z += base[live]
            # per path, the largest weighted L^p norm over its time rows
            delta = np.max(_lp(Z - Y[live], grid, w, p), axis=1)
            Y[live] = Z
            iters[live] = it + 1
            live = live[~(delta < _PICARD_TOL)]       # a NaN increment never converges
            if not live.size:
                break
        else:
            raise NumericalRefusal("picard iteration did not converge")
    meta["picard_iterations"] = iters.tolist()
    return PathEnsemble(Y, meta)


def flow_consistency_check(setup, s, t, n_paths=10000, root_seed=13, grid=None):
    """Two-stage (restart at s with fresh noise) vs one-shot law of M(t).

    Both routes are Gaussian with mean zero; the check compares the covariance
    matrices at probe nodes within Monte Carlo error (the flow/Markov proxy:
    M(t) = S(t-s) M(s) + M'(t-s) in law), at 7 grid nodes spread over the middle
    70% of the grid.
    """
    if not 0 < s < t:
        raise ValueError("need 0 < s < t")
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2 for sample variances, got {n_paths}")
    dom = setup.domain
    if dom.dim != 1:
        raise UnsupportedDomainError("flow consistency check on interval or half line")
    grid = grid or interior_grid(dom, graded=True, level=8, per_panel=8)
    xs = grid.x
    probe_idx = np.linspace(grid.n * 0.15, grid.n * 0.85, 7).astype(int)
    probes_t = [(t, xs[i]) for i in probe_idx]
    base_steps = 384
    one_probe, _ = _convolution_paths(setup, probes_t, n_paths, base_steps, root_seed + 2)
    at_s, _ = _convolution_paths(setup, [(s, x) for x in xs], n_paths, base_steps, root_seed)
    fresh, _ = _convolution_paths(setup, [(t - s, x) for x in xs], n_paths, base_steps,
                                  root_seed + 1)
    P = semigroup_matrix(HeatKernel(dom), t - s, grid)
    # stage 2: push the stage-1 field through S(t-s), add the fresh convolution
    cov2 = np.cov((at_s @ P.T + fresh)[:, probe_idx].T)
    cov1 = np.cov(one_probe.T)
    var1 = np.diag(cov1)
    # asymptotic SE of a covariance entry for Gaussian samples
    se = np.sqrt((np.outer(var1, var1) + cov1 ** 2) / n_paths) \
        + np.sqrt((np.outer(np.diag(cov2), np.diag(cov2)) + cov2 ** 2) / n_paths)
    zmat = (cov2 - cov1) / se
    return {"max_cov_z": float(np.max(np.abs(zmat))), "probes": [float(xs[i]) for i in probe_idx],
            "cov_one_shot": cov1, "cov_two_stage": cov2}


# ---------------------------------------------------------------------------
# long-run and tail diagnostics


def invariant_diagnostics(setup):
    """J at T = infinity plus convergence of the variance field to its limit.

    sigma^2_inf is the endpoint closed form at t = inf: 1/(pi x^2) on the half
    line, images to t = 1 plus the sine-series tail on the interval.
    """
    dom = setup.domain
    if dom.kind not in ("interval01", "halfline"):
        raise UnsupportedDomainError("invariant diagnostics on interval or half line")
    flux = flux_for(setup)
    grid = interior_grid(dom, graded=True, level=10, per_panel=6,
                         cutoff=None if dom.kind == "interval01" else 30.0)
    x = grid.x
    sigma_inf = variance_profile(flux, np.inf, x)
    j_inf = _j_sum(setup, (x, (weight(dom, grid.nodes, setup.params), grid.weights), 1.0),
                   sigma_inf)
    t_probe = 5.0 / np.pi ** 2
    sig_t = variance_profile(flux, t_probe, x)
    with np.errstate(invalid="ignore"):
        gaps = np.where(sigma_inf > 0, np.abs(sig_t - sigma_inf) / sigma_inf, 0.0)
    rel = float(np.max(gaps))
    return {"j_infinity": j_inf, "t_probe": t_probe,
            "max_rel_gap_at_probe": rel, "sigma_inf": sigma_inf, "grid": grid}


def gaussian_tail_diagnostic(norm_samples):
    """Fit of the tail exponent gamma in P(||X|| > r) ~ exp(-beta r^gamma).

    Gaussian norms have gamma = 2; the fit regresses log(-log P) on log r over
    the quantile window [0.80, 0.9995) and reports the implied beta (labeled
    empirical).  Fewer than 200 samples above the window's start is inconclusive.
    """
    q_lo, q_hi = 0.80, 0.9995
    s = np.sort(np.asarray(norm_samples, float))
    n = len(s)
    if n * (1 - q_lo) < 200:
        return {"verdict": "inconclusive", "n": n}
    if s[-1] <= s[0] * (1 + 1e-12):
        return {"verdict": "degenerate", "n": n, "value": float(s[0])}
    idx = np.arange(n)
    surv = 1.0 - (idx + 0.5) / n
    lo, hi = int(q_lo * n), int(q_hi * n)
    r = s[lo:hi]
    pp = surv[lo:hi]
    mask = (r > 0) & (pp > 0) & (pp < 1)
    A = np.column_stack([np.log(r[mask]), np.ones(mask.sum())])
    sol, *_ = np.linalg.lstsq(A, np.log(-np.log(pp[mask])), rcond=None)
    gamma, logbeta = float(sol[0]), float(sol[1])
    return {"verdict": "ok", "gamma": gamma, "beta_empirical": float(np.exp(logbeta)), "n": n}
