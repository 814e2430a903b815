"""Stochastic convolution diagnostics: variance fields, well-posedness integrals,
Monte Carlo ensembles of the mild solution, and the semilinear fixed-point solver.

The boundary flux of mode k is psi_k(t, x) = -int dG/dn(t,x,y) e_k(y) ds(y);
everything here is built from the per-mode squared flux.  Exact mode evaluates
psi_k from the closed kernels (interval, half line, half space); majorant mode,
mandatory on the ball, replaces the squared-flux sum by the Gaussian surface
majorant the existence proofs bound it with.  Stochastic sums are Ito: left
(independent-forward) Wiener increments with no Stratonovich correction; the
deterministic coefficient is sampled at cell midpoints, and the cell touching
the singular endpoint carries its exact local variance.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import (UnsupportedDomainError, WeightedSpaceParams, distance_to_boundary,
                       interior_grid, weight)
from .kernels import HeatKernel, ball_boundary_mass_exact
from .noise import NoiseSpec, frequency_cells, substream
from .semigroup import Field, semigroup_matrix, weighted_norm


class ConfigurationError(ValueError):
    """Setup inconsistent with the supported scenario combinations."""


class NumericalRefusal(RuntimeError):
    """Requested discretization cannot honor the declared tolerance."""


@dataclass
class ConvolutionSetup:
    """Domain + noise + weighted space + (T, alpha, lambda) + evaluation mode."""

    domain: object
    noise: NoiseSpec
    params: WeightedSpaceParams
    horizon: float = 1.0
    alpha: float = 0.0
    lam: float = 1.0
    mode: str = "exact"            # "exact" | "majorant"
    majorant_c: float = 4.0
    majorant_C: float = 1.0

    def __post_init__(self):
        if self.horizon <= 0 or self.alpha < 0:
            raise ConfigurationError("need horizon > 0 and alpha >= 0")
        if self.domain.kind in ("unitball", "generic") and self.mode != "majorant":
            raise ConfigurationError("no exact kernel on this domain; majorant mode is mandatory")
        if self.mode == "exact" and self.domain.kind not in ("interval01", "halfline", "halfspace"):
            raise ConfigurationError("exact mode needs a domain with an explicit kernel")


# ---------------------------------------------------------------------------
# flux modes


class EndpointFlux:
    """Unit-atom boundary modes on the interval or half line.

    n_atoms from the noise spec may switch off modes (zero boundary noise).
    """

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


class HomogeneousFlux:
    """Spatially homogeneous boundary noise on the half space {x0 > 0} x R^m, m = 1.

    The exact squared-flux sum over a complete basis collapses by Parseval to
    (x0/t)^2 g_{2t}(x0)^2 * int e^{-2t z^2} d mu(z); the truncated cell modes
    used for simulation are cosine/sine pairs per frequency cell.
    """

    def __init__(self, domain, spec):
        if domain.kind != "halfspace" or domain.dim != 2:
            raise ConfigurationError("homogeneous flux implemented for the half plane (m = 1)")
        self.domain = domain
        self.spec = spec
        self.measure = spec.measure
        if self.measure.kind == "atoms":
            # symmetric atom pairs are exact modes: sqrt(2 m_k) (cos, sin)(z_k x1)
            self.atom_z = np.asarray(self.measure.points, float).reshape(-1)
            self.atom_mass = np.asarray(self.measure.masses, float)
            self.cells = None
        else:
            self.cells = frequency_cells(spec.measure, spec.z_max, spec.n_cells)

    @property
    def n_modes(self):
        n = len(self.atom_mass) if self.cells is None else self.cells.n_cells
        return 2 * n

    def _amplitude(self, u, x0):
        # 1-d factor (x0/u) g_{2u}(x0) of the normal derivative
        return (x0[:, None] / u[None, :]) * (4 * np.pi * u[None, :]) ** -0.5 \
            * np.exp(-x0[:, None] ** 2 / (4 * u[None, :]))

    def psi(self, u, xy):
        u = np.atleast_1d(np.asarray(u, float))
        pts = np.atleast_2d(np.asarray(xy, float))
        x0, x1 = pts[:, 0], pts[:, 1]
        amp = self._amplitude(u, x0)                      # (nx, nu)
        out = np.empty((self.n_modes, pts.shape[0], u.size))
        if self.cells is None:
            for k, (z, mk) in enumerate(zip(self.atom_z, self.atom_mass)):
                damp = np.exp(-u[None, :] * z * z)
                out[2 * k] = np.sqrt(2.0 * mk) * amp * np.cos(z * x1)[:, None] * damp
                out[2 * k + 1] = np.sqrt(2.0 * mk) * amp * np.sin(z * x1)[:, None] * damp
            return out
        for kc in range(self.cells.n_cells):
            z = np.asarray(self.cells.gl_nodes[kc])       # (q,)
            w = np.asarray(self.cells.gl_weights[kc])
            mk = self.cells.masses[kc]
            damp = np.exp(-u[None, :] * z[:, None] ** 2) * w[:, None]    # (q, nu)
            cosb = np.cos(np.outer(x1, z)) @ damp          # (nx, nu)
            sinb = np.sin(np.outer(x1, z)) @ damp
            out[2 * kc] = np.sqrt(2.0 / mk) * amp * cosb
            out[2 * kc + 1] = np.sqrt(2.0 / mk) * amp * sinb
        return out

    def sum_sq(self, u, xy, truncated=False):
        u = np.atleast_1d(np.asarray(u, float))
        pts = np.atleast_2d(np.asarray(xy, float))
        if truncated:
            p = self.psi(u, pts)
            return np.sum(p * p, axis=0)
        x0 = pts[:, 0]
        amp = self._amplitude(u, x0)
        V = np.array([self.measure.gauss_transform(2 * uu) for uu in u])
        return amp ** 2 * V[None, :]

    def sum_sq_radial(self, u, x0):
        """Radial profile (depends on x0 only): untruncated Parseval sum."""
        u = np.atleast_1d(np.asarray(u, float))
        x0 = np.atleast_1d(np.asarray(x0, float))
        amp = self._amplitude(u, x0)
        V = np.array([self.measure.gauss_transform(2 * uu) for uu in u])
        return amp ** 2 * V[None, :]

    def rho(self, xy):
        return np.atleast_2d(np.asarray(xy, float))[:, 0]


class MajorantFlux:
    """Squared-flux surrogate on boundaries without exact kernels (balls, generic).

    White noise (complete basis): Parseval then the pointwise Gaussian bound,
    sum psi_k^2 <= (C^2/t) int g_ct(x-y)^2 ds(y).  Sup-summable series with
    A = sum_k sup e_k^2: sum psi_k^2 <= (C^2/t) A (int g_ct(x-y) ds(y))^2.
    Both reduce to the radial boundary-mass profile on the ball.
    """

    def __init__(self, domain, spec, c=4.0, big_c=1.0):
        if domain.kind != "unitball":
            raise ConfigurationError("majorant flux implemented on the unit ball")
        self.domain = domain
        self.spec = spec
        self.c = c
        self.big_c = big_c
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

    def psi(self, u, x):
        raise ConfigurationError("majorant mode has no per-mode flux; simulation unavailable")

    def sum_sq_radial(self, u, rho):
        """Profile in the boundary distance rho (rotation invariance of the bound)."""
        u = np.atleast_1d(np.asarray(u, float))
        rho = np.atleast_1d(np.asarray(rho, float))
        d = self.domain.dim
        out = np.empty((rho.size, u.size))
        for j, uu in enumerate(u):
            if self.white:
                # g_ct^2 = (2 pi c t)^{-d} exp(-|z|^2/(ct)); surface integral of the
                # half-scale Gaussian is the boundary-mass profile at scale c/2
                mass = ball_boundary_mass_exact(d, uu, rho, self.c / 2.0)
                out[:, j] = (self.big_c ** 2 / uu) * (2 * np.pi * self.c * uu) ** (-d) * mass
            else:
                mass = ball_boundary_mass_exact(d, uu, rho, 2.0 * self.c)
                out[:, j] = (self.big_c ** 2 / uu) * self.A \
                    * ((2 * np.pi * self.c * uu) ** (-d / 2.0) * mass) ** 2
        return out

    def rho(self, x):
        return distance_to_boundary(self.domain, x)


def flux_for(setup):
    if setup.mode == "majorant":
        return MajorantFlux(setup.domain, setup.noise, c=setup.majorant_c, big_c=setup.majorant_C)
    if setup.noise.kind == "endpoints":
        return EndpointFlux(setup.domain, n_atoms=setup.noise.n_atoms)
    if setup.noise.kind == "homogeneous":
        return HomogeneousFlux(setup.domain, setup.noise)
    raise ConfigurationError(f"no exact flux for noise kind {setup.noise.kind}")


# ---------------------------------------------------------------------------
# time quadrature of squared fluxes


def log_time_panels(s_floor, t_hi, pts_per_octave=8):
    """Gauss-Legendre nodes/weights for int_{s_floor}^{t_hi} f(s) ds on a log axis."""
    if not 0 < s_floor < t_hi:
        raise ValueError("need 0 < s_floor < t_hi")
    n_oct = int(np.ceil(np.log2(t_hi / s_floor)))
    gx, gw = np.polynomial.legendre.leggauss(pts_per_octave)
    v_edges = np.log(t_hi) - np.log(2.0) * np.arange(n_oct + 1)[::-1]
    v_edges[0] = np.log(s_floor)
    nodes, wts = [], []
    for a, b in zip(v_edges[:-1], v_edges[1:]):
        v = 0.5 * (b - a) * gx + 0.5 * (a + b)
        nodes.append(np.exp(v))
        wts.append(0.5 * (b - a) * gw * np.exp(v))
    return np.concatenate(nodes), np.concatenate(wts)


def variance_profile(flux, t_hi, x, alpha=0.0, pts_per_octave=8, floor_scale=80.0,
                     truncated=False):
    """sigma_alpha^2(x) = int_0^{t_hi} s^{-alpha} sum_k psi_k(s,x)^2 ds, vectorized in x.

    The integrand carries exp(-rho^2/(2s))-type cutoffs, so the quadrature
    floor is set from the smallest boundary distance among the nodes.
    """
    if isinstance(flux, MajorantFlux) or (isinstance(flux, HomogeneousFlux) and not truncated):
        rho = np.atleast_1d(np.asarray(x, float)) if np.asarray(x).ndim <= 1 else flux.rho(x)
    else:
        rho = flux.rho(x)
    rho_min = max(float(np.min(rho)), 1e-30)
    s_floor = min(rho_min ** 2 / floor_scale, t_hi / 4.0)
    s, w = log_time_panels(s_floor, t_hi, pts_per_octave)
    if isinstance(flux, MajorantFlux):
        ss = flux.sum_sq_radial(s, np.atleast_1d(np.asarray(x, float)))
    elif isinstance(flux, HomogeneousFlux) and np.asarray(x).ndim <= 1:
        ss = flux.sum_sq_radial(s, np.atleast_1d(np.asarray(x, float)))
    elif isinstance(flux, HomogeneousFlux):
        ss = flux.sum_sq(s, x, truncated=truncated)
    else:
        ss = flux.sum_sq(s, np.atleast_1d(np.asarray(x, float)))
    integ = ss * (s ** (-alpha) * w)[None, :]
    return integ.sum(axis=1)


def variance_field(setup, t, grid, pts_per_octave=10, truncated=False):
    """Second-moment field sigma^2(t, x) of the stochastic convolution by quadrature."""
    if setup.mode != "exact":
        raise ConfigurationError("variance fields require exact mode")
    flux = flux_for(setup)
    x = grid.x if grid.nodes.shape[1] == 1 else grid.nodes
    vals = variance_profile(flux, t, x, alpha=0.0, pts_per_octave=pts_per_octave,
                            truncated=truncated)
    return Field(setup.domain, grid, vals, t)


def halfline_variance_tail(x, t_from):
    """Closed form int_{t_from}^inf psi^2 dt for the half-line endpoint flux."""
    x = np.asarray(x, float)
    a = x * x / (2.0 * t_from)
    return (1.0 - (1.0 + a) * np.exp(-a)) / (np.pi * x * x)


def interval_flux_tail(x, t_from, kmax=6, boundaries=(0, 1)):
    """Analytic sine-series tail sum_k,j int_{t_from}^inf psi_b psi_b dt over active endpoints."""
    x = np.asarray(x, float)
    total = np.zeros_like(x)
    for b in boundaries:
        for k in range(1, kmax + 1):
            for j in range(1, kmax + 1):
                sk = 2 * k * np.pi * np.sin(k * np.pi * x) * ((-1.0) ** k if b else 1.0)
                sj = 2 * j * np.pi * np.sin(j * np.pi * x) * ((-1.0) ** j if b else 1.0)
                lam = (k * k + j * j) * np.pi ** 2
                total += sk * sj * np.exp(-lam * t_from) / lam
    return total


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


def _j_verdict(js, rel_tol=0.01, growth=2.0):
    js = [float(v) for v in js]
    if abs(js[-1] - js[-2]) <= rel_tol * abs(js[-1]):
        return "finite"
    increasing = all(b > a for a, b in zip(js[:-1], js[1:]))
    if increasing and js[-1] > growth * js[0]:
        return "divergent"
    return "inconclusive"


def _j_radial_ball(setup, flux, level, pts_per_octave):
    # rotation invariance: J = |S^{d-1}| int_0^1 F(1-r)^{p/2-like} ... r^{d-1} dr
    d = setup.domain.dim
    p = setup.params.p
    from .geometry import _graded_edges_01
    redges = 1.0 - _graded_edges_01(level, 6)[::-1]
    rc = 0.5 * (redges[:-1] + redges[1:])
    wr = np.diff(redges)
    rho = 1.0 - rc
    prof = variance_profile(flux, setup.horizon, rho, alpha=setup.alpha,
                            pts_per_octave=pts_per_octave)
    area = 2 * np.pi if d == 2 else 4 * np.pi
    wgt = rho ** setup.params.theta          # delta plays no role on the unit ball
    return float(area * np.sum(prof ** (p / 2.0) * wgt * rc ** (d - 1) * wr))


def _tangential_weight(theta, delta, x0):
    """Tangential integral of the half-space weight in the product reduction.

    The half-space propositions integrate min(x0,1)^theta x0-powers against
    (1 + x0^2 + |s|^2)^(-delta) in the tangential directions; closed form
    int (a^2+s^2)^(-delta) ds = a^(1-2 delta) sqrt(pi) Gamma(delta-1/2)/Gamma(delta).
    (With the raw min-form weight the tangential crossover would shift every
    threshold by the factor 2 delta/(2 delta - 1); the catalogued intervals
    are the product-form ones.)
    """
    from scipy.special import gamma as G
    if delta <= 0.5:
        raise ConfigurationError("half-space scenarios need delta > 1/2")
    x0 = np.atleast_1d(np.asarray(x0, float))
    const = np.sqrt(np.pi) * G(delta - 0.5) / G(delta)
    return np.minimum(x0, 1.0) ** theta * (1.0 + x0 ** 2) ** (0.5 - delta) * const


def j_integral(setup, levels=(10, 14, 18, 22, 26), pts_per_octave=8, prediction=None):
    """The weighted space-time integral of the squared flux sum, with verdict.

    Refinement runs over boundary-grading levels of the outer space grid; the
    report also records stability under time-quadrature and mode-truncation
    doubling.  A finite integral only certifies well-posedness when the state
    space itself is admissible (theta < 2p-1), so inadmissible theta reports
    the divergent verdict with the reason attached.
    """
    flux = flux_for(setup)
    p, theta, delta = setup.params.p, setup.params.theta, setup.params.delta
    js = []
    for lev in levels:
        js.append(_j_level(setup, flux, lev, pts_per_octave))
    checks = {}
    checks["time_refinement_rel_change"] = abs(
        _j_level(setup, flux, levels[-1], 2 * pts_per_octave) - js[-1]) / abs(js[-1]) \
        if js[-1] > 0 else 0.0
    if setup.noise.kind == "homogeneous" and setup.noise.measure.kind != "atoms":
        # the J verdict uses the complete-basis sum; the declared truncation is
        # what simulations consume, so certify its K-stability at simulation
        # probes (a frequency cutoff can never resolve the x0 < 1/z_max layer,
        # where the complete route remains authoritative)
        wider = NoiseSpec("homogeneous", measure=setup.noise.measure,
                          z_max=2 * setup.noise.z_max, n_cells=2 * setup.noise.n_cells)
        flux2 = HomogeneousFlux(setup.domain, wider)
        probes = np.array([[x0, 0.0] for x0 in (0.2, 0.5, 1.0)])
        rel = 0.0
        for t in (setup.horizon / 8, setup.horizon / 2, setup.horizon):
            vk = variance_profile(flux, t, probes, alpha=setup.alpha, truncated=True)
            v2k = variance_profile(flux2, t, probes, alpha=setup.alpha, truncated=True)
            rel = max(rel, float(np.max(np.abs(v2k - vk) / v2k)))
        checks["probe_variance_mode_doubling_rel_change"] = rel
    verdict = _j_verdict(js)
    if verdict == "finite" and any(v > 0.01 for v in checks.values()):
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
        rep.predicted = "finite" if prediction.admits(theta) else "divergent"
        rep.agreement = rep.predicted == rep.verdict
    return rep


def _j_level(setup, flux, level, pts_per_octave):
    dom = setup.domain
    p, theta, delta = setup.params.p, setup.params.theta, setup.params.delta
    if dom.kind == "unitball":
        return _j_radial_ball(setup, flux, level, pts_per_octave)
    if dom.kind == "interval01":
        grid = interior_grid(dom, graded=True, level=level, per_panel=6)
        prof = variance_profile(flux, setup.horizon, grid.x, alpha=setup.alpha,
                                pts_per_octave=pts_per_octave)
        w = weight(dom, grid.nodes, setup.params)
        return float(np.sum(prof ** (p / 2.0) * w * grid.weights))
    if dom.kind == "halfline":
        cutoff = max(4.0, np.sqrt(2 * 2 * setup.horizon * np.log(1e16)))
        grid = interior_grid(dom, graded=True, level=level, per_panel=6, cutoff=cutoff)
        prof = variance_profile(flux, setup.horizon, grid.x, alpha=setup.alpha,
                                pts_per_octave=pts_per_octave)
        w = weight(dom, grid.nodes, setup.params)
        return float(np.sum(prof ** (p / 2.0) * w * grid.weights))
    if dom.kind == "halfspace":
        from .geometry import halfline_grid
        cutoff = max(4.0, np.sqrt(2 * 2 * setup.horizon * np.log(1e16)))
        g1 = halfline_grid(level=level, per_panel=6, cutoff=cutoff)
        prof = variance_profile(flux, setup.horizon, g1.x, alpha=setup.alpha,
                                pts_per_octave=pts_per_octave)
        wt = _tangential_weight(theta, delta, g1.x)
        return float(np.sum(prof ** (p / 2.0) * wt * g1.weights))
    raise UnsupportedDomainError(dom.kind)


# ---------------------------------------------------------------------------
# Monte Carlo simulation (one-shot convolution at probe points)


@dataclass
class PathEnsemble:
    """Sampled paths: values[path, probe] or values[path, time, node]."""

    values: np.ndarray
    probes: list
    root_seed: int
    time_grid: np.ndarray = None
    nodes: np.ndarray = None
    meta: dict = field(default_factory=dict)


def _step_schedule(t_max, probe_times, base_steps, rho_min, per_octave=10):
    """Uniform backbone with geometric ladders toward s = 0 and every probe time.

    The squared flux concentrates toward u = t - s -> 0 near the boundary and
    has an exponential layer at s -> 0 when the probe sits far from it; both
    ends are graded.
    """
    edges = set(np.linspace(0.0, t_max, base_steps + 1).tolist())
    d0 = t_max / base_steps
    u_min = min(rho_min ** 2 / 80.0, d0 / 4.0)
    s = u_min
    while s < 2 * d0:
        edges.add(s)
        s *= 2.0 ** (1.0 / per_octave)
    for ti in probe_times:
        u = u_min
        while u < min(2 * d0, ti):
            edges.add(ti - u)
            u *= 2.0 ** (1.0 / per_octave)
        edges.add(float(ti))
    edges = np.array(sorted(e for e in edges if 0.0 <= e <= t_max))
    keep = np.concatenate([[True], np.diff(edges) > 1e-15])
    return edges[keep]


def simulate_convolution(setup, probes, n_paths=10000, base_steps=512, root_seed=2024,
                         per_octave=10, return_paths=False, law="gaussian", df=3.0):
    """One-shot ensemble of M(t, x) at (t, x) probe pairs.

    Gaussian by construction; the Ito sums use the global step schedule with
    geometric refinement toward every probe time.  Returns probe statistics
    plus the quadrature variance at each probe (the isometry oracle).
    law "student_t" swaps variance-matched heavy-tailed increments in as the
    negative control for tail diagnostics.
    """
    if setup.mode != "exact":
        raise ConfigurationError("simulation requires exact mode")
    flux = flux_for(setup)
    times = sorted({float(t) for t, _ in probes})
    pts = [p for _, p in probes]
    dom1d = setup.domain.dim == 1
    xs = np.array([float(p) for p in pts]) if dom1d else np.atleast_2d(np.asarray(pts, float))
    rho = distance_to_boundary(setup.domain, xs.reshape(-1, 1) if dom1d else xs)
    rho_min = float(np.min(rho))
    t_max = max(times)
    if base_steps < 64 or t_max / base_steps > min(times) / 4.0:
        raise NumericalRefusal(
            f"base step {t_max / base_steps:.3g} too coarse for probe times down to "
            f"{min(times):.3g}; need base_steps >= 64 and step <= t_min/4")
    edges = _step_schedule(t_max, times, base_steps, rho_min, per_octave)
    smid = 0.5 * (edges[:-1] + edges[1:])
    ds = np.diff(edges)
    n_steps = len(smid)
    n_probes = len(probes)
    # coefficient tensor per mode: psi_k(t_i - s_mid, x_i) sqrt(ds) for s < t_i;
    # probes sharing a time share u = t - s, so one flux call covers them all
    truncated = setup.noise.kind == "homogeneous"
    probe_t = np.array([float(t) for t, _ in probes])
    coeff = np.zeros((flux.n_modes, n_probes, n_steps))
    for ti in times:
        rows = np.flatnonzero(probe_t == ti)
        n_live = int(np.count_nonzero(smid < ti))       # a prefix: smid increases
        u = ti - smid[:n_live]
        # final cell adjacent to the probe time: exact local variance
        jlast = np.searchsorted(edges, ti) - 1
        u_lo = max(ti - edges[jlast + 1], 0.0)
        u_hi = ti - edges[jlast]
        if u_hi > 1e-15 and u_hi > u_lo:
            s_nodes, s_w = log_time_panels(max(u_lo, 1e-18) + 1e-18, u_hi, 16)
        else:
            s_nodes = s_w = np.empty(0)
        # with many modes pv is the largest transient here: work in place and
        # free it before the next call, so peak memory stays that of the draws
        pv = flux.psi(np.concatenate([u, s_nodes]), xs[rows])
        live, last = pv[:, :, :n_live], pv[:, :, n_live:]
        live *= np.sqrt(ds[:n_live])
        coeff[:, rows, :n_live] = live
        if s_nodes.size:
            last **= 2
            last *= s_w
            coeff[:, rows, jlast] = np.sqrt(np.maximum(last.sum(axis=2), 0.0))
        del pv, live, last
    M = np.zeros((n_paths, n_probes))
    chunk = max(1, min(n_paths, int(2e8 // max(n_steps, 1))))
    for k in range(flux.n_modes):
        gen = substream(root_seed, k)
        done = 0
        while done < n_paths:
            m = min(chunk, n_paths - done)
            # coeff already carries sqrt(ds); the increments are standard normals
            if law == "gaussian":
                xi = gen.normal(size=(n_steps, m))
            else:
                xi = gen.standard_t(df, size=(n_steps, m)) * np.sqrt((df - 2.0) / df)
            M[done:done + m] += (coeff[k] @ xi).T
            done += m
    var_oracle = np.array([
        variance_profile(flux, ti, np.array([xp]) if dom1d else np.atleast_2d(xp),
                         pts_per_octave=12, truncated=truncated)[0]
        for ti, xp in probes])
    stats = {
        "mean": M.mean(axis=0),
        "var": M.var(axis=0, ddof=1),
        "fourth_moment_ratio": ((M - M.mean(axis=0)) ** 4).mean(axis=0)
        / np.maximum(M.var(axis=0) ** 2, 1e-300),
        "var_oracle": var_oracle,
        "var_se": M.var(axis=0, ddof=1) * np.sqrt(2.0 / (n_paths - 1)),
        "mean_se": M.std(axis=0, ddof=1) / np.sqrt(n_paths),
    }
    ens = PathEnsemble(M if return_paths else M[:0], probes, root_seed,
                       meta={"n_steps": n_steps, "schedule_edges": len(edges), "stats": stats})
    return ens, stats


# ---------------------------------------------------------------------------
# trajectory engine (recursion over a time grid) and the semilinear solver


def _substep_noise_coeffs(flux, grid, edges, per_octave, rho_min):
    """Per time-step noise fields: coefficient tensors over geometric substeps.

    Step [t_i, t_{i+1}] contributes eta_i(x) = sum_k sum_sub psi_k(t_{i+1}-s, x)
    sqrt(ds) xi; substeps grade toward s = t_{i+1} where the flux concentrates.
    """
    x = grid.x if grid.nodes.shape[1] == 1 else grid.nodes
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        u_hi = b - a
        u_min = min(rho_min ** 2 / 80.0, u_hi / 8.0)
        sub = [0.0]
        u = u_min
        while u < u_hi:
            sub.append(u)
            u *= 2.0 ** (1.0 / per_octave)
        sub.append(u_hi)
        sub = np.unique(np.asarray(sub))
        umid = 0.5 * (sub[:-1] + sub[1:])
        du = np.diff(sub)
        pv = flux.psi(umid, x)                      # (modes, nx, nu)
        out.append(pv * np.sqrt(du)[None, None, :])
    return out


def simulate_mild(setup, x0_field, time_grid, n_paths=200, root_seed=7, grid=None,
                  per_octave=8, drift=None, picard_tol=1e-10, picard_max=50):
    """Trajectory ensemble of the mild solution X(t) = S(t)X0 + convolution.

    With `drift` f (scalar Lipschitz), solves the semilinear fixed point by
    per-path Picard iteration on the time grid; drift None is the linear
    equation, and drift f = 0 reproduces it path by path under the same seed.
    """
    if setup.mode != "exact":
        raise ConfigurationError("simulation requires exact mode")
    flux = flux_for(setup)
    dom = setup.domain
    grid = grid or interior_grid(dom, graded=True, level=8, per_panel=8)
    edges = np.asarray(time_grid, float)
    if edges[0] != 0.0 or np.any(np.diff(edges) <= 0):
        raise ValueError("time grid must start at 0 and increase")
    kernel = HeatKernel(dom)
    steps = np.diff(edges)
    if np.ptp(steps) > 1e-12 * steps[0]:
        raise ValueError("uniform time grid expected")
    dt = float(steps[0])
    P = semigroup_matrix(kernel, dt, grid)
    n_t = len(edges)
    nx = grid.n
    coeffs = _substep_noise_coeffs(flux, grid, edges, per_octave,
                                   rho_min=float(np.min(distance_to_boundary(dom, grid.nodes))))
    # deterministic part, one-shot per output time (no compounding quadrature error)
    xdet = np.zeros((n_t, nx))
    if x0_field is not None:
        xdet[0] = x0_field.values
        for i in range(1, n_t):
            xdet[i] = semigroup_matrix(kernel, edges[i], grid) @ x0_field.values
    values = np.empty((n_paths, n_t, nx))
    iters = []
    for path in range(n_paths):
        eta = np.zeros((n_t - 1, nx))
        for k in range(flux.n_modes):
            gen = substream(root_seed, k, path)
            for i in range(n_t - 1):
                c = coeffs[i][k]                    # (nx, n_sub)
                xi = gen.normal(size=c.shape[1])
                eta[i] += c @ xi
        M = np.zeros((n_t, nx))
        for i in range(n_t - 1):
            M[i + 1] = P @ M[i] + eta[i]
        base = xdet + M
        if drift is None:
            values[path] = base
            iters.append(0)
            continue
        Y = base.copy()
        for it in range(picard_max):
            Z = np.zeros((n_t, nx))
            for i in range(n_t - 1):
                Z[i + 1] = P @ (Z[i] + dt * drift(Y[i]))
            Ynew = base + Z
            delta = max(weighted_norm(Field(dom, grid, Ynew[i] - Y[i]), setup.params)
                        for i in range(n_t))
            Y = Ynew
            if delta < picard_tol:
                break
        else:
            raise NumericalRefusal("picard iteration did not converge")
        values[path] = Y
        iters.append(it + 1)
    return PathEnsemble(values, [], root_seed, time_grid=edges, nodes=grid.nodes,
                        meta={"grid": grid, "picard_iterations": iters, "dt": dt})


def increment_mean_square(setup, t, x, h, pts_per_octave=10):
    """E|M(t+h, x) - M(t, x)|^2 by quadrature (time-regularity oracle).

    Equals int_0^h sum psi_k^2(u) du + int_0^t sum_k (psi_k(u+h) - psi_k(u))^2 du.
    """
    flux = flux_for(setup)
    xa = np.atleast_1d(np.asarray(x, float))
    rho = float(np.min(flux.rho(xa)))
    head = variance_profile(flux, h, xa, pts_per_octave=pts_per_octave)
    s_floor = min(rho ** 2 / 80.0, t / 4.0)
    s_nodes, s_w = log_time_panels(s_floor, t, pts_per_octave)
    p_now = flux.psi(s_nodes, xa)
    p_shift = flux.psi(s_nodes + h, xa)
    body = (((p_shift - p_now) ** 2).sum(axis=0) * s_w[None, :]).sum(axis=1)
    out = head + body
    return out if np.ndim(x) else float(out[0])


def flow_consistency_check(setup, s, t, n_paths=10000, root_seed=13, grid=None,
                           probe_idx=None, base_steps=384):
    """Two-stage (restart at s with fresh noise) vs one-shot law of M(t).

    Both routes are Gaussian with mean zero; the check compares the covariance
    matrices at probe nodes within Monte Carlo error (the flow/Markov proxy:
    M(t) = S(t-s) M(s) + M'(t-s) in law).
    """
    if not 0 < s < t:
        raise ValueError("need 0 < s < t")
    flux = flux_for(setup)
    dom = setup.domain
    grid = grid or interior_grid(dom, graded=True, level=8, per_panel=8)
    kernel = HeatKernel(dom)
    xs = grid.x
    if probe_idx is None:
        probe_idx = np.linspace(grid.n * 0.15, grid.n * 0.85, 7).astype(int)
    probes_s = [(s, x) for x in xs]
    probes_dt = [(t - s, x) for x in xs]
    probes_t = [(t, xs[i]) for i in probe_idx]
    ens_1, _ = simulate_convolution(setup, probes_t, n_paths, base_steps, root_seed + 2,
                                    return_paths=True)
    ens_s, _ = simulate_convolution(setup, probes_s, n_paths, base_steps, root_seed,
                                    return_paths=True)
    ens_f, _ = simulate_convolution(setup, probes_dt, n_paths, base_steps, root_seed + 1,
                                    return_paths=True)
    P = semigroup_matrix(kernel, t - s, grid)
    # stage 2: push the stage-1 field through S(t-s), add the fresh convolution
    two_stage = ens_s.values @ P.T + ens_f.values
    two_probe = two_stage[:, probe_idx]
    one_probe = ens_1.values
    cov2 = np.cov(two_probe.T)
    cov1 = np.cov(one_probe.T)
    var1 = np.diag(cov1)
    # asymptotic SE of a covariance entry for Gaussian samples
    se = np.sqrt((np.outer(var1, var1) + cov1 ** 2) / n_paths) \
        + np.sqrt((np.outer(np.diag(cov2), np.diag(cov2)) + cov2 ** 2) / n_paths)
    zmat = (cov2 - cov1) / se
    return {"max_cov_z": float(np.max(np.abs(zmat))), "probes": [float(xs[i]) for i in probe_idx],
            "cov_one_shot": cov1, "cov_two_stage": cov2}


def simulate_semilinear(setup, x0_field, drift, time_grid, **kw):
    """Semilinear mild solution with scalar Lipschitz drift (per-path Picard)."""
    return simulate_mild(setup, x0_field, time_grid, drift=drift, **kw)


# ---------------------------------------------------------------------------
# long-run and tail diagnostics


def invariant_diagnostics(setup, horizon=None, grid=None, pts_per_octave=10):
    """J at T = infinity plus convergence of the variance field to its limit.

    On the interval the tail beyond t = 1 is summed analytically through the
    sine series; on the half line through the closed-form flux.
    """
    dom = setup.domain
    if dom.kind not in ("interval01", "halfline"):
        raise UnsupportedDomainError("invariant diagnostics on interval or half line")
    flux = flux_for(setup)
    grid = grid or interior_grid(dom, graded=True, level=10, per_panel=6,
                                 cutoff=None if dom.kind == "interval01" else 30.0)
    x = grid.x
    if dom.kind == "interval01":
        active = tuple(int(b) for b in getattr(flux, "boundary", (0.0, 1.0)))
        tail = interval_flux_tail(x, 1.0, boundaries=active)
    else:
        tail = halfline_variance_tail(x, 1.0) if flux.n_modes else np.zeros_like(x)
    head = variance_profile(flux, 1.0, x, alpha=0.0, pts_per_octave=pts_per_octave)
    sigma_inf = head + tail
    w = weight(dom, grid.nodes, setup.params)
    p = setup.params.p
    j_inf = float(np.sum(sigma_inf ** (p / 2.0) * w * grid.weights))
    t_probe = 5.0 / np.pi ** 2
    sig_t = variance_profile(flux, t_probe, x, alpha=0.0, pts_per_octave=pts_per_octave)
    with np.errstate(invalid="ignore"):
        gaps = np.where(sigma_inf > 0, np.abs(sig_t - sigma_inf) / sigma_inf, 0.0)
    rel = float(np.max(gaps))
    return {"j_infinity": j_inf, "t_probe": t_probe,
            "max_rel_gap_at_probe": rel, "sigma_inf": sigma_inf, "grid": grid}


def gaussian_tail_diagnostic(norm_samples, q_lo=0.80, q_hi=0.9995, min_tail=200):
    """Fit of the tail exponent gamma in P(||X|| > r) ~ exp(-beta r^gamma).

    Gaussian norms have gamma = 2; the fit regresses log(-log P) on log r over
    the upper quantile window and reports the implied beta (labeled empirical).
    """
    s = np.sort(np.asarray(norm_samples, float))
    n = len(s)
    if n * (1 - q_lo) < min_tail:
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
