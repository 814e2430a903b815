"""Heat semigroup action by kernel quadrature on weighted L^p spaces.

Operator norms over a function space are approximated from below by sampled
families: random smooth fields plus boundary-concentrated witnesses that
saturate the worst cases (powers of the boundary distance, and bumps living
at spatial scale sqrt(t) from the boundary for the smoothing rates).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (QuadratureGrid, WeightedSpaceParams, distance_to_boundary,
                       interior_grid, interval_grid, weight)
from .kernels import gauss_density
from .reports import BOUNDED, EstimateReport, SchurReport, largest, loglog_slope


@dataclass
class Field:
    """Sampled interior function on a quadrature grid."""

    domain: object
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.n:
            raise ValueError("values and grid length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def field_from_function(domain, grid, fn):
    return Field(domain, grid, np.asarray(fn(grid.x), dtype=float))


def semigroup_matrix(kernel, t, grid, order=0):
    """Quadrature matrix of d^order/dx^order S(t) on the grid:
    (d^order S psi)(x_i) = sum_j M[i,j] psi(x_j), from the kernel's value,
    grad_x or dxx series at order 0, 1 or 2.

    The weights are applied in place, so one matrix is held, not two.
    """
    series = (kernel.value, kernel.grad_x, kernel.dxx)[order]
    M = series(t, grid.x[:, None], grid.x[None, :])
    M *= grid.weights[None, :]
    return M


def apply_semigroup(kernel, t, psi):
    """Apply S(t) to a sampled field by kernel quadrature (positivity preserving)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return Field(psi.domain, psi.grid, semigroup_matrix(kernel, t, psi.grid) @ psi.values)


def _lp(values, grid, w, p):
    """(sum_x grid weight |f|^p w)^(1/p) over the last axis: the one weighted L^p norm.

    A stack row sums as a 1-d call does, but takes numpy's array pow for the
    root where a 1-d call takes libm's scalar pow: the two may differ by 1 ulp.
    """
    return np.sum(grid.weights * np.abs(values) ** p * w, axis=-1) ** (1.0 / p)


def weighted_norm(field, params):
    """(int |f|^p w_{theta,delta})^(1/p) by the field's own quadrature."""
    w = weight(field.domain, field.grid.nodes, params)
    return float(_lp(field.values, field.grid, w, params.p))


# ---------------------------------------------------------------------------
# sampled witness families


def smooth_fields(domain, grid, n=4):
    rng = np.random.default_rng(0)
    x = grid.x
    out = []
    for _ in range(n):
        if domain.kind == "interval01":
            coeffs = rng.normal(size=5)
            vals = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
        else:
            coeffs = rng.normal(size=3)
            scales = rng.uniform(0.5, 2.0, size=3)
            vals = sum(c * x * np.exp(-(x / s) ** 2) for c, s in zip(coeffs, scales))
        out.append(np.asarray(vals))
    return out


def boundary_witness(domain, grid, s):
    """rho^{-s} concentrated within distance 1/4 of the boundary."""
    rho = distance_to_boundary(domain, grid.nodes)
    return np.where(rho < 0.25, rho ** (-s), 0.0)


def boundary_bump(grid, domain, center, width):
    rho = distance_to_boundary(domain, grid.nodes)
    return np.exp(-0.5 * ((rho - center) / width) ** 2)


# ---------------------------------------------------------------------------
# operator-level certificates


def _normed(fields, grid, w, p):
    """(values, norm) pairs of sampled fields, each norm computed once."""
    return [(vals, float(_lp(vals, grid, w, p))) for vals in fields]


def _sup_ratio(A, fields, grid, w, p):
    """max(0, ||A f|| / ||f||) over the (values, norm) pairs with a nonzero norm; NaN
    if a ratio is (`largest`)."""
    return largest(0.0, [float(_lp(A @ vals, grid, w, p)) / n0 for vals, n0 in fields if n0 != 0])


def extension_bound(kernel, params):
    """Refinement trace of sup_psi ||S(t)psi|| / ||psi|| over the sampled family.

    The sup runs over 7 times in [1e-3, 1], on graded grids of levels 10, 13
    and 16.  Bounded is the expected verdict for theta < 2p-1; beyond that
    threshold the boundary witness rho^{-(theta+1-eps)/p} makes the ratio grow
    without bound under grading refinement.
    """
    dom = kernel.domain
    ts = np.geomspace(1e-3, 1.0, 7)
    eps = 0.1
    s_wit = (params.theta + 1.0 - eps) / params.p
    sups = []
    for lev in range(3):
        grid = interior_grid(dom, graded=True, level=10 + 3 * lev, per_panel=8)
        w = weight(dom, grid.nodes, params)
        fields = _normed(smooth_fields(dom, grid) + [boundary_witness(dom, grid, s_wit)],
                         grid, w, params.p)
        # one matrix per time node serves every field
        sups.append(largest([_sup_ratio(semigroup_matrix(kernel, t, grid), fields, grid, w,
                                        params.p) for t in ts]))
    return EstimateReport.from_trace(
        "extension_bound", f"{dom.kind} p={params.p} theta={params.theta}", sups,
        fitted={"sup_ratio": sups[-1]})


def _top_singular_value(B):
    """Largest singular value of B by ARPACK from a fixed start vector.

    A random start would move the last bits from call to call; this start
    repeats bit for bit and has no symmetry that could hide the top vector.
    """
    from scipy.sparse.linalg import svds
    v0 = np.random.default_rng(0).standard_normal(min(B.shape))
    return float(svds(B, k=1, v0=v0, return_singular_vectors=False)[0])


def gradient_smoothing_ratio(kernel, params, order=1):
    """Fit of log sup_psi ||d^order/dx^order S(t)psi|| / ||psi|| against log t.

    Expected slope -order/2 in the small-t regime.  The sampled family holds
    random smooth fields, the rho^{-s} boundary witness, and bumps at distance
    a*sqrt(t) from the boundary with width b*sqrt(t); for p = 2 the discrete
    weighted operator norm (top singular value, i.e. the optimal sampled field)
    joins the family.  The 7 times stay in [1e-3, 0.02], on a level-14 grid: on
    the interval, past t = 0.02 the spectral decay exp(-pi^2 t) of the bounded
    domain overtakes the t^{-1/2} envelope (the bound stays true, it just stops
    being tight).
    """
    dom = kernel.domain
    ts = np.geomspace(1e-3, 2e-2, 7)
    grid = interior_grid(dom, graded=True, level=14, per_panel=16)
    s_wit = (params.theta + 1.0) / params.p * 0.95
    w = weight(dom, grid.nodes, params)
    static = _normed(smooth_fields(dom, grid, n=2) + [boundary_witness(dom, grid, s_wit)],
                     grid, w, params.p)
    # the discrete-norm member needs the grid to resolve the kernel everywhere,
    # which holds on the interval; on unbounded domains the sampled family is
    # already exact by scale invariance
    use_svd = params.p == 2 and params.delta == 0 and dom.kind == "interval01"
    if use_svd:
        rho = distance_to_boundary(dom, grid.nodes)
        scale = np.sqrt(grid.weights * rho ** params.theta)
    sups = []
    for t in ts:
        bumps = [boundary_bump(grid, dom, a * np.sqrt(t), b * np.sqrt(t))
                 for a, b in ((0.5, 0.25), (1.0, 0.5), (2.0, 1.0))]
        # one kernel matrix per time node serves every field and the SVD member
        D = semigroup_matrix(kernel, t, grid, order=order)
        sup = _sup_ratio(D, static + _normed(bumps, grid, w, params.p), grid, w, params.p)
        if use_svd:
            B = scale[:, None] * D / scale[None, :]
            sup = largest(sup, _top_singular_value(B))
        sups.append(sup)
    slope = loglog_slope(ts, sups)
    rep = EstimateReport.from_trace(
        f"smoothing_rate_order{order}", f"{dom.kind} p={params.p} theta={params.theta}",
        sups[::-1],
        fitted={"slope": slope, "target": -order / 2.0})
    # the sups grow as t falls, so the trace's own rule would read them diverging:
    # the rate is the estimate, bounded wherever every sup is known
    if np.all(np.isfinite(sups)):
        rep.verdict = BOUNDED
    return rep


def _schur_regions(domain, t, level):
    grid = interior_grid(domain, graded=True, level=level, per_panel=8,
                         cutoff=None if domain.kind == "interval01" else 8.0)
    x = grid.x
    rho = distance_to_boundary(domain, grid.nodes)
    near = rho < np.sqrt(t)
    return grid, x, rho, near


def schur_constants(domain, p, theta, c=4.0, levels=3):
    """Suprema of the eight near/far split integrals of the weighted Schur kernel.

    The kernel is (rho(x)/rho(y))^((theta+1)/p) m_t(y) g_{ct}(x-y) rho(y),
    integrated against dy/rho(y) (odd constants, x fixed) or dx/rho(x) (even,
    y fixed), split over {rho < sqrt(t)} and its complement, at 6 times in
    [1e-3, 1] on grids of level 10, 12, 14, ...
    """
    beta = (theta + 1.0) / p
    ts = np.geomspace(1e-3, 1.0, 6)
    names = [f"k{j}" for j in range(1, 9)]
    traces = {nm: [] for nm in names}
    for lev in range(levels):
        sups = {nm: 0.0 for nm in names}
        for t in ts:
            grid, xs, rho, near = _schur_regions(domain, t, 10 + 2 * lev)
            far = ~near
            if not near.any():
                continue
            m = np.minimum(1.0, rho / np.sqrt(t))
            g = gauss_density(xs[:, None] - xs[None, :], c * t)
            # a large beta overflows to inf: those sups read inf, and their
            # verdict diverging
            with np.errstate(over="ignore", invalid="ignore"):
                # integrate over y (columns) for fixed x (rows): (rho_x/rho_y)^beta m(y) g
                inte_y = ((rho[:, None] / rho[None, :]) ** beta * m[None, :] * g
                          * grid.weights[None, :])
                # integrate over x (rows) for fixed y (cols): rho_x^(beta-1) rho_y^(1-beta) m(y) g
                inte_x = (rho[:, None] ** (beta - 1) * rho[None, :] ** (1 - beta)
                          * m[None, :] * g * grid.weights[:, None])
            for nm, xmask, ymask, over_y in (
                    ("k1", near, near, True), ("k2", near, near, False),
                    ("k3", far, near, True), ("k4", near, far, False),
                    ("k5", near, far, True), ("k6", far, near, False),
                    ("k7", far, far, True), ("k8", far, far, False)):
                if not (xmask.any() and ymask.any()):
                    continue
                if over_y:
                    vals = inte_y[np.ix_(xmask, ymask)].sum(axis=1)
                else:
                    vals = inte_x[np.ix_(ymask, xmask)].sum(axis=0)
                sups[nm] = largest(vals, sups[nm])
        for nm in names:
            traces[nm].append(sups[nm])
    return SchurReport(p, theta, c, traces)


def min_weight_splice_check(kernel, t, params, n_fields=100):
    """Check ||T psi||_w <= 2^((p-1)/p) max(per-weight ratios) ||psi||_w on random fields.

    w = min(w1, w2) with w1 = rho^theta, w2 = (1+|x|^2)^(-delta); the bound uses
    the splitting over D = {w1 < w2} from the splice lemma's proof, so it holds
    field by field without knowing the true operator norms.
    """
    dom = kernel.domain
    p = params.p
    grid = interior_grid(dom, graded=True, level=10)
    x = grid.x
    rho = distance_to_boundary(dom, grid.nodes)
    w1 = rho ** params.theta
    w2 = (1 + x ** 2) ** (-params.delta)
    wmin = np.minimum(w1, w2)
    D = w1 < w2
    rng = np.random.default_rng(0)
    factor = 2.0 ** ((p - 1.0) / p)
    M = semigroup_matrix(kernel, t, grid)
    worst = 0.0
    failures = 0
    for _ in range(n_fields):
        vals = rng.normal(size=grid.n) * (1 + rho ** (-min(params.theta, 1.0) / p * 0.5))
        lhs = float(_lp(M @ vals, grid, wmin, p))
        ratios = []
        for mask, w in ((D, w1), (~D, w2)):
            part = np.where(mask, vals, 0.0)
            nn = float(_lp(part, grid, w, p))
            if nn > 0:
                ratios.append(float(_lp(M @ part, grid, w, p)) / nn)
        bound = factor * largest(ratios) * float(_lp(vals, grid, wmin, p))
        worst = largest(worst, lhs / bound)
        failures += not lhs <= bound * (1 + 1e-12)         # a NaN side is a failure
    return {"worst_ratio": worst, "failures": failures, "factor": factor, "n_fields": n_fields}


def cross_space_smoothing(kernel, params):
    """Fit of ||S(t)psi||_{theta=0,delta} / ||psi||_{theta,delta} for the boundary witness.

    The smoothing lemma gives slope at least -theta/(2p); the witness family
    rho^{-(1-eps)(theta+1)/p}, here with eps = 0.02, realizes it.
    """
    dom = kernel.domain
    ts = np.geomspace(1e-3, 1e-1, 7)
    target = WeightedSpaceParams(params.p, 0.0, params.delta)
    grid = interior_grid(dom, graded=True, level=14, per_panel=16)
    vals = boundary_witness(dom, grid, 0.98 * (params.theta + 1.0) / params.p)
    psi = Field(dom, grid, vals)
    n0 = weighted_norm(psi, params)
    ratios = [weighted_norm(apply_semigroup(kernel, t, psi), target) / n0 for t in ts]
    slope = loglog_slope(ts, ratios)
    return EstimateReport.from_trace(
        "cross_space_smoothing", f"{dom.kind} p={params.p} theta={params.theta}",
        ratios[::-1], fitted={"slope": slope, "target": -params.theta / (2 * params.p)})


def stability_rate(kernel, params, horizon=2.0, psi_values=None, grid=None):
    """Exponential decay rate of ||S(t)psi|| fitted at 8 times over t in [0.5, horizon]."""
    dom = kernel.domain
    if dom.kind != "interval01":
        raise ValueError("stability rate is fitted on the bounded interval")
    grid = grid or interval_grid(n=512)
    if psi_values is None:
        x = grid.x
        psi_values = x * (1 - x) * (1.2 + np.sin(3 * x))
    psi = Field(dom, grid, np.asarray(psi_values))
    ts = np.linspace(0.5, horizon, 8)
    norms = [weighted_norm(apply_semigroup(kernel, t, psi), params) for t in ts]
    A = np.column_stack([ts, np.ones_like(ts)])
    slope, _ = np.linalg.lstsq(A, np.log(norms), rcond=None)[0]
    return {"rate": float(-slope), "t_grid": list(ts), "norms": norms}
