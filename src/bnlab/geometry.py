"""Concrete spatial domains: boundary distance, interior/boundary quadrature, weights.

Domain kinds: the unit interval (0,1), the half line (0,inf), the half space
{x_1 > 0} in R^d and the unit ball in R^d (d >= 2), each with its exact
boundary distance.  Interior grids are 1-d (interval, half line); the half
plane and the ball reach the 1-d machinery by symmetry.  All quadrature grids
are immutable after construction and carry a recorded tolerance for how well
the weights cover the target measure.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

GAUSS_TAIL_EPS = 1e-12  # truncation target of the half-line grid: exp(-R^2/2) < eps


class DomainMembershipError(ValueError):
    """Point lies outside the closure of the domain."""


class UnsupportedDomainError(ValueError):
    """Operation is not available for this domain kind."""


@dataclass(frozen=True)
class Domain:
    """A concrete spatial region with exact distance-to-boundary.

    kind: one of "interval01", "halfline", "halfspace", "unitball".
    """

    kind: str
    dim: int

    def __repr__(self):
        return f"Domain({self.kind}, d={self.dim})"


def interval01():
    return Domain("interval01", 1)


def half_line():
    return Domain("halfline", 1)


def half_space(d):
    if d < 1:
        raise ValueError("half space needs d >= 1")
    return Domain("halfspace", int(d))


def unit_ball(d):
    if d < 2:
        raise ValueError("unit ball domain needs d >= 2 (d=1 is the interval)")
    return Domain("unitball", int(d))


@dataclass(frozen=True)
class WeightedSpaceParams:
    """Parameters (p, theta, delta) of the weighted state space.

    The weight is min(dist(x, boundary)^theta, (1+|x|^2)^(-delta)).
    `extension_ok` records whether theta < 2p - 1, the hypothesis under which
    the heat semigroup extends to the weighted space.
    """

    p: float
    theta: float
    delta: float = 0.0
    extension_ok: bool = field(init=False)

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("p must be > 1")
        if self.theta < 0 or self.delta < 0:
            raise ValueError("theta and delta must be >= 0")
        object.__setattr__(self, "extension_ok", self.theta < 2 * self.p - 1)


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights approximating a measure on (part of) a domain."""

    nodes: np.ndarray          # (n, d)
    weights: np.ndarray        # (n,)
    refinement_level: int
    tolerance: float           # recorded bound on |sum(weights) - covered measure| plus truncation effects

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.atleast_2d(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights length mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self):
        return self.nodes.shape[0]

    @property
    def x(self):
        """1-d coordinate view (only for dim-1 grids)."""
        if self.nodes.shape[1] != 1:
            raise ValueError("grid is not one-dimensional")
        return self.nodes[:, 0]

    def to_text(self):
        """Columnar serialization: one node per line, coordinates then weight."""
        lines = [f"# quadrature grid: n={self.n} dim={self.nodes.shape[1]} "
                 f"level={self.refinement_level} tolerance={self.tolerance:.6e}"]
        for row, w in zip(self.nodes, self.weights):
            lines.append(" ".join(f"{v:.17g}" for v in row) + f" {w:.17g}")
        return "\n".join(lines) + "\n"


def _points(domain, x):
    """Normalize x to an (n, d) array for the domain's dimension."""
    arr = np.asarray(x, dtype=float)
    d = domain.dim
    if d == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 1:
        if arr.shape[0] != d:
            raise ValueError(f"expected point of dimension {d}")
        return arr.reshape(1, d)
    if arr.shape[-1] != d:
        raise ValueError(f"expected points of dimension {d}")
    return arr.reshape(-1, d)


def distance_to_boundary(domain, x):
    """Distance from x to the boundary of the domain (exact closed forms).

    Raises DomainMembershipError if any point lies outside the closure.
    Returns a scalar for a single point, else an array.
    """
    pts = _points(domain, x)
    if domain.kind == "interval01":
        xi = pts[:, 0]
        if np.any(xi < -1e-14) or np.any(xi > 1 + 1e-14):
            raise DomainMembershipError("point outside [0,1]")
        rho = np.minimum(xi, 1.0 - xi)
    elif domain.kind in ("halfline", "halfspace"):
        xi = pts[:, 0]
        if np.any(xi < -1e-14):
            raise DomainMembershipError("point outside the half space closure")
        rho = xi.copy()
    elif domain.kind == "unitball":
        r = np.linalg.norm(pts, axis=1)
        if np.any(r > 1 + 1e-12):
            raise DomainMembershipError("point outside the closed unit ball")
        rho = 1.0 - r
    else:
        raise UnsupportedDomainError(domain.kind)
    rho = np.maximum(rho, 0.0)
    return rho[0] if np.ndim(x) == 0 or (domain.dim > 1 and np.ndim(x) == 1) else rho


def weight(domain, x, params):
    """Weight min(rho(x)^theta, (1+|x|^2)^(-delta)) of the weighted L^p space."""
    pts = _points(domain, x)
    rho = np.asarray(distance_to_boundary(domain, pts)).reshape(-1)
    r2 = np.einsum("nd,nd->n", pts, pts)
    w = np.minimum(rho ** params.theta, (1.0 + r2) ** (-params.delta))
    return w[0] if np.ndim(x) == 0 or (domain.dim > 1 and np.ndim(x) == 1) else w


def gaussian_truncation_radius():
    """Radius R with exp(-R^2/2) < GAUSS_TAIL_EPS: the Gaussian tail at unit time scale."""
    return float(np.sqrt(2.0 * np.log(1.0 / GAUSS_TAIL_EPS)))


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# boundary quadrature


def boundary_quadrature(domain, level=4):
    """Nodes and weights approximating the surface measure on the boundary.

    Interval01 has the two-atom measure (unit mass at 0 and 1); the half line
    a single atom at 0.  The circle and the sphere get product rules: the
    quadrature reference for the ball's closed-form boundary mass.
    """
    if domain.kind == "interval01":
        return QuadratureGrid(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), level, 0.0)
    if domain.kind == "halfline":
        return QuadratureGrid(np.array([[0.0]]), np.array([1.0]), level, 0.0)
    if domain.kind == "unitball":
        if domain.dim == 2:
            n = 2 ** level
            ang = 2 * np.pi * (np.arange(n) + 0.5) / n
            nodes = np.column_stack([np.cos(ang), np.sin(ang)])
            wts = np.full(n, 2 * np.pi / n)
            return QuadratureGrid(nodes, wts, level, 1e-14 * n)
        if domain.dim == 3:
            nz = 2 ** level
            z, wz = gauss_legendre(nz)
            nphi = 2 ** (level + 1)
            phi = 2 * np.pi * (np.arange(nphi) + 0.5) / nphi
            zz, pp = np.meshgrid(z, phi, indexing="ij")
            s = np.sqrt(1 - zz ** 2)
            nodes = np.column_stack([(s * np.cos(pp)).ravel(), (s * np.sin(pp)).ravel(), zz.ravel()])
            wts = (np.outer(wz, np.full(nphi, 2 * np.pi / nphi))).ravel()
            return QuadratureGrid(nodes, wts, level, 1e-13 * nodes.shape[0])
        raise UnsupportedDomainError("unit ball boundary quadrature supports d=2,3")
    raise UnsupportedDomainError(domain.kind)


# ---------------------------------------------------------------------------
# interior grids


def _graded_edges_01(level, per_panel):
    """Panel edges on (0, 1/2]: geometric grading with ratio 2 toward 0.

    The panels (0, 2^-(level+1)], ..., (1/4, 1/2] are cut by one linspace over
    their edge arrays, which rounds each point as a linspace per panel does.
    """
    edges = np.array([0.0] + [0.5 * 2.0 ** (-k) for k in range(level, -1, -1)])
    panels = np.linspace(edges[:-1], edges[1:], per_panel + 1, axis=1)
    return np.append(panels[:, :-1].ravel(), 0.5)


def _midpoint_cells(edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    wts = np.diff(edges)
    return mids, wts


def interval_grid(n=None, graded=False, level=8, per_panel=8):
    """Midpoint grid on (0,1); graded grids cluster geometrically toward both endpoints."""
    dom = interval01()
    if not graded:
        n = n or 256
        edges = np.linspace(0.0, 1.0, n + 1)
        mids, wts = _midpoint_cells(edges)
        return QuadratureGrid(mids[:, None], wts, 0, 1e-15 * n)
    left = _graded_edges_01(level, per_panel)
    edges = np.concatenate([left, (1.0 - left[::-1])[1:]])
    mids, wts = _midpoint_cells(edges)
    return QuadratureGrid(mids[:, None], wts, level, 1e-15 * len(mids))


def halfline_grid(level=10, per_panel=8, cutoff=None):
    """Grid on (0, cutoff): geometric panels toward 0, doubling panels outward.

    The default cutoff is the Gaussian truncation radius, at least 4.
    """
    if cutoff is None:
        cutoff = max(4.0, gaussian_truncation_radius())
    inner = _graded_edges_01(level, per_panel)          # covers (0, 1/2]
    edges = [inner]
    a = 0.5
    while a < cutoff:
        b = min(2 * a, cutoff)
        edges.append(np.linspace(a, b, per_panel + 1)[1:])
        a = b
    edges = np.concatenate([edges[0]] + edges[1:])
    mids, wts = _midpoint_cells(edges)
    tol = np.exp(-cutoff ** 2 / 2.0)
    return QuadratureGrid(mids[:, None], wts, level, tol)


def interior_grid(domain, n=None, graded=False, level=8, per_panel=8, cutoff=None):
    """Interior quadrature grid on the interval or the half line, clustered near the boundary.

    `graded` and `n` act on the interval only: the half-line grid is always
    graded.  The half plane and the ball have no interior grid: they reach the
    1-d machinery through the half-line influx and the radial majorant.
    """
    if domain.kind == "interval01":
        return interval_grid(n=n, graded=graded, level=level, per_panel=per_panel)
    if domain.kind == "halfline":
        return halfline_grid(level=level, per_panel=per_panel, cutoff=cutoff)
    raise UnsupportedDomainError(f"no interior grid for kind {domain.kind}")
