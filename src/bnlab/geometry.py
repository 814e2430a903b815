"""Concrete spatial domains: boundary distance, interior/boundary quadrature, weights.

Supported domain kinds: the unit interval (0,1), the half line (0,inf), the
half space {x_1 > 0} in R^d and the unit ball in R^d (d >= 2).  All
quadrature grids are immutable after construction and carry a recorded
tolerance for how well the weights cover the target measure.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

GAUSS_TAIL_EPS = 1e-12  # truncation target for unbounded domains: exp(-R^2/(2 c t_max)) < eps


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


def distance_to_boundary(domain, x, check=True):
    """Distance from x to the boundary of the domain (exact closed forms).

    Raises DomainMembershipError if any point lies outside the closure.
    Returns a scalar for a single point, else an array.
    """
    pts = _points(domain, x)
    if domain.kind == "interval01":
        xi = pts[:, 0]
        if check and (np.any(xi < -1e-14) or np.any(xi > 1 + 1e-14)):
            raise DomainMembershipError("point outside [0,1]")
        rho = np.minimum(xi, 1.0 - xi)
    elif domain.kind in ("halfline", "halfspace"):
        xi = pts[:, 0]
        if check and np.any(xi < -1e-14):
            raise DomainMembershipError("point outside the half space closure")
        rho = xi.copy()
    elif domain.kind == "unitball":
        r = np.linalg.norm(pts, axis=1)
        if check and np.any(r > 1 + 1e-12):
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


def gaussian_truncation_radius(c=1.0, t_max=1.0):
    """Radius R with exp(-R^2/(2 c t_max)) < GAUSS_TAIL_EPS; all downstream integrands
    carry this factor."""
    return float(np.sqrt(2.0 * c * t_max * np.log(1.0 / GAUSS_TAIL_EPS)))


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# boundary quadrature


def boundary_quadrature(domain, level=4, c=1.0, t_max=1.0):
    """Nodes and weights approximating the surface measure on the boundary.

    Interval01 has the two-atom measure (unit mass at 0 and 1); the half line
    a single atom at 0.  Unbounded boundaries are truncated at the Gaussian
    tail radius for (c, t_max) and the truncation bound is recorded in the
    grid tolerance.
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
    if domain.kind == "halfspace":
        R = gaussian_truncation_radius(c, t_max)
        m = domain.dim - 1
        if m == 0:
            return QuadratureGrid(np.array([[0.0]]), np.array([1.0]), level, 0.0)
        n1 = 2 ** (level + 2)
        edges = np.linspace(-R, R, n1 + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        h = edges[1] - edges[0]
        axes = np.meshgrid(*([mids] * m), indexing="ij")
        tang = np.column_stack([a.ravel() for a in axes])
        nodes = np.column_stack([np.zeros(len(tang)), tang])
        wts = np.full(len(tang), h ** m)
        tol = 2 * m * (2 * R) ** (m - 1) * np.exp(-R ** 2 / (2 * c * t_max))
        return QuadratureGrid(nodes, wts, level, tol)
    raise UnsupportedDomainError(domain.kind)


# ---------------------------------------------------------------------------
# interior grids


def _graded_edges_01(level, per_panel):
    """Panel edges on (0, 1/2]: geometric grading with ratio 2 toward 0."""
    edges = [0.5 * 2.0 ** (-k) for k in range(level + 1)]
    edges = np.array(edges[::-1])            # ascending, from 2^-(level+1) down to 0.5
    edges = np.concatenate([[0.0], edges])
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, per_panel + 1)
        out.append(sub[:-1])
    out = np.concatenate(out + [[0.5]])
    return out


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

    The default cutoff is the Gaussian truncation radius at c = t_max = 1, at
    least 4.
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


def ball_grid(d, level=8, per_panel=6, n_ang=64):
    """Grid on the unit ball: radius graded toward r=1, uniform angles.

    Cell weights carry the exact radial volume element, so the weights sum to
    the ball volume up to float roundoff.
    """
    redges = 1.0 - _graded_edges_01(level, per_panel)[::-1]   # ascending in r, graded toward 1
    if d == 2:
        ang = 2 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
        nodes, wts = [], []
        for r0, r1 in zip(redges[:-1], redges[1:]):
            mass = (r1 ** 2 - r0 ** 2) / 2.0            # per unit angle
            rc = np.sqrt((r0 ** 2 + r1 ** 2) / 2.0)
            nodes.append(np.column_stack([rc * np.cos(ang), rc * np.sin(ang)]))
            wts.append(np.full(n_ang, mass * 2 * np.pi / n_ang))
        # central disc
        r0 = redges[0]
        nodes.append(np.array([[0.0, 0.0]]))
        wts.append(np.array([np.pi * r0 ** 2]))
        return QuadratureGrid(np.vstack(nodes), np.concatenate(wts), level, 1e-13)
    if d == 3:
        nz = max(8, n_ang // 8)
        z, wz = gauss_legendre(nz)
        nphi = n_ang
        phi = 2 * np.pi * (np.arange(nphi) + 0.5) / nphi
        zz, pp = np.meshgrid(z, phi, indexing="ij")
        s = np.sqrt(1 - zz ** 2)
        dirs = np.column_stack([(s * np.cos(pp)).ravel(), (s * np.sin(pp)).ravel(), zz.ravel()])
        dwts = np.outer(wz, np.full(nphi, 2 * np.pi / nphi)).ravel()
        nodes, wts = [], []
        for r0, r1 in zip(redges[:-1], redges[1:]):
            mass = (r1 ** 3 - r0 ** 3) / 3.0
            rc = ((r0 ** 3 + r1 ** 3) / 2.0) ** (1.0 / 3.0)
            nodes.append(rc * dirs)
            wts.append(mass * dwts)
        r0 = redges[0]
        nodes.append(np.zeros((1, 3)))
        wts.append(np.array([4 * np.pi * r0 ** 3 / 3.0]))
        return QuadratureGrid(np.vstack(nodes), np.concatenate(wts), level, 1e-12)
    raise UnsupportedDomainError("ball grids support d=2,3")


def halfspace_grid(d, level=8, per_panel=6, cutoff=None):
    """Grid on the half space {x_1 > 0}: graded in x_1, uniform truncated box tangentially.

    The box has 64 cells per tangential axis over the Gaussian truncation
    radius at c = t_max = 1.
    """
    g1 = halfline_grid(level=level, per_panel=per_panel, cutoff=cutoff)
    if d == 1:
        return g1
    R = gaussian_truncation_radius()
    edges = np.linspace(-R, R, 64 + 1)
    mids, h = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    axes = [g1.x] + [mids] * (d - 1)
    wtaxes = [g1.weights] + [h] * (d - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    wmesh = np.meshgrid(*wtaxes, indexing="ij")
    wts = np.ones(nodes.shape[0])
    for wm in wmesh:
        wts = wts * wm.ravel()
    return QuadratureGrid(nodes, wts, level, g1.tolerance + (d - 1) * np.exp(-R ** 2 / 2.0))


def interior_grid(domain, n=None, graded=False, level=8, per_panel=8, cutoff=None):
    """Interior quadrature grid for the domain, clustered near the boundary.

    `graded` and `n` act on the interval only: the other grids are always graded.
    """
    if domain.kind == "interval01":
        return interval_grid(n=n, graded=graded, level=level, per_panel=per_panel)
    if domain.kind == "halfline":
        return halfline_grid(level=level, per_panel=per_panel, cutoff=cutoff)
    if domain.kind == "unitball":
        return ball_grid(domain.dim, level=level, per_panel=max(4, per_panel // 2))
    if domain.kind == "halfspace":
        return halfspace_grid(domain.dim, level=level, per_panel=max(4, per_panel // 2),
                              cutoff=cutoff)
    raise UnsupportedDomainError(f"no interior grid for kind {domain.kind}")
