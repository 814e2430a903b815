"""The Dirichlet map and the boundary propagator feeding noise into the interior.

The map sends boundary data gamma to the bounded solution of Laplace's
resolvent problem with that boundary trace; the propagator is its image under
the killed heat flow, computable directly from the boundary normal derivative
of the heat kernel.  Sign convention: outward normal, and the propagator is
psi_e = -int dG/dn e ds, which is nonnegative for nonnegative data (heat
enters from the boundary).

Only the Laplacian is given exact kernels, so the diffusion matrix is the
identity and the conormal direction coincides with the normal; operators with
a nontrivial matrix a would differentiate along sum_j a_ij n_j instead.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid, UnsupportedDomainError, boundary_quadrature
from .kernels import HeatKernel
from .reports import largest
from .semigroup import Field


@dataclass
class BoundaryData:
    """Boundary datum: values at the nodes of a boundary quadrature.

    A point atom is a one-node cell whose weight is its mass, so endpoint data
    and sampled data on a boundary grid are the same object.
    """

    values: np.ndarray
    grid: QuadratureGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.n:
            raise ValueError(f"{len(self.values)} boundary values for {self.grid.n} boundary nodes")


def endpoint_data(domain, *values):
    """Unit atoms at the boundary of the interval (gamma0, gamma1) or half line (gamma0)."""
    if domain.kind not in ("interval01", "halfline"):
        raise UnsupportedDomainError("endpoint data lives on 1-d boundaries")
    return BoundaryData(values, boundary_quadrature(domain))


def _boundary_sum(gamma, flux, shape):
    """-sum_b w_b gamma_b flux(b) over the nodes b of the datum where gamma_b != 0."""
    out = np.zeros(shape)
    for b, gv, w in zip(gamma.grid.nodes, gamma.values, gamma.grid.weights):
        if gv != 0.0:
            out -= gv * w * flux(b[0] if len(b) == 1 else b)
    return out


def _map_values(domain, lam, gamma, x):
    """u(x) = -sum_b w_b gamma(b) * d/dn 𝒢_lam(x, b) at the points x (1-d), by time
    quadrature of the kernel's boundary flux; lambda = 0 only on the bounded interval."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0 and domain.kind != "interval01":
        raise ValueError("lambda = 0 is not admissible on unbounded domains")
    ker = HeatKernel(domain)
    return _boundary_sum(gamma, lambda b: ker.resolvent_normal(lam, x, b), x.shape)


def dirichlet_map(domain, lam, gamma, out_grid):
    """Solve the lambda-resolvent problem with boundary trace gamma on the grid.

    On the interval with lambda = 0 this is the linear interpolant of the
    endpoint values; on the half line it is gamma0 * exp(-sqrt(lam) x).
    """
    return Field(domain, out_grid, _map_values(domain, lam, gamma, out_grid.x))


def verify_harmonicity(domain, lam, gamma, h=1e-2):
    """Finite-difference residual max |D2_h u - lam u| plus boundary recovery.

    Second-order central differences on a uniform interior sub-grid 0.1 away
    from the boundary; boundary recovery reports |u(near b) - gamma(b)|
    at the endpoints b of the datum's grid, one map evaluation per point.
    """
    margin = 0.1
    hi = 1.0 - margin if domain.kind == "interval01" else 4.0
    xs = np.arange(margin, hi + h / 2, h)
    uv = _map_values(domain, lam, gamma, xs)
    lap = (uv[2:] - 2 * uv[1:-1] + uv[:-2]) / h ** 2
    residual = float(np.max(np.abs(lap - lam * uv[1:-1])))
    recovery = 0.0
    for b, gv in zip(gamma.grid.x, gamma.values):
        xb = float(b) + h if float(b) < 0.5 else float(b) - h
        ub = float(_map_values(domain, lam, gamma, np.array([xb]))[0])
        recovery = largest(recovery, abs(ub - gv))
    return {"residual": residual, "boundary_recovery": recovery, "h": h}


def boundary_propagator(domain, t, e, out_grid, kernel=None):
    """The flux field psi_e(t, x) = -int dG/dn(t, x, y) e(y) ds(y).

    Finite and smooth for every t > 0 even for atomic data; independent of the
    resolvent shift by construction.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    ker = kernel or HeatKernel(domain)
    x = out_grid.x
    vals = _boundary_sum(e, lambda b: ker.normal_derivative(t, x, b), out_grid.n)
    return Field(domain, out_grid, vals)


def propagator_majorant(domain, t, e, out_grid, c=4.0, big_c=1.0):
    """Pointwise Gaussian surface-integral majorant (C / sqrt(t)) int g_ct(x-y) |e| ds.

    This is the only propagator route on the ball, which has no exact kernel here.
    """
    pts = out_grid.nodes
    d2 = ((pts[:, None, :] - e.grid.nodes[None, :, :]) ** 2).sum(axis=-1)
    mass = np.abs(e.values) * e.grid.weights
    surf = (mass[None, :] * (2 * np.pi * c * t) ** (-pts.shape[1] / 2.0)
            * np.exp(-d2 / (2 * c * t))).sum(axis=1)
    return Field(domain, out_grid, big_c / np.sqrt(t) * surf)


def fit_majorant_constant(domain, e, out_grid, c=4.0):
    """Smallest C with |psi_e(t,x)| <= (C/sqrt(t)) int g_ct(x-y)|e(y)| ds pointwise,
    over 12 times in [1e-3, 1]."""
    sup = 0.0
    for t in np.geomspace(1e-3, 1.0, 12):
        exact = boundary_propagator(domain, t, e, out_grid)
        shape = propagator_majorant(domain, t, e, out_grid, c=c, big_c=1.0)
        mask = shape.values != 0            # a NaN majorant keeps its NaN ratio
        sup = largest(sup, np.abs(exact.values[mask]) / shape.values[mask])
    return sup
