"""The Dirichlet map and the boundary propagator feeding noise into the interior.

The map sends boundary data gamma to the bounded solution of Laplace's
resolvent problem with that boundary trace; the propagator is its image under
the killed heat flow, computable directly from the boundary normal derivative
of the heat kernel.  Sign convention: outward normal, and the propagator is
psi_e = -int dG/dn e ds, which is nonnegative for nonnegative data (heat
enters from the boundary).

Only the Laplacian is given exact kernels, so the diffusion matrix is the
identity and the conormal direction coincides with the normal; operators with
a nontrivial matrix a would differentiate along sum_j a_ij n_j instead and
must enter through tabulated kernels that already carry that flux.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import QuadratureGrid, UnsupportedDomainError
from .kernels import HeatKernel
from .semigroup import Field


@dataclass
class BoundaryData:
    """Boundary datum: point atoms, sampled values on a boundary grid, or basis coefficients."""

    kind: str                         # "atoms" | "sampled" | "coeffs"
    points: np.ndarray = None         # atoms: (m, d_boundary-coords in ambient space)
    values: np.ndarray = None         # atoms/sampled values, coeffs coefficients
    grid: QuadratureGrid = None       # sampled: its boundary quadrature
    basis: object = None              # coeffs: basis descriptor from the noise module

    def __post_init__(self):
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
        if self.kind == "atoms":
            self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
            if len(self.points) != len(self.values):
                raise ValueError("atom points and values mismatch")
        elif self.kind == "sampled":
            if self.grid is None or len(self.values) != self.grid.n:
                raise ValueError("sampled data needs a matching boundary grid")
        elif self.kind == "coeffs":
            if self.basis is None:
                raise ValueError("coefficient data needs a basis")
        else:
            raise ValueError(f"unknown boundary data kind {self.kind}")


def endpoint_data(domain, *values):
    """Atoms on the boundary of the interval (gamma0, gamma1) or half line (gamma0)."""
    if domain.kind == "interval01":
        if len(values) != 2:
            raise ValueError("interval boundary data is a pair")
        return BoundaryData("atoms", points=[[0.0], [1.0]], values=list(values))
    if domain.kind == "halfline":
        if len(values) != 1:
            raise ValueError("half line boundary data is a single value")
        return BoundaryData("atoms", points=[[0.0]], values=list(values))
    raise UnsupportedDomainError("endpoint data lives on 1-d boundaries")


def read_boundary_data(text):
    """Parse the structured text format: 'kind: atoms' then coordinate... value lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("kind:"):
        raise ValueError("boundary data text must start with 'kind: <atoms|sampled>'")
    kind = lines[0].split(":", 1)[1].strip()
    rows = np.atleast_2d(np.asarray([[float(v) for v in ln.split()] for ln in lines[1:]]))
    if kind == "atoms":
        return BoundaryData("atoms", points=rows[:, :-1], values=rows[:, -1])
    if kind == "sampled":
        # node coordinates, quadrature weight, value per line
        grid = QuadratureGrid(rows[:, :-2], rows[:, -2], 0, 0.0)
        return BoundaryData("sampled", values=rows[:, -1], grid=grid)
    raise ValueError(f"unsupported boundary data kind {kind}")


@dataclass
class PropagatorField(Field):
    """Interior field generated by pushing a boundary datum through the flow."""

    datum: BoundaryData = None
    lam: float = 0.0


def _atom_scalar(points):
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[1] == 1:
        return pts[:, 0]
    return pts


def dirichlet_map(domain, lam, gamma, out_grid):
    """Solve the lambda-resolvent problem with boundary trace gamma.

    u(x) = -sum_b gamma(b) * d/dn 𝒢_lam(x, b) for atomic data (time quadrature
    of the kernel's boundary flux); lambda = 0 is allowed only on the bounded
    interval.  On the interval with lambda = 0 this is the linear interpolant
    of the endpoint values; on the half line it is gamma0 * exp(-sqrt(lam) x).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0 and domain.kind != "interval01":
        raise ValueError("lambda = 0 is not admissible on unbounded domains")
    ker = HeatKernel(domain)
    x = out_grid.x if out_grid.nodes.shape[1] == 1 else out_grid.nodes
    vals = np.zeros(out_grid.n)
    if gamma.kind == "atoms":
        for b, gv in zip(_atom_scalar(gamma.points), gamma.values):
            if gv == 0.0:
                continue
            vals -= gv * ker.resolvent_normal(lam, x, b)
    elif gamma.kind == "sampled":
        for b, gv, w in zip(gamma.grid.nodes, gamma.values, gamma.grid.weights):
            if gv == 0.0:
                continue
            bb = b[0] if len(b) == 1 else b
            vals -= gv * w * ker.resolvent_normal(lam, x, bb)
    else:
        raise ValueError("dirichlet map needs atoms or sampled data")
    return PropagatorField(domain, out_grid, vals, 0.0, datum=gamma, lam=lam)


def dirichlet_map_fn(domain, lam, gamma):
    """Pointwise evaluator of the Dirichlet map (for residual checks)."""
    ker = HeatKernel(domain)

    def u(x):
        xs = np.atleast_1d(np.asarray(x, float))
        out = np.zeros(xs.shape)
        for b, gv in zip(_atom_scalar(gamma.points), gamma.values):
            if gv == 0.0:
                continue
            out -= gv * ker.resolvent_normal(lam, xs, b)
        return out if np.ndim(x) else float(out[0])

    return u


def verify_harmonicity(domain, lam, gamma, h=1e-2, margin=0.1):
    """Finite-difference residual max |D2_h u - lam u| plus boundary recovery.

    Second-order central differences on a uniform interior sub-grid a fixed
    margin away from the boundary; boundary recovery reports |u(near b) - gamma(b)|.
    """
    u = dirichlet_map_fn(domain, lam, gamma)
    hi = 1.0 - margin if domain.kind == "interval01" else 4.0
    xs = np.arange(margin, hi + h / 2, h)
    uv = u(xs)
    lap = (uv[2:] - 2 * uv[1:-1] + uv[:-2]) / h ** 2
    residual = float(np.max(np.abs(lap - lam * uv[1:-1])))
    recovery = 0.0
    for b, gv in zip(_atom_scalar(gamma.points), gamma.values):
        xb = float(b) + h if float(b) < 0.5 else float(b) - h
        recovery = max(recovery, abs(u(xb) - gv))
    return {"residual": residual, "boundary_recovery": recovery, "h": h}


def boundary_propagator(domain, t, e, out_grid, kernel=None):
    """The flux field psi_e(t, x) = -int dG/dn(t, x, y) e(y) ds(y).

    Finite and smooth for every t > 0 even for atomic data; independent of the
    resolvent shift by construction.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    ker = kernel or HeatKernel(domain)
    x = out_grid.x if out_grid.nodes.shape[1] == 1 else out_grid.nodes
    vals = np.zeros(out_grid.n)
    if e.kind == "atoms":
        for b, ev in zip(_atom_scalar(e.points), e.values):
            if ev == 0.0:
                continue
            vals -= ev * ker.normal_derivative(t, x, b)
    elif e.kind == "sampled":
        for b, ev, w in zip(e.grid.nodes, e.values, e.grid.weights):
            if ev == 0.0:
                continue
            bb = b[0] if len(b) == 1 else b
            vals -= ev * w * ker.normal_derivative(t, x, bb)
    else:
        raise ValueError("propagator needs atoms or sampled data")
    return PropagatorField(domain, out_grid, vals, t, datum=e)


def propagator_majorant(domain, t, e, out_grid, c=4.0, big_c=1.0, level=None):
    """Pointwise Gaussian surface-integral majorant (C / sqrt(t)) int g_ct(x-y) |e| ds.

    This is the only propagator route on the ball and on generic domains.
    """
    pts = np.atleast_2d(out_grid.nodes)
    if e.kind == "atoms":
        apts = np.atleast_2d(np.asarray(e.points, float))
        if apts.shape[1] != pts.shape[1]:
            apts = np.column_stack([apts, np.zeros((len(apts), pts.shape[1] - apts.shape[1]))])
        d2 = ((pts[:, None, :] - apts[None, :, :]) ** 2).sum(axis=-1)
        surf = (np.abs(e.values)[None, :] * (2 * np.pi * c * t) ** (-pts.shape[1] / 2.0)
                * np.exp(-d2 / (2 * c * t))).sum(axis=1)
    elif e.kind == "sampled":
        d2 = ((pts[:, None, :] - e.grid.nodes[None, :, :]) ** 2).sum(axis=-1)
        surf = ((2 * np.pi * c * t) ** (-pts.shape[1] / 2.0) * np.exp(-d2 / (2 * c * t))
                * np.abs(e.values)[None, :] * e.grid.weights[None, :]).sum(axis=1)
    else:
        raise ValueError("majorant needs atoms or sampled data")
    return Field(domain, out_grid, big_c / np.sqrt(t) * surf, t)


def fit_majorant_constant(domain, e, out_grid, c=4.0, t_grid=None):
    """Smallest C with |psi_e(t,x)| <= (C/sqrt(t)) int g_ct(x-y)|e(y)| ds pointwise."""
    ts = np.asarray(t_grid if t_grid is not None else np.geomspace(1e-3, 1.0, 12))
    sup = 0.0
    for t in ts:
        exact = boundary_propagator(domain, t, e, out_grid)
        shape = propagator_majorant(domain, t, e, out_grid, c=c, big_c=1.0)
        mask = shape.values > 0
        sup = max(sup, float(np.max(np.abs(exact.values[mask]) / shape.values[mask])))
    return sup
