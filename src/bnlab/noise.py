"""Boundary Wiener processes: mode bases, spectral measures, reproducible sampling.

Noise is specified as a finite or truncated series of boundary functions with
independent scalar Wiener coefficients.  Spatially homogeneous processes on
the flat boundary of a half space are described by a symmetric spectral
measure; their mode bases come from a symmetric cell partition of frequency
space, and the space correlation is the Fourier transform of the measure.

Sampling is counter-based: every (purpose, index...) tuple deterministically
derives its own Philox substream from the root seed, so ensembles replay
bit-for-bit and distinct streams are independent.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .geometry import UnsupportedDomainError


# ---------------------------------------------------------------------------
# reproducible substreams


def substream(root_seed, *indices):
    """Philox generator keyed by the root seed and a tuple of stream indices."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def lineage(root_seed, *indices):
    return f"philox[{int(root_seed)}" + "".join(f".{int(i)}" for i in indices) + "]"


# ---------------------------------------------------------------------------
# spectral measures on R^m


@dataclass(frozen=True)
class SpectralMeasure:
    """Symmetric spectral measure: atoms, Lebesgue, Bessel family, or a density.

    kind "atoms": points (k, m) with masses, symmetrized under z -> -z.
    kind "bessel": density (1+|z|^2)^(-kappa/2).  kind "density": an even
    callable (m = 1 only).  kind "lebesgue": the flat measure.
    """

    kind: str
    m: int = 1
    kappa: float = None
    points: tuple = None
    masses: tuple = None
    density: object = None

    def total_mass(self):
        if self.kind == "atoms":
            return 2.0 * float(np.sum(self.masses))
        if self.kind == "lebesgue":
            return np.inf
        if self.kind == "bessel":
            if self.kappa <= self.m:
                return np.inf
            if self.m == 1:
                return float(integrate.quad(lambda z: 2 * (1 + z * z) ** (-self.kappa / 2),
                                            0, np.inf, limit=200)[0])
            raise UnsupportedDomainError("bessel mass computed for m = 1")
        return float(integrate.quad(lambda z: 2 * self.density(z), 0, np.inf, limit=200)[0])

    def gauss_transform(self, s):
        """int exp(-s |z|^2) d mu(z); the time-dependent mode mass of half-space variances."""
        if s <= 0:
            raise ValueError("s must be positive")
        if self.kind == "atoms":
            pts = np.asarray(self.points, float).reshape(len(self.masses), -1)
            return 2.0 * float(np.sum(np.asarray(self.masses) * np.exp(-s * (pts ** 2).sum(axis=1))))
        if self.kind == "lebesgue":
            return float((np.pi / s) ** (self.m / 2.0))
        if self.kind == "bessel":
            if self.m != 1:
                raise UnsupportedDomainError("bessel transform computed for m = 1")
            # int (1+z^2)^(-k/2) e^(-s z^2) dz = sqrt(pi) U(1/2, (3-k)/2, s), uniformly
            # accurate down to s -> 0 (direct quadrature loses the spike there)
            from scipy.special import hyperu
            return float(np.sqrt(np.pi) * hyperu(0.5, (3.0 - self.kappa) / 2.0, s))
        return 2.0 * integrate.quad(lambda z: self.density(z) * np.exp(-s * z * z),
                                    0, np.inf, limit=200)[0]

    def density_at(self, z):
        z = np.asarray(z, float)
        if self.kind == "lebesgue":
            return np.ones_like(z)
        if self.kind == "bessel":
            return (1 + z * z) ** (-self.kappa / 2)
        if self.kind == "density":
            return self.density(z)
        raise ValueError("atomic measures have no density")


def bessel_measure(kappa, m=1):
    return SpectralMeasure("bessel", m=m, kappa=float(kappa))


def lebesgue_measure(m=1):
    return SpectralMeasure("lebesgue", m=m)


def atomic_measure(points, masses, m=None):
    pts = np.atleast_2d(np.asarray(points, float))
    return SpectralMeasure("atoms", m=m or pts.shape[1],
                           points=tuple(map(tuple, pts)), masses=tuple(np.asarray(masses, float)))


def spectral_correlation(measure, y):
    """Space correlation: the Fourier transform of the spectral measure at lag y.

    Atomic measures give the exact cosine sum in any dimension; continuous
    densities are transformed by oscillatory-weight quadrature (m = 1).
    """
    if measure.kind == "atoms":
        pts = np.asarray(measure.points, float).reshape(len(measure.masses), -1)
        yv = np.atleast_1d(np.asarray(y, float))
        phase = pts @ yv if pts.shape[1] == yv.shape[0] else pts[:, 0] * yv
        return 2.0 * float(np.sum(np.asarray(measure.masses) * np.cos(phase)))
    if measure.kind == "lebesgue":
        raise UnsupportedDomainError("the flat measure has no pointwise correlation")
    if measure.m != 1:
        raise UnsupportedDomainError("continuous correlations computed for m = 1")
    yy = abs(float(np.asarray(y).reshape(-1)[0])) if np.ndim(y) else abs(float(y))
    dens = measure.density_at
    integrable = not (measure.kind == "bessel" and measure.kappa <= 1)
    if yy == 0.0 or (yy < 1e-4 and integrable):
        # no oscillation happens before an integrable density has decayed away
        if not integrable:
            return np.inf
        return 2.0 * integrate.quad(lambda z: dens(z) * np.cos(yy * z), 0, np.inf, limit=300)[0]
    # QUADPACK Fourier integral handles the oscillation panel by panel
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val = integrate.quad(lambda z: dens(z), 0, np.inf, weight="cos", wvar=yy,
                             limit=400, epsabs=1e-12)[0]
    return 2.0 * val


def time_decay_integral(r, alpha=0.0):
    """The half-space flux time integral int_0^inf s^(-2-alpha) e^(-1/s - r^2 s) ds.

    Computed after the substitution u = 1/s as int u^alpha e^(-u - r^2/u) du
    (adaptive quadrature); equals Gamma(alpha+1) at r = 0 and decays like
    e^(-2r) for large r.  Monotone decreasing in r.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    rs = np.atleast_1d(np.asarray(r, float))
    if np.any(rs < 0):
        raise ValueError("r must be nonnegative")
    out = np.empty(rs.shape)
    for i, rv in enumerate(rs.reshape(-1)):
        out.reshape(-1)[i] = integrate.quad(
            lambda u: u ** alpha * np.exp(-u - (rv * rv) / u if u > 0 else -np.inf),
            0, np.inf, limit=300, epsabs=1e-13)[0]
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# boundary noise specifications and RKHS bases


@dataclass(frozen=True)
class NoiseSpec:
    """Boundary noise: which modes drive the boundary, and how they are truncated.

    kind "endpoints": unit atoms at the boundary points of a 1-d domain.
    kind "finite_series": explicit boundary functions (callables on boundary
    points) with their sup norms.  kind "circle_white": truncated Fourier
    basis of L^2(S^1).  kind "homogeneous": spatially homogeneous process on
    the flat boundary R^m given by a spectral measure with a frequency
    truncation (z_max, n_cells).
    """

    kind: str
    n_atoms: int = 0
    functions: tuple = None
    sup_norms: tuple = None
    truncation: int = 0
    measure: SpectralMeasure = None
    z_max: float = 0.0
    n_cells: int = 0

    @property
    def n_modes(self):
        if self.kind == "endpoints":
            return self.n_atoms
        if self.kind == "finite_series":
            return len(self.functions)
        if self.kind == "circle_white":
            return 2 * self.truncation + 1
        if self.kind == "homogeneous":
            return 2 * self.n_cells
        raise ValueError(self.kind)


def endpoint_noise(domain):
    n = 2 if domain.kind == "interval01" else 1
    if domain.kind not in ("interval01", "halfline"):
        raise UnsupportedDomainError("endpoint noise lives on 1-d boundaries")
    return NoiseSpec("endpoints", n_atoms=n)


def circle_white_noise(truncation):
    return NoiseSpec("circle_white", truncation=int(truncation))


def rotational_noise(amplitudes, wave_vectors):
    """Sup-summable rotation-invariant field on a sphere: a_k (cos<y,b_k>, sin<y,b_k>)."""
    amps = np.asarray(amplitudes, float)
    vecs = np.atleast_2d(np.asarray(wave_vectors, float))
    funcs, sups = [], []
    for a, b in zip(amps, vecs):
        funcs.append(lambda y, a=a, b=b: a * np.cos(np.atleast_2d(y) @ b))
        funcs.append(lambda y, a=a, b=b: a * np.sin(np.atleast_2d(y) @ b))
        sups.extend([abs(a), abs(a)])
    return NoiseSpec("finite_series", functions=tuple(funcs), sup_norms=tuple(sups))


def homogeneous_noise(measure, z_max=12.0, n_cells=24):
    return NoiseSpec("homogeneous", measure=measure, z_max=float(z_max), n_cells=int(n_cells))


def circle_basis_functions(truncation):
    """Orthonormal Fourier family on the unit circle, as functions of 2-d boundary points."""
    funcs = [lambda pts: np.full(np.atleast_2d(pts).shape[0], (2 * np.pi) ** -0.5)]
    for k in range(1, truncation + 1):
        funcs.append(lambda pts, k=k: np.cos(k * np.arctan2(np.atleast_2d(pts)[:, 1],
                                                            np.atleast_2d(pts)[:, 0])) / np.sqrt(np.pi))
        funcs.append(lambda pts, k=k: np.sin(k * np.arctan2(np.atleast_2d(pts)[:, 1],
                                                            np.atleast_2d(pts)[:, 0])) / np.sqrt(np.pi))
    return funcs


@dataclass(frozen=True)
class FrequencyCells:
    """Symmetric partition of [-z_max, z_max] backing the homogeneous mode basis.

    Each cell (0 < z1 < z2) yields a cosine and a sine mode, orthonormal in the
    measure-weighted symmetric L^2; cell masses are the measure of the cell.
    """

    edges: tuple
    masses: tuple
    gl_nodes: tuple            # per cell: quadrature nodes and mu-weights
    gl_weights: tuple

    @property
    def n_cells(self):
        return len(self.masses)


def frequency_cells(measure, z_max, n_cells, gl_order=12):
    if measure.kind == "atoms":
        raise ValueError("atomic measures need no cell basis")
    edges = np.linspace(0.0, z_max, n_cells + 1)
    gx, gw = np.polynomial.legendre.leggauss(gl_order)
    nodes, wts, masses = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        z = 0.5 * (b - a) * gx + 0.5 * (a + b)
        w = 0.5 * (b - a) * gw * measure.density_at(z)
        nodes.append(z)
        wts.append(w)
        masses.append(float(np.sum(w)))
    return FrequencyCells(tuple(edges), tuple(masses),
                          tuple(map(tuple, nodes)), tuple(map(tuple, wts)))


class BasisDescriptor:
    """Explicit orthonormal mode family for a noise spec on a given domain."""

    def __init__(self, spec, domain, kind, functions=None, atom_points=None, cells=None):
        self.spec = spec
        self.domain = domain
        self.kind = kind
        self.functions = functions
        self.atom_points = atom_points
        self.cells = cells

    @property
    def n_modes(self):
        if self.kind == "atoms":
            return len(self.atom_points)
        if self.kind == "cells":
            return 2 * self.cells.n_cells
        return len(self.functions)

    def gram_matrix(self, boundary_grid):
        if self.kind != "functions":
            raise ValueError("gram check applies to function bases")
        vals = np.stack([f(boundary_grid.nodes) for f in self.functions])
        return (vals * boundary_grid.weights[None, :]) @ vals.T


def rkhs_basis(spec, domain):
    """Concrete orthonormal basis realizing the noise spec on the domain's boundary."""
    if spec.kind == "endpoints":
        pts = [[0.0], [1.0]] if domain.kind == "interval01" else [[0.0]]
        return BasisDescriptor(spec, domain, "atoms", atom_points=np.asarray(pts))
    if spec.kind == "circle_white":
        return BasisDescriptor(spec, domain, "functions",
                               functions=circle_basis_functions(spec.truncation))
    if spec.kind == "finite_series":
        return BasisDescriptor(spec, domain, "functions", functions=list(spec.functions))
    if spec.kind == "homogeneous":
        cells = frequency_cells(spec.measure, spec.z_max, spec.n_cells)
        return BasisDescriptor(spec, domain, "cells", cells=cells)
    raise ValueError(spec.kind)


# ---------------------------------------------------------------------------
# increment sampling


def circle_truncation_check(t, rho, c=4.0, truncation=None, n_quad=8192):
    """Stability of the truncated Fourier flux sum on the circle.

    The complete-basis surface integral int g_ct(x-y)^2 ds(y) is approached by
    the truncated sums sum_{k<=K} (int g_ct(x-y) e_k ds)^2; the default K obeys
    the Gaussian angular scale rule K = ceil(6/sqrt(ct)) + 8, and doubling K
    must move the sum by less than 1% for the truncation to count as resolved.
    """
    if truncation is None:
        truncation = int(np.ceil(6.0 / np.sqrt(c * t))) + 8
    ang = 2 * np.pi * (np.arange(n_quad) + 0.5) / n_quad
    w = 2 * np.pi / n_quad
    x = np.array([1.0 - rho, 0.0])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    d2 = ((pts - x) ** 2).sum(axis=1)
    h = (2 * np.pi * c * t) ** -1.0 * np.exp(-d2 / (2 * c * t))

    def partial(K):
        total = (h.sum() * w) ** 2 / (2 * np.pi)        # constant mode
        for k in range(1, K + 1):
            total += (np.sum(h * np.cos(k * ang)) * w) ** 2 / np.pi
            total += (np.sum(h * np.sin(k * ang)) * w) ** 2 / np.pi
        return total

    s1, s2 = partial(truncation), partial(2 * truncation)
    full = float(np.sum(h * h) * w)
    return {"truncation": truncation, "sum_K": s1, "sum_2K": s2, "parseval": full,
            "doubling_rel_change": abs(s2 - s1) / s2 if s2 else 0.0,
            "parseval_rel_gap": abs(full - s2) / full if full else 0.0}


@dataclass
class NoiseIncrement:
    coefficients: np.ndarray       # (count, n_modes), each N(0, dt)
    dt: float
    seed_lineage: str


def sample_increments(spec, dt, count, root_seed, stream_index=0, law="gaussian", df=3.0):
    """Independent per-mode increments over a step dt, deterministic in the seed.

    law "student_t" (variance-matched) exists as a heavy-tailed negative
    control for the Gaussian-tail diagnostics; it is never used by the solvers.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if law == "student_t" and not df > 2:
        raise ValueError(f"student_t needs df > 2 for variance matching, got df={df}")
    gen = substream(root_seed, stream_index)
    n = spec.n_modes if hasattr(spec, "n_modes") else int(spec)
    if law == "gaussian":
        coeff = gen.normal(size=(count, n)) * np.sqrt(dt)
    elif law == "student_t":
        coeff = gen.standard_t(df, size=(count, n)) * np.sqrt(dt * (df - 2.0) / df)
    else:
        raise ValueError(law)
    return NoiseIncrement(coeff, dt, lineage(root_seed, stream_index))
