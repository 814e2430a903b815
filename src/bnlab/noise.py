"""Boundary Wiener processes: mode bases, spectral measures, reproducible sampling.

Noise is a finite or truncated series of boundary modes with independent
scalar Wiener coefficients: endpoint atoms (interval, half line), frequency
cells on the boundary line of the half plane, and on the circle white noise
or a sup-summable series known by the sup norms of its terms.  Homogeneous
processes on that line are described by a symmetric spectral measure; their
mode bases come from a symmetric cell partition of frequency space, and the
space correlation is the Fourier transform of the measure.

Sampling is counter-based: every (purpose, index...) tuple deterministically
derives its own Philox substream from the root seed, so ensembles replay
bit-for-bit and distinct streams are independent.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import UnsupportedDomainError, gauss_legendre


# ---------------------------------------------------------------------------
# reproducible substreams


def substream(root_seed, *indices):
    """Philox generator keyed by the root seed and a tuple of stream indices."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# spectral measures on R^m


@dataclass(frozen=True)
class SpectralMeasure:
    """Symmetric spectral measure: atoms, Lebesgue or the Bessel family.

    kind "atoms": points (k, m) with masses, symmetrized under z -> -z.
    kind "bessel": density (1+|z|^2)^(-kappa/2).  kind "lebesgue": the flat
    measure.
    """

    kind: str
    m: int = 1
    kappa: float = None
    points: tuple = None
    masses: tuple = None

    def gauss_transform(self, s):
        """int exp(-s |z|^2) d mu(z); the time-dependent mode mass of half-space variances.

        s may be an array, transformed entry by entry: a float for a scalar s.
        """
        s = np.asarray(s, float)
        if np.any(s <= 0):
            raise ValueError("s must be positive")
        if self.kind == "atoms":
            pts = np.asarray(self.points, float).reshape(len(self.masses), -1)
            out = 2.0 * np.sum(np.asarray(self.masses)
                               * np.exp(-s[..., None] * (pts ** 2).sum(axis=1)), axis=-1)
        elif self.kind == "lebesgue":
            out = (np.pi / s) ** (self.m / 2.0)
        else:
            if self.m != 1:
                raise UnsupportedDomainError("bessel transform computed for m = 1")
            # int (1+z^2)^(-k/2) e^(-s z^2) dz = sqrt(pi) U(1/2, (3-k)/2, s), uniformly
            # accurate down to s -> 0 (direct quadrature loses the spike there)
            from scipy.special import hyperu
            out = np.sqrt(np.pi) * hyperu(0.5, (3.0 - self.kappa) / 2.0, s)
        return float(out) if out.ndim == 0 else out

    def density_at(self, z):
        z = np.asarray(z, float)
        if self.kind == "lebesgue":
            return np.ones_like(z)
        if self.kind == "bessel":
            return (1 + z * z) ** (-self.kappa / 2)
        raise ValueError("atomic measures have no density")


def bessel_measure(kappa, m=1):
    return SpectralMeasure("bessel", m=m, kappa=float(kappa))


def lebesgue_measure(m=1):
    return SpectralMeasure("lebesgue", m=m)


def atomic_measure(points, masses):
    pts = np.atleast_2d(np.asarray(points, float))
    return SpectralMeasure("atoms", m=pts.shape[1],
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
    from scipy import integrate
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
    from scipy import integrate
    out = np.empty(rs.shape)
    for i, rv in enumerate(rs.reshape(-1)):
        out.reshape(-1)[i] = integrate.quad(
            lambda u: u ** alpha * np.exp(-u - (rv * rv) / u if u > 0 else -np.inf),
            0, np.inf, limit=300, epsabs=1e-13)[0]
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# boundary noise specifications and frequency cells


@dataclass(frozen=True)
class NoiseSpec:
    """Boundary noise: which modes drive the boundary, and how they are truncated.

    kind "endpoints": unit atoms at the boundary points of a 1-d domain.
    kind "finite_series": a sup-summable series of boundary functions, given
    by the sup norms of its terms, which is all the majorant route reads.
    kind "circle_white": white noise on S^1, which only the majorant route
    treats, through its complete Fourier basis.  kind "homogeneous":
    spatially homogeneous process on the flat boundary R^m given by a
    spectral measure with a frequency truncation (z_max, n_cells).
    """

    kind: str
    n_atoms: int = 0
    sup_norms: tuple = None
    measure: SpectralMeasure = None
    z_max: float = 0.0
    n_cells: int = 0


def endpoint_noise(domain):
    n = 2 if domain.kind == "interval01" else 1
    if domain.kind not in ("interval01", "halfline"):
        raise UnsupportedDomainError("endpoint noise lives on 1-d boundaries")
    return NoiseSpec("endpoints", n_atoms=n)


def circle_white_noise():
    return NoiseSpec("circle_white")


def rotational_noise(amplitudes):
    """Sup-summable field on a sphere with terms a_k cos<y,b_k> and a_k sin<y,b_k>.

    The majorant reads only the sup norms |a_k| of the terms, so the wave
    vectors b_k are not part of the spec.
    """
    sups = []
    for a in np.asarray(amplitudes, float):
        sups.extend([abs(a), abs(a)])
    return NoiseSpec("finite_series", sup_norms=tuple(sups))


def homogeneous_noise(measure, z_max=12.0, n_cells=24):
    return NoiseSpec("homogeneous", measure=measure, z_max=float(z_max), n_cells=int(n_cells))


# Gauss-Legendre nodes per frequency cell of a continuous measure
_CELL_ORDER = 12


@dataclass(frozen=True)
class FrequencyCells:
    """Symmetric partition of frequency space backing the homogeneous mode basis.

    Each cell (0 < z1 < z2) yields a cosine and a sine mode, orthonormal in the
    measure-weighted symmetric L^2; cell masses are the measure of the cell.
    A cell is a quadrature of the measure over it: Gauss-Legendre nodes in
    [z1, z2] weighted by the density, or for an atom z_k a single node of
    weight and mass m_k.
    """

    masses: np.ndarray         # (n_cells,)
    nodes: np.ndarray          # (n_cells, q) frequencies
    weights: np.ndarray        # (n_cells, q) mu-weights

    @property
    def n_cells(self):
        return len(self.masses)


def frequency_cells(measure, z_max, n_cells):
    """Cells of [0, z_max] for a continuous measure, one cell per atom of an atomic one."""
    if measure.kind == "atoms":
        masses = np.asarray(measure.masses, float)
        nodes = np.asarray(measure.points, float).reshape(len(masses), 1)
        return FrequencyCells(masses, nodes, masses[:, None])
    edges = np.linspace(0.0, z_max, n_cells + 1)
    a, b = edges[:-1, None], edges[1:, None]
    gx, gw = gauss_legendre(_CELL_ORDER)
    nodes = 0.5 * (b - a) * gx + 0.5 * (a + b)
    weights = 0.5 * (b - a) * gw * measure.density_at(nodes)
    return FrequencyCells(weights.sum(axis=1), nodes, weights)
