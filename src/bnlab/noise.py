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
# spectral measures on the boundary line (m = 1)


@dataclass(frozen=True)
class SpectralMeasure:
    """Symmetric spectral measure on the line: atoms, Lebesgue or the Bessel family.

    kind "atoms": frequencies z_k with masses, symmetrized under z -> -z.
    kind "bessel": density (1+z^2)^(-kappa/2).  kind "lebesgue": the flat
    measure.
    """

    kind: str
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
            z = np.asarray(self.points)
            out = 2.0 * np.sum(np.asarray(self.masses) * np.exp(-s[..., None] * z ** 2), axis=-1)
        elif self.kind == "lebesgue":
            out = (np.pi / s) ** 0.5
        else:
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


def bessel_measure(kappa):
    return SpectralMeasure("bessel", kappa=float(kappa))


def lebesgue_measure():
    return SpectralMeasure("lebesgue")


def atomic_measure(points, masses):
    """Atoms of the given masses at the frequencies `points` on the boundary line."""
    pts = np.asarray(points, float)
    if pts.shape != (len(masses),):
        raise ValueError(f"{len(masses)} atoms need {len(masses)} frequencies on the line, "
                         f"not an array of shape {pts.shape}")
    return SpectralMeasure("atoms", points=tuple(pts), masses=tuple(np.asarray(masses, float)))


def spectral_correlation(measure, y):
    """Space correlation: the Fourier transform of the spectral measure at the lag y, a number.

    Atomic measures give the exact cosine sum; continuous densities are
    transformed by oscillatory-weight quadrature.
    """
    if measure.kind == "lebesgue":
        raise UnsupportedDomainError("the flat measure has no pointwise correlation")
    yy = abs(float(y))
    if measure.kind == "atoms":
        phase = np.asarray(measure.points) * yy
        return 2.0 * float(np.sum(np.asarray(measure.masses) * np.cos(phase)))
    from scipy import integrate
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
    spatially homogeneous process on the boundary line given by a
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


def homogeneous_noise(measure, z_max, n_cells):
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
        nodes = np.asarray(measure.points)[:, None]
        return FrequencyCells(masses, nodes, masses[:, None])
    edges = np.linspace(0.0, z_max, n_cells + 1)
    a, b = edges[:-1, None], edges[1:, None]
    gx, gw = gauss_legendre(_CELL_ORDER)
    nodes = 0.5 * (b - a) * gx + 0.5 * (a + b)
    weights = 0.5 * (b - a) * gw * measure.density_at(nodes)
    return FrequencyCells(weights.sum(axis=1), nodes, weights)
