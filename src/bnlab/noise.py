"""Boundary Wiener processes: spectral measures, noise specifications, reproducible sampling.

Noise drives the boundary through independent scalar Wiener coefficients:
endpoint atoms (interval, half line), a homogeneous process on the boundary
line of the half plane, and on the circle white noise or a sup-summable series
known by the sup norms of its terms.  All that the half plane reads of its
spectral measure mu is K(a, d) = int e^{-a z^2} cos(z d) dmu(z): the Parseval
mode mass K(a, 0), the space correlation K(0, d), and the convolution kernel
K(t + t' - 2s, x1 - x1') (Da Prato & Zabczyk, 1993).

Sampling is counter-based: every (purpose, index...) tuple deterministically
derives its own Philox substream from the root seed, so ensembles replay
bit-for-bit and distinct streams are independent.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gamma, lgamma, pi

import numpy as np

from .geometry import UnsupportedDomainError


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
    kind "bessel": density (1+z^2)^(-kappa/2), for kappa in (-1, BESSEL_KAPPA_MAX].
    kind "lebesgue": the flat measure.
    """

    kind: str
    kappa: float = None
    points: tuple = None
    masses: tuple = None

    def transform(self, a, d=0.0):
        """K(a, d) = int e^{-a z^2} cos(z d) d mu(z), entry by entry over broadcast a >= 0 and d.

        Lebesgue: sqrt(pi/a) e^{-d^2/(4a)}, for a > 0 only.  Atoms: the cosine
        sum 2 sum_k m_k e^{-a z_k^2} cos(z_k d).  Bessel: `_bessel_transform`.
        An entry does not depend on the others: a float for scalar arguments.
        """
        a, d = np.broadcast_arrays(np.asarray(a, float), np.abs(np.asarray(d, float)))
        if not np.all(a >= 0):
            raise ValueError("a must be nonnegative")
        if self.kind == "lebesgue":
            if np.any(a == 0):
                raise UnsupportedDomainError("the flat measure has no pointwise correlation")
            out = (np.pi / a) ** 0.5 * np.exp(-d * d / (4.0 * a))
        elif self.kind == "atoms":
            z = np.asarray(self.points)
            out = 2.0 * np.sum(np.asarray(self.masses) * np.exp(-a[..., None] * z ** 2)
                               * np.cos(d[..., None] * z), axis=-1)
        else:
            out = _bessel_transform(self.kappa, a, d)
        return float(out) if out.ndim == 0 else out


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


# The Bessel transform is checked against 30-digit mpmath for kappa in
# (-1, BESSEL_KAPPA_MAX]; below -1 no p718 case is treatable.
BESSEL_KAPPA_MAX = 100.0
# e^{-_TAIL_LOG} bounds the rule's truncation relative to K(a, 0); below s =
# d^2/(4 _SCALE_D), e^{-d^2/(4s)} bounds the integrand by a pure power at scale s
_TAIL_LOG = 37.0
_SCALE_D = 16.0


@lru_cache(maxsize=None)
def _bessel_rule(kappa):
    """(n, b, h, x, r, w) of the trapezoid rule behind `_bessel_transform`.

    n shifts the exponent to b = kappa/2 + n >= 3/2.  The nodes r = b e^x step
    down by h from x = log(2 + 80/b), where the Gamma(b) density in log r is
    below e^{-40} of its peak, to the cut of scale 0; the weights are that
    density normalised by their sum.  h^2 b <= 0.16 keeps the error below
    1e-15 (the density's strip of analyticity narrows like 1/sqrt(b)).
    """
    if not -1.0 < kappa <= BESSEL_KAPPA_MAX:
        raise ValueError(f"kappa = {kappa:g} is outside (-1, {BESSEL_KAPPA_MAX:g}], "
                         "where the Bessel transform is checked")
    n = max(0, int(np.ceil((3.0 - kappa) / 2.0)))
    b = kappa / 2.0 + n
    h = min(0.2, 0.4 / np.sqrt(b))
    x = np.log(2.0 + 80.0 / b) - h * np.arange((np.log(2.0 + 80.0 / b)
                                                - _cut(n, b, 0.0)) // h + 1)
    w = np.exp(b * (x - np.expm1(x)))
    w *= np.sqrt(pi) / np.sum(w)
    return n, b, h, x, b * np.exp(x), w


def _cut(n, b, scale):
    """log(r/b) at the lowest node an entry of this scale needs: below, the
    integrand is at most r^b scale^-(n+1/2) (scale <= 1), and the nodes left
    out weigh below e^{-37} of K(a, 0) >= sqrt(pi/(a + b))."""
    log_scale = np.minimum(np.log(np.maximum(scale, 5e-324)), 0.0)
    return (lgamma(b) - _TAIL_LOG + (n + 0.5) * log_scale) / b - np.log(b)


def _bessel_transform(kappa, a, d):
    """K(a, d) of the Bessel density (1+z^2)^(-kappa/2), entry by entry.

    The Gamma mixture (1+z^2)^(-b) = Gamma(b)^-1 int r^(b-1) e^{-r(1+z^2)} dr
    makes K the Gamma(b) average over r of the Lebesgue form at a + r.  Below
    kappa = 3 that average converges slowly at r -> 0, so the transform of
    kappa + 2n is taken instead and (1 - d/da)^n applied to the Lebesgue form
    (1 + z^2 is 1 - d/da on e^{-a z^2}).  With q = 1/(a + r) and D = d^2/4,
    L = sqrt(pi q) e^{-D q}, (1 - d/da) L = L (1 + q/2 - D q^2) and
    (1 - d/da)^2 L = L (1 + q + (3/4 - 2D) q^2 - 3D q^3 + D^2 q^4).

    The average is a trapezoid rule in log r (`_bessel_rule`).  Each entry
    adds its nodes from the top down to its own cut (`_cut`) at the scale
    a + D/16, so its value does not depend on the batch.  K(0, 0) is the total
    mass sqrt(pi) Gamma((kappa-1)/2) / Gamma(kappa/2), infinite for kappa <= 1.
    """
    n, b, h, x, r, w = _bessel_rule(kappa)
    flat, big_d = a.ravel(), 0.25 * d.ravel() ** 2
    scale = flat + big_d / _SCALE_D
    depth = np.minimum((x[0] - _cut(n, b, scale)) // h, len(r) - 1).astype(int)  # last node
    order = np.argsort(-depth, kind="stable")
    a_s, d_s = flat[order], big_d[order]
    reach = np.searchsorted(-depth[order], -np.arange(depth.max(initial=-1) + 1), side="right")
    coef = ([], [-d_s, 0.5, 1.0], [d_s * d_s, -3.0 * d_s, 0.75 - 2.0 * d_s, 1.0, 1.0])[n]
    with_d = bool(np.any(d_s))
    if not with_d:      # J's calls: D terms are 0, e^{-Dq} = 1; same bits in 3/4 the time
        coef = ([], [0.5, 1.0], [0.75, 1.0, 1.0])[n]
    acc = np.zeros(flat.size)
    # node by node from the top, over the entries that reach it (a prefix, as
    # depth decreases): each entry adds its terms in one fixed order; scales
    # below ~1e-120 overflow and read inf or nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, m in enumerate(reach):
            q = 1.0 / (a_s[:m] + r[i])
            term = np.sqrt(q) * np.exp(-d_s[:m] * q) if with_d else np.sqrt(q)
            if n:                                   # P(q) by Horner, top coefficient first
                poly = 0.0
                for c in coef:
                    poly = poly * q + (c[:m] if np.ndim(c) else c)
                term *= poly
            acc[:m] += w[i] * term
    out = np.empty(flat.size)
    out[order] = acc
    if np.any(scale == 0.0):
        out[scale == 0.0] = np.sqrt(pi) * gamma((kappa - 1) / 2) / gamma(kappa / 2) \
            if kappa > 1 else np.inf
    return out.reshape(a.shape)


# ---------------------------------------------------------------------------
# boundary noise specifications


@dataclass(frozen=True)
class NoiseSpec:
    """Boundary noise: which modes drive the boundary.

    kind "endpoints": unit atoms at the boundary points of a 1-d domain.
    kind "finite_series": a sup-summable series of boundary functions, given
    by the sup norms of its terms, which is all the majorant route reads.
    kind "circle_white": white noise on S^1, which only the majorant route
    treats, through its complete Fourier basis.  kind "homogeneous":
    spatially homogeneous process on the boundary line given by its spectral
    measure, taken whole.
    """

    kind: str
    n_atoms: int = 0
    sup_norms: tuple = None
    measure: SpectralMeasure = None


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


def homogeneous_noise(measure):
    return NoiseSpec("homogeneous", measure=measure)
