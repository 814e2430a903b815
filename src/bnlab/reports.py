"""Report records for estimate verifiers, with the shared refinement-verdict rules."""

from dataclasses import dataclass, field

import numpy as np

BOUNDED = "bounded"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"


def verdict_from_trace(sups):
    """Classify a refinement trace of suprema.

    bounded: the sup is non-increasing within 5% across the last two
    refinement levels.  diverging: growth by more than a factor 2 across two
    refinement levels, or an infinite last sup.  Anything else is
    inconclusive, and so is any other trace with a non-finite sup.
    """
    sups = [float(s) for s in sups]
    if len(sups) < 2:
        return INCONCLUSIVE
    if not np.all(np.isfinite(sups)):
        return DIVERGING if sups[-1] == np.inf else INCONCLUSIVE
    if len(sups) >= 3 and sups[-1] > 2.0 * sups[-3] and sups[-1] > sups[-2] > sups[-3]:
        return DIVERGING
    if sups[-1] <= 1.05 * sups[-2]:
        return BOUNDED
    if sups[-1] > 2.0 * sups[-2]:
        return DIVERGING
    return INCONCLUSIVE


def largest(*parts):
    """The largest entry of the scalars and arrays given: +inf if any entry is,
    else NaN (unknown) if any is.  Python's max keeps its first argument against
    a NaN, so a fold over it can drop the one entry that says a sup is unknown."""
    v = np.concatenate([np.ravel(np.asarray(x, float)) for x in parts])
    return np.inf if np.any(v == np.inf) else float(np.max(v))


@dataclass
class EstimateReport:
    """Outcome of a numerical estimate certification sweep."""

    quantity: str
    grid_spec: str
    sup_per_level: list
    fitted: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE

    @classmethod
    def from_trace(cls, quantity, grid_spec, sups, fitted=None):
        rep = cls(quantity, grid_spec, [float(s) for s in sups], dict(fitted or {}))
        rep.verdict = verdict_from_trace(rep.sup_per_level)
        return rep

    def to_text(self):
        lines = [
            f"quantity: {self.quantity}",
            f"grid: {self.grid_spec}",
            "sup_per_level: " + " ".join(f"{s:.10g}" for s in self.sup_per_level),
        ]
        for k in sorted(self.fitted):
            lines.append(f"fitted {k}: {self.fitted[k]:.10g}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


@dataclass
class SchurReport:
    """Suprema of the eight split integrals of the weighted-kernel Schur test."""

    p: float
    theta: float
    c: float
    constants: dict            # name -> list of sups per refinement level
    verdicts: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.verdicts:
            self.verdicts = {k: verdict_from_trace(v) for k, v in self.constants.items()}

    @property
    def all_bounded(self):
        return all(v == BOUNDED for v in self.verdicts.values())

    def to_text(self):
        lines = [f"schur constants: p={self.p} theta={self.theta} c={self.c}"]
        for name in sorted(self.constants):
            trace = " ".join(f"{s:.8g}" for s in self.constants[name])
            lines.append(f"{name}: {trace}  verdict={self.verdicts[name]}")
        return "\n".join(lines) + "\n"


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    A = np.column_stack([lx, np.ones_like(lx)])
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)
