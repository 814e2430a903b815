"""Catalog of the well-posedness scenarios and their admissible parameter ranges.

Each catalogued scenario pairs a concrete (domain, boundary noise) combination
with the interval of weight exponents theta in which the boundary problem is
well posed in the weighted space, plus any decay requirement on delta.  One
record per scenario in REGISTRY drives the listing, the predictions, the setup
builders and the CLI's scenario check.  Requests outside the catalog get an
explicit no-prediction answer, never a guess.
"""

from dataclasses import dataclass
from types import SimpleNamespace

from .convolution import ConfigurationError, ConvolutionSetup
from .geometry import WeightedSpaceParams, half_space, interval01, half_line, unit_ball
from .noise import (atomic_measure, bessel_measure, circle_white_noise, endpoint_noise,
                    homogeneous_noise, lebesgue_measure, rotational_noise)


@dataclass(frozen=True)
class Prediction:
    scenario: str
    theta_lo: float
    theta_hi: float
    delta_min: float = 0.0

    def admits(self, theta, delta=None):
        ok = self.theta_lo < theta < self.theta_hi
        if delta is not None and self.delta_min > 0:
            ok = ok and delta > self.delta_min
        return ok


class NoPrediction(Exception):
    """No catalogued prediction: an id without a builder, or a case the catalog cannot treat."""


def _low(p, kappa):
    return p - 1


def _mid(p, kappa):
    return 1.5 * p - 1


def _bessel_low(p, kappa):
    return p + 0.5 * p * (1 - kappa) - 1


@dataclass(frozen=True)
class Scenario:
    """One catalogued scenario.  The window text takes {low} = (p-1, 2p-1) and
    {mid} = (3p/2-1, 2p-1); the prediction reads the same window as the lower
    end theta_lo(p, kappa) < theta < 2p-1 and delta > delta_min, kappa the
    Bessel exponent of the setup options.  The builder maps the setup options
    to (domain, noise), and a scenario without one says why in `unbuilt`."""

    sid: str
    description: str
    window: str
    build: object = None
    delta: float = 0.0          # default delta of the weighted space
    unbuilt: str = ""
    theta_lo: object = _low
    delta_min: float = 0.0


def _endpoints(dom):
    return dom, endpoint_noise(dom)


def _half_plane(measure):
    return half_space(2), homogeneous_noise(measure)


def _bessel(opts):
    return _half_plane(bessel_measure(opts.kappa))


_MAJORANT_BALL_ONLY = "the majorant flux covers only the unit ball"
REGISTRY = {s.sid: s for s in (
    Scenario("p71", "interval (0,1), independent endpoint noises", "theta in {low}",
             lambda o: _endpoints(interval01())),
    Scenario("p72", "half line, endpoint noise", "theta in {low}, delta > 1/2",
             lambda o: _endpoints(half_line()), delta=1.0, delta_min=0.5),
    Scenario("p74", "unit ball (d>=2), sup-summable boundary series", "theta in {low}",
             lambda o: (unit_ball(2), rotational_noise([1.0, 0.5, 0.25]))),
    Scenario("p78", "white noise on the circle (ball d=2)", "theta in {mid}",
             lambda o: (unit_ball(2), circle_white_noise()), theta_lo=_mid),
    Scenario("p711i", "bounded C^{1,a} region, sup-summable series (majorant route)",
             "theta in {low}", unbuilt=_MAJORANT_BALL_ONLY),
    Scenario("p711ii", "bounded C^{1,a} region in the plane, boundary white noise",
             "theta in {mid}", unbuilt=_MAJORANT_BALL_ONLY, theta_lo=_mid),
    Scenario("p713", "half space, finite spectral measure", "theta in {low}, delta > (m+1)/2",
             lambda o: _half_plane(atomic_measure([0.7, 1.9], [0.6, 0.4])), delta=1.5,
             delta_min=1.0),
    Scenario("p717", "half plane, space-time white noise on the boundary line (m=1)",
             "theta in {mid}, delta > 1", lambda o: _half_plane(lebesgue_measure()),
             delta=1.5, theta_lo=_mid, delta_min=1.0),
    Scenario("p718i", "half plane, Bessel spectral density, kappa >= m",
             "theta in {low}, delta > (m+1)/2", _bessel, delta=1.5, delta_min=1.0),
    Scenario("p718ii", "half plane, Bessel spectral density, m-2 < kappa < m",
             "theta in (p + p(m-kappa)/2 - 1, 2p-1), delta > (m+1)/2", _bessel, delta=1.5,
             theta_lo=_bessel_low, delta_min=1.0),
    Scenario("r88", "Dirac atom boundary noise on the circle",
             "rejected - Dirac boundary noise not treatable",
             unbuilt="the catalog rejects Dirac boundary noise as not treatable"),
)}
# p718 builds the Bessel half plane and lets kappa pick the case
RUNNABLE = tuple(sid for sid, s in REGISTRY.items() if s.build) + ("p718",)


def catalog(p=2.0):
    """Scenario table: id, description, admissible range (formula and value at p)."""
    low = f"(p-1, 2p-1) = ({_low(p, None):g}, {2 * p - 1:g})"
    mid = f"(3p/2-1, 2p-1) = ({_mid(p, None):g}, {2 * p - 1:g})"
    return [(s.sid, s.description, s.window.format(low=low, mid=mid)) for s in REGISTRY.values()]


def unbuildable(sid):
    """Why build_setup refuses the scenario id, or "" when it builds one."""
    if sid in RUNNABLE:
        return ""
    if sid in REGISTRY:
        return f"scenario {sid} has no setup builder: {REGISTRY[sid].unbuilt}"
    return f"scenario must be one of {RUNNABLE}"


def _p718_case(kappa):
    """The p718 case of the Bessel exponent on the boundary line, m = 1: kappa >= m
    is p718i, m-2 < kappa < m is p718ii, and kappa <= m-2 has no prediction."""
    if kappa >= 1:
        return "p718i"
    if kappa > -1:
        return "p718ii"
    raise NoPrediction("kappa <= m-2 is not treatable")


def build_setup(scenario, p=2.0, theta=None, delta=None, horizon=0.5, alpha=0.0,
                kappa=0.5):
    """Instantiate the (domain, noise, params) tuple of a catalogued scenario.

    Returns the setup and the Prediction of its record.  The id p718 lets kappa
    pick the case; the case ids p718i and p718ii refuse a kappa of the other case.
    """
    sid = scenario.lower()
    why = unbuildable(sid)
    if why:
        raise NoPrediction(why)
    if theta is None:
        raise ConfigurationError("theta is required")
    rec = REGISTRY["p718i" if sid == "p718" else sid]
    opts = SimpleNamespace(kappa=kappa)
    dom, nz = rec.build(opts)
    delta = rec.delta if delta is None else delta
    setup = ConvolutionSetup(dom, nz, WeightedSpaceParams(p, theta, delta),
                             horizon=horizon, alpha=alpha)
    if sid.startswith("p718"):
        case = _p718_case(kappa)
        if sid != "p718" and case != sid:
            raise ConfigurationError(f"kappa = {kappa:g} is the {case} case, not {sid}")
        rec = REGISTRY[case]
    return setup, Prediction(rec.sid, rec.theta_lo(p, kappa), 2 * p - 1, rec.delta_min)
