import re

import pytest

from bnlab import cli
from bnlab import convolution as cv
from bnlab import scenarios as sc

BUILT = [sid for sid, rec in sc.REGISTRY.items() if rec.build is not None]


def test_catalog_lists_the_registry():
    assert [row[0] for row in sc.catalog()] == list(sc.REGISTRY)
    assert [row[0] for row in sc.catalog(3.0)] == list(sc.REGISTRY)


@pytest.mark.parametrize("sid", BUILT)
def test_every_builder_predicts_its_own_id(sid):
    kappa = 2.0 if sid == "p718i" else 0.5
    setup, pred = sc.build_setup(sid, p=2.0, theta=2.0, kappa=kappa)
    assert pred.scenario == sid


@pytest.mark.parametrize("kappa, case", [(0.5, "p718ii"), (1.0, "p718i"), (2.0, "p718i")])
def test_p718_follows_kappa(kappa, case):
    assert sc.build_setup("p718", theta=2.0, kappa=kappa)[1].scenario == case
    other = "p718i" if case == "p718ii" else "p718ii"
    with pytest.raises(cv.ConfigurationError, match=f"is the {case} case, not {other}"):
        sc.build_setup(other, theta=2.0, kappa=kappa)


@pytest.mark.parametrize("sid", ["p711i", "p711ii", "r88", "custom"])
def test_ids_without_a_builder_say_why(sid):
    with pytest.raises(sc.NoPrediction) as err:
        sc.build_setup(sid)
    assert str(err.value) == sc.unbuildable(sid)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_every_printed_window_is_the_predicted_window(p):
    # the window text and theta_lo are two copies of each window: the (a, b)
    # that catalog(p) prints for {low} or {mid} is the prediction's (theta_lo, theta_hi)
    printed = {sid: text for sid, _, text in sc.catalog(p)}
    checked = []
    for sid in BUILT:
        if not re.search(r"\{(low|mid)\}", sc.REGISTRY[sid].window):
            continue
        _, pred = sc.build_setup(sid, p=p, theta=2.0, kappa=2.0 if sid == "p718i" else 0.5)
        a, b = re.search(r"= \(([^,]+), ([^)]+)\)", printed[sid]).groups()
        assert (float(a), float(b)) == (pred.theta_lo, pred.theta_hi), (sid, printed[sid])
        checked.append(sid)
    assert checked == ["p71", "p72", "p74", "p78", "p713", "p717", "p718i"]


def test_cli_accepts_exactly_the_buildable_ids():
    accepted = set()
    for sid in list(sc.REGISTRY) + ["p718", "custom"]:
        try:
            cli.parse_config(f"pipeline = schur\nscenario = {sid}\n")
        except cli.ConfigError as exc:
            assert exc.errors == [sc.unbuildable(sid)]
        else:
            accepted.add(sid)
    assert accepted == set(BUILT) | {"p718"}


def test_build_setup_needs_theta():
    with pytest.raises(cv.ConfigurationError, match="theta is required"):
        sc.build_setup("p71")
