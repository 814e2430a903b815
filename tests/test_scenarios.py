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
    assert sc.predict_wellposedness(setup) == pred


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
