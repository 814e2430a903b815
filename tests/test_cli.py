import functools
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from bnlab import cli
from bnlab import convolution as cv
from bnlab import scenarios as sc
from bnlab.noise import SpectralMeasure


BASE_CFG = """
pipeline = j-diagnose
scenario = p71
p = 2.0
theta = 2.0
horizon = 0.5
grid_level = 22
seed = 2024
"""


def test_parse_config_roundtrip():
    cfg = cli.parse_config(BASE_CFG)
    assert cfg["pipeline"] == "j-diagnose"
    assert cfg["theta"] == 2.0
    text = cli.config_text(cfg)
    assert cli.parse_config(text) == cfg


def test_parse_config_collects_all_errors():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config("pipeline = nope\np = 0.5\nbogus = 1\nn_paths = 1\n")
    msgs = err.value.errors
    assert len(msgs) >= 4
    assert any("bogus" in m for m in msgs)
    assert any("pipeline" in m for m in msgs)
    assert any("p must be" in m for m in msgs)


def test_run_scenario_deterministic_outputs():
    cfg = cli.parse_config(BASE_CFG)
    m1, f1 = cli.run_scenario(cfg)
    m2, f2 = cli.run_scenario(cfg)
    assert f1 == f2                        # byte-identical data
    h1 = [ln for ln in m1.splitlines() if ln.startswith(("config_hash", "file:"))]
    h2 = [ln for ln in m2.splitlines() if ln.startswith(("config_hash", "file:"))]
    assert h1 == h2


def test_run_scenario_out_of_range_flagged_not_substituted():
    cfg = cli.parse_config(BASE_CFG.replace("theta = 2.0", "theta = 3.2"))
    manifest, files = cli.run_scenario(cfg)
    rep = files["j_report.txt"]
    assert "theta=3.2" in rep              # ran with the requested value
    assert "verdict: divergent" in rep
    assert "agreement: True" in rep


def test_cli_run_and_replay(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(BASE_CFG)
    runner = CliRunner()
    res = runner.invoke(cli.main, ["run", str(cfgfile)])
    assert res.exit_code == 0, res.output
    run_dirs = list((tmp_path / "out").iterdir())
    assert len(run_dirs) == 1
    manifest = run_dirs[0] / "manifest.txt"
    assert manifest.exists()
    res2 = runner.invoke(cli.main, ["replay", str(manifest)])
    assert res2.exit_code == 0, res2.output
    assert "byte-identical" in res2.output
    # tampered manifest must fail with the internal mismatch code
    bad = manifest.read_text().replace("sha256=", "sha256=00", 1)
    (run_dirs[0] / "bad_manifest.txt").write_text(bad)
    res3 = runner.invoke(cli.main, ["replay", str(run_dirs[0] / "bad_manifest.txt")])
    assert res3.exit_code == 3


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("pipeline = what\n")
    runner = CliRunner()
    res = runner.invoke(cli.main, ["run", str(bad)])
    assert res.exit_code == 1
    assert "validation" in res.output


def test_cli_refusal_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pipeline = simulate\nscenario = p71\nbase_steps = 32\nn_paths = 50\n")
    runner = CliRunner()
    res = runner.invoke(cli.main, ["run", str(cfg)])
    assert res.exit_code == 2
    assert "refusal" in res.output


def test_cli_verify_kernels_at_an_overflowing_scale_is_diverging_without_warnings(tmp_path):
    # at c = 0.01 the ratio G / (m g_ct) overflows at every level: an infinite
    # sup bounds nothing
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"pipeline = verify-kernels\nc = 0.01\nout_dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = CliRunner().invoke(cli.main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    assert "upper_bounds=diverging/diverging" in res.output
    rep = next((tmp_path / "out").glob("*/kernels_report.txt")).read_text()
    assert rep.count("sup_per_level: inf inf inf\n") == 2


def test_j_refusal_names_a_nan_profile_and_its_node(tmp_path, monkeypatch, with_nan):
    # a NaN transform at one time node makes the p717 profile NaN at every
    # node: J is refused in one line that names the profile and its first node
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    monkeypatch.setattr(SpectralMeasure, "transform",
                        with_nan(SpectralMeasure.transform, call=0, entry=5))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pipeline = j-diagnose\nscenario = p717\n")
    res = CliRunner().invoke(cli.main, ["run", str(cfg)])
    assert res.exit_code == 2, res.output
    assert res.stderr == "numerical refusal: J is not finite at p = 2.0: the variance profile " \
                         "is nan at node 6.20882e-10\n"


@pytest.mark.parametrize("config, code", [
    ("pipeline = j-diagnose\nscenario = p717\nhorizon = 0.001\n", 0),
    ("pipeline = j-diagnose\nscenario = p71\np = 900\n", 2),
    ("pipeline = invariant\nscenario = p71\np = 900\n", 2),
    (None, 0)], ids=["j-zero-variances", "j-overflow", "invariant-overflow", "schur-overflow"])
def test_diagnostics_at_vanishing_or_overflowing_values_print_no_warnings(tmp_path, monkeypatch,
                                                                         config, code):
    # p717 at horizon 0.001: most of J's nodes have variance 0.0; p71 at
    # p = 900: profile^(p/2) overflows, and J (at T = inf too) is refused;
    # schur at theta = 900: four split constants overflow to inf, and k2, k6
    # and k8 hold only inf * 0 = NaN beside finite values, which their traces
    # keep (inconclusive, not bounded)
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    args = ["verify", "schur", "--theta", "900"]
    if config:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        args = ["run", str(cfg)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    if code == 2:
        assert res.stderr == (
            "numerical refusal: J is not finite at p = 900.0: profile^(p/2) is inf at node 4.06901e-05\n")
        return
    assert res.stderr == ""
    report = next((tmp_path / "out").glob("*/*_report.txt")).read_text()
    if config:
        assert "nan" not in report
        assert "j=divergent agreement=True" in res.output
    else:
        assert "all_bounded=False" in res.output and report.count("verdict=diverging") == 4
        assert "k2: nan nan nan  verdict=inconclusive\n" in report
        assert report.count("verdict=inconclusive") == 3


def test_cli_list_catalog():
    runner = CliRunner()
    res = runner.invoke(cli.main, ["list"])
    assert res.exit_code == 0
    lines = [ln for ln in res.output.splitlines() if ln.strip()]
    assert len(lines) >= 10
    assert any("P78" in ln and "(2, 3)" in ln for ln in lines)
    assert any("R88" in ln and "rejected" in ln for ln in lines)


def test_cli_simulate_pipeline(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pipeline = simulate\nscenario = p71\nn_paths = 2000\n"
                   "base_steps = 256\nhorizon = 0.4\nseed = 5\n")
    runner = CliRunner()
    res = runner.invoke(cli.main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    stats = next((tmp_path / "out").glob("*/probe_stats.txt")).read_text()
    assert stats.startswith("#")
    assert "isometry_within_3se=True" in res.output
    # draw counts go to the manifest, never into the hashed data files
    manifest = next((tmp_path / "out").glob("*/manifest.txt"))
    assert "resolved normals_drawn: " in manifest.read_text()
    assert "resolved stat_block_paths: 4096\n" in manifest.read_text()
    # the schedule's deterministic isometry bias, outside the hashed files too
    bias = manifest.read_text().split("resolved max_isometry_bias: ")[1].split("\n")[0]
    assert abs(float(bias) / 4.0774e-3 - 1.0) < 1e-4
    res2 = runner.invoke(cli.main, ["replay", str(manifest)])
    assert res2.exit_code == 0, res2.output
    assert "replay ok: 1 data file(s) byte-identical" in res2.output
    # the time nodes of the plan's flux calls, p717 at the default horizon and
    # base_steps: one midpoint per cell below each probe time
    cfg.write_text(f"pipeline = simulate\nscenario = p717\nn_paths = 20\n"
                   f"out_dir = {tmp_path / 'p717'}\n")
    res3 = runner.invoke(cli.main, ["run", str(cfg)])
    assert res3.exit_code == 0, res3.output
    manifest = next((tmp_path / "p717").glob("*/manifest.txt")).read_text()
    assert "resolved flux_time_nodes: 1686\n" in manifest
    setup, _ = sc.build_setup("p717", p=2.0, theta=2.0, horizon=0.5)
    probes = cli._default_probes(setup)
    times = sorted({t for t, _ in probes})
    rho_min = min(x0 for _, (x0, _) in probes)
    edges = cv._step_schedule(max(times), times, 512, rho_min)
    smid = 0.5 * (edges[:-1] + edges[1:])
    assert sum(int(np.count_nonzero(smid < t)) for t in times) == 1686


def test_cli_simulate_zero_variance_probes_agree_with_a_zero_oracle(tmp_path, monkeypatch):
    # at a horizon of 1e-8 no heat reaches a probe: every path, the sample
    # variance and the oracle are exactly 0, so z is 0, not 0/0
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pipeline = simulate\nscenario = p71\nhorizon = 1e-8\nn_paths = 20\n"
                   "base_steps = 64\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = CliRunner().invoke(cli.main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    assert "isometry_within_3se=True" in res.output
    rows = next((tmp_path / "out").glob("*/probe_stats.txt")).read_text().splitlines()[1:]
    assert len(rows) == 25
    assert all(row.split()[3:6] == ["0", "0", "0"] for row in rows)


def test_variance_z_is_infinite_where_only_the_sample_spread_is_zero():
    stats = {"var": np.array([0.0, 0.0, 2.0, 1.0]), "var_oracle": np.array([0.0, 0.5, 1.0, 1.0]),
             "var_se": np.array([0.0, 0.0, 0.5, 0.25])}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = cli._variance_z(stats)
    np.testing.assert_array_equal(z, [0.0, -np.inf, 2.0, 0.0])


def test_cli_manifest_mode_count_is_the_flux_mode_count(tmp_path):
    runner = CliRunner()
    # p713's two symmetric atoms are a cosine and a sine mode each; p717's
    # density has no discrete mode; the majorant route of p78 draws no modes
    for sid, pipe, line in [("p713", "simulate", "resolved n_modes: 4\n"),
                            ("p717", "simulate", "resolved n_modes: 0\n"),
                            ("p78", "j-diagnose", None)]:
        cfg = tmp_path / f"{sid}.txt"
        cfg.write_text(f"pipeline = {pipe}\nscenario = {sid}\nn_paths = 20\nbase_steps = 64\n"
                       f"grid_level = 14\nout_dir = {tmp_path / sid}\n")
        res = runner.invoke(cli.main, ["run", str(cfg)])
        assert res.exit_code == 0, res.output
        manifest = next((tmp_path / sid).glob("*/manifest.txt")).read_text()
        if line:
            assert line in manifest
        else:
            assert "resolved n_modes" not in manifest


@pytest.mark.parametrize("pipe, sid, n_files", [("invariant", "p71", 2), ("invariant", "p72", 2),
                                                ("j-diagnose", "p72", 1)])
def test_cli_replay_is_byte_identical(tmp_path, monkeypatch, pipe, sid, n_files):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"pipeline = {pipe}\nscenario = {sid}\ngrid_level = 18\n")
    runner = CliRunner()
    res = runner.invoke(cli.main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    manifest = next((tmp_path / "out").glob("*/manifest.txt"))
    res2 = runner.invoke(cli.main, ["replay", str(manifest)])
    assert res2.exit_code == 0, res2.output
    assert f"replay ok: {n_files} data file(s) byte-identical" in res2.output


def test_cli_verify_suites(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    runner = CliRunner()
    res = runner.invoke(cli.main, ["verify", "appendix"])
    assert res.exit_code == 0, res.output
    written, verdicts = res.output.splitlines()
    assert written.startswith(f"suite written to {tmp_path / 'out'}")
    assert verdicts == "verdicts: appendix_b=bounded; boundary_mass=bounded"
    rep = next((tmp_path / "out").glob("*/appendix_report.txt")).read_text()
    assert "N: 3.544907" in rep


def _assert_clean_exit(res, code):
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_cli_verify_simulate_without_default_probes_is_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    res = CliRunner().invoke(cli.main, ["verify", "simulate", "--scenario", "p78"])
    _assert_clean_exit(res, 1)
    assert "validation" in res.output


def test_cli_verify_invariant_on_half_space_is_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    res = CliRunner().invoke(cli.main, ["verify", "invariant", "--scenario", "p717"])
    _assert_clean_exit(res, 1)
    assert "validation" in res.output and "interval or half line" in res.output


def test_cli_replay_of_refused_config_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# bnlab run manifest\n-- config --\n"
                        "pipeline = simulate\nscenario = p71\nbase_steps = 32\nn_paths = 50\n")
    res = CliRunner().invoke(cli.main, ["replay", str(manifest)])
    _assert_clean_exit(res, 2)
    assert "numerical refusal" in res.output


def test_cli_internal_error_is_one_line(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))

    def boom(cfg):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "run_scenario", boom)
    res = CliRunner().invoke(cli.main, ["verify", "schur"])
    _assert_clean_exit(res, 3)
    assert res.output.strip() == "internal error: ZeroDivisionError: division by zero"


def test_cli_unconverged_resolvent_quadrature_is_a_refusal(tmp_path, monkeypatch):
    # four panels cannot meet the 1e-12 tolerance: the quadrature runs out of them
    monkeypatch.setattr("bnlab.kernels._LAPLACE_LIMIT", 4)
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    res = CliRunner().invoke(cli.main, ["verify", "kernels"])
    assert res.exit_code == 2
    assert "numerical refusal" in res.output and "lambda=1" in res.output
    assert "Traceback" not in res.output


TINY_CFG = "pipeline = {}\nn_paths = 20\nbase_steps = 64\ngrid_level = 14\n"


@pytest.mark.parametrize("pipe, line, message", [
    ("j-diagnose", "grid_level = 10", "grid_level must be at least 14"),
    ("schur", "c = 0", "c must be positive"),
    ("verify-kernels", "c = -1", "c must be positive"),
    ("simulate", "seed = -1", "seed must be nonnegative"),
    ("j-diagnose", "mode_count = 64", "key 'mode_count' was removed: the half plane draws"),
    ("j-diagnose", "kappa = 150", "kappa = 150 is above 100, the largest Bessel exponent"),
    ("j-diagnose", "lam = 99", "unknown key 'lam'"),
    ("j-diagnose", "scenario = p711i", "no setup builder: the majorant flux covers only"),
    ("j-diagnose", "scenario = r88", "the catalog rejects Dirac boundary noise"),
    ("j-diagnose", "scenario = p718i", "kappa = 0.5 is the p718ii case, not p718i"),
    ("j-diagnose", "scenario = custom", "scenario must be one of"),
])
def test_cli_bad_config_value_is_one_validation_line(tmp_path, monkeypatch, pipe, line, message):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"pipeline = {pipe}\n{line}\n")
    res = CliRunner().invoke(cli.main, ["run", str(cfg)])
    _assert_clean_exit(res, 1)
    assert res.output.count("\n") == 1 and res.output.startswith("validation: ")
    assert message in res.output


def test_cli_p718_refuses_an_untreatable_kappa(tmp_path, monkeypatch):
    # kappa <= m-2 = -1 is neither p718 case: the setup builds, then the catalog refuses it
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pipeline = j-diagnose\nscenario = p718\nkappa = -2\n")
    res = CliRunner().invoke(cli.main, ["run", str(cfg)])
    _assert_clean_exit(res, 1)
    assert res.output == "validation: kappa <= m-2 is not treatable\n"


@pytest.mark.parametrize("pipe", ["j-diagnose", "simulate", "invariant"])
def test_every_scenario_id_exits_cleanly(tmp_path, monkeypatch, pipe):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    runner = CliRunner()
    for sid in list(sc.REGISTRY) + ["p718", "custom"]:
        cfg = tmp_path / f"{sid}.txt"
        cfg.write_text(TINY_CFG.format(pipe) + f"scenario = {sid}\n")
        res = runner.invoke(cli.main, ["run", str(cfg)])
        assert res.exit_code in (0, 1, 2), (sid, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (sid, res.output)
        assert "Traceback" not in res.output


class _ReadLog(dict):
    """Config dict that records every key read through it."""

    def __init__(self, cfg, log):
        super().__init__(cfg)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(key)
        return super().get(key, default)


def test_every_config_key_is_read_by_some_pipeline(tmp_path, monkeypatch):
    # the config hash reads every key, so it reads a plain copy; only pipeline reads count
    text = cli.config_text
    monkeypatch.setattr(cli, "config_text", lambda cfg: text(dict(cfg)))
    read = set()
    for pipe in cli.PIPELINES:
        cfg = _ReadLog(cli.parse_config(TINY_CFG.format(pipe) + f"out_dir = {tmp_path}\n"), read)
        cli.run_scenario(cfg)
        cli.out_root(cfg)
    assert read == set(cli.SCHEMA)


# the values of a valid config at small sizes (n_paths <= 50, grid_level 14);
# an example may replace one key's value by any of its type
VALID = {
    "pipeline": st.sampled_from(cli.PIPELINES),
    "scenario": st.sampled_from(sorted(sc.REGISTRY) + ["p718"]),
    "p": st.floats(1.01, 8.0),
    "theta": st.floats(0.0, 15.0),
    "delta": st.none() | st.floats(0.0, 4.0),
    "horizon": st.floats(1e-3, 10.0),
    "alpha": st.floats(0.0, 3.0),
    "kappa": st.floats(-3.0, 4.0),
    "n_paths": st.integers(2, 50),
    "base_steps": st.integers(64, 512),
    "grid_level": st.just(14),
    "seed": st.integers(0, 2 ** 32 - 1),
    "c": st.floats(0.05, 10.0),
}
# any value of a type, within the sizes above: floats stop at |1e3| (a Bessel
# exponent of 1e5 alone runs J for ~5 s) but take the non-finite and the
# subnormal, and integers fall below every key's minimum
ANY = {
    str: st.from_regex(r"[a-z0-9-]{0,8}", fullmatch=True),
    float: st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324]),
    int: st.integers(-2, 13),
}


@st.composite
def configs(draw):
    cfg = {key: draw(values) for key, values in VALID.items()}
    key = draw(st.sampled_from([None] + sorted(VALID)))
    if key:
        cfg[key] = draw(ANY[cli.SCHEMA[key][0]])
    return cfg


J_P71 = {"pipeline": "j-diagnose", "scenario": "p71", "grid_level": 14}


@given(cfg=configs())
@example(cfg={**J_P71, "theta": -1.0})
@example(cfg={**J_P71, "scenario": "p72", "delta": -0.5})
# J's half-line cutoff lands one ulp past the doubling edge 8
@example(cfg={**J_P71, "scenario": "p72", "horizon": 0.434294481903252})
@example(cfg={**J_P71, "pipeline": "simulate", "base_steps": 0})
# a key configs no longer take, named by every manifest written before its removal
@example(cfg={**J_P71, "mode_count": 64})
def test_every_run_exits_0_1_or_2_with_one_line_per_problem(cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    text = "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in cfg.items() if v is not None) + f"out_dir = {out}\n"
    (out / "cfg.txt").write_text(text)
    res = CliRunner().invoke(cli.main, ["run", str(out / "cfg.txt")])
    _assert_one_line_per_problem(res, text)


def _assert_one_line_per_problem(res, text):
    # exit 0, 1 or 2 for the run of a config text; the config reports every
    # problem at once, one line each, and a run fails on one
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output
    if res.exit_code:
        try:
            cli.parse_config(text)
            problems = 1
        except cli.ConfigError as err:
            problems = len(err.errors)
        kind = "validation: " if res.exit_code == 1 else "numerical refusal: "
        lines = res.stderr.splitlines()
        assert len(lines) == problems and all(ln.startswith(kind) for ln in lines), res.stderr


@given(suite=st.sampled_from(["kernels", "schur", "appendix", "j", "simulate", "invariant"]),
       scenario=VALID["scenario"] | ANY[str], theta=VALID["theta"] | ANY[float],
       seed=VALID["seed"] | ANY[int])
@example(suite="j", scenario="p71", theta=-1.0, seed=2024)
@example(suite="simulate", scenario="p74", theta=2.0, seed=2024)
def test_every_verify_exits_0_1_or_2_with_one_line_per_problem(suite, scenario, theta, seed,
                                                               tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    res = CliRunner(env={"BNLAB_OUT": str(out)}).invoke(
        cli.main, ["verify", suite, "--scenario", scenario, "--theta", repr(theta),
                   "--seed", str(seed)])
    # the config text verify runs, as `run` would read it
    pipe = {"kernels": "verify-kernels", "schur": "schur", "appendix": "appendix-checks",
            "j": "j-diagnose"}.get(suite, suite)
    _assert_one_line_per_problem(res, f"pipeline = {pipe}\nscenario = {scenario}\n"
                                      f"theta = {theta!r}\nseed = {seed}\n")


@functools.cache
def _tiny_manifest():
    return cli.run_scenario(cli.parse_config(TINY_CFG.format("simulate")))[0]


def _damaged(manifest, kind, cut, junk):
    """The bytes of a manifest damaged one way; cut in [0, 1] picks the place."""
    lines = manifest.splitlines(keepends=True)
    if kind == "truncated":
        return manifest[:int(cut * len(manifest))].encode()
    if kind == "missing hash":
        return "".join(ln.split(" sha256=")[0] + "\n" if ln.startswith("file: ") else ln
                       for ln in lines).encode()
    if kind == "missing config":
        return (manifest.split("-- config --")[0] + "-- config --\n").encode()
    if kind == "garbled line":
        lines[min(int(cut * len(lines)), len(lines) - 1)] = junk + "\n"
        return "".join(lines).encode()
    if kind == "removed key":
        # as a manifest written while configs took mode_count (default 64)
        return manifest.replace("\nn_paths = ", "\nmode_count = 64\nn_paths = ").encode()
    k = int(cut * len(manifest))            # "not text": a byte no text decoding reads
    return manifest[:k].encode() + b"\xff" + manifest[k:].encode()


@given(kind=st.sampled_from(["truncated", "missing hash", "missing config", "garbled line",
                             "not text", "removed key"]),
       cut=st.floats(0.0, 1.0), junk=st.text(alphabet="abcfilnp:-= #", max_size=16))
@example(kind="missing hash", cut=0.0, junk="")
@example(kind="missing config", cut=0.0, junk="")
@example(kind="truncated", cut=0.5, junk="")
@example(kind="not text", cut=0.5, junk="")
@example(kind="removed key", cut=0.0, junk="")
def test_replay_of_a_damaged_manifest_is_validation_or_a_mismatch(kind, cut, junk,
                                                                  tmp_path_factory):
    out = tmp_path_factory.mktemp("replay")
    (out / "manifest.txt").write_bytes(_damaged(_tiny_manifest(), kind, cut, junk))
    res = CliRunner(env={"BNLAB_OUT": str(out)}).invoke(
        cli.main, ["replay", str(out / "manifest.txt")])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output
    lines = res.stderr.splitlines()
    if res.exit_code == 0:
        assert res.stdout.startswith("replay ok: ")
    elif res.exit_code == 1:
        assert lines and all(ln.startswith("validation: ") for ln in lines), res.stderr
    else:
        # a damaged but valid config reruns, and its data files differ
        kinds = {2: "numerical refusal: ", 3: "replay mismatch in: "}
        assert len(lines) == 1 and lines[0].startswith(kinds[res.exit_code]), res.stderr
    if kind == "missing hash":
        ln = next(i for i, line in enumerate(_tiny_manifest().splitlines(), 1)
                  if line.startswith("file: "))
        assert res.stderr == (f"validation: manifest line {ln}: "
                              "expected 'file: <name> sha256=<hash>'\n")
    if kind == "removed key":
        config = _damaged(_tiny_manifest(), kind, cut, junk).decode().split("-- config --")[1]
        ln = config.splitlines().index("mode_count = 64") + 1
        assert res.stderr == (f"validation: line {ln}: key 'mode_count' was removed: "
                              f"{cli.REMOVED['mode_count']}\n")
