import numpy as np
import pytest
from click.testing import CliRunner

from bnlab import cli


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


def test_cli_verify_suites(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLAB_OUT", str(tmp_path / "out"))
    runner = CliRunner()
    res = runner.invoke(cli.main, ["verify", "appendix"])
    assert res.exit_code == 0, res.output
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
