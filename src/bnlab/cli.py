"""Batch experiment runner: scenario configs in, reproducible data artifacts out.

Configs are flat `key = value` text files (one scenario per file, '#' comments,
all quantities in heat-equation time/space units).  Every run writes columnar
data files plus a manifest carrying the config hash, resolved truncations and
verdicts; identical config and seed reproduce byte-identical data files.

Exit codes: 0 ok, 1 validation error, 2 numerical refusal, 3 internal error.
"""

import functools
import hashlib
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .convolution import (ConfigurationError, NumericalRefusal, _gap_ratio, flux_for,
                          invariant_diagnostics, j_integral, simulate_convolution)
from .geometry import UnsupportedDomainError, half_line, interval01
from .kernels import (HeatKernel, difference_bound_report, far_weight_constants,
                      fit_boundary_mass_constant, fit_singular_moment_exponent,
                      halfline_resolvent_exact, verify_kernel_upper_bounds)
from .scenarios import NoPrediction, build_setup, catalog, unbuildable
from .semigroup import schur_constants

PIPELINES = ("j-diagnose", "simulate", "invariant", "verify-kernels", "schur",
             "appendix-checks")

SCHEMA = {
    # name: (converter, required, default)
    "pipeline": (str, True, None),
    "scenario": (str, False, "p71"),
    "p": (float, False, 2.0),
    "theta": (float, False, 2.0),
    "delta": (float, False, None),
    "horizon": (float, False, 0.5),
    "alpha": (float, False, 0.0),
    "kappa": (float, False, 0.5),
    "n_paths": (int, False, 10000),
    "base_steps": (int, False, 512),
    "grid_level": (int, False, 26),
    "mode_count": (int, False, 64),
    "seed": (int, False, 2024),
    "out_dir": (str, False, None),
    "c": (float, False, 4.0),
}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_config(text):
    """Parse and validate a flat key = value config; reports every failure at once."""
    raw = {}
    errors = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value'")
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in SCHEMA:
            errors.append(f"line {ln}: unknown key '{key}'")
            continue
        if key in raw:
            errors.append(f"line {ln}: duplicate key '{key}'")
            continue
        raw[key] = val
    cfg = {}
    for key, (conv, required, default) in SCHEMA.items():
        if key in raw:
            try:
                cfg[key] = conv(raw[key])
            except ValueError:
                errors.append(f"key '{key}': cannot parse '{raw[key]}' as {conv.__name__}")
            if conv is float and not np.isfinite(cfg.get(key, 0.0)):
                errors.append(f"key '{key}': {cfg.pop(key)} is not finite")
        elif required:
            errors.append(f"missing required key '{key}'")
        else:
            cfg[key] = default
    if cfg.get("pipeline") not in PIPELINES:
        errors.append(f"pipeline must be one of {PIPELINES}")
    why = unbuildable(cfg["scenario"])
    if why:
        errors.append(why)
    if cfg.get("p") is not None and cfg["p"] <= 1:
        errors.append("p must be > 1")
    for key in ("theta", "delta"):
        if cfg.get(key) is not None and cfg[key] < 0:
            errors.append(f"{key} must be >= 0")
    if cfg.get("horizon") is not None and cfg["horizon"] <= 0:
        errors.append("horizon must be positive")
    if cfg.get("c") is not None and cfg["c"] < np.finfo(float).tiny:
        errors.append("c must be positive and normal (at least 2.2e-308)")
    if cfg.get("n_paths") is not None and cfg["n_paths"] < 2:
        errors.append("n_paths must be at least 2")
    if cfg.get("grid_level") is not None and cfg["grid_level"] < 14:
        errors.append("grid_level must be at least 14: J compares the levels 10 and 14")
    if cfg.get("mode_count") is not None and cfg["mode_count"] < 1:
        errors.append("mode_count must be at least 1")
    if cfg.get("seed") is not None and cfg["seed"] < 0:
        errors.append("seed must be nonnegative")
    if errors:
        raise ConfigError(errors)
    return cfg


def config_text(cfg):
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(SCHEMA) if cfg.get(k) is not None) + "\n"


def out_root(cfg):
    root = cfg.get("out_dir") or os.environ.get("BNLAB_OUT") or "bnlab_out"
    return Path(root)


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _default_probes(setup):
    dom = setup.domain
    T = setup.horizon
    ts = [0.1 * T, 0.25 * T, 0.5 * T, 0.75 * T, T]
    if dom.kind == "interval01":
        xs = [0.12, 0.3, 0.5, 0.7, 0.88]
        return [(t, x) for t in ts for x in xs]
    if dom.kind == "halfline":
        xs = [0.15, 0.4, 0.8, 1.5, 2.5]
        return [(t, x) for t in ts for x in xs]
    if dom.kind == "halfspace":
        return [(t, (x0, x1)) for t in ts[1:] for x0 in (0.2, 0.5, 1.0) for x1 in (-0.7, 0.4)]
    raise ConfigurationError("no default probes for this domain")


def _variance_z(stats):
    """(var - var_oracle) / var_se per probe.

    var_se is 0 only where every path is 0: z is 0 there if the oracle is 0
    as well, and +-inf if it is not.
    """
    return _gap_ratio(stats["var"] - stats["var_oracle"], stats["var_se"])


def run_scenario(cfg):
    """Execute the configured pipeline; returns (manifest text, {filename: text})."""
    t_start = time.time()
    files = {}
    verdicts = []
    resolved = {}
    pipe = cfg["pipeline"]
    if pipe in ("j-diagnose", "simulate", "invariant"):
        setup, pred = build_setup(cfg["scenario"], p=cfg["p"], theta=cfg["theta"],
                                  delta=cfg["delta"], horizon=cfg["horizon"],
                                  alpha=cfg["alpha"], kappa=cfg["kappa"],
                                  n_cells=cfg["mode_count"])
        resolved["mode"] = setup.mode
        if setup.mode == "exact":       # a majorant setup draws no modes
            resolved["n_modes"] = flux_for(setup).n_modes
    if pipe == "j-diagnose":
        levels = tuple(range(10, cfg["grid_level"] + 1, 4))
        rep = j_integral(setup, levels=levels, prediction=pred)
        verdicts.append(f"j={rep.verdict} agreement={rep.agreement}")
        files["j_report.txt"] = rep.to_text()
    elif pipe == "simulate":
        probes = _default_probes(setup)
        ens, stats = simulate_convolution(setup, probes, n_paths=cfg["n_paths"],
                                          base_steps=cfg["base_steps"], root_seed=cfg["seed"])
        z = _variance_z(stats)
        lines = ["# t x... mean var var_oracle var_z fourth_moment_ratio"]
        for (t, x), m, v, vo, zz, f4 in zip(probes, stats["mean"], stats["var"],
                                            stats["var_oracle"], z,
                                            stats["fourth_moment_ratio"]):
            xs = " ".join(f"{c:.17g}" for c in (np.atleast_1d(x)))
            lines.append(f"{t:.17g} {xs} {m:.17g} {v:.17g} {vo:.17g} {zz:.17g} {f4:.17g}")
        files["probe_stats.txt"] = "\n".join(lines) + "\n"
        ok = bool(np.all(np.abs(z) <= 3.0))
        verdicts.append(f"isometry_within_3se={ok}")
        for key in ("n_steps", "flux_time_nodes", "normals_drawn", "stat_block_paths",
                    "max_isometry_bias"):
            resolved[key] = ens.meta[key]
    elif pipe == "invariant":
        inv = invariant_diagnostics(setup)
        files["invariant_report.txt"] = (
            f"j_infinity: {inv['j_infinity']:.12g}\n"
            f"t_probe: {inv['t_probe']:.12g}\n"
            f"max_rel_gap_at_probe: {inv['max_rel_gap_at_probe']:.6g}\n")
        files["grid_audit.txt"] = inv["grid"].to_text()
        verdicts.append(f"variance_converged={inv['max_rel_gap_at_probe'] < 0.02}")
    elif pipe == "verify-kernels":
        out = []
        kerI = HeatKernel(interval01(), "image")
        kerS = HeatKernel(interval01(), "sine")
        xs = np.linspace(0.05, 0.95, 19)
        sup = max(float(np.max(np.abs(kerI.value(t, xs[:, None], xs[None, :])
                                      - kerS.value(t, xs[:, None], xs[None, :]))))
                  for t in (1e-3, 1e-2, 0.1, 1.0))
        out.append(f"image_vs_sine_sup: {sup:.3e}")
        verdicts.append(f"cross_series_ok={sup < 1e-10}")
        kerH = HeatKernel(half_line())
        res = abs(kerH.resolvent(1.0, 1.0, 2.0) - halfline_resolvent_exact(1.0, 1.0, 2.0))
        out.append(f"halfline_resolvent_err: {res:.3e}")
        verdicts.append(f"resolvent_ok={res < 1e-8}")
        etr = difference_bound_report()
        vrep, grep = verify_kernel_upper_bounds(kerH, c=cfg["c"])
        verdicts.append(f"upper_bounds={vrep.verdict}/{grep.verdict}")
        files["kernels_report.txt"] = "\n".join(out) + "\n\n" \
            + etr.to_text() + "\n" + vrep.to_text() + "\n" + grep.to_text()
    elif pipe == "schur":
        rep = schur_constants(interval01(), cfg["p"], cfg["theta"], c=cfg["c"])
        files["schur_report.txt"] = rep.to_text()
        verdicts.append(f"all_bounded={rep.all_bounded}")
    elif pipe == "appendix-checks":
        out = []
        fw = far_weight_constants(theta=0.0, c=1.0)
        out.append(f"A1: {fw.fitted['A1']:.10g}")
        out.append(f"A2: {fw.fitted['A2']:.10g}")
        out.append(f"N: {fw.fitted['N']:.10g}")
        out.append(f"split_bound_verdict: {fw.verdict}")
        verdicts.append(f"appendix_b={fw.verdict}")
        sm = fit_singular_moment_exponent(half_line(), -0.5)
        out.append(f"halfline_moment_exponent: {sm.fitted['exponent']:.6g} "
                   f"(target {sm.fitted['target']:.6g})")
        bm = fit_boundary_mass_constant(2)
        out.append(f"ball2_boundary_mass_C1: {bm.fitted['C1']:.6g} "
                   f"spread {bm.fitted['relative_spread']:.4g}")
        verdicts.append(f"boundary_mass={bm.verdict}")
        files["appendix_report.txt"] = "\n".join(out) + "\n"
    ctext = config_text(cfg)
    manifest = ["# bnlab run manifest",
                f"code_version: {__version__}",
                f"config_hash: {_sha(ctext)}",
                f"wallclock_s: {time.time() - t_start:.3f}"]
    for k in sorted(resolved):
        manifest.append(f"resolved {k}: {resolved[k]}")
    manifest.append("verdicts: " + "; ".join(verdicts))
    for name in sorted(files):
        manifest.append(f"file: {name} sha256={_sha(files[name])}")
    manifest.append("-- config --")
    manifest.append(ctext.rstrip("\n"))
    return "\n".join(manifest) + "\n", files


def write_run(cfg, manifest, files, root):
    run_dir = root / f"{cfg['pipeline']}_{cfg['scenario']}_{_sha(config_text(cfg))[:10]}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        tmp = run_dir / (name + ".tmp")
        tmp.write_text(text)
        tmp.replace(run_dir / name)
    (run_dir / "manifest.txt").write_text(manifest)
    return run_dir


def _exit_codes(command):
    """Map failures of a command to the documented exit codes, without a traceback."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ConfigError, NoPrediction, ConfigurationError, UnsupportedDomainError) as exc:
            for e in getattr(exc, "errors", [str(exc)]):
                click.echo(f"validation: {e}", err=True)
            sys.exit(1)
        except NumericalRefusal as exc:
            click.echo(f"numerical refusal: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """Numerical laboratory for heat equations with white-noise boundary data."""


def _run_and_write(config, written):
    """Parse a config text, run and write it, then echo where and the verdicts."""
    cfg = parse_config(config)
    manifest, files = run_scenario(cfg)
    run_dir = write_run(cfg, manifest, files, out_root(cfg))
    click.echo(f"{written} written to {run_dir}")
    for line in manifest.splitlines():
        if line.startswith("verdicts:"):
            click.echo(line)


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True))
@_exit_codes
def run_cmd(config_path):
    """Run the pipeline described by a config file."""
    _run_and_write(Path(config_path).read_text(), "run")


@main.command("list")
@click.option("-p", "p", default=2.0, show_default=True, help="exponent for the ranges")
def list_cmd(p):
    """Print the proposition-to-scenario catalog with admissible ranges."""
    for sid, desc, rng in catalog(p):
        click.echo(f"{sid.upper():7s} {desc}: {rng}")


@main.command("verify")
@click.argument("suite", type=click.Choice(["kernels", "schur", "appendix", "j", "simulate",
                                            "invariant"]))
@click.option("--scenario", default="p71", show_default=True)
@click.option("--theta", default=2.0, show_default=True)
@click.option("--seed", default=2024, show_default=True)
@_exit_codes
def verify_cmd(suite, scenario, theta, seed):
    """Run a named verifier suite with default settings."""
    pipe = {"kernels": "verify-kernels", "schur": "schur", "appendix": "appendix-checks",
            "j": "j-diagnose", "simulate": "simulate", "invariant": "invariant"}[suite]
    _run_and_write(f"pipeline = {pipe}\nscenario = {scenario}\ntheta = {theta}\nseed = {seed}\n",
                   "suite")


@main.command("replay")
@click.argument("manifest_path", type=click.Path(exists=True))
@_exit_codes
def replay_cmd(manifest_path):
    """Re-run a manifest's embedded config and compare data file hashes."""
    try:
        text = Path(manifest_path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"manifest is not text: {exc.reason} at byte {exc.start}"]) from None
    if "-- config --" not in text:
        raise ConfigError(["not a bnlab manifest"])
    head, ctext = text.split("-- config --", 1)
    recorded = {}
    for ln, line in enumerate(head.splitlines(), 1):
        if line.startswith("file: "):
            name, sep, sha = line[6:].partition(" sha256=")
            if not (sep and name.strip()):
                raise ConfigError([f"manifest line {ln}: expected 'file: <name> sha256=<hash>'"])
            recorded[name.strip()] = sha.strip()
    _, files = run_scenario(parse_config(ctext))
    mismatches = [name for name, sha in recorded.items()
                  if _sha(files.get(name, "")) != sha]
    if mismatches:
        click.echo(f"replay mismatch in: {', '.join(mismatches)}", err=True)
        sys.exit(3)
    click.echo(f"replay ok: {len(recorded)} data file(s) byte-identical")


if __name__ == "__main__":
    main()
