"""The benchmark's four workloads: inputs, operations and correctness checks.

`build(name, seed, out_dir)` is the set-up: it builds the scenario setups, grids
and fluxes and derives every operation's `root_seed` from the workload seed. Each
operation calls bnlab through module attributes (so a tracer can wrap them),
checks its output, and returns an `Outcome` with a digest of the output data.

Monte Carlo checks are gated at a family-wise false-alarm rate of FAMILY_ALPHA
per workload run: each of a workload's m statistical tests gets the two-sided
level FAMILY_ALPHA / m (Bonferroni). Max |z|, the tail exponent gamma and the
data digests are recorded beside each check as diagnostics, never gated on,
because a change may alter the random bitstream when it says so.
"""

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from bnlab import cli
from bnlab import convolution as cv
from bnlab import dirichlet as dm
from bnlab import geometry as geo
from bnlab import kernels as K
from bnlab import scenarios as sc
from bnlab import semigroup as sg

FAMILY_ALPHA = 1e-4

# Path counts, scaled from the acceptance sizes so a pass fits the run length;
# flux, mode and probe counts are the acceptance ones.
FLUX_PATHS = 2000          # mc_flux: cost is set by probes x time nodes, not paths
FLOW_NODES = 10            # mc_flux: uniform grid, every node a flow-check probe
MODES_PATHS = 1500         # mc_modes: 128 modes x ~634 steps x paths normals
TAIL_PATHS_GAUSS = 100000  # mc_paths: Gaussian gamma ~ 1.867 +- 0.015 at 1e5 paths
TAIL_PATHS_T = 110000      # mc_paths: more Student-t than Gaussian variates
MILD_PATHS = 32            # mc_paths: per-path Picard with a sin drift
TAIL_GAMMA = 1.8

WHY = {
    "mc_flux": "scalar HeatKernel.normal_derivative calls behind EndpointFlux.psi dominate; "
               "1-2 modes, so draws are small",
    "mc_modes": "p717 draws 128 modes x ~634 steps of Philox normals per path; "
                "no HeatKernel call is made",
    "mc_paths": "cost scales with paths: 1e5-path Gaussian/Student-t tail pair plus "
                "per-path Picard trajectories",
    "certify": "acceptance 2-6 and four CLI pipelines: kernel series, quadrature, "
               "semigroup certificates and dirichlet; no noise drawn",
}

ACCEPT1_P71 = [(t, x) for t in (0.05, 0.1, 0.2, 0.35, 0.5) for x in (0.12, 0.3, 0.5, 0.7, 0.88)]
ACCEPT1_P72 = [(t, x) for t in (0.05, 0.15, 0.3, 0.5) for x in (0.15, 0.4, 0.8, 1.5, 2.5)]
ACCEPT1_P717 = [(t, (x0, x1)) for t in (0.08, 0.2, 0.35)
                for x0 in (0.2, 0.45, 0.7, 1.0) for x1 in (-0.7, 0.4)]
J_SWEEP = [("p71", (0.75, 1.25, 2.75, 3.25), {}),
           ("p78", (1.75, 2.25, 2.75, 3.25), {}),
           ("p717", (1.75, 2.25, 2.75, 3.25), {}),
           ("p718", (1.25, 1.75, 2.75, 3.25), {"kappa": 0.5})]
FLOW_COV_ENTRIES = 28      # upper triangle of the 7 x 7 probe covariance


@dataclass
class Outcome:
    ok: bool
    digest: str
    checks: dict = field(default_factory=dict)
    paths: int = 0             # Monte Carlo sample paths completed
    sizes: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: object                # () -> Outcome


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.encode() if isinstance(a, str) else np.ascontiguousarray(a, float).tobytes())
    return h.hexdigest()[:16]


def op_seed(seed, index):
    """root_seed of operation `index`, derived from the workload seed."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def variance_z_bounds(n_paths, alpha):
    """Two-sided level-alpha bounds on z = (s2 - sigma2) / (s2 sqrt(2/(n-1))).

    Exact for Gaussian samples, where (n-1) s2 / sigma2 is chi-square with
    n-1 degrees of freedom; z is increasing in s2 / sigma2.
    """
    k = n_paths - 1
    c = np.sqrt(2.0 / k)
    lo = special.chdtri(k, 1 - alpha / 2) / k
    hi = special.chdtri(k, alpha / 2) / k
    return float((1 - 1 / lo) / c), float((1 - 1 / hi) / c)


# ---------------------------------------------------------------------------
# Monte Carlo operations


def _isometry(setup, n_modes, probes, n_paths, root_seed, alpha):
    ens, st = cv.simulate_convolution(setup, probes, n_paths=n_paths, root_seed=root_seed)
    z = (st["var"] - st["var_oracle"]) / st["var_se"]
    lo, hi = variance_z_bounds(n_paths, alpha)
    ok = bool(np.all(np.isfinite(z)) and np.all((z >= lo) & (z <= hi)))
    steps = ens.meta["n_steps"]
    return Outcome(ok, digest(st["mean"], st["var"]),
                   {"max_abs_z": float(np.max(np.abs(z))), "z_bounds": [lo, hi]},
                   paths=n_paths,
                   sizes={"modes": n_modes, "steps": steps, "paths": n_paths,
                          "probes": len(probes), "normals": n_modes * steps * n_paths})


def _flow(setup, n_modes, grid, n_paths, root_seed, alpha):
    out = cv.flow_consistency_check(setup, 0.1, 0.2, n_paths=n_paths, root_seed=root_seed,
                                    grid=grid)
    bound = float(-special.ndtri(alpha / 2))
    ok = bool(np.isfinite(out["max_cov_z"]) and out["max_cov_z"] <= bound)
    return Outcome(ok, digest(out["cov_one_shot"], out["cov_two_stage"]),
                   {"max_cov_z": out["max_cov_z"], "z_bound": bound},
                   paths=3 * n_paths,
                   sizes={"modes": n_modes, "paths": n_paths, "grid_nodes": grid.n,
                          "probes": 2 * grid.n + len(out["probes"])})


def _tail(setup, n_modes, probes, weights, n_paths, root_seed, law):
    ens, _ = cv.simulate_convolution(setup, probes, n_paths=n_paths, base_steps=128,
                                     root_seed=root_seed, return_paths=True, law=law)
    norms = ((np.abs(ens.values) ** 2 * weights[None, :]).sum(axis=1) / len(probes)) ** 0.5
    rep = cv.gaussian_tail_diagnostic(norms)
    gamma = rep.get("gamma", float("nan"))
    heavy = law != "gaussian"
    ok = rep["verdict"] == "ok" and (gamma < TAIL_GAMMA if heavy else gamma >= TAIL_GAMMA)
    steps = ens.meta["n_steps"]
    return Outcome(bool(ok), digest(norms), {"gamma": gamma, "law": law}, paths=n_paths,
                   sizes={"modes": n_modes, "steps": steps, "paths": n_paths,
                          "probes": len(probes), "variates": n_modes * steps * n_paths})


def _mild(setup, n_modes, x0, tgrid, grid, n_paths, root_seed):
    ens = cv.simulate_mild(setup, x0, tgrid, n_paths=n_paths, root_seed=root_seed, grid=grid,
                           drift=np.sin)
    iters = ens.meta["picard_iterations"]
    ok = bool(np.all(np.isfinite(ens.values)) and len(iters) == n_paths and min(iters) >= 1)
    return Outcome(ok, digest(ens.values),
                   {"picard_iterations": [min(iters), max(iters)]}, paths=n_paths,
                   sizes={"modes": n_modes, "paths": n_paths,
                          "grid_nodes": grid.n, "steps": len(tgrid) - 1,
                          "picard_iterations": int(sum(iters))})


def _mild_zero_drift(setup, x0, tgrid, grid, n_paths, root_seed):
    lin = cv.simulate_mild(setup, x0, tgrid, n_paths=n_paths, root_seed=root_seed, grid=grid)
    nl = cv.simulate_mild(setup, x0, tgrid, n_paths=n_paths, root_seed=root_seed, grid=grid,
                          drift=lambda u: 0.0 * u)
    exact = bool(np.array_equal(lin.values, nl.values))
    return Outcome(exact, digest(lin.values, nl.values), {"bit_exact": exact},
                   paths=2 * n_paths, sizes={"paths": n_paths, "grid_nodes": grid.n})


def mc_flux(seed):
    p71 = sc.build_setup("p71", p=2.0, theta=2.0)[0]
    p72 = sc.build_setup("p72", p=2.0, theta=2.0)[0]
    flow_setup = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)[0]
    grid = geo.interior_grid(geo.interval01(), n=FLOW_NODES)
    m71, m72 = cv.flux_for(p71).n_modes, cv.flux_for(p72).n_modes
    alpha = FAMILY_ALPHA / (len(ACCEPT1_P71) + len(ACCEPT1_P72) + FLOW_COV_ENTRIES)
    return [
        Op("sim_p71", lambda: _isometry(p71, m71, ACCEPT1_P71, FLUX_PATHS, op_seed(seed, 0),
                                        alpha)),
        Op("sim_p72", lambda: _isometry(p72, m72, ACCEPT1_P72, FLUX_PATHS, op_seed(seed, 1),
                                        alpha)),
        Op("flow_p71", lambda: _flow(flow_setup, m71, grid, FLUX_PATHS, op_seed(seed, 2), alpha)),
    ]


def mc_modes(seed):
    p717 = sc.build_setup("p717", p=2.0, theta=2.0)[0]
    p713 = sc.build_setup("p713", p=2.0, theta=2.0)[0]
    m717, m713 = cv.flux_for(p717).n_modes, cv.flux_for(p713).n_modes
    alpha = FAMILY_ALPHA / (2 * len(ACCEPT1_P717))
    return [
        Op("sim_p717", lambda: _isometry(p717, m717, ACCEPT1_P717, MODES_PATHS, op_seed(seed, 0),
                                         alpha)),
        Op("sim_p713", lambda: _isometry(p713, m713, ACCEPT1_P717, MODES_PATHS, op_seed(seed, 1),
                                         alpha)),
    ]


def mc_paths(seed):
    tail_setup = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)[0]
    probes = [(0.2, x) for x in np.linspace(0.15, 0.85, 11)]
    w = geo.weight(tail_setup.domain, np.array([x for _, x in probes]).reshape(-1, 1),
                   tail_setup.params)
    mild_setup = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)[0]
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    tgrid = np.linspace(0, 0.1, 11)
    m71 = cv.flux_for(tail_setup).n_modes
    return [
        Op("tail_gaussian", lambda: _tail(tail_setup, m71, probes, w, TAIL_PATHS_GAUSS,
                                          op_seed(seed, 0), "gaussian")),
        Op("tail_student_t", lambda: _tail(tail_setup, m71, probes, w, TAIL_PATHS_T,
                                           op_seed(seed, 1), "student_t")),
        Op("mild_sin_drift", lambda: _mild(mild_setup, m71, x0, tgrid, grid, MILD_PATHS,
                                           op_seed(seed, 2))),
        Op("mild_zero_drift", lambda: _mild_zero_drift(mild_setup, x0, tgrid, grid, 6,
                                                       op_seed(seed, 3))),
    ]


# ---------------------------------------------------------------------------
# certification: acceptance criteria 2-6 and four CLI pipelines


def _lines(checks):
    """Outcome of an acceptance criterion given as {line: (ok, value)}."""
    ok = all(bool(v[0]) for v in checks.values())
    values = {k: float(v[1]) for k, v in checks.items()}
    return Outcome(ok, digest(*(f"{k}={values[k]!r}" for k in sorted(values))), values)


def _j_verdict(sid, theta, kw):
    setup, pred = sc.build_setup(sid, p=2.0, theta=theta, horizon=0.5, **kw)
    rep = cv.j_integral(setup, prediction=pred)
    return Outcome(bool(rep.agreement), digest(rep.to_text()),
                   {"verdict": rep.verdict, "predicted": rep.predicted},
                   sizes={"j_levels": len(rep.j_values)})


def _kernel_suite():
    im, sn = K.HeatKernel(geo.interval01(), "image"), K.HeatKernel(geo.interval01(), "sine")
    xs = np.linspace(0.02, 0.98, 25)
    cross = max(float(np.max(np.abs(im.value(t, xs[:, None], xs[None, :])
                                    - sn.value(t, xs[:, None], xs[None, :]))))
                for t in (1e-3, 1e-2, 0.1, 0.5, 1.0))
    ck = 0.0
    for dom, n, hi in ((geo.interval01(), 4096, 1.0), (geo.half_line(), 8192, 14.0)):
        ker = K.HeatKernel(dom)
        zs = np.linspace(hi / n / 2, hi - hi / n / 2, n)
        for t, s in ((0.05, 0.05), (0.05, 0.1), (0.1, 0.1)):
            conv = np.sum(ker.value(t, 0.3, zs) * ker.value(s, zs, 0.62)) * (hi / n)
            ck = max(ck, abs(conv - ker.value(t + s, 0.3, 0.62)))
    grid = geo.interval_grid(n=2048)
    psi = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    out = sg.apply_semigroup(K.HeatKernel(geo.interval01()), 0.1, psi)
    eig = float(np.max(np.abs(out.values - np.exp(-np.pi ** 2 * 0.1) * np.sin(np.pi * grid.x))))
    ker_h = K.HeatKernel(geo.half_line())
    res = max(abs(ker_h.resolvent(lam, x, y) - K.halfline_resolvent_exact(lam, x, y))
              for lam in (0.5, 1.0, 3.0) for (x, y) in ((1.0, 2.0), (1.0, 1.0), (0.3, 2.5)))
    return _lines({"image_vs_sine": (cross < 1e-10, cross),
                   "chapman_kolmogorov": (ck < 1e-6, ck),
                   "eigen_decay": (eig < 1e-6, eig),
                   "resolvent": (res < 1e-8, res)})


def _estimate_suite():
    checks = {}
    etr = K.difference_bound_report(n_z=200, n_v=200)
    checks["difference_bound_C"] = (etr.verdict == "bounded" and np.isfinite(etr.fitted["C"]),
                                    etr.fitted["C"])
    for dom in (geo.half_line(), geo.interval01()):
        e = K.fit_singular_moment_exponent(dom, -0.5).fitted["exponent"]
        checks[f"{dom.kind}_moment_exponent"] = (abs(e + 0.25) <= 0.03, e)
    for d in (2, 3):
        spread = K.fit_boundary_mass_constant(d).fitted["relative_spread"]
        checks[f"ball{d}_mass_spread"] = (spread <= 0.10, spread)
    fw = K.far_weight_constants(theta=0.0, c=1.0).fitted
    checks["far_weight_N"] = (abs(fw["N"] - 2 * np.sqrt(np.pi)) < 1e-8
                              and fw["A1"] + fw["A2"] <= fw["N"], fw["N"])
    return _lines(checks)


def _operator_suite():
    I = geo.interval01()
    rep = sg.schur_constants(I, 2, 2.0, c=4.0, levels=3)
    gs = sg.gradient_smoothing_ratio(K.HeatKernel(I), geo.WeightedSpaceParams(2, 1.5, 0))
    st = sg.stability_rate(K.HeatKernel(I), geo.WeightedSpaceParams(2, 2, 0))
    csr = sg.cross_space_smoothing(K.HeatKernel(I), geo.WeightedSpaceParams(2, 2, 0))
    sp = sg.min_weight_splice_check(K.HeatKernel(I), 0.1, geo.WeightedSpaceParams(2, 0.2, 1.0),
                                    n_fields=100)
    return _lines({
        "schur_all_bounded": (rep.all_bounded, rep.all_bounded),
        "gradient_slope": (abs(gs.fitted["slope"] + 0.5) <= 0.05, gs.fitted["slope"]),
        "stability_rate": (abs(st["rate"] - np.pi ** 2) <= 0.01 * np.pi ** 2, st["rate"]),
        "cross_space_slope": (abs(csr.fitted["slope"] + 0.5) <= 0.1, csr.fitted["slope"]),
        "splice_failures": (sp["failures"] == 0, sp["failures"]),
    })


def _dirichlet_suite():
    I, H = geo.interval01(), geo.half_line()
    grid = geo.interval_grid(n=41)
    u = dm.dirichlet_map(I, 0.0, dm.endpoint_data(I, 1.0, 0.0), grid)
    err = float(np.max(np.abs(u.values - (1 - grid.x))))
    gh = geo.halfline_grid(level=6, cutoff=5.0, per_panel=4)
    uh = dm.dirichlet_map(H, 1.0, dm.endpoint_data(H, 1.0), gh)
    errh = float(np.max(np.abs(uh.values - np.exp(-gh.x))))
    r1 = dm.verify_harmonicity(H, 1.0, dm.endpoint_data(H, 1.0), h=1e-2)["residual"]
    r2 = dm.verify_harmonicity(H, 1.0, dm.endpoint_data(H, 1.0), h=5e-3)["residual"]
    gx = geo.interval_grid(n=33)
    e = dm.endpoint_data(I, 1.0, 0.0)
    a = dm.boundary_propagator(I, 0.2, e, gx, kernel=K.HeatKernel(I, "image"))
    b = dm.boundary_propagator(I, 0.2, e, gx, kernel=K.HeatKernel(I, "sine"))
    cross = float(np.max(np.abs(a.values - b.values)))
    e_h = dm.endpoint_data(H, 1.0)
    grid_h = geo.halfline_grid(level=8, cutoff=8.0)
    C = dm.fit_majorant_constant(H, e_h, grid_h, c=4.0)
    dominated = True
    for t in np.geomspace(2e-3, 0.9, 9):
        exact = dm.boundary_propagator(H, t, e_h, grid_h)
        maj = dm.propagator_majorant(H, t, e_h, grid_h, c=4.0, big_c=C * (1 + 1e-9))
        dominated &= bool(np.all(np.abs(exact.values) <= maj.values + 1e-15))
    return _lines({"linear_interpolant": (err < 1e-6, err),
                   "halfline_exponential": (errh < 1e-6, errh),
                   "harmonicity_ratio": (3.0 <= r1 / r2 <= 5.0, r1 / r2),
                   "propagator_cross_series": (cross < 1e-8, cross),
                   "majorant_dominates": (dominated, C)})


PASSING_VERDICTS = {"True", "bounded"}


def _cli_pipeline(pipeline, seed, out_dir):
    cfg = cli.parse_config(f"pipeline = {pipeline}\nscenario = p71\ntheta = 2.0\nseed = {seed}\n")
    manifest, files = cli.run_scenario(cfg)
    cli.write_run(cfg, manifest, files, out_dir)
    verdicts = next(ln for ln in manifest.splitlines() if ln.startswith("verdicts:"))
    values = [kv.split("=", 1)[1] for kv in verdicts[len("verdicts:"):].split(";")]
    ok = all(part in PASSING_VERDICTS for v in values for part in v.strip().split("/"))
    return Outcome(ok, digest(*(files[k] for k in sorted(files))),
                   {"verdicts": verdicts[len("verdicts: "):]})


def certify(seed, out_dir):
    ops = [Op(f"j_{sid}_{th}", lambda sid=sid, th=th, kw=kw: _j_verdict(sid, th, kw))
           for sid, thetas, kw in J_SWEEP for th in thetas]
    ops += [Op("kernel_suite", _kernel_suite), Op("estimate_suite", _estimate_suite),
            Op("operator_suite", _operator_suite), Op("dirichlet_suite", _dirichlet_suite)]
    ops += [Op(f"cli_{p}", lambda p=p: _cli_pipeline(p, op_seed(seed, 0), out_dir))
            for p in ("verify-kernels", "schur", "appendix-checks", "invariant")]
    return ops


def build(name, seed, out_dir):
    """Set-up of a workload: its operations, with setups, grids and fluxes built."""
    if name == "certify":
        os.makedirs(out_dir, exist_ok=True)
        return certify(seed, out_dir)
    return {"mc_flux": mc_flux, "mc_modes": mc_modes, "mc_paths": mc_paths}[name](seed)
