import numpy as np
import pytest
from scipy import stats as stats_mod

from bnlab import convolution as cv
from bnlab import geometry as geo
from bnlab import scenarios as sc
from bnlab import semigroup as sg
from bnlab.noise import NoiseSpec, endpoint_noise, lebesgue_measure
from bnlab.reports import loglog_slope


def test_setup_validation():
    with pytest.raises(cv.ConfigurationError):
        cv.ConvolutionSetup(geo.unit_ball(2), endpoint_noise(geo.interval01()),
                            geo.WeightedSpaceParams(2, 2, 0), mode="exact")
    with pytest.raises(cv.ConfigurationError):
        cv.ConvolutionSetup(geo.interval01(), endpoint_noise(geo.interval01()),
                            geo.WeightedSpaceParams(2, 2, 0), horizon=-1)


def test_predictions_catalogued():
    setup, pred = sc.build_setup("p71", p=2.0, theta=2.0)
    assert (pred.theta_lo, pred.theta_hi) == (1.0, 3.0)
    setup, pred = sc.build_setup("p78", p=2.0, theta=2.5)
    assert (pred.theta_lo, pred.theta_hi) == (2.0, 3.0)
    setup, pred = sc.build_setup("p717", p=2.0, theta=2.5)
    assert (pred.theta_lo, pred.theta_hi) == (2.0, 3.0)
    setup, pred = sc.build_setup("p718", p=2.0, theta=2.0, kappa=0.5)
    assert (pred.theta_lo, pred.theta_hi) == (1.5, 3.0)
    assert pred.scenario == "p718ii"
    setup, pred = sc.build_setup("p718", p=2.0, theta=2.0, kappa=2.0)
    assert pred.scenario == "p718i"
    assert (pred.theta_lo, pred.theta_hi) == (1.0, 3.0)


def test_prediction_arithmetic_p718ii():
    # lower endpoint p + p(m-kappa)/2 - 1 at p=2, m=1, kappa=0.5 is 1.5
    assert 2.0 + 2.0 * (1 - 0.5) / 2 - 1 == pytest.approx(1.5)


def test_no_prediction_for_uncatalogued():
    setup = cv.ConvolutionSetup(geo.interval01(), NoiseSpec("endpoints", n_atoms=2),
                                geo.WeightedSpaceParams(2, 2, 0))
    bad = cv.ConvolutionSetup(geo.halfline() if hasattr(geo, "halfline") else geo.half_line(),
                              NoiseSpec("homogeneous", measure=lebesgue_measure(),
                                        z_max=4, n_cells=4),
                              geo.WeightedSpaceParams(2, 2, 1.5))
    with pytest.raises(sc.NoPrediction):
        sc.predict_wellposedness(bad)


def test_zero_noise_j_zero():
    setup = cv.ConvolutionSetup(geo.interval01(), NoiseSpec("endpoints", n_atoms=0),
                                geo.WeightedSpaceParams(2, 2, 0), horizon=0.5)
    rep = cv.j_integral(setup)
    assert all(v == 0.0 for v in rep.j_values)


def test_j_threshold_agreement_interval():
    for th, expect in ((0.75, "divergent"), (1.25, "finite"),
                       (2.75, "finite"), (3.25, "divergent")):
        setup, pred = sc.build_setup("p71", p=2.0, theta=th, horizon=0.5)
        rep = cv.j_integral(setup, prediction=pred)
        assert rep.verdict == expect
        assert rep.agreement


def test_j_extension_failure_reason():
    setup, pred = sc.build_setup("p71", p=2.0, theta=3.25, horizon=0.5)
    rep = cv.j_integral(setup, prediction=pred)
    assert rep.verdict == "divergent"
    assert "extension" in rep.reason
    txt = rep.to_text()
    assert "verdict: divergent" in txt


def test_alpha_continuity_mid_interval():
    # theta mid-interval admits a positive alpha with the integral still finite
    theta, p = 2.0, 2.0
    alpha = (theta - 1.0) / (2 * p)
    setup, pred = sc.build_setup("p71", p=p, theta=theta, alpha=alpha, horizon=0.5)
    rep = cv.j_integral(setup, prediction=pred)
    assert rep.verdict == "finite"


def test_variance_field_halfline_oracle():
    setup, _ = sc.build_setup("p72", p=2.0, theta=2.0)
    probe = geo.QuadratureGrid([[1.0]], [1.0], 0, 0.0)
    f = cv.variance_field(setup, 1.0, probe)
    assert f.values[0] == pytest.approx(1.5 * np.exp(-0.5) / np.pi, rel=1e-8)


def test_variance_field_monotone_in_t():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0)
    grid = geo.interval_grid(n=15)
    vals = [cv.variance_field(setup, t, grid).values for t in (0.05, 0.1, 0.2, 0.4)]
    for a, b in zip(vals[:-1], vals[1:]):
        assert np.all(b >= a - 1e-15)


def test_variance_profile_truncated_vs_full_converges():
    setup, _ = sc.build_setup("p717", p=2.0, theta=2.5, n_cells=48, z_max=16.0)
    flux = cv.flux_for(setup)
    pts = np.array([[0.4, 0.3], [0.8, -0.5]])
    full = cv.variance_profile(flux, 0.3, pts, truncated=False)
    trunc = cv.variance_profile(flux, 0.3, pts, truncated=True)
    assert np.max(np.abs(full - trunc) / full) < 0.01


def test_simulate_convolution_isometry_small():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(t, x) for t in (0.1, 0.3) for x in (0.25, 0.5, 0.8)]
    ens, stats = cv.simulate_convolution(setup, probes, n_paths=4000, base_steps=256,
                                         root_seed=17)
    z = (stats["var"] - stats["var_oracle"]) / stats["var_se"]
    assert np.max(np.abs(z)) < 3.0
    assert np.max(np.abs(stats["mean"] / stats["mean_se"])) < 3.5
    assert np.allclose(stats["fourth_moment_ratio"], 3.0, atol=0.4)


def test_fourth_moment_ratio_is_centred_kurtosis():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(t, x) for t in (0.1, 0.3) for x in (0.25, 0.5, 0.8)]
    ens, stats = cv.simulate_convolution(setup, probes, n_paths=800, base_steps=128,
                                         root_seed=11, return_paths=True)
    kurt = stats_mod.kurtosis(ens.values, axis=0, fisher=False, bias=True)
    assert np.allclose(stats["fourth_moment_ratio"], kurt, rtol=1e-12, atol=0)


def test_simulate_probes_sharing_a_time_match_a_subset_run():
    # extra probes at the same times (no closer to the boundary) leave the schedule
    # unchanged, and the shared-time rows of the coefficient tensor are the smaller
    # run's tensor.  Student-t keeps one variate per step, so the draws coincide too
    # and the shared rows reproduce the smaller run path by path; Gaussian draws are
    # reduced-rank, keyed to the probe set, and give up this coupling by design
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    small = [(0.3, 0.5), (0.1, 0.35)]
    large = [(0.1, 0.6), (0.3, 0.5), (0.3, 0.7), (0.1, 0.35), (0.3, 0.4)]
    edges = cv._step_schedule(0.3, [0.1, 0.3], 128, rho_min=0.3)
    flux = cv.flux_for(setup)
    coeff_s = cv._coefficient_tensor(flux, np.array([t for t, _ in small]),
                                     np.array([x for _, x in small]), edges)
    coeff_l = cv._coefficient_tensor(flux, np.array([t for t, _ in large]),
                                     np.array([x for _, x in large]), edges)
    assert np.array_equal(coeff_l[:, [1, 3]], coeff_s)
    ens_s, st_s = cv.simulate_convolution(setup, small, n_paths=300, base_steps=128,
                                          root_seed=3, return_paths=True, law="student_t")
    ens_l, st_l = cv.simulate_convolution(setup, large, n_paths=300, base_steps=128,
                                          root_seed=3, return_paths=True, law="student_t")
    assert ens_s.meta["n_steps"] == ens_l.meta["n_steps"] == len(edges) - 1
    assert np.allclose(ens_l.values[:, [1, 3]], ens_s.values, rtol=1e-12, atol=1e-15)
    assert np.allclose(st_l["var_oracle"][[1, 3]], st_s["var_oracle"], rtol=1e-14)


@pytest.mark.parametrize("law", ["gaussian", "student_t"])
def test_simulate_does_not_depend_on_chunking(law, monkeypatch):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(0.3, 0.5), (0.1, 0.35), (0.3, 0.7)]
    ref, _ = cv.simulate_convolution(setup, probes, n_paths=700, base_steps=128,
                                     root_seed=3, return_paths=True, law=law)
    width = 3 if law == "gaussian" else ref.meta["n_steps"]
    assert ref.meta["chunk_paths"] == 700
    assert ref.meta["normals_drawn"] == cv.flux_for(setup).n_modes * width * 700
    monkeypatch.setattr(cv, "_CHUNK_BYTES", 8 * width * 41)
    small, _ = cv.simulate_convolution(setup, probes, n_paths=700, base_steps=128,
                                       root_seed=3, return_paths=True, law=law)
    assert small.meta["chunk_paths"] == 41
    if law == "gaussian":
        assert np.array_equal(small.values, ref.values)
    else:
        # BLAS may block the per-step sum differently for another row count: the
        # terms move by an ulp of their own size, not of the (possibly tiny) sum
        np.testing.assert_allclose(small.values, ref.values, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref.values).max())


@pytest.mark.parametrize("law, df, message", [("normal", 3.0, "unknown law 'normal'"),
                                               ("student_t", 2.0, r"df > 2")])
def test_simulate_rejects_unknown_law_and_small_df(law, df, message, monkeypatch):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    monkeypatch.setattr(cv, "flux_for", lambda s: pytest.fail("work began before validation"))
    with pytest.raises(ValueError, match=message):
        cv.simulate_convolution(setup, [(0.3, 0.5)], n_paths=10, law=law, df=df)


def test_simulate_more_probes_than_steps():
    # rank-deficient coefficients: r = n_steps < n_probes normals per mode and path
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(0.3, x) for x in np.linspace(0.2, 0.8, 300)]
    ens, stats = cv.simulate_convolution(setup, probes, n_paths=4000, base_steps=64,
                                         root_seed=29)
    n_steps = ens.meta["n_steps"]
    assert n_steps < len(probes)
    assert ens.meta["normals_drawn"] == cv.flux_for(setup).n_modes * n_steps * 4000
    z = (stats["var"] - stats["var_oracle"]) / stats["var_se"]
    assert np.max(np.abs(z)) < 3.0


def test_invariant_diagnostics_refuses_half_space_before_grid():
    setup, _ = sc.build_setup("p717", p=2.0, theta=2.0)
    with pytest.raises(geo.UnsupportedDomainError):
        cv.invariant_diagnostics(setup)


def test_simulate_convolution_replay():
    setup, _ = sc.build_setup("p72", p=2.0, theta=2.0, horizon=0.2)
    probes = [(0.2, 0.5)]
    _, s1 = cv.simulate_convolution(setup, probes, n_paths=500, base_steps=128, root_seed=5)
    _, s2 = cv.simulate_convolution(setup, probes, n_paths=500, base_steps=128, root_seed=5)
    assert s1["var"][0] == s2["var"][0]


def test_simulate_refusal_on_coarse_steps():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.4)
    with pytest.raises(cv.NumericalRefusal):
        cv.simulate_convolution(setup, [(0.4, 0.5), (0.01, 0.5)], n_paths=10, base_steps=64)


def test_majorant_mode_refuses_simulation():
    setup, _ = sc.build_setup("p78", p=2.0, theta=2.5)
    with pytest.raises(cv.ConfigurationError):
        cv.simulate_convolution(setup, [(0.1, np.array([0.3, 0.0]))], n_paths=10)


def test_mild_trajectories_zero_noise_and_eigen_decay():
    setup = cv.ConvolutionSetup(geo.interval01(), NoiseSpec("endpoints", n_atoms=0),
                                geo.WeightedSpaceParams(2, 2, 0), horizon=0.3)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=7, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    tg = np.linspace(0, 0.2, 9)
    ens = cv.simulate_mild(setup, x0, tg, n_paths=2, root_seed=1, grid=grid)
    exact = np.exp(-np.pi ** 2 * 0.2) * np.sin(np.pi * grid.x)
    # engine accuracy is limited by its spatial quadrature grid
    assert np.max(np.abs(ens.values[0, -1] - exact)) < 1e-3
    assert np.array_equal(ens.values[0], ens.values[1])   # no noise: identical paths
    zero0 = cv.simulate_mild(setup, None, tg, n_paths=1, root_seed=1, grid=grid)
    assert np.all(zero0.values == 0.0)


def test_semilinear_zero_drift_reduction():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: x * (1 - x))
    tg = np.linspace(0, 0.1, 11)
    lin = cv.simulate_mild(setup, x0, tg, n_paths=6, root_seed=3, grid=grid)
    nl = cv.simulate_mild(setup, x0, tg, n_paths=6, root_seed=3, grid=grid,
                          drift=lambda u: 0.0 * u)
    assert np.array_equal(lin.values, nl.values)


def test_semilinear_linear_drift_mean():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    tg = np.linspace(0, 0.2, 21)
    ens = cv.simulate_mild(setup, x0, tg, n_paths=300, root_seed=9, grid=grid,
                           drift=lambda u: -u)
    mean = ens.values[:, -1, :].mean(axis=0)
    se = ens.values[:, -1, :].std(axis=0) / np.sqrt(300)
    exact = np.exp(-0.2) * np.exp(-np.pi ** 2 * 0.2) * np.sin(np.pi * grid.x)
    assert np.max(np.abs(mean - exact) / np.maximum(se, 1e-12)) < 4.0


def test_semilinear_clamp_picard_count():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    tg = np.linspace(0, 0.1, 101)
    ens = cv.simulate_mild(setup, x0, tg, n_paths=3, root_seed=2, grid=grid,
                           drift=lambda u: np.clip(u, -1, 1))
    assert max(ens.meta["picard_iterations"]) <= 20


def test_flow_two_stage_vs_one_shot():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    out = cv.flow_consistency_check(setup, 0.1, 0.2, n_paths=4000, root_seed=13,
                                    grid=geo.interior_grid(geo.interval01(), graded=True,
                                                           level=6, per_panel=6))
    assert out["max_cov_z"] < 3.5


def test_increment_rate_slope():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.5)
    hs = np.geomspace(1e-3, 1e-1, 6)
    vals = [cv.increment_mean_square(setup, 0.3, 0.5, h) for h in hs]
    alpha = 0.25
    assert loglog_slope(hs, vals) >= alpha * 0.75


def test_invariant_diagnostics_interval():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0)
    inv = cv.invariant_diagnostics(setup)
    assert np.isfinite(inv["j_infinity"]) and inv["j_infinity"] > 0
    assert inv["max_rel_gap_at_probe"] < 0.02


def test_invariant_sigma_infinity_halfline_closed_form():
    setup, _ = sc.build_setup("p72", p=2.0, theta=2.0)
    inv = cv.invariant_diagnostics(setup)
    g = inv["grid"]
    assert np.max(np.abs(inv["sigma_inf"] - 1 / (np.pi * g.x ** 2))
                  / inv["sigma_inf"]) < 1e-10


def test_invariant_variance_monotone_to_limit():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0)
    grid = geo.interval_grid(n=9)
    flux = cv.flux_for(setup)
    profs = [cv.variance_profile(flux, t, grid.x) for t in (0.2, 0.5, 1.0)]
    inv_vals = cv.variance_profile(flux, 1.0, grid.x) + cv.interval_flux_tail(grid.x, 1.0)
    for a, b in zip(profs[:-1], profs[1:]):
        assert np.all(b >= a - 1e-14)
    assert np.all(profs[-1] <= inv_vals + 1e-12)


def test_interval_tail_consistency():
    # sigma^2(T) + tail(T) is T-independent (both computed routes agree)
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0)
    flux = cv.flux_for(setup)
    x = np.array([0.3, 0.6])
    a = cv.variance_profile(flux, 1.0, x, pts_per_octave=12) + cv.interval_flux_tail(x, 1.0)
    b = cv.variance_profile(flux, 1.5, x, pts_per_octave=12) + cv.interval_flux_tail(x, 1.5)
    assert np.allclose(a, b, rtol=1e-8)


def test_zero_noise_invariant_point_mass():
    setup = cv.ConvolutionSetup(geo.interval01(), NoiseSpec("endpoints", n_atoms=0),
                                geo.WeightedSpaceParams(2, 2, 0))
    inv = cv.invariant_diagnostics(setup)
    assert inv["j_infinity"] == 0.0


def test_gaussian_tail_diagnostic():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    probes = [(0.2, x) for x in np.linspace(0.15, 0.85, 11)]
    ens, _ = cv.simulate_convolution(setup, probes, n_paths=100000, base_steps=128,
                                     root_seed=21, return_paths=True)
    w = geo.weight(setup.domain, np.array([x for _, x in probes]).reshape(-1, 1), setup.params)
    norms = ((np.abs(ens.values) ** 2 * w[None, :]).sum(axis=1) / len(probes)) ** 0.5
    rep = cv.gaussian_tail_diagnostic(norms)
    assert rep["verdict"] == "ok"
    assert rep["gamma"] >= 1.8
    # degenerate: all-equal samples
    assert cv.gaussian_tail_diagnostic(np.ones(5000))["verdict"] == "degenerate"
    # insufficient tail
    assert cv.gaussian_tail_diagnostic(np.random.default_rng(0).normal(size=500))["verdict"] \
        == "inconclusive"


def test_heavy_tail_negative_control():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    probes = [(0.2, x) for x in np.linspace(0.15, 0.85, 11)]
    ens, _ = cv.simulate_convolution(setup, probes, n_paths=100000, base_steps=128,
                                     root_seed=22, return_paths=True, law="student_t")
    w = geo.weight(setup.domain, np.array([x for _, x in probes]).reshape(-1, 1), setup.params)
    norms = ((np.abs(ens.values) ** 2 * w[None, :]).sum(axis=1) / len(probes)) ** 0.5
    rep = cv.gaussian_tail_diagnostic(norms)
    assert rep["verdict"] == "ok"
    assert rep["gamma"] < 1.8


def test_bdg_moment_identity():
    # E int |M|^p w dx = c(p) int sigma^p w dx with c(2) = 1, c(4) = 3
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    xs = np.linspace(0.1, 0.9, 15)
    probes = [(0.2, x) for x in xs]
    ens, stats = cv.simulate_convolution(setup, probes, n_paths=20000, base_steps=192,
                                         root_seed=31, return_paths=True)
    w = geo.weight(setup.domain, xs.reshape(-1, 1), setup.params)
    dx = np.full(len(xs), xs[1] - xs[0])
    sig2 = stats["var_oracle"]
    for p, cp in ((2, 1.0), (4, 3.0)):
        per_path = (np.abs(ens.values) ** p * (w * dx)[None, :]).sum(axis=1)
        lhs = per_path.mean()
        se = per_path.std() / np.sqrt(len(per_path))
        rhs = cp * (sig2 ** (p / 2) * w * dx).sum()
        assert abs(lhs - rhs) < 4 * se


def test_prediction_generic_domain():
    from bnlab.noise import circle_white_noise
    square = geo.polygon_domain([[0, 0], [2, 0], [2, 2], [0, 2]])
    setup = cv.ConvolutionSetup(square, circle_white_noise(8),
                                geo.WeightedSpaceParams(2, 2.5, 0), mode="majorant")
    pred = sc.predict_wellposedness(setup)
    assert pred.scenario == "p711ii"
    assert (pred.theta_lo, pred.theta_hi) == (2.0, 3.0)
