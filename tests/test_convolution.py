import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as stats_mod
import scipy.special
from scipy.special import gamma, gammaincc

from bnlab import cli
from bnlab import convolution as cv
from bnlab import geometry as geo
from bnlab import scenarios as sc
from bnlab import semigroup as sg
from bnlab.noise import NoiseSpec, SpectralMeasure, endpoint_noise, substream


def test_setup_validation():
    with pytest.raises(cv.ConfigurationError):
        cv.ConvolutionSetup(geo.interval01(), endpoint_noise(geo.interval01()),
                            geo.WeightedSpaceParams(2, 2, 0), horizon=-1)


def test_j_integral_needs_two_levels():
    setup, pred = sc.build_setup("p71", p=2.0, theta=2.0)
    with pytest.raises(ValueError, match="at least 2"):
        cv.j_integral(setup, levels=(10,), prediction=pred)


def test_predictions_catalogued():
    setup, pred = sc.build_setup("p71", p=2.0, theta=2.0)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (1.0, 3.0, 0.0)
    setup, pred = sc.build_setup("p72", p=2.0, theta=2.0)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (1.0, 3.0, 0.5)
    setup, pred = sc.build_setup("p74", p=2.0, theta=2.0)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (1.0, 3.0, 0.0)
    setup, pred = sc.build_setup("p78", p=2.0, theta=2.5)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (2.0, 3.0, 0.0)
    setup, pred = sc.build_setup("p713", p=2.0, theta=2.0)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (1.0, 3.0, 1.0)
    setup, pred = sc.build_setup("p717", p=2.0, theta=2.5)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (2.0, 3.0, 1.0)
    setup, pred = sc.build_setup("p718", p=2.0, theta=2.0, kappa=0.5)
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (1.5, 3.0, 1.0)
    assert pred.scenario == "p718ii"
    setup, pred = sc.build_setup("p718", p=2.0, theta=2.0, kappa=2.0)
    assert pred.scenario == "p718i"
    assert (pred.theta_lo, pred.theta_hi, pred.delta_min) == (1.0, 3.0, 1.0)


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


def test_atoms_are_exact_one_node_modes():
    # an atom z_k of mass m_k is one cosine and one sine mode, exact: the
    # transform that builds the covariance is their product sum, and n_modes
    # counts them (4 on p713)
    setup, _ = sc.build_setup("p713", p=2.0, theta=2.0)
    flux = cv.flux_for(setup)
    mu = setup.noise.measure
    assert flux.n_modes == 2 * len(mu.masses) == 4
    rng = np.random.default_rng(5)
    a, x, y = rng.uniform(1e-3, 2.0, 50), rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50)
    z, m = np.asarray(mu.points), np.asarray(mu.masses)
    modes = 2 * np.sum(m * np.exp(-a[:, None] * z ** 2)
                       * (np.cos(np.outer(x, z)) * np.cos(np.outer(y, z))
                          + np.sin(np.outer(x, z)) * np.sin(np.outer(y, z))), axis=1)
    np.testing.assert_allclose(mu.transform(a, x - y), modes, rtol=1e-13, atol=1e-15)
    assert cv.flux_for(sc.build_setup("p717", p=2.0, theta=2.0)[0]).n_modes == 0


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
    # one statistics sub-block, and several merged ones
    for n_paths in (800, 5 * cv._BLOCK_PATHS + 123):
        ens, stats = cv.simulate_convolution(setup, probes, n_paths=n_paths, base_steps=128,
                                             root_seed=11, return_paths=True)
        kurt = stats_mod.kurtosis(ens.values, axis=0, fisher=False, bias=True)
        assert np.allclose(stats["fourth_moment_ratio"], kurt, rtol=1e-12, atol=0)


def test_probe_statistics_equal_the_numpy_formulas_bit_for_bit():
    # d^4 is formed as the products (d d)(d d) the code promises: libm pow rounds
    # otherwise in some elements (at seed 7 here, by 2e-16 relative)
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(t, x) for t in (0.1, 0.3) for x in (0.25, 0.5, 0.8)]
    n = 301
    for seed in (13, 7):
        ens, stats = cv.simulate_convolution(setup, probes, n_paths=n, base_steps=128,
                                             root_seed=seed, return_paths=True)
        M = ens.values
        assert M.shape == (n, len(probes))
        d = M - M.mean(axis=0)
        expected = {
            "mean": M.mean(axis=0),
            "var": M.var(axis=0, ddof=1),
            "fourth_moment_ratio": ((d * d) * (d * d)).mean(axis=0)
            / np.maximum(M.var(axis=0) ** 2, 1e-300),
            "var_se": M.var(axis=0, ddof=1) * np.sqrt(2.0 / (n - 1)),
            "mean_se": M.std(axis=0, ddof=1) / np.sqrt(n),
        }
        for name, want in expected.items():
            assert np.array_equal(stats[name], want), (seed, name)


def test_simulate_probes_sharing_a_time_match_a_subset_run():
    # extra probes at the same times (no closer to the boundary) leave the schedule
    # unchanged, and the shared-time rows of the coefficient tensor and of the
    # isometry oracle are the smaller run's.  The draws are joint across modes,
    # keyed to the probe set, so the paths of the two runs are not coupled
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    small = [(0.3, 0.5), (0.1, 0.35)]
    large = [(0.1, 0.6), (0.3, 0.5), (0.3, 0.7), (0.1, 0.35), (0.3, 0.4)]
    edges = cv._step_schedule(0.3, [0.1, 0.3], 128, rho_min=0.3)
    flux = cv.flux_for(setup)
    coeff_s, _ = cv._coefficient_tensor(flux, np.array([t for t, _ in small]),
                                        np.array([x for _, x in small]), edges)
    coeff_l, _ = cv._coefficient_tensor(flux, np.array([t for t, _ in large]),
                                        np.array([x for _, x in large]), edges)
    assert np.array_equal(coeff_l[:, [1, 3]], coeff_s)
    ens_s, st_s = cv.simulate_convolution(setup, small, n_paths=300, base_steps=128,
                                          root_seed=3)
    ens_l, st_l = cv.simulate_convolution(setup, large, n_paths=300, base_steps=128,
                                          root_seed=3)
    assert ens_s.meta["n_steps"] == ens_l.meta["n_steps"] == len(edges) - 1
    assert np.allclose(st_l["var_oracle"][[1, 3]], st_s["var_oracle"], rtol=1e-14)


@pytest.mark.parametrize("law", ["gaussian", "student_t"])
def test_simulate_does_not_depend_on_chunking(law, monkeypatch):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(0.3, 0.5), (0.1, 0.35), (0.3, 0.7)]
    ref, _ = cv.simulate_convolution(setup, probes, n_paths=700, base_steps=128,
                                     root_seed=3, return_paths=True, law=law)
    # both laws: one joint draw of one variate per probe, 3 per path
    assert ref.meta["stat_block_paths"] == cv._BLOCK_PATHS > 700
    assert ref.meta["normals_drawn"] == 3 * 700
    monkeypatch.setattr(cv, "_BLOCK_PATHS", 41)
    small, _ = cv.simulate_convolution(setup, probes, n_paths=700, base_steps=128,
                                       root_seed=3, return_paths=True, law=law)
    assert small.meta["stat_block_paths"] == 41
    assert np.array_equal(small.values, ref.values)


@pytest.mark.parametrize("law", ["gaussian", "student_t"])
def test_probe_statistics_do_not_depend_on_chunking(law, monkeypatch):
    # 8,201 paths span three draw blocks, the last of 9 paths.  The statistics
    # are the same with and without the paths array, and the paths are the same
    # in 41-path blocks, which end in a block of one path, whose row BLAS would
    # round unlike a block's at this seed (r = 6)
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(t, x) for t in (0.1, 0.3) for x in (0.25, 0.5, 0.8)]
    n = 8201
    ref, st_ref = cv.simulate_convolution(setup, probes, n_paths=n, base_steps=128,
                                          root_seed=3, return_paths=True, law=law)
    assert ref.meta["stat_block_paths"] == cv._BLOCK_PATHS < n / 2
    _, st = cv.simulate_convolution(setup, probes, n_paths=n, base_steps=128,
                                    root_seed=3, law=law)
    for name, value in st.items():
        assert np.array_equal(value, st_ref[name]), name
    monkeypatch.setattr(cv, "_BLOCK_PATHS", 41)
    small = {}
    for keep in (True, False):
        ens, small[keep] = cv.simulate_convolution(setup, probes, n_paths=n, base_steps=128,
                                                   root_seed=3, return_paths=keep, law=law)
        assert ens.meta["stat_block_paths"] == 41
        assert ens.values.shape == ((n if keep else 0), len(probes))
        if keep:
            assert np.array_equal(ens.values, ref.values)
    for name, value in small[False].items():
        assert np.array_equal(value, small[True][name]), name
    M = ref.values
    numpy_formulas = {
        "mean": M.mean(axis=0),
        "var": M.var(axis=0, ddof=1),
        "fourth_moment_ratio": ((M - M.mean(axis=0)) ** 4).mean(axis=0) / M.var(axis=0) ** 2,
    }
    for name, want in numpy_formulas.items():
        np.testing.assert_allclose(st_ref[name], want, rtol=1e-12, atol=0, err_msg=name)


def test_statistics_only_memory_does_not_grow_with_paths():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(t, x) for t in (0.1, 0.3) for x in (0.25, 0.5, 0.8)]

    def traced_peak(n_paths):
        tracemalloc.start()
        try:
            cv.simulate_convolution(setup, probes, n_paths=n_paths, base_steps=128, root_seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(2000)                   # first-call caches stay out of the comparison
    small, large = traced_peak(50_000), traced_peak(200_000)
    # a paths array would be 2.4 MB at 50,000 paths and 9.6 MB at 200,000
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("law", ["gaussian", "student_t"])
@pytest.mark.parametrize("sid", ["p71", "p713"])
def test_simulate_does_not_depend_on_thread_count(sid, law, monkeypatch):
    # every draw runs on the calling thread from its own substream: the values are
    # one function of the seed, whatever the visible core count, and calls made
    # from several threads at once share no generator state
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, horizon=0.3)
    if setup.domain.dim == 1:
        probes = [(0.3, 0.5), (0.1, 0.35), (0.3, 0.7)]
    else:
        probes = [(0.3, (0.5, 0.4)), (0.1, (0.2, -0.3)), (0.3, (1.0, 0.4))]
    # four blocks of paths, so the substream advances across blocks
    monkeypatch.setattr(cv, "_BLOCK_PATHS", 97)

    def run(_=None):
        ens, _ = cv.simulate_convolution(setup, probes, n_paths=300, base_steps=128,
                                         root_seed=3, return_paths=True, law=law)
        return ens

    ref = run()
    assert ref.meta["stat_block_paths"] == 97
    assert ref.meta["normals_drawn"] == 3 * 300
    assert "draw_threads" not in ref.meta
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # interleave the calling threads as often as possible
    try:
        for cores in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: set(range(c)),
                                raising=False)
            with ThreadPoolExecutor(max_workers=cores) as pool:
                for ens in pool.map(run, range(cores)):
                    assert np.array_equal(ens.values, ref.values)
    finally:
        sys.setswitchinterval(switch)


def test_simulate_rejects_unknown_law(monkeypatch):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    monkeypatch.setattr(cv, "flux_for", lambda s: pytest.fail("work began before validation"))
    with pytest.raises(ValueError, match="unknown law 'normal'"):
        cv.simulate_convolution(setup, [(0.3, 0.5)], n_paths=10, law="normal")


def test_simulate_rejects_fewer_than_two_paths(monkeypatch):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    monkeypatch.setattr(cv, "flux_for", lambda s: pytest.fail("work began before validation"))
    for n_paths in (0, 1):
        with pytest.raises(ValueError, match="n_paths must be at least 2"):
            cv.simulate_convolution(setup, [(0.3, 0.5)], n_paths=n_paths)


@pytest.mark.parametrize("law", ["gaussian", "student_t"])
def test_simulate_without_noise_modes_draws_nothing(law):
    setup = cv.ConvolutionSetup(geo.interval01(), NoiseSpec("endpoints", n_atoms=0),
                                geo.WeightedSpaceParams(2, 2, 0), horizon=0.3)
    ens, stats = cv.simulate_convolution(setup, [(0.3, 0.5), (0.1, 0.2)], n_paths=50,
                                         base_steps=128, return_paths=True, law=law)
    assert ens.meta["normals_drawn"] == 0 and ens.meta["max_isometry_bias"] == 0.0
    assert np.all(ens.values == 0.0) and np.all(stats["var_oracle"] == 0.0)


def test_simulate_more_probes_than_steps():
    # rank-deficient coefficients: each mode has rank n_steps < n_probes, and the
    # summed covariance is numerically singular; the joint draw still takes one
    # normal per probe, which the factor maps onto the covariance's range
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    probes = [(0.3, x) for x in np.linspace(0.2, 0.8, 300)]
    ens, stats = cv.simulate_convolution(setup, probes, n_paths=4000, base_steps=64,
                                         root_seed=29)
    n_steps = ens.meta["n_steps"]
    assert n_steps < len(probes)
    assert ens.meta["normals_drawn"] == len(probes) * 4000
    z = (stats["var"] - stats["var_oracle"]) / stats["var_se"]
    assert np.max(np.abs(z)) < 3.0


def _schedule(setup, probes, base_steps):
    probe_t = np.array([t for t, _ in probes])
    xs = np.array([x for _, x in probes], float)
    rho = geo.distance_to_boundary(setup.domain, xs.reshape(len(probes), -1))
    edges = cv._step_schedule(max(probe_t), sorted(set(probe_t)), base_steps, float(np.min(rho)))
    return probe_t, xs, edges


def _tensor(setup, probes, base_steps=128):
    """Step schedule and Ito coefficient tensor of a simulate call on endpoint probes."""
    probe_t, xs, edges = _schedule(setup, probes, base_steps)
    return edges, cv._coefficient_tensor(cv.flux_for(setup), probe_t, xs, edges)[0]


def _sigma(setup, probes, base_steps=128):
    """Step schedule and Ito sums' probe covariance of a simulate call on these probes."""
    probe_t, xs, edges = _schedule(setup, probes, base_steps)
    return edges, cv.flux_for(setup).covariance(probe_t, xs, edges)[0]


def _tensor_with_the_final_cell_quadrature(flux, probe_t, xs, edges):
    """The Ito tensor as it was built with each probe time's final cell given
    its exact local variance, a 16-point log-panel quadrature in u from
    u = 2e-18: the reference for the midpoint rule in every cell."""
    smid = 0.5 * (edges[:-1] + edges[1:])
    ds = np.diff(edges)
    coeff = np.zeros((flux.n_modes, len(probe_t), len(smid)))
    for ti in np.unique(probe_t):
        rows = np.flatnonzero(probe_t == ti)
        n_live = int(np.count_nonzero(smid < ti))
        jlast = np.searchsorted(edges, ti) - 1
        u_lo = max(ti - edges[jlast + 1], 0.0)
        u_hi = ti - edges[jlast]
        if u_hi > 1e-15 and u_hi > u_lo:
            s_nodes, s_w = cv.log_time_panels(max(u_lo, 1e-18) + 1e-18, u_hi, 16)
        else:
            s_nodes = s_w = np.empty(0)
        pv = flux.psi(np.concatenate([ti - smid[:n_live], s_nodes]), xs[rows])
        live, last = pv[:, :, :n_live], pv[:, :, n_live:]
        live *= np.sqrt(ds[:n_live])
        coeff[:, rows, :n_live] = live
        if s_nodes.size:
            last **= 2
            last *= s_w
            coeff[:, rows, jlast] = np.sqrt(np.maximum(last.sum(axis=2), 0.0))
    return coeff


def _homogeneous_sigma_with_the_final_cell_quadrature(flux, probe_t, xy, edges):
    """The half plane's covariance with the final cell of each probe time t_i
    given its exact covariance with every probe of time t_j >= t_i, a 16-point
    log-panel quadrature in u = t_i - s from u = 2e-18, in place of its
    midpoint term."""
    sigma, _ = flux.covariance(probe_t, xy, edges)
    smid = 0.5 * (edges[:-1] + edges[1:])
    ds = np.diff(edges)

    def amp(u, x0):
        return -flux.normal.normal_derivative(u, np.atleast_1d(x0), 0.0)[0]

    for i, ti in enumerate(probe_t):
        jlast = np.searchsorted(edges, ti) - 1
        u_lo, u_hi = max(ti - edges[jlast + 1], 0.0), ti - edges[jlast]
        u, w = cv.log_time_panels(max(u_lo, 1e-18) + 1e-18, u_hi, 16)
        for j in np.flatnonzero(probe_t >= ti):
            gap, lag = probe_t[j] - ti, xy[i, 1] - xy[j, 1]
            um = ti - smid[jlast]
            mid = amp(um, xy[i, 0]) * amp(um + gap, xy[j, 0]) * ds[jlast] \
                * flux.measure.transform(2 * um + gap, lag)
            exact = np.sum(amp(u, xy[i, 0]) * amp(u + gap, xy[j, 0])
                           * flux.measure.transform(2 * u + gap, lag) * w)
            sigma[i, j] += exact - mid
            if j != i:
                sigma[j, i] = sigma[i, j]
    return sigma


# p72-style: x up to 2.5 at t = 0.05, so the probe variances span > 20 orders
WIDE_P72_PROBES = [(t, x) for t in (0.05, 0.15, 0.3) for x in (0.15, 0.4, 0.8, 1.5, 2.5)]
# the 24 acceptance-1 probes of the half plane (p717's)
HALF_PLANE_PROBES = [(t, (x0, x1)) for t in (0.08, 0.2, 0.35)
                     for x0 in (0.2, 0.45, 0.7, 1.0) for x1 in (-0.7, 0.4)]


ACCEPT1_PROBES = {
    "p71": [(t, x) for t in (0.05, 0.1, 0.2, 0.35, 0.5) for x in (0.12, 0.3, 0.5, 0.7, 0.88)],
    "p72": [(t, x) for t in (0.05, 0.15, 0.3, 0.5) for x in (0.15, 0.4, 0.8, 1.5, 2.5)],
    "p713": HALF_PLANE_PROBES,
    "p717": HALF_PLANE_PROBES,
}


def _probe_set(group, sid):
    # the horizon does not enter the tensor: the schedule ends at the last probe time
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, horizon=0.5)
    if group == "acceptance-1":
        return setup, ACCEPT1_PROBES[sid]
    if group == "cli-default":
        return setup, cli._default_probes(setup)
    # the probes of one simulate_mild step at dt = 0.01 on its default grid
    grid = geo.interior_grid(geo.interval01(), graded=True, level=8, per_panel=8)
    return setup, [(0.01, x) for x in grid.x]


@pytest.mark.parametrize("sid, group", [
    *[(sid, group) for group in ("acceptance-1", "cli-default")
      for sid in ("p71", "p72", "p713", "p717")],
    ("p718", "cli-default"), ("p71", "mild-step")])
def test_final_cell_midpoint_matches_its_exact_variance(sid, group):
    # the schedule ends each probe time's final cell within u <= rho_min^2/80,
    # where the squared flux is below e^{-40}: its midpoint value and its exact
    # local variance give the same covariance to rounding on the diagonal
    setup, probes = _probe_set(group, sid)
    probe_t, xs, edges = _schedule(setup, probes, 512)
    flux = cv.flux_for(setup)
    sigma, _ = flux.covariance(probe_t, xs, edges)
    if setup.noise.kind == "homogeneous":
        sigma_ref = _homogeneous_sigma_with_the_final_cell_quadrature(flux, probe_t, xs, edges)
    else:
        sigma_ref = sum(c @ c.T for c in _tensor_with_the_final_cell_quadrature(
            flux, probe_t, xs, edges))
    d = np.diag(sigma_ref)
    assert np.all(np.abs(np.diag(sigma) - d) <= 1e-15 * d)
    assert np.all(np.abs(sigma - sigma_ref) <= 1e-9 * np.sqrt(np.outer(d, d)))
    if sid in ("p713", "p717"):
        assert np.array_equal(cv._gaussian_factor(sigma), cv._gaussian_factor(sigma_ref))


@pytest.mark.parametrize("sid", ["p71", "p72", "p717"])
def test_max_isometry_bias_is_the_schedules_largest_variance_gap(sid):
    # acceptance 1's probe sets: 2.2e-3, 6.4e-3 and 1.2e-4
    setup, probes = _probe_set("acceptance-1", sid)
    _, sigma = _sigma(setup, probes, base_steps=512)
    ens, stats = cv.simulate_convolution(setup, probes, n_paths=20)
    diag = np.diag(sigma)
    want = np.max(np.abs(diag / stats["var_oracle"] - 1.0))
    # the factor's column sums of squares are diag Sigma to rounding
    assert abs(ens.meta["max_isometry_bias"] - want) <= 1e-13
    assert f"{want:.2g}" == {"p71": "0.0022", "p72": "0.0064", "p717": "0.00012"}[sid]


@pytest.mark.parametrize("sid, probes", [
    ("p71", [(t, x) for t in (0.05, 0.2, 0.35) for x in (0.12, 0.5, 0.88)]),
    ("p713", [(0.3, (0.5, 0.4)), (0.1, (0.2, -0.3)), (0.3, (1.0, 0.4))]),
    ("p717", HALF_PLANE_PROBES),
    ("p72", WIDE_P72_PROBES)], ids=["p71", "p713", "p717", "p72"])
def test_joint_gaussian_factor_holds_the_summed_covariance(sid, probes):
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, horizon=0.35)
    _, G = _sigma(setup, probes)
    if sid == "p72":
        # one mode: split its steps into two independent halves, which have the
        # same summed covariance, so the sum over modes is exercised too
        _, coeff = _tensor(setup, probes)
        even = coeff.copy()
        even[..., 1::2] = 0.0
        G = sum(c @ c.T for c in np.concatenate([even, coeff - even]))
    d = np.sqrt(np.diag(G))
    if sid == "p72":
        # an unscaled square root of G would lose the small variances here
        assert d.max() ** 2 > 1e20 * d[d > 0].min() ** 2
    F = cv._gaussian_factor(G)
    assert np.all(np.abs(F.T @ F - G) <= 1e-12 * np.outer(d, d))


@pytest.mark.parametrize("case", ["p713", "mild"])
def test_draws_do_not_move_with_round_off_in_the_tensor(case):
    # the draws are a continuous function of the covariance: a relative 1e-15
    # change in the tensor (in Sigma itself on the half plane, which has none)
    # moves no path by more than 1e-6 of its probe's sd, where a QR of the
    # rank-deficient mode blocks draws afresh (7 and 5 sd).  "mild" is the
    # probe set of one simulate_mild step on the 84-node graded grid at dt = 0.01
    if case == "p713":
        setup, _ = sc.build_setup("p713", p=2.0, theta=2.0, horizon=0.35)
        probes = HALF_PLANE_PROBES
    else:
        setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
        grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
        assert grid.n == 84
        probes = [(0.01, x) for x in grid.x]
    rng = np.random.default_rng(17)
    if case == "p713":
        _, sigma = _sigma(setup, probes, base_steps=512)
        noise = rng.standard_normal(sigma.shape)
        bumped = sigma * (1.0 + 1e-15 * (noise + noise.T))
    else:
        _, coeff = _tensor(setup, probes, base_steps=512)
        sigma = sum(c @ c.T for c in coeff)
        bumped = sum(c @ c.T for c in coeff * (1.0 + 1e-15 * rng.standard_normal(coeff.shape)))
    F, F_bumped = cv._gaussian_factor(sigma), cv._gaussian_factor(bumped)
    sd = np.sqrt(np.diag(sigma))
    xi = rng.standard_normal((2000, len(F)))
    assert np.max(np.abs(xi @ (F_bumped - F)) / sd) <= 1e-6


@pytest.mark.parametrize("sid, probes", [
    ("p71", [(0.3, 0.5), (0.1, 0.35), (0.3, 0.7)]),
    ("p713", [(0.3, (0.5, 0.4)), (0.1, (0.2, -0.3)), (0.3, (1.0, 0.4))])], ids=["p71", "p713"])
def test_student_t_is_variance_matched_t_in_the_reduced_basis(sid, probes):
    # both laws take xi @ F with the joint factor F and xi from substream
    # (root_seed, 0): normals for the Gaussian law, i.i.d. standard_t(5) entries
    # scaled to unit variance for the Student-t law
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, horizon=0.3)
    df, n = 5.0, 300
    F = cv._gaussian_factor(_sigma(setup, probes)[1])
    r = F.shape[0]
    ens = {law: cv.simulate_convolution(setup, probes, n_paths=n, base_steps=128, root_seed=3,
                                        return_paths=True, law=law)[0]
           for law in ("gaussian", "student_t")}
    xi = substream(3, 0).standard_t(df, size=(n, r))
    assert np.array_equal(ens["student_t"].values, (np.sqrt((df - 2.0) / df) * xi) @ F)
    assert np.array_equal(ens["gaussian"].values, substream(3, 0).normal(size=(n, r)) @ F)
    for e in ens.values():
        assert e.meta["normals_drawn"] == r * n


def test_invariant_diagnostics_refuses_half_space_before_grid():
    setup, _ = sc.build_setup("p717", p=2.0, theta=2.0)
    with pytest.raises(geo.UnsupportedDomainError):
        cv.invariant_diagnostics(setup)


def test_mild_trajectories_refuse_the_half_plane():
    setup, _ = sc.build_setup("p717", p=2.0, theta=2.0, horizon=0.2)
    with pytest.raises(geo.UnsupportedDomainError,
                       match="mild trajectories on interval or half line"):
        cv.simulate_mild(setup, None, np.linspace(0, 0.1, 11), n_paths=2)


def test_flow_check_refuses_the_half_plane():
    setup, _ = sc.build_setup("p717", p=2.0, theta=2.0, horizon=0.3)
    with pytest.raises(geo.UnsupportedDomainError,
                       match="flow consistency check on interval or half line"):
        cv.flow_consistency_check(setup, 0.1, 0.2, n_paths=100)


def test_simulate_convolution_replay():
    setup, _ = sc.build_setup("p72", p=2.0, theta=2.0, horizon=0.2)
    probes = [(0.2, 0.5)]
    _, s1 = cv.simulate_convolution(setup, probes, n_paths=500, base_steps=128, root_seed=5)
    _, s2 = cv.simulate_convolution(setup, probes, n_paths=500, base_steps=128, root_seed=5)
    assert s1["var"][0] == s2["var"][0]


@pytest.mark.parametrize("x", [0.0, 1e-200, 1.0])
def test_simulate_refuses_a_probe_on_the_boundary(x):
    # the ladder of steps toward such a probe would start at u = 0 and never end
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    with pytest.raises(cv.NumericalRefusal, match="no step schedule resolves a probe on the"):
        cv.simulate_convolution(setup, [(0.3, 0.5), (0.3, x)], n_paths=10)


def test_simulate_refusal_on_coarse_steps():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.4)
    with pytest.raises(cv.NumericalRefusal):
        cv.simulate_convolution(setup, [(0.4, 0.5), (0.01, 0.5)], n_paths=10, base_steps=64)


def test_time_quadrature_is_one_array_call_over_its_nodes(monkeypatch):
    calls = {"mass": 0, "gauss": 0}
    mass, gauss = cv.ball_boundary_mass_exact, SpectralMeasure.transform

    def count_mass(*a, **k):
        calls["mass"] += 1
        return mass(*a, **k)

    def count_gauss(self, a, d=0.0):
        calls["gauss"] += 1
        return gauss(self, a, d)

    monkeypatch.setattr(cv, "ball_boundary_mass_exact", count_mass)
    monkeypatch.setattr(SpectralMeasure, "transform", count_gauss)
    rho, u = np.array([0.01, 0.2, 0.7]), np.array([0.01, 0.3])
    flux = cv.flux_for(sc.build_setup("p78", p=2.0, theta=2.5)[0])
    assert flux.white and flux.domain.dim == 2
    # the former loop over time nodes
    c, big_c = cv._MAJORANT_C, cv._MAJORANT_BIG_C
    ref = np.column_stack([big_c ** 2 / uu * (2 * np.pi * c * uu) ** -2
                           * mass(2, uu, rho, c / 2.0) for uu in u])
    assert np.allclose(flux.sum_sq(u, rho), ref, rtol=1e-14, atol=0)
    calls["mass"] = 0
    cv.variance_profile(flux, 0.5, rho)
    assert calls["mass"] == 1
    half = cv.flux_for(sc.build_setup("p717", p=2.0, theta=2.0)[0])
    full = cv.variance_profile(half, 0.5, np.array([[0.2, 0.0], [0.7, 0.4]]))
    assert calls["gauss"] == 1
    assert np.array_equal(full, cv.variance_profile(half, 0.5, np.array([0.2, 0.7])))


def test_majorant_mode_refuses_simulation():
    # the ball has no per-mode flux: every Monte Carlo route refuses p78 up front
    setup, _ = sc.build_setup("p78", p=2.0, theta=2.5)
    with pytest.raises(cv.ConfigurationError, match="^simulation requires exact mode$"):
        cv.simulate_convolution(setup, [(0.1, np.array([0.3, 0.0]))], n_paths=10)
    with pytest.raises(cv.ConfigurationError, match="^simulation requires exact mode$"):
        cv.simulate_mild(setup, None, np.linspace(0, 0.1, 11), n_paths=2)
    with pytest.raises(geo.UnsupportedDomainError,
                       match="^flow consistency check on interval or half line$"):
        cv.flow_consistency_check(setup, 0.1, 0.2, n_paths=100)


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


def test_picard_weight_is_built_once_per_call(monkeypatch):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    calls = []
    weight = cv.weight

    def counted(*args, **kwargs):
        calls.append(args)
        return weight(*args, **kwargs)

    monkeypatch.setattr(cv, "weight", counted)
    ens = cv.simulate_mild(setup, x0, np.linspace(0, 0.1, 11), n_paths=4, root_seed=5,
                           grid=grid, drift=np.sin)
    assert len(calls) == 1
    # step noise drawn from one simulate_convolution ensemble
    assert ens.meta["picard_iterations"] == [5, 6, 5, 5]


def test_mild_step_noise_is_rows_of_one_convolution_ensemble():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    tg = np.linspace(0, 0.1, 6)
    ens = cv.simulate_mild(setup, None, tg, n_paths=3, root_seed=4, grid=grid)
    dt = float(np.diff(tg)[0])
    direct, _ = cv.simulate_convolution(setup, [(dt, x) for x in grid.x], 3 * 5,
                                        root_seed=4, return_paths=True)
    # rows are path-major: (path, step) is row 5 * path + step
    assert np.array_equal(ens.values[:, 1], direct.values[::5])
    assert ens.meta["n_steps"] == direct.meta["n_steps"]
    assert ens.meta["normals_drawn"] == direct.meta["normals_drawn"]
    # a single (path, step) row is the first row of a two-row draw
    one = cv.simulate_mild(setup, None, tg[:2], n_paths=1, root_seed=4, grid=grid)
    two = cv.simulate_mild(setup, None, tg[:2], n_paths=2, root_seed=4, grid=grid)
    assert np.array_equal(one.values[0], two.values[0])


def test_mild_memory_is_its_output_plus_one_draw():
    # drift-free, 2,000 paths x 20 steps on the default 144-node grid: the output
    # is 46 MB, and the step noise (40,000 x 144, another 46 MB) is freed before
    # the output is complete; forming probe statistics on it peaked at 144 MB
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.3)
    tracemalloc.start()
    try:
        ens = cv.simulate_mild(setup, None, np.linspace(0, 0.2, 21), n_paths=2000, root_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.values.shape == (2000, 21, 144)
    assert peak <= 100 * 2 ** 20, peak / 2 ** 20


def test_batched_picard_does_not_couple_paths():
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    grid = geo.interior_grid(geo.interval01(), graded=True, level=6, per_panel=6)
    x0 = sg.field_from_function(geo.interval01(), grid, lambda x: np.sin(np.pi * x))
    tg = np.linspace(0, 0.1, 11)
    four = cv.simulate_mild(setup, x0, tg, n_paths=4, root_seed=5, grid=grid, drift=np.sin)
    for k in range(4):
        alone = cv.simulate_mild(setup, x0, tg, n_paths=k + 1, root_seed=5, grid=grid,
                                 drift=np.sin)
        assert alone.meta["picard_iterations"][-1] == four.meta["picard_iterations"][k]
        # BLAS may block a product over more rows differently
        np.testing.assert_allclose(alone.values[-1], four.values[k], rtol=1e-12, atol=0)


@pytest.mark.parametrize("time_grid, n_paths, name", [(np.linspace(0, 0.1, 11), 0, "n_paths"),
                                                      ([0.0], 2, "time_grid")])
def test_mild_rejects_empty_runs(time_grid, n_paths, name):
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0, horizon=0.2)
    with pytest.raises(ValueError, match=name):
        cv.simulate_mild(setup, None, time_grid, n_paths=n_paths)


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
    inv_vals = flux.variance(np.inf, grid.x)
    for a, b in zip(profs[:-1], profs[1:]):
        assert np.all(b >= a - 1e-14)
    assert np.all(profs[-1] <= inv_vals + 1e-12)


def _sine_tail(x, t_from):
    # int_{t_from}^inf of the squared flux of both endpoints, from the sine series
    return sum(cv._sine_pairs(x, b, t_from, np.inf, 0.0) for b in (0, 1))


def test_interval_tail_consistency():
    # sigma^2(T) + tail(T) is T-independent, and is the variance at T = inf
    setup, _ = sc.build_setup("p71", p=2.0, theta=2.0)
    flux = cv.flux_for(setup)
    x = np.array([0.3, 0.6])
    a = cv.variance_profile(flux, 1.0, x, pts_per_octave=12) + _sine_tail(x, 1.0)
    b = cv.variance_profile(flux, 1.5, x, pts_per_octave=12) + _sine_tail(x, 1.5)
    assert np.allclose(a, b, rtol=1e-8)
    assert np.allclose(a, flux.variance(np.inf, x), rtol=1e-8)


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


# per scenario: the acceptance-1 set (the CLI default probes for p713, which
# has none), and a ragged set whose points differ from time to time
ORACLE_SETS = {
    "p71": ([(t, x) for t in (0.05, 0.1, 0.2, 0.35, 0.5) for x in (0.12, 0.3, 0.5, 0.7, 0.88)],
            [(0.1, 0.25), (0.3, 0.05), (0.2, 0.5), (0.3, 0.8), (0.1, 0.9), (0.2, 0.97)]),
    "p713": ([(t, (x0, x1)) for t in (0.125, 0.25, 0.375, 0.5) for x0 in (0.2, 0.5, 1.0)
              for x1 in (-0.7, 0.4)],
             [(0.1, (0.2, 0.4)), (0.3, (0.5, -0.7)), (0.3, (1.0, 0.4)), (0.2, (0.05, 0.0))]),
    "p717": (HALF_PLANE_PROBES,
             [(0.08, (0.2, -0.7)), (0.35, (0.45, 0.4)), (0.2, (1.0, 0.4)), (0.35, (0.7, 0.0)),
              (0.08, (0.05, 1.3))]),
}


@pytest.mark.parametrize("sid, which", [(sid, which) for sid in ORACLE_SETS for which in (0, 1)],
                         ids=[f"{sid}-{name}" for sid in ORACLE_SETS
                              for name in ("acceptance", "ragged")])
def test_isometry_oracle_is_one_evaluation_equal_to_per_time_calls(sid, which, monkeypatch):
    # the oracle evaluates the probe sets of all distinct times together: one
    # squared-flux call for a quadrature flux, and each time's values equal to
    # its own variance_profile call bit for bit
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0)
    probes = ORACLE_SETS[sid][which]
    flux = cv.flux_for(setup)
    probe_t = np.array([t for t, _ in probes])
    xs = np.array([x for _, x in probes], float)
    per_time = np.empty(len(probes))
    for t in np.unique(probe_t):
        per_time[probe_t == t] = cv.variance_profile(flux, t, xs[probe_t == t],
                                                     pts_per_octave=12)
    calls = []
    sum_sq = type(flux).sum_sq

    def counted(self, u, x):
        calls.append(np.size(u))
        return sum_sq(self, u, x)

    monkeypatch.setattr(type(flux), "sum_sq", counted)
    _, stats = cv.simulate_convolution(setup, probes, n_paths=16, base_steps=128, root_seed=3)
    assert len(calls) == (0 if flux.exact_in_time else 1)
    assert np.array_equal(stats["var_oracle"], per_time)


def test_j_prediction_reads_delta():
    # p72 needs delta > 1/2; theta = 2 is inside its theta window
    for delta, expect in ((1.0, "finite"), (0.3, "divergent")):
        setup, pred = sc.build_setup("p72", p=2.0, theta=2.0, delta=delta)
        rep = cv.j_integral(setup, levels=(10, 14), prediction=pred)
        assert rep.predicted == expect
        assert f"predicted: {expect}" in rep.to_text()


def test_j_endpoint_time_refinement_is_exact():
    setup, pred = sc.build_setup("p71", p=2.0, theta=2.0)
    rep = cv.j_integral(setup, levels=(10, 14), prediction=pred)
    assert rep.checks["time_refinement_rel_change"] == "exact"
    assert "check time_refinement_rel_change: exact" in rep.to_text()


J_SETUPS = [("p71", 1.25, {}), ("p78", 2.25, {}), ("p717", 2.25, {}),
            ("p718", 1.75, {"kappa": 0.5})]


@pytest.mark.parametrize("sid, theta, kw", J_SETUPS, ids=[s[0] for s in J_SETUPS])
def test_j_levels_equal_one_level_at_a_time_bit_for_bit(sid, theta, kw):
    # the union evaluation gives each level the profile of its own call: the
    # quadrature fluxes (ball, half plane) keep each level's own time floor
    setup, pred = sc.build_setup(sid, p=2.0, theta=theta, horizon=0.5, **kw)
    flux = cv.flux_for(setup)
    levels = (10, 14, 18, 22, 26)
    xs = [cv._j_grid(setup, lev)[0] for lev in levels]
    for pts in (8, 16):
        shared = cv._level_profiles(flux, setup.horizon, xs, setup.alpha, pts)
        for x, prof in zip(xs, shared):
            np.testing.assert_array_equal(
                prof, cv.variance_profile(flux, setup.horizon, x, alpha=setup.alpha,
                                          pts_per_octave=pts))
    rep = cv.j_integral(setup, levels=levels, prediction=pred)
    assert rep.j_values == [cv._j_levels(setup, flux, (lev,))[0] for lev in levels]


@pytest.mark.parametrize("sid, theta, kw, calls", [
    ("p71", 1.25, {}, [372]), ("p72", 1.25, {}, [216]),
    ("p78", 2.25, {}, [186, 162]), ("p717", 2.25, {}, [216, 192])],
    ids=["p71", "p72", "p78", "p717"])
def test_j_integral_evaluates_one_profile_for_all_levels(sid, theta, kw, calls, monkeypatch):
    # endpoint fluxes: one closed-form call on the union of the level nodes
    # (1,140 -> 372 on the interval, 720 -> 216 on the half line); quadrature
    # fluxes: one squared-flux call on the union (570 -> 186 on the ball
    # radius, 720 -> 216 on the half plane) and the time-refinement call at the
    # finest level
    setup, pred = sc.build_setup(sid, p=2.0, theta=theta, horizon=0.5, **kw)
    flux = cv.flux_for(setup)
    seen = []
    method = "variance" if flux.exact_in_time else "sum_sq"
    original = getattr(type(flux), method)

    def counted(self, *args):
        seen.append(np.size(args[1]))      # the nodes of variance(t_hi, x) and sum_sq(u, x)
        return original(self, *args)

    monkeypatch.setattr(type(flux), method, counted)
    rep = cv.j_integral(setup, prediction=pred)
    assert seen == calls
    assert rep.agreement


# -- array plans of the schedule and the oracle, against their former loops --


def _log_panels_loop(s_floor, t_hi, pts_per_octave):
    n_oct = int(np.ceil(np.log2(t_hi / s_floor)))
    gx, gw = geo.gauss_legendre(pts_per_octave)
    v_edges = np.log(t_hi) - np.log(2.0) * np.arange(n_oct + 1)[::-1]
    v_edges[0] = np.log(s_floor)
    nodes, wts = [], []
    for a, b in zip(v_edges[:-1], v_edges[1:]):
        v = 0.5 * (b - a) * gx + 0.5 * (a + b)
        nodes.append(np.exp(v))
        wts.append(0.5 * (b - a) * gw * np.exp(v))
    return np.concatenate(nodes), np.concatenate(wts)


@given(log_t=st.floats(-4.0, 2.0), frac=st.floats(0.0, 1.0), pts=st.integers(3, 16))
def test_log_time_panels_match_the_panel_loop_bit_for_bit(log_t, frac, pts):
    # floors from 1e-300 up to t/2
    t_hi = 10.0 ** log_t
    s_floor = float(np.exp(np.log(1e-300) + frac * (np.log(t_hi / 2) - np.log(1e-300))))
    for got, ref in zip(cv.log_time_panels(s_floor, t_hi, pts),
                        _log_panels_loop(s_floor, t_hi, pts)):
        np.testing.assert_array_equal(got, ref)


def _step_schedule_loop(t_max, probe_times, base_steps, rho_min):
    edges = set(np.linspace(0.0, t_max, base_steps + 1).tolist())
    d0 = t_max / base_steps
    ladder, u = [], min(rho_min ** 2 / cv._FLOOR_SCALE, d0 / 4.0)
    while u < 2 * d0:
        ladder.append(u)
        u *= 2.0 ** (1.0 / 10)
    edges.update(ladder)
    for ti in probe_times:
        edges.update(ti - u for u in ladder if u < ti)
        edges.add(float(ti))
    edges = np.array(sorted(e for e in edges if 0.0 <= e <= t_max))
    keep = np.concatenate([[True], np.diff(edges) > 1e-15])
    return edges[keep]


@given(times=st.lists(st.floats(0.005, 2.0), min_size=1, max_size=6),
       base_steps=st.integers(64, 2048), log_rho=st.floats(-150.0, 0.5))
def test_step_schedule_matches_the_set_loop_bit_for_bit(times, base_steps, log_rho):
    # boundary distances down to 1e-150: the ladder starts near 1e-302
    times = sorted(set(times))
    args = (max(times), times, base_steps, 10.0 ** log_rho)
    np.testing.assert_array_equal(cv._step_schedule(*args), _step_schedule_loop(*args))


def _image_pairs_loop(a0, t_hi, order, shells):
    # one gammaincc call per image pair; returns the sum and the shells added
    def pair(m, n):
        am, an = a0 + 2 * m, a0 + 2 * n
        c = 0.25 * (am * am + an * an)
        return am * an * c ** -order * gammaincc(order, c / t_hi)

    lead = pair(0, 0)
    total = lead.copy()
    shell, small = 0, not shells
    while not small:
        shell += 1
        small = True
        for m, n in [(m, shell) for m in range(-shell, shell + 1)] \
                + [(-shell, n) for n in range(-shell, shell)]:
            term = pair(m, n) * (1.0 if m == n else 2.0)
            total += term
            small = small and bool(np.all(np.abs(term) <= 1e-17 * lead))
    return total * (gamma(order) / (4.0 * np.pi)), shell


@given(x=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=30),
       b=st.sampled_from([0.0, 1.0]), alpha=st.floats(0.0, 0.9), shells=st.booleans(),
       t_hi=st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e) | st.just(np.inf))
def test_image_pairs_match_the_pair_loop_bit_for_bit(x, b, alpha, shells, t_hi):
    # the interval (shells) stops its images at s = _SINE_FROM; the half line
    # takes any horizon, inf included
    if shells:
        t_hi = min(t_hi, cv._SINE_FROM)
    a0 = np.array(x) - b
    ref, _ = _image_pairs_loop(a0, t_hi, 2.0 + alpha, shells)
    np.testing.assert_array_equal(cv._image_pairs(a0, t_hi, 2.0 + alpha, shells), ref)


def test_plan_and_oracle_helpers_make_one_array_call(monkeypatch):
    # one gammaincc call per image shell (plus the lead pair), one exp per
    # log_time_panels; on the half plane one influx call per probe time and
    # one transform call per covariance, whatever the cell count
    calls = {"gammaincc": 0, "exp": 0, "influx": 0, "transform": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(scipy.special, "gammaincc", counting("gammaincc", gammaincc))
    a0 = np.linspace(0.01, 0.99, 50) - 1.0
    _, shells = _image_pairs_loop(a0, 1.0, 2.0, True)
    cv._image_pairs(a0, 1.0, 2.0, True)
    assert shells >= 3 and calls["gammaincc"] == 1 + shells
    monkeypatch.setattr(np, "exp", counting("exp", np.exp))
    cv.log_time_panels(1e-12, 1.0, 8)
    assert calls["exp"] == 1
    monkeypatch.undo()
    setup, _ = sc.build_setup("p718", p=2.0, theta=2.0)
    flux = cv.flux_for(setup)
    monkeypatch.setattr(flux.normal, "normal_derivative",
                        counting("influx", flux.normal.normal_derivative))
    monkeypatch.setattr(SpectralMeasure, "transform",
                        counting("transform", SpectralMeasure.transform))
    probe_t, xs, edges = _schedule(setup, HALF_PLANE_PROBES, 512)
    flux.covariance(probe_t, xs, edges)
    assert (calls["influx"], calls["transform"]) == (3, 1)


# -- the half plane's covariance: the noise taken whole, by Parseval --


def _influx(u, x0):
    # a(u, x0) = x0 (4 pi)^(-1/2) u^(-3/2) e^(-x0^2/(4u)), the half-line influx
    return x0 / np.sqrt(4 * np.pi) * u ** -1.5 * np.exp(-x0 * x0 / (4 * u))


@lru_cache(maxsize=None)
def _bessel_transform_by_z(kappa, a, d):
    # K(a, d) of the Bessel density by its z-integral, not the Gamma mixture
    # that SpectralMeasure.transform sums: with z = sinh t,
    # 2 int_0^inf e^{-a sinh^2 t} cos(d sinh t) cosh(t)^(1-kappa) dt, a trapezoid
    # rule in t up to a z^2 = 40 whose step resolves the cosine there (within
    # 2e-16 of K(a, 0) against 30-digit mpmath at kappa = 0.5 and 4)
    z_max = np.sqrt(40.0 / a)
    h = 0.08 / (1.0 + d * z_max)
    t = np.arange(0.0, np.arcsinh(z_max) + h, h)
    z = np.sinh(t)
    f = np.exp(-a * z * z) * np.cos(d * z) * np.cosh(t) ** (1.0 - kappa)
    return h * (2.0 * np.sum(f) - f[0])


def _transform(mu, a, d):
    # K(a, d) from its closed forms, and the Bessel one by its z-integral
    if mu.kind == "lebesgue":
        return np.sqrt(np.pi / a) * np.exp(-d * d / (4 * a))
    if mu.kind == "atoms":
        z, m = np.asarray(mu.points), np.asarray(mu.masses)
        return 2 * np.sum(m * np.exp(-np.outer(a, z * z)) * np.cos(d * z), axis=1)
    return np.array([_bessel_transform_by_z(mu.kappa, v, abs(d)) for v in a])


NEAR_BOUNDARY = [(0.35, (x0, 0.4)) for x0 in (0.02, 0.05, 0.1)]
HALF_PLANE_SIDS = [("p713", {}), ("p717", {}), ("p718", {"kappa": 0.5}), ("p718", {"kappa": 4.0})]


@pytest.mark.parametrize("sid, kw", HALF_PLANE_SIDS,
                         ids=["p713", "p717", "p718-0.5", "p718-4"])
@pytest.mark.parametrize("probes", [HALF_PLANE_PROBES[::3], NEAR_BOUNDARY],
                         ids=["acceptance-1", "near-boundary"])
def test_half_plane_covariance_is_the_midpoint_sum_of_influx_and_transform(sid, kw, probes):
    # Sigma_ij = sum over the cells below both probe times of
    # a(t_i - s, x0_i) a(t_j - s, x0_j) K(t_i + t_j - 2s, x1_i - x1_j) ds, pair by pair
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, **kw)
    probe_t, xy, edges = _schedule(setup, probes, 512)
    sigma, n_nodes = cv.flux_for(setup).covariance(probe_t, xy, edges)
    smid, ds = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    ref = np.empty_like(sigma)
    for i, j in np.ndindex(*sigma.shape):
        s, w = smid[smid < min(probe_t[i], probe_t[j])], ds[smid < min(probe_t[i], probe_t[j])]
        ui, uj = probe_t[i] - s, probe_t[j] - s
        ref[i, j] = np.sum(_influx(ui, xy[i, 0]) * _influx(uj, xy[j, 0])
                           * _transform(setup.noise.measure, ui + uj, xy[i, 1] - xy[j, 1]) * w)
    d = np.sqrt(np.diag(ref))
    assert np.all(np.abs(sigma - ref) <= 1e-12 * np.outer(d, d))
    assert n_nodes == sum(np.count_nonzero(smid < t) for t in np.unique(probe_t))


def _gathered_sigma(flux, probe_t, xy, edges):
    """Sigma as one einsum over every upper-triangle pair: the pairs' amplitude
    rows and K rows, zero past each pair's live cells, gathered over all cells,
    with the K rows keyed by np.unique of the (earlier time, later time, lag)
    rows.  The block-by-block build must give these bits."""
    pts = np.atleast_2d(np.asarray(xy, float))
    smid = 0.5 * (edges[:-1] + edges[1:])
    ds = np.diff(edges)
    amp = np.zeros((len(probe_t), len(smid)))
    for ti in np.unique(probe_t):
        rows = np.flatnonzero(probe_t == ti)
        live = int(np.searchsorted(smid, ti))
        amp[rows, :live] = -flux.normal.normal_derivative(ti - smid[:live], pts[rows, 0],
                                                          0.0) * np.sqrt(ds[:live])
    i, j = np.triu_indices(len(probe_t))
    t_lo, t_hi = np.minimum(probe_t[i], probe_t[j]), np.maximum(probe_t[i], probe_t[j])
    keys, which = np.unique(np.column_stack([t_lo, t_hi, np.abs(pts[i, 1] - pts[j, 1])]),
                            axis=0, return_inverse=True)
    count = np.searchsorted(smid, keys[:, 0])
    row = np.repeat(np.arange(len(keys)), count)
    col = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    kern = np.zeros((len(keys), len(smid)))
    kern[row, col] = flux.measure.transform(
        (keys[row, 0] - smid[col]) + (keys[row, 1] - smid[col]), keys[row, 2])
    sigma = np.empty((len(probe_t),) * 2)
    sigma[i, j] = sigma[j, i] = np.einsum("pm,pm,pm->p", amp[i], amp[j], kern[which.ravel()])
    return sigma


# 40 probes at 4 times with 780 pairs of nearly all distinct lags: each time-pair
# block holds tens of lags
_RNG = np.random.default_rng(40)
MANY_LAGS = [(float(t), (float(x0), float(x1))) for t, x0, x1 in zip(
    _RNG.choice([0.1, 0.2, 0.3, 0.4], 40), _RNG.uniform(0.1, 1.0, 40), _RNG.uniform(-1.0, 1.0, 40))]


@pytest.mark.parametrize("sid, kw", HALF_PLANE_SIDS,
                         ids=["p713", "p717", "p718-0.5", "p718-4"])
@pytest.mark.parametrize("group", ["acceptance-1", "cli-default", "near-boundary", "many-lags"])
def test_half_plane_covariance_is_the_gathered_einsum_bit_for_bit(sid, kw, group):
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, **kw)
    probes = {"acceptance-1": HALF_PLANE_PROBES, "cli-default": cli._default_probes(setup),
              "near-boundary": NEAR_BOUNDARY, "many-lags": MANY_LAGS}[group]
    probe_t, xy, edges = _schedule(setup, probes, 512)
    flux = cv.flux_for(setup)
    sigma, n_nodes = flux.covariance(probe_t, xy, edges)
    assert np.array_equal(sigma, _gathered_sigma(flux, probe_t, xy, edges))
    smid = 0.5 * (edges[:-1] + edges[1:])
    assert n_nodes == sum(np.count_nonzero(smid < t) for t in np.unique(probe_t))


@lru_cache(maxsize=None)
def _half_plane_setup(case):
    sid, kw = HALF_PLANE_SIDS[case]
    return sc.build_setup(sid, p=2.0, theta=2.0, **kw)[0]


@given(case=st.integers(0, len(HALF_PLANE_SIDS) - 1),
       probes=st.lists(st.tuples(st.sampled_from([0.1, 0.2, 0.3]), st.floats(0.05, 1.0),
                                 st.sampled_from([-0.7, 0.0, 0.4]) | st.floats(-1.0, 1.0)),
                       min_size=1, max_size=12),
       data=st.data())
def test_half_plane_covariance_of_a_subset_is_the_full_sets_entries(case, probes, data):
    # on one step schedule, the probes of any subset, in any order, get the
    # entries of the full set's Sigma bit for bit: no entry depends on the
    # other probes or on which blocks and lags share the transform call
    setup = _half_plane_setup(case)
    probe_t, xy, edges = _schedule(setup, [(t, (x0, x1)) for t, x0, x1 in probes], 128)
    flux = cv.flux_for(setup)
    full, _ = flux.covariance(probe_t, xy, edges)
    order = data.draw(st.permutations(range(len(probes))))
    sub = np.array(order[:data.draw(st.integers(1, len(probes)))])
    part, _ = flux.covariance(probe_t[sub], xy[sub], edges)
    assert np.array_equal(part, full[np.ix_(sub, sub)])


@pytest.mark.parametrize("sid, kw, probes, tol", [
    ("p713", {}, HALF_PLANE_PROBES, 1e-3), ("p717", {}, HALF_PLANE_PROBES, 1e-3),
    ("p718", {"kappa": 0.5}, HALF_PLANE_PROBES, 1e-3),
    ("p713", {}, NEAR_BOUNDARY, 1e-2), ("p717", {}, NEAR_BOUNDARY, 1e-2),
    ("p718", {"kappa": 0.5}, NEAR_BOUNDARY, 1e-2)],
    ids=[f"{sid}-{group}" for group in ("acceptance-1", "near-boundary")
         for sid in ("p713", "p717", "p718")])
def test_drawn_variance_is_the_complete_parseval_variance(sid, kw, probes, tol):
    # the variance the draws carry, diag Sigma = column sums of F^2, against the
    # complete variance profile of the whole noise, probe time by probe time:
    # only the step schedule's own bias is left (<= 1.3e-4 on acceptance 1,
    # <= 6.9e-3 near the boundary at x0 = 0.02)
    setup, _ = sc.build_setup(sid, p=2.0, theta=2.0, **kw)
    factor = cv._draw_plan(setup, probes, 512)[3]
    drawn = np.sum(factor * factor, axis=0)
    probe_t = np.array([t for t, _ in probes])
    xy = np.array([x for _, x in probes], float)
    oracle = np.empty(len(probes))
    for t in np.unique(probe_t):
        oracle[probe_t == t] = cv.variance_profile(cv.flux_for(setup), t, xy[probe_t == t],
                                                   pts_per_octave=12)
    assert np.max(np.abs(drawn / oracle - 1.0)) <= tol
