import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from bnlab import geometry as geo
from bnlab import semigroup as sg
from bnlab.kernels import HeatKernel


def crank_nicolson_halfline(psi0, t_end, L=12.0, nx=3000, nt=1000):
    """Independent finite-difference oracle for the Dirichlet heat flow on (0, L)."""
    dx = L / (nx + 1)
    x = np.linspace(dx, L - dx, nx)
    u = psi0(x)
    dt = t_end / nt
    lap = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nx, nx)) / dx ** 2
    eye = diags([1.0], [0], shape=(nx, nx))
    lhs = splu((eye - 0.5 * dt * lap).tocsc())
    rhs = (eye + 0.5 * dt * lap).tocsr()
    for _ in range(nt):
        u = lhs.solve(rhs @ u)
    return x, u


def test_apply_semigroup_zero_and_positive():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=128)
    zero = sg.Field(I, grid, np.zeros(grid.n))
    assert np.all(sg.apply_semigroup(ker, 0.3, zero).values == 0.0)
    rng = np.random.default_rng(0)
    psi = sg.Field(I, grid, np.abs(rng.normal(size=grid.n)))
    assert np.all(sg.apply_semigroup(ker, 0.05, psi).values >= 0)
    with pytest.raises(ValueError):
        sg.apply_semigroup(ker, -0.1, psi)


@pytest.mark.parametrize("grid", [geo.interval_grid(n=512), geo.interval_grid(n=2048),
                                  geo.interior_grid(geo.interval01(), graded=True, level=14,
                                                    per_panel=16)],
                         ids=["uniform-512", "uniform-2048", "graded-14"])
def test_sine_regime_applies_the_matrix_through_its_modes(grid):
    # from t = 0.05 on the interval kernel takes its sine series, and S(t) goes
    # through the modes; below, and on the half line, through the matrix itself
    I = geo.interval01()
    ker = HeatKernel(I)
    vals = np.random.default_rng(3).normal(size=grid.n)
    psi = sg.Field(I, grid, vals)
    for t in (0.05, 0.1, 0.5, 2.0):
        err = np.max(np.abs(sg.apply_semigroup(ker, t, psi).values
                            - sg.semigroup_matrix(ker, t, grid) @ vals))
        assert err <= 1e-14 * np.max(np.abs(vals)), t
    assert np.array_equal(sg.apply_semigroup(ker, 0.01, psi).values,
                          sg.semigroup_matrix(ker, 0.01, grid) @ vals)
    H = geo.half_line()
    gh = geo.halfline_grid(level=6, cutoff=5.0, per_panel=4)
    vh = np.random.default_rng(4).normal(size=gh.n)
    assert np.array_equal(sg.apply_semigroup(HeatKernel(H), 0.5, sg.Field(H, gh, vh)).values,
                          sg.semigroup_matrix(HeatKernel(H), 0.5, gh) @ vh)


def test_sine_regime_apply_holds_no_matrix():
    # at n = 8192 the quadrature matrix alone is 512 MiB; the modes hold n x 10
    import tracemalloc
    I = geo.interval01()
    grid = geo.interval_grid(n=8192)
    psi = sg.Field(I, grid, np.random.default_rng(5).normal(size=grid.n))
    tracemalloc.start()
    try:
        sg.apply_semigroup(HeatKernel(I), 0.05, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_eigenfunction_decay():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=2048)
    psi = sg.field_from_function(I, grid, lambda x: np.sin(np.pi * x))
    out = sg.apply_semigroup(ker, 0.1, psi)
    exact = np.exp(-np.pi ** 2 * 0.1) * np.sin(np.pi * grid.x)
    assert np.max(np.abs(out.values - exact)) < 1e-6


def test_halfline_crank_nicolson_oracle():
    H = geo.half_line()
    ker = HeatKernel(H)
    grid = geo.halfline_grid(level=8, per_panel=24, cutoff=12.0)
    psi = sg.field_from_function(H, grid, lambda y: y * np.exp(-y ** 2))
    out = sg.apply_semigroup(ker, 0.1, psi)
    x_fd, u_fd = crank_nicolson_halfline(lambda y: y * np.exp(-y ** 2), 0.1)
    at = (grid.x >= 0.05) & (grid.x <= 5.0)
    assert np.max(np.abs(out.values[at] - np.interp(grid.x[at], x_fd, u_fd))) < 1e-4


def test_weighted_norm_examples():
    I = geo.interval01()
    grid = geo.interval_grid(n=512)
    one = sg.Field(I, grid, np.ones(grid.n))
    assert sg.weighted_norm(one, geo.WeightedSpaceParams(2, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    # f = rho^(-1/2), p=2, theta=2: integral of rho dx = 1/4, norm 1/2
    gg = geo.interval_grid(graded=True, level=16, per_panel=8)
    rho = geo.distance_to_boundary(I, gg.nodes)
    f = sg.Field(I, gg, rho ** -0.5)
    assert sg.weighted_norm(f, geo.WeightedSpaceParams(2, 2, 0)) == pytest.approx(0.5, rel=1e-6)


@given(paths=st.integers(1, 3), times=st.integers(1, 4), level=st.integers(0, 14),
       per_panel=st.integers(1, 16), p=st.sampled_from([2.0, 1.5, 3.0]) | st.floats(1.01, 8.0),
       theta=st.floats(0.0, 5.0), delta=st.floats(0.0, 3.0), halfline=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lp_on_a_stack_sums_each_row_as_its_own_call(paths, times, level, per_panel, p, theta,
                                                     delta, halfline, seed):
    # the Picard rule of simulate_mild takes the norm of a (path, time, node)
    # stack in one call. Each row's sum is that of its own call bit for bit.
    # The root is not: numpy raises an array by its SIMD pow and a scalar
    # (a 1-d call's sum) by libm's, which differ by 1 ulp on some inputs, so
    # a stack row may sit 1 ulp from the row's weighted_norm
    dom = geo.half_line() if halfline else geo.interval01()
    grid = geo.interior_grid(dom, graded=True, level=level, per_panel=per_panel)
    prm = geo.WeightedSpaceParams(p, theta, delta)
    w = geo.weight(dom, grid.nodes, prm)
    stack = np.random.default_rng(seed).standard_normal((paths, times, grid.n))
    got = sg._lp(stack, grid, w, p)
    one_row = [[sg._lp(row[None], grid, w, p)[0] for row in rows] for rows in stack]
    assert np.array_equal(got, one_row)
    norms = np.array([[sg.weighted_norm(sg.Field(dom, grid, row), prm) for row in rows]
                      for rows in stack])
    assert np.all(np.abs(got - norms) <= np.spacing(norms))


def test_weighted_norm_divergent_under_grading():
    I = geo.interval01()
    prm = geo.WeightedSpaceParams(2, 2, 0)
    vals = []
    for level in (8, 14, 20):
        gg = geo.interval_grid(graded=True, level=level)
        rho = geo.distance_to_boundary(I, gg.nodes)
        vals.append(sg.weighted_norm(sg.Field(I, gg, rho ** -2.0), prm))
    assert vals[1] > 2 * vals[0] and vals[2] > 2 * vals[1]


def test_semigroup_law_and_continuity():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=512)
    prm = geo.WeightedSpaceParams(2, 2, 0)
    rng = np.random.default_rng(1)
    psi = sg.Field(I, grid, rng.normal(size=grid.n))
    for (t, s) in ((0.05, 0.05), (0.05, 0.1), (0.1, 0.1)):
        once = sg.apply_semigroup(ker, t + s, psi)
        twice = sg.apply_semigroup(ker, t, sg.apply_semigroup(ker, s, psi))
        diff = sg.Field(I, grid, once.values - twice.values)
        assert sg.weighted_norm(diff, prm) < 1e-6
    # strong continuity proxy on a smooth compactly supported profile
    smooth = sg.field_from_function(I, grid, lambda x: np.exp(-1 / np.clip(
        0.25 - (x - 0.5) ** 2, 1e-12, None)) * (np.abs(x - 0.5) < 0.5))
    gaps = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        moved = sg.apply_semigroup(ker, t, smooth)
        gaps.append(sg.weighted_norm(sg.Field(I, grid, moved.values - smooth.values), prm))
    assert all(b < a * 1.05 for a, b in zip(gaps[:-1], gaps[1:]))
    assert gaps[-1] < 1e-3 * max(1.0, gaps[0])


def test_l2_contraction():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=256)
    prm = geo.WeightedSpaceParams(2, 0, 0)
    rng = np.random.default_rng(2)
    psi = sg.Field(I, grid, rng.normal(size=grid.n))
    assert sg.weighted_norm(sg.apply_semigroup(ker, 0.05, psi), prm) <= sg.weighted_norm(psi, prm)


def test_extension_bound_subcritical():
    ker = HeatKernel(geo.interval01())
    rep = sg.extension_bound(ker, geo.WeightedSpaceParams(2, 2, 0))
    assert rep.verdict == "bounded"
    # uniform-in-t boundedness of the ratio
    assert rep.sup_per_level[-1] < 2.0


def test_extension_bound_supercritical_diverges():
    ker = HeatKernel(geo.interval01())
    rep = sg.extension_bound(ker, geo.WeightedSpaceParams(2, 3.5, 0))
    assert rep.verdict == "diverging"


def test_extension_eigenfunction_ratio():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=1024)
    prm = geo.WeightedSpaceParams(2, 2, 0)
    psi = sg.field_from_function(I, grid, lambda x: np.sin(np.pi * x))
    n0 = sg.weighted_norm(psi, prm)
    for t in (0.05, 0.2, 0.5):
        r = sg.weighted_norm(sg.apply_semigroup(ker, t, psi), prm) / n0
        assert r == pytest.approx(np.exp(-np.pi ** 2 * t), rel=1e-6)
        assert r <= 1.0


def test_gradient_smoothing_slope():
    ker = HeatKernel(geo.interval01())
    rep = sg.gradient_smoothing_ratio(ker, geo.WeightedSpaceParams(2, 1.5, 0))
    assert rep.fitted["slope"] == pytest.approx(-0.5, abs=0.05)


def test_gradient_smoothing_smooth_data_saturate():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=512)
    prm = geo.WeightedSpaceParams(2, 1.5, 0)
    psi = sg.field_from_function(I, grid, lambda x: np.sin(np.pi * x))
    n0 = sg.weighted_norm(psi, prm)
    ratios = [sg.weighted_norm(sg.Field(I, grid, sg.semigroup_matrix(ker, t, grid, order=1)
                                        @ psi.values), prm) / n0 for t in (1e-3, 1e-4, 1e-5)]
    # no blow-up for smooth data as t -> 0: stays near pi * ||cos||/||sin||
    assert max(ratios) / min(ratios) < 1.01
    assert ratios[-1] < 2 * np.pi


def test_second_derivative_rate_halfline():
    ker = HeatKernel(geo.half_line())
    rep = sg.gradient_smoothing_ratio(ker, geo.WeightedSpaceParams(2, 1.5, 0), order=2)
    assert rep.fitted["slope"] == pytest.approx(-1.0, abs=0.1)


def test_schur_constants_bounded():
    rep = sg.schur_constants(geo.interval01(), 2, 2.0, c=4.0, levels=3)
    assert rep.all_bounded
    rep_h = sg.schur_constants(geo.half_line(), 2, 2.0, c=4.0, levels=2)
    assert rep_h.all_bounded


def _schur_per_time(domain, p, theta, c, levels):
    # the reference: every (level, t) pair builds its grid and both weight
    # ratios afresh, in the operand order of schur_constants
    from bnlab.kernels import gauss_density
    from bnlab.reports import largest
    beta = (theta + 1.0) / p
    traces = {f"k{j}": [] for j in range(1, 9)}
    for lev in range(levels):
        sups = dict.fromkeys(traces, 0.0)
        for t in np.geomspace(1e-3, 1.0, 6):
            grid = geo.interior_grid(domain, graded=True, level=10 + 2 * lev, per_panel=8,
                                     cutoff=None if domain.kind == "interval01" else 8.0)
            rho = geo.distance_to_boundary(domain, grid.nodes)
            near = rho < np.sqrt(t)
            far = ~near
            if not near.any():
                continue
            m = np.minimum(1.0, rho / np.sqrt(t))
            g = gauss_density(grid.x[:, None] - grid.x[None, :], c * t)
            with np.errstate(over="ignore", invalid="ignore"):
                inte_y = ((rho[:, None] / rho[None, :]) ** beta * m[None, :] * g
                          * grid.weights[None, :])
                inte_x = (rho[:, None] ** (beta - 1) * rho[None, :] ** (1 - beta)
                          * m[None, :] * g * grid.weights[:, None])
            for nm, xmask, ymask, over_y in (
                    ("k1", near, near, True), ("k2", near, near, False),
                    ("k3", far, near, True), ("k4", near, far, False),
                    ("k5", near, far, True), ("k6", far, near, False),
                    ("k7", far, far, True), ("k8", far, far, False)):
                if xmask.any() and ymask.any():
                    vals = (inte_y[np.ix_(xmask, ymask)].sum(axis=1) if over_y
                            else inte_x[np.ix_(ymask, xmask)].sum(axis=0))
                    sups[nm] = largest(vals, sups[nm])
        for nm in traces:
            traces[nm].append(sups[nm])
    return traces


@pytest.mark.parametrize("domain, theta, levels", [
    (geo.interval01(), 2.0, 3), (geo.interval01(), 900.0, 3), (geo.half_line(), 2.0, 2)],
    ids=["interval", "interval-overflow", "halfline"])
def test_schur_constants_equal_the_per_time_loop(domain, theta, levels):
    # the grid and the weight ratios are built once per level: bit for bit, NaN and inf too
    rep = sg.schur_constants(domain, 2, theta, c=4.0, levels=levels)
    ref = _schur_per_time(domain, 2, theta, 4.0, levels)
    assert rep.constants.keys() == ref.keys()
    for nm, trace in ref.items():
        assert np.array_equal(rep.constants[nm], trace, equal_nan=True), nm


def test_schur_constants_supercritical():
    rep = sg.schur_constants(geo.interval01(), 2, 3.5, c=4.0, levels=3)
    grew = [k for k, v in rep.constants.items() if v[-1] > 2 * v[0]]
    assert grew, "no constant grew under refinement"
    assert not rep.all_bounded


def test_schur_constants_keep_a_nan_split_integral():
    # at theta = 900 the x-integral of k2 holds inf * 0 = NaN beside finite
    # values: its sup is unknown, so its trace reads NaN and is not bounded;
    # k4 holds NaN and inf, and a sup with an inf in it is inf
    rep = sg.schur_constants(geo.interval01(), 2, 900.0, c=4.0, levels=3)
    assert np.all(np.isnan(rep.constants["k2"])) and rep.verdicts["k2"] == "inconclusive"
    assert rep.constants["k4"] == [np.inf] * 3 and rep.verdicts["k4"] == "diverging"
    assert not rep.all_bounded


def test_sup_ratio_keeps_a_nan_ratio(monkeypatch, with_nan):
    # the second of three fields has an unknown norm of its image: the sup is unknown
    I = geo.interval01()
    grid = geo.interval_grid(n=64)
    w = geo.weight(I, grid.nodes, geo.WeightedSpaceParams(2, 1.0, 0))
    fields = sg._normed(sg.smooth_fields(I, grid, n=3), grid, w, 2)
    monkeypatch.setattr(sg, "_lp", with_nan(sg._lp, call=1))
    assert np.isnan(sg._sup_ratio(np.eye(grid.n), fields, grid, w, 2))


def test_extension_bound_keeps_a_nan_kernel_matrix(monkeypatch, with_nan):
    # a NaN in the finest level's fourth time matrix: that level's sup is
    # unknown, and the trace is not bounded
    monkeypatch.setattr(sg, "semigroup_matrix", with_nan(sg.semigroup_matrix, call=17, entry=7))
    rep = sg.extension_bound(HeatKernel(geo.interval01()), geo.WeightedSpaceParams(2, 2, 0))
    assert np.isnan(rep.sup_per_level[-1]) and np.all(np.isfinite(rep.sup_per_level[:-1]))
    assert rep.verdict == "inconclusive"


def test_gradient_smoothing_keeps_a_nan_singular_value(monkeypatch, with_nan):
    # the operator-norm member of the fourth time is unknown: so is that sup,
    # and the verdict is bounded only while every sup is finite
    monkeypatch.setattr(sg, "_top_singular_value", with_nan(sg._top_singular_value, call=3))
    rep = sg.gradient_smoothing_ratio(HeatKernel(geo.interval01()), geo.WeightedSpaceParams(2, 1.5, 0))
    assert np.isnan(rep.sup_per_level[3]) and np.isnan(rep.fitted["slope"])
    assert rep.verdict == "inconclusive"


def test_min_weight_splice_counts_a_nan_bound_as_a_failure(monkeypatch, with_nan):
    monkeypatch.setattr(sg, "semigroup_matrix", with_nan(sg.semigroup_matrix, call=0))
    out = sg.min_weight_splice_check(HeatKernel(geo.interval01()), 0.1,
                                     geo.WeightedSpaceParams(2, 0.2, 1.0), n_fields=20)
    assert out["failures"] == 20 and np.isnan(out["worst_ratio"])


def test_min_weight_splice():
    ker = HeatKernel(geo.interval01())
    out = sg.min_weight_splice_check(ker, 0.1, geo.WeightedSpaceParams(2, 0.2, 1.0),
                                     n_fields=100)
    assert out["failures"] == 0
    out_h = sg.min_weight_splice_check(HeatKernel(geo.half_line()), 0.1,
                                       geo.WeightedSpaceParams(2, 1.0, 1.0), n_fields=100)
    assert out_h["failures"] == 0


def test_splice_equal_weights_and_p1_factor():
    # w1 = w2 collapses the bound to 2^((p-1)/p) ||T||, and the factor is 1 at p = 1
    assert 2.0 ** ((2 - 1) / 2) == pytest.approx(np.sqrt(2))
    assert 2.0 ** ((1 - 1) / 1) == pytest.approx(1.0)
    ker = HeatKernel(geo.interval01())
    out = sg.min_weight_splice_check(ker, 0.1, geo.WeightedSpaceParams(2, 2.0, 0.0),
                                     n_fields=20)
    # delta = 0 means w2 = 1 >= w1 everywhere: single-region reduction holds with slack
    assert out["worst_ratio"] <= 1 / np.sqrt(2) + 1e-9


def test_cross_space_smoothing_slope():
    ker = HeatKernel(geo.interval01())
    rep = sg.cross_space_smoothing(ker, geo.WeightedSpaceParams(2, 2, 0))
    assert rep.fitted["slope"] == pytest.approx(-0.5, abs=0.1)


def test_cross_space_same_space_bounded():
    # theta = 0 puts source and target in the same space: the ratio is a
    # contraction ratio, bounded by 1 (the rate exponent theta/(2p) is 0)
    ker = HeatKernel(geo.interval01())
    rep = sg.cross_space_smoothing(ker, geo.WeightedSpaceParams(2, 1e-9, 0))
    assert max(rep.sup_per_level) <= 1.0 + 1e-9


def test_cross_space_smooth_data_bounded():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=512)
    src = geo.WeightedSpaceParams(2, 2, 0)
    tgt = geo.WeightedSpaceParams(2, 0, 0)
    psi = sg.field_from_function(I, grid, lambda x: np.sin(np.pi * x))
    n0 = sg.weighted_norm(psi, src)
    limit = sg.weighted_norm(psi, tgt) / n0
    ratios = [sg.weighted_norm(sg.apply_semigroup(ker, t, psi), tgt) / n0
              for t in (1e-2, 1e-3, 1e-4)]
    # no blow-up as t -> 0: converges to the plain norm ratio from below
    assert all(r <= limit * 1.001 for r in ratios)
    assert abs(ratios[-1] - limit) < 0.02 * limit


def test_stability_rate():
    ker = HeatKernel(geo.interval01())
    prm = geo.WeightedSpaceParams(2, 2, 0)
    out = sg.stability_rate(ker, prm, horizon=2.0)
    assert out["rate"] == pytest.approx(np.pi ** 2, rel=0.01)
    grid = geo.interval_grid(n=512)
    out2 = sg.stability_rate(ker, prm, horizon=1.2, psi_values=np.sin(2 * np.pi * grid.x),
                             grid=grid)
    assert out2["rate"] == pytest.approx(4 * np.pi ** 2, rel=0.01)
    rng = np.random.default_rng(5)
    outg = sg.stability_rate(ker, prm, horizon=2.0,
                             psi_values=np.abs(rng.normal(size=512)), grid=grid)
    assert outg["rate"] >= np.pi ** 2 - 0.1


def _count_calls(monkeypatch, ker, name):
    calls = []
    method = getattr(ker, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return method(*args, **kwargs)

    monkeypatch.setattr(ker, name, counted)
    return calls


@pytest.mark.parametrize("order, name", [(1, "grad_x"), (2, "dxx")])
def test_gradient_smoothing_builds_one_matrix_per_time(order, name, monkeypatch):
    # six witness fields and the SVD member share each time node's kernel matrix
    ker = HeatKernel(geo.interval01())
    calls = _count_calls(monkeypatch, ker, name)
    sg.gradient_smoothing_ratio(ker, geo.WeightedSpaceParams(2, 1.5, 0), order=order)
    assert calls == list(np.geomspace(1e-3, 2e-2, 7))


def test_extension_bound_builds_one_matrix_per_level_and_time(monkeypatch):
    ker = HeatKernel(geo.interval01())
    calls = _count_calls(monkeypatch, ker, "value")
    sg.extension_bound(ker, geo.WeightedSpaceParams(2, 2, 0))
    assert calls == list(np.geomspace(1e-3, 1.0, 7)) * 3


def test_gradient_matrix_evaluates_only_the_terms_next_to_the_domain(monkeypatch):
    # on (0, 1)^2 at t = 1e-3 only direct n in {-1, 0, 1} and reflected n in
    # {0, 1} stay; the full image range n in [-3, 3] would cost 14 Gaussians.
    # The matrix is built in row blocks, and every block adds the same 5 terms
    from bnlab import kernels as K
    entries, plans = [], []
    dg1, add = K._dg1, K._add_images

    def counted(order, u, t):
        entries.append(np.size(u))
        return dg1(order, u, t)

    def recorded(out, plan, *args):
        plans.append([(n, gd is not None, gr is not None) for n, gd, gr in plan])
        return add(out, plan, *args)

    monkeypatch.setattr(K, "_dg1", counted)
    monkeypatch.setattr(K, "_add_images", recorded)
    I = geo.interval01()
    sg.semigroup_matrix(HeatKernel(I), 1e-3,
                        geo.interior_grid(I, graded=True, level=14, per_panel=16), order=1)
    assert len(plans) > 1
    assert all(p == [(-1, True, False), (0, True, True), (1, True, True)] for p in plans)
    assert len(entries) == 5 * len(plans)
    assert sum(entries) == 5 * 480 * 480


def test_top_singular_value_matches_the_full_svd_and_repeats():
    I = geo.interval01()
    grid = geo.interior_grid(I, graded=True, level=10, per_panel=16)
    scale = np.sqrt(grid.weights * geo.distance_to_boundary(I, grid.nodes) ** 1.5)
    for t in (1e-3, 2e-2):
        D = sg.semigroup_matrix(HeatKernel(I), t, grid, order=1)
        B = scale[:, None] * D / scale[None, :]
        top = sg._top_singular_value(B)
        assert top == pytest.approx(np.linalg.svd(B, compute_uv=False)[0], rel=1e-13, abs=0)
        assert sg._top_singular_value(B) == top
