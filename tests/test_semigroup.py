import numpy as np
import pytest
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
    probes = geo.QuadratureGrid(np.linspace(0.05, 5.0, 100)[:, None],
                                np.full(100, 0.05), 0, 0.0)
    out = sg.apply_semigroup(ker, 0.1, psi, out_grid=probes)
    x_fd, u_fd = crank_nicolson_halfline(lambda y: y * np.exp(-y ** 2), 0.1)
    u_interp = np.interp(probes.x, x_fd, u_fd)
    assert np.max(np.abs(out.values - u_interp)) < 1e-4


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
    rep = sg.extension_bound(ker, geo.WeightedSpaceParams(2, 2, 0), levels=3)
    assert rep.verdict == "bounded"
    # uniform-in-t boundedness of the ratio
    assert rep.sup < 2.0


def test_extension_bound_supercritical_diverges():
    ker = HeatKernel(geo.interval01())
    rep = sg.extension_bound(ker, geo.WeightedSpaceParams(2, 3.5, 0), levels=3)
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
    ratios = [sg.weighted_norm(sg.gradient_of_semigroup(ker, t, psi), prm) / n0
              for t in (1e-3, 1e-4, 1e-5)]
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


def test_schur_constants_supercritical():
    rep = sg.schur_constants(geo.interval01(), 2, 3.5, c=4.0, levels=3)
    grew = [k for k, v in rep.constants.items() if v[-1] > 2 * v[0]]
    assert grew, "no constant grew under refinement"
    assert not rep.all_bounded


def test_schur_kernel_seam_continuity():
    I = geo.interval01()
    t = 0.04
    for eps in (1e-6, 1e-8):
        a = sg.schur_kernel_value(I, 2, 2.0, 4.0, t, 0.3, np.sqrt(t) - eps)
        b = sg.schur_kernel_value(I, 2, 2.0, 4.0, t, 0.3, np.sqrt(t) + eps)
        assert abs(a - b) < 1e3 * eps


def test_min_weight_splice():
    ker = HeatKernel(geo.interval01())
    out = sg.min_weight_splice_check(ker, 0.1, geo.WeightedSpaceParams(2, 0.2, 1.0),
                                     n_fields=100, seed=4)
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


def test_field_serialization():
    I = geo.interval01()
    grid = geo.interval_grid(n=8)
    f = sg.Field(I, grid, np.arange(8.0), time_tag=0.25)
    txt = f.to_text()
    assert "time=0.25" in txt
    assert len(txt.strip().splitlines()) == 9


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
    ts = np.geomspace(1e-3, 2e-2, 5)
    sg.gradient_smoothing_ratio(ker, geo.WeightedSpaceParams(2, 1.5, 0), t_grid=ts,
                                order=order, level=8)
    assert calls == list(ts)


def test_extension_bound_builds_one_matrix_per_level_and_time(monkeypatch):
    ker = HeatKernel(geo.interval01())
    calls = _count_calls(monkeypatch, ker, "value")
    ts = np.geomspace(1e-3, 1.0, 4)
    sg.extension_bound(ker, geo.WeightedSpaceParams(2, 2, 0), t_grid=ts, levels=2)
    assert calls == list(ts) * 2
