import numpy as np
import pytest

from bnlab import dirichlet as dm
from bnlab import geometry as geo
from bnlab import semigroup as sg
from bnlab.kernels import HeatKernel


def test_interval_linear_interpolant():
    I = geo.interval01()
    grid = geo.interval_grid(n=41)
    u = dm.dirichlet_map(I, 0.0, dm.endpoint_data(I, 1.0, 0.0), grid)
    assert np.max(np.abs(u.values - (1 - grid.x))) < 1e-6
    u2 = dm.dirichlet_map(I, 0.0, dm.endpoint_data(I, 0.3, 0.8), grid)
    assert np.max(np.abs(u2.values - (0.3 + 0.5 * grid.x))) < 1e-6


def test_zero_datum_zero_field():
    I = geo.interval01()
    grid = geo.interval_grid(n=16)
    u = dm.dirichlet_map(I, 0.0, dm.endpoint_data(I, 0.0, 0.0), grid)
    assert np.all(u.values == 0.0)


def test_halfline_exponential():
    H = geo.half_line()
    grid = geo.halfline_grid(level=6, cutoff=5.0, per_panel=4)
    u = dm.dirichlet_map(H, 1.0, dm.endpoint_data(H, 1.0), grid)
    assert np.max(np.abs(u.values - np.exp(-grid.x))) < 1e-6
    at_one = dm._map_values(H, 1.0, dm.endpoint_data(H, 1.0), np.array([1.0]))
    assert at_one[0] == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_lambda_zero_rejected_on_unbounded():
    H = geo.half_line()
    grid = geo.halfline_grid(level=4, cutoff=3.0, per_panel=4)
    with pytest.raises(ValueError):
        dm.dirichlet_map(H, 0.0, dm.endpoint_data(H, 1.0), grid)


def test_dirichlet_map_linearity():
    I = geo.interval01()
    grid = geo.interval_grid(n=21)
    a = dm.dirichlet_map(I, 0.5, dm.endpoint_data(I, 1.0, 0.0), grid)
    b = dm.dirichlet_map(I, 0.5, dm.endpoint_data(I, 0.0, 1.0), grid)
    ab = dm.dirichlet_map(I, 0.5, dm.endpoint_data(I, 2.0, -3.0), grid)
    assert np.allclose(ab.values, 2 * a.values - 3 * b.values, atol=1e-10)


def test_harmonicity_residuals():
    I = geo.interval01()
    out = dm.verify_harmonicity(I, 0.0, dm.endpoint_data(I, 1.0, 0.0), h=1e-2)
    assert out["residual"] < 1e-9
    # boundary recovery for the linear interpolant: |u(h) - g0| = h |g1 - g0|
    out_g = dm.verify_harmonicity(I, 0.0, dm.endpoint_data(I, 1.0, 0.0), h=5e-3)
    assert out_g["boundary_recovery"] == pytest.approx(5e-3, rel=1e-6)

    H = geo.half_line()
    r1 = dm.verify_harmonicity(H, 1.0, dm.endpoint_data(H, 1.0), h=1e-2)
    r2 = dm.verify_harmonicity(H, 1.0, dm.endpoint_data(H, 1.0), h=5e-3)
    assert r1["residual"] < 1e-4
    assert r1["residual"] / r2["residual"] == pytest.approx(4.0, abs=1.0)  # O(h^2)


def test_propagator_halfline_value_and_sign():
    H = geo.half_line()
    probe = geo.QuadratureGrid([[2.0]], [1.0], 0, 0.0)
    pf = dm.boundary_propagator(H, 1.0, dm.endpoint_data(H, 1.0), probe)
    assert pf.values[0] == pytest.approx(np.exp(-1) / np.sqrt(np.pi), abs=1e-12)
    assert pf.values[0] > 0


def test_propagator_zero_and_linearity():
    I = geo.interval01()
    grid = geo.interval_grid(n=33)
    z = dm.boundary_propagator(I, 0.1, dm.endpoint_data(I, 0.0, 0.0), grid)
    assert np.all(z.values == 0.0)
    a = dm.boundary_propagator(I, 0.1, dm.endpoint_data(I, 1.0, 0.0), grid)
    b = dm.boundary_propagator(I, 0.1, dm.endpoint_data(I, 0.0, 1.0), grid)
    ab = dm.boundary_propagator(I, 0.1, dm.endpoint_data(I, 1.5, -0.5), grid)
    assert np.allclose(ab.values, 1.5 * a.values - 0.5 * b.values, atol=1e-12)


def test_propagator_cross_series():
    I = geo.interval01()
    grid = geo.interval_grid(n=33)
    e = dm.endpoint_data(I, 1.0, 0.0)
    a = dm.boundary_propagator(I, 0.2, e, grid, kernel=HeatKernel(I, "image"))
    b = dm.boundary_propagator(I, 0.2, e, grid, kernel=HeatKernel(I, "sine"))
    assert np.max(np.abs(a.values - b.values)) < 1e-8


def test_propagator_positive_and_smooth_for_atoms():
    I = geo.interval01()
    grid = geo.interval_grid(n=256)
    pf = dm.boundary_propagator(I, 0.05, dm.endpoint_data(I, 1.0, 1.0), grid)
    assert np.all(pf.values >= 0)
    assert np.all(np.isfinite(pf.values))
    h = grid.x[1] - grid.x[0]
    second = np.abs(np.diff(pf.values, 2)) / h ** 2
    assert second.max() < 1e4     # finite curvature despite the atomic datum


def test_propagator_semigroup_consistency():
    I = geo.interval01()
    ker = HeatKernel(I)
    grid = geo.interval_grid(n=512)
    e = dm.endpoint_data(I, 1.0, 0.5)
    t, s = 0.08, 0.07
    direct = dm.boundary_propagator(I, t + s, e, grid)
    staged = sg.apply_semigroup(ker, s, dm.boundary_propagator(I, t, e, grid))
    assert np.max(np.abs(direct.values - staged.values)) < 1e-6


def test_lambda_consistency_with_dirichlet_map():
    # (lam - D2_h)[S(t) D_lam gamma] reproduces the propagator at matched nodes
    I = geo.interval01()
    ker = HeatKernel(I)
    lam, t = 1.0, 0.1
    n = 400
    grid = geo.interval_grid(n=n)
    gamma = dm.endpoint_data(I, 1.0, 0.0)
    u = dm.dirichlet_map(I, lam, gamma, grid)
    su = sg.apply_semigroup(ker, t, sg.Field(I, grid, u.values))
    h = grid.x[1] - grid.x[0]
    lap = (su.values[2:] - 2 * su.values[1:-1] + su.values[:-2]) / h ** 2
    lhs = lam * su.values[1:-1] - lap
    psi = dm.boundary_propagator(I, t, gamma, grid)
    err = np.max(np.abs(lhs - psi.values[1:-1]))
    assert err < 5e-3 * np.max(np.abs(psi.values))


def test_majorant_fit_and_domination():
    H = geo.half_line()
    grid = geo.halfline_grid(level=8, cutoff=8.0)
    e = dm.endpoint_data(H, 1.0)
    # the fit's 12 times in [1e-3, 1] include the exact maximizer x/sqrt(t) = 2 of the ratio
    C = dm.fit_majorant_constant(H, e, grid, c=4.0)
    assert C == pytest.approx(2 * np.sqrt(2) * np.exp(-0.5), rel=1e-2)
    # single fitted C dominates pointwise on a fresh (t, x) verification grid
    for t in np.geomspace(2e-3, 0.8, 7):
        exact = dm.boundary_propagator(H, t, e, grid)
        maj = dm.propagator_majorant(H, t, e, grid, c=4.0, big_c=C * (1 + 1e-9))
        assert np.all(np.abs(exact.values) <= maj.values + 1e-15)


@pytest.mark.parametrize("where", ["boundary_propagator", "propagator_majorant"])
def test_majorant_fit_keeps_a_nan(monkeypatch, with_nan, where):
    # a NaN flux or majorant at one node of the sixth time: C is unknown
    H = geo.half_line()
    monkeypatch.setattr(dm, where, with_nan(getattr(dm, where), call=5, entry=40))
    assert np.isnan(dm.fit_majorant_constant(H, dm.endpoint_data(H, 1.0),
                                             geo.halfline_grid(level=8, cutoff=8.0), c=4.0))


def test_weighted_grid_datum_scales_its_node():
    # a boundary node carries the mass of its weight: weight 2 doubles a unit atom
    H = geo.half_line()
    grid = geo.halfline_grid(level=4, cutoff=3.0, per_panel=4)
    e = dm.BoundaryData([1.0], geo.QuadratureGrid([[0.0]], [2.0], 0, 0.0))
    unit = dm.endpoint_data(H, 1.0)
    assert np.array_equal(dm.boundary_propagator(H, 0.3, e, grid).values,
                          2 * dm.boundary_propagator(H, 0.3, unit, grid).values)
    assert np.array_equal(dm.dirichlet_map(H, 1.0, e, grid).values,
                          2 * dm.dirichlet_map(H, 1.0, unit, grid).values)
    with pytest.raises(ValueError):
        dm.BoundaryData([1.0, 2.0], e.grid)
    with pytest.raises(ValueError):
        dm.endpoint_data(geo.interval01(), 1.0)


def test_majorant_constant_datum_reduces_to_boundary_mass():
    B2 = geo.unit_ball(2)
    bq = geo.boundary_quadrature(B2, level=8)
    e = dm.BoundaryData(np.ones(bq.n), bq)
    inner = geo.QuadratureGrid([[0.3, 0.0], [0.0, 0.5]], [1.0, 1.0], 0, 0.0)
    c, t = 2.0, 0.2
    maj = dm.propagator_majorant(B2, t, e, inner, c=c, big_c=1.0)
    from bnlab.kernels import gaussian_boundary_mass
    for i, x in enumerate(inner.nodes):
        mass = gaussian_boundary_mass(B2, 2 * c * t, x)
        expect = mass * (2 * np.pi * c * t) ** -1.0 / np.sqrt(t)
        assert maj.values[i] == pytest.approx(expect, rel=1e-6)


def test_majorant_long_time_decay():
    H = geo.half_line()
    probe = geo.QuadratureGrid([[1.0]], [1.0], 0, 0.0)
    e = dm.endpoint_data(H, 1.0)
    vals_exact = [abs(dm.boundary_propagator(H, t, e, probe).values[0]) for t in (1.0, 10.0, 100.0)]
    vals_maj = [dm.propagator_majorant(H, t, e, probe, c=4.0).values[0] for t in (1.0, 10.0, 100.0)]
    assert vals_exact[0] > vals_exact[1] > vals_exact[2]
    assert vals_maj[0] > vals_maj[1] > vals_maj[2]
