import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlab import geometry as geo


def test_distance_closed_forms():
    assert geo.distance_to_boundary(geo.interval01(), 0.1) == pytest.approx(0.1)
    assert geo.distance_to_boundary(geo.unit_ball(2), np.array([0.6, 0.0])) == pytest.approx(0.4)
    assert geo.distance_to_boundary(geo.half_space(3), np.array([0.25, 7.0, -2.0])) == pytest.approx(0.25)
    assert geo.distance_to_boundary(geo.half_line(), 3.2) == pytest.approx(3.2)


def test_membership_errors():
    with pytest.raises(geo.DomainMembershipError):
        geo.distance_to_boundary(geo.interval01(), 1.5)
    with pytest.raises(geo.DomainMembershipError):
        geo.distance_to_boundary(geo.unit_ball(2), np.array([1.2, 0.0]))


def _into_closed_ball(pts):
    return pts / np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]


@pytest.mark.parametrize("domain,builder", [
    (geo.interval01(), lambda rng: rng.uniform(0, 1, size=(200, 1))),
    (geo.unit_ball(2), lambda rng: _into_closed_ball(rng.normal(size=(200, 2)) * 0.4)),
    (geo.half_space(2), lambda rng: np.column_stack([rng.uniform(0, 3, 200), rng.normal(size=200)])),
])
def test_distance_lipschitz(domain, builder):
    rng = np.random.default_rng(0)
    pts = builder(rng)
    pts2 = builder(rng)
    r1 = np.atleast_1d(geo.distance_to_boundary(domain, pts))
    r2 = np.atleast_1d(geo.distance_to_boundary(domain, pts2))
    dist = np.linalg.norm(pts - pts2, axis=-1)
    assert np.all(np.abs(r1 - r2) <= dist + 1e-12)


def test_weight_examples():
    I = geo.interval01()
    H = geo.half_line()
    assert geo.weight(I, 0.1, geo.WeightedSpaceParams(2, 2, 0)) == pytest.approx(0.01)
    assert geo.weight(H, 3.0, geo.WeightedSpaceParams(2, 0, 1)) == pytest.approx(0.1)
    # both branches evaluated directly: min(0.5^1, (1+0.25)^-1) = min(0.5, 0.8)
    assert geo.weight(H, 0.5, geo.WeightedSpaceParams(2, 1, 1)) == pytest.approx(0.5)


def test_weight_range_and_min_consistency():
    B = geo.unit_ball(2)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(300, 2)) * 0.4
    pts = pts[np.linalg.norm(pts, axis=1) < 0.99]
    prm = geo.WeightedSpaceParams(2, 1.3, 0.7)
    w = geo.weight(B, pts, prm)
    assert np.all(w > 0) and np.all(w <= 1)
    rho = geo.distance_to_boundary(B, pts)
    w1 = rho ** prm.theta
    w2 = (1 + (pts ** 2).sum(axis=1)) ** (-prm.delta)
    assert np.allclose(w, np.minimum(w1, w2))


def test_params_extension_flag():
    assert geo.WeightedSpaceParams(2, 2, 0).extension_ok
    assert not geo.WeightedSpaceParams(2, 3.5, 0).extension_ok
    with pytest.raises(ValueError):
        geo.WeightedSpaceParams(1.0, 2, 0)
    with pytest.raises(ValueError):
        geo.WeightedSpaceParams(2, -1, 0)


def test_boundary_quadrature_interval_atoms():
    grid = geo.boundary_quadrature(geo.interval01(), level=3)
    assert np.allclose(sorted(grid.x), [0.0, 1.0])
    assert np.allclose(grid.weights, [1.0, 1.0])


def test_boundary_quadrature_circle_and_sphere():
    g2 = geo.boundary_quadrature(geo.unit_ball(2), level=6)
    assert g2.n == 64
    assert g2.weights.sum() == pytest.approx(2 * np.pi, abs=1e-12)
    g3 = geo.boundary_quadrature(geo.unit_ball(3), level=5)
    assert g3.weights.sum() == pytest.approx(4 * np.pi, rel=1e-12)


def test_interior_grid_uniform_midpoint():
    g = geo.interval_grid(n=4)
    assert np.allclose(g.x, [1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.allclose(g.weights, 0.25)


def test_interior_grid_graded_mass_and_spacing():
    g = geo.interval_grid(graded=True, level=8)
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-13)
    # node spacing shrinks proportionally to the distance to the nearest endpoint
    x = np.sort(g.x)
    gaps = np.diff(x)
    assert gaps[0] < gaps.max() / 32
    left = x[x < 0.25]
    ratio = np.diff(left) / left[:-1]
    assert ratio.max() <= 2.0 + 1e-12


def test_halfline_grid_weighted_integral():
    g = geo.halfline_grid(level=10, cutoff=20.0, per_panel=32)
    val = (g.weights / (1 + g.x ** 2)).sum()
    assert val == pytest.approx(np.arctan(20.0), rel=2e-4)


def test_refinement_monotonicity():
    g1 = geo.interval_grid(graded=True, level=6)
    g2 = geo.interval_grid(graded=True, level=9)
    assert g2.n > g1.n
    assert g2.tolerance <= g1.tolerance * 10  # recorded tolerance stays tiny
    b1 = geo.boundary_quadrature(geo.unit_ball(2), level=4)
    b2 = geo.boundary_quadrature(geo.unit_ball(2), level=6)
    assert b2.n > b1.n


@pytest.mark.parametrize("domain", [geo.half_space(2), geo.unit_ball(2)], ids=lambda d: d.kind)
def test_interior_grids_are_one_dimensional(domain):
    with pytest.raises(geo.UnsupportedDomainError, match=domain.kind):
        geo.interior_grid(domain, graded=True)


def test_grids_immutable():
    g = geo.interval_grid(n=8)
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 5.0


def _graded_edges_loop(level, per_panel):
    # the former per-panel loop, kept as the reference
    edges = [0.5 * 2.0 ** (-k) for k in range(level + 1)]
    edges = np.concatenate([[0.0], edges[::-1]])
    out = [np.linspace(a, b, per_panel + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate(out + [[0.5]])


# the cutoffs of the package's half-line grids and of the tests; a cutoff
# within rounding past a doubling edge 2^k/2 gives cells of zero width, which
# QuadratureGrid refuses, in the outward panels and not in the graded edges
HALFLINE_CUTOFFS = [3.0, 5.0, 8.0, float(np.sqrt(4 * 0.5 * np.log(1e16))), 12.0, 20.0, 30.0]


@given(level=st.integers(0, 30), per_panel=st.integers(1, 32),
       cutoff=st.sampled_from(HALFLINE_CUTOFFS))
def test_graded_edges_match_the_panel_loop_bit_for_bit(level, per_panel, cutoff):
    edges = _graded_edges_loop(level, per_panel)
    np.testing.assert_array_equal(geo._graded_edges_01(level, per_panel), edges)
    # the half-line grid on those edges, doubling panels out to the cutoff
    a = 0.5
    while a < cutoff:
        b = min(2 * a, cutoff)
        edges = np.concatenate([edges, np.linspace(a, b, per_panel + 1)[1:]])
        a = b
    grid = geo.halfline_grid(level=level, per_panel=per_panel, cutoff=cutoff)
    np.testing.assert_array_equal(grid.x, 0.5 * (edges[:-1] + edges[1:]))
    np.testing.assert_array_equal(grid.weights, np.diff(edges))
