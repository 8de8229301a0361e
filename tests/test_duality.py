import numpy as np
import pytest

from centropoly import (
    FramedPolygon,
    GenConfig,
    NodeSeq,
    coplanarity_concurrency_check,
    curvature_b,
    dual_invariants,
    dual_of_dual,
    dual_pair,
    delta,
    dual_vertex_edges,
    flattening_nodes,
    is_convex,
    is_generic,
    lambda_coeff,
    planted_coplanar_instance,
    random_equal_volume_polygon,
    random_framed_polygon,
    random_radial_instance,
    random_unimodular_matrix,
    reframe,
    vertex_edges,
    vertical_field,
)
from centropoly import generators
from centropoly.cyclic import DEFAULT_TOL, Segments
from centropoly.duality import dual_alpha_values, dual_beta_values
from centropoly.errors import DualityResidual, GenerationFailed

E3 = np.array([0.0, 0.0, 1.0])


def solve_dual_directly(P):
    """Oracle: per-edge 3x3 linear solves of the six defining incidences."""
    r = P.X.values
    r_next = np.roll(r, -1, axis=0)
    Y = np.empty_like(r)
    V = np.empty_like(r)
    for k in range(P.n):
        A = np.stack([r_next[k] - r[k], P.U.values[k], r[k]])
        Y[k] = np.linalg.solve(A, [0.0, 1.0, 0.0])
        V[k] = np.linalg.solve(A, [0.0, 0.0, 1.0])
    return Y, V


def test_dual_square_fixture(square):
    D = dual_pair(square)
    assert np.array_equal(D.Y.values,
                          [[0.0, -1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(D.V.values,
                       [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]],
                       rtol=0, atol=1e-15)


def test_dual_fixture_dot_products(square):
    D = dual_pair(square)
    assert D.V.values[0] @ square.X.values[0] == 1.0
    assert D.V.values[0] @ square.X.values[1] == 1.0
    assert D.Y.values[0] @ square.U.values[0] == 1.0


def test_dual_matches_linear_solve_oracle():
    for seed in range(10):
        P = random_framed_polygon(GenConfig(seed=seed, n=5 + seed))
        D = dual_pair(P)
        Y, V = solve_dual_directly(P)
        scale = max(np.max(np.abs(Y)), np.max(np.abs(V)))
        assert np.max(np.abs(D.Y.values - Y)) <= 1e-12 * scale
        assert np.max(np.abs(D.V.values - V)) <= 1e-12 * scale


def test_dual_pair_names_first_failing_relation(hexagon):
    # Doubling the stored edge volumes halves Y and V, so Y . U, V . X and
    # their far-node twins all fail; the error names the first in order.
    P = FramedPolygon(hexagon.X, hexagon.U)
    P.beta_values = 2.0 * P.beta_values
    with pytest.raises(DualityResidual, match=r"relation Y \. U failed"):
        dual_pair(P)


def test_dual_pair_checks_far_node_relations_after_near_ones(hexagon):
    # A U(i+1) shifted after the field was found parallel breaks Y . U+ and
    # V . U+, which are checked for parallel fields only.
    P = FramedPolygon(hexagon.X, hexagon.U)
    curvature_b(P)
    P.field_next = P.field_next + 1.0
    with pytest.raises(DualityResidual, match=r"relation Y \. U\+ failed"):
        dual_pair(P)
    # Doubled edge vectors also double V, so V . X fails too; the six
    # near-node relations come first, so it is reported ahead of Y . U+.
    P = FramedPolygon(hexagon.X, hexagon.U)
    P.edge_vectors = 2.0 * P.edge_vectors
    curvature_b(P)
    P.field_next = P.field_next + 1.0
    with pytest.raises(DualityResidual, match=r"relation V \. X failed"):
        dual_pair(P)


def test_dual_volumes_on_square(square):
    D = dual_pair(square)
    assert np.allclose(dual_beta_values(D), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(dual_alpha_values(D), 2.0, rtol=0, atol=1e-15)


def test_dual_field_increment_on_square(square):
    D = dual_pair(square)
    dV1 = D.V.values[1] - D.V.values[0]
    dY1 = D.Y.values[1] - D.Y.values[0]
    assert np.array_equal(dV1, [-1.0, -1.0, 0.0])
    assert np.array_equal(dV1, -1.0 * dY1)


def test_sigma_positive_on_square(square):
    rep = dual_invariants(square, dual_pair(square))
    assert rep.sign_sigma == 1
    assert rep.sigma_fit_residual <= 1e-15


def test_dual_volume_products_on_random_instances():
    worst = 0.0
    for seed in range(30):
        P = random_framed_polygon(GenConfig(seed=seed, n=5 + (seed % 15)))
        rep = dual_invariants(P, dual_pair(P))
        worst = max(worst, rep.beta_dual_residual, rep.alpha_dual_residual)
    assert worst <= 1e-9


def test_dual_field_parallel_and_sign_constant():
    sigmas = set()
    worst = 0.0
    for seed in range(30):
        P = random_framed_polygon(GenConfig(seed=50 + seed, n=5 + (seed % 15)))
        rep = dual_invariants(P, dual_pair(P))
        worst = max(worst, rep.v_parallel_residual, rep.sigma_fit_residual)
        sigmas.add(rep.sign_sigma)
    assert worst <= 1e-9
    assert len(sigmas) == 1


def test_dual_of_dual_square_fixture(square):
    D = dual_pair(square)
    back = dual_of_dual(D)
    assert np.array_equal(back.X.values[0], [1.0, 1.0, 1.0])
    assert np.array_equal(back.U.values, square.U.values)
    assert np.array_equal(back.X.values, square.X.values)


def test_involution_on_random_instances():
    worst = 0.0
    for seed in range(50):
        P = random_framed_polygon(GenConfig(seed=seed, n=5 + (seed % 20)))
        back = dual_of_dual(dual_pair(P))
        scale = max(1.0, float(np.max(np.abs(P.X.values))))
        worst = max(worst, float(np.max(np.abs(back.X.values - P.X.values))) / scale)
        uscale = max(1.0, float(np.max(np.abs(P.U.values))))
        worst = max(worst, float(np.max(np.abs(back.U.values - P.U.values))) / uscale)
    assert worst <= 1e-9


def reframed_dual(P, c, d):
    """Dual of (X, cX + dU), checked against the closed form (Y/d, V - (c/d) Y) of P's dual."""
    D = dual_pair(P)
    direct = dual_pair(reframe(P, c, d))
    Yc = D.Y.values / d
    Vc = D.V.values - (c / d) * D.Y.values
    scale = max(float(np.max(np.abs(Yc))), float(np.max(np.abs(Vc))), 1e-300)
    err = max(
        float(np.max(np.abs(direct.Y.values - Yc))),
        float(np.max(np.abs(direct.V.values - Vc))),
    )
    assert err <= 1e-9 * scale
    return direct


def test_reframed_dual_identity(square):
    D0 = dual_pair(square)
    D1 = reframed_dual(square, 0.0, 1.0)
    assert np.array_equal(D0.Y.values, D1.Y.values)
    assert np.array_equal(D0.V.values, D1.V.values)


def test_reframed_dual_square():
    from centropoly import fixtures

    square = fixtures()["lifted_square"]
    D = reframed_dual(square, 1.0, 2.0)
    assert np.allclose(D.Y.values[0], [0.0, -0.5, 0.5], rtol=0, atol=1e-15)


def test_reframed_dual_random():
    rng = np.random.default_rng(8)
    for seed in range(15):
        P = random_framed_polygon(GenConfig(seed=80 + seed, n=5 + (seed % 12)))
        c, d = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        reframed_dual(P, c, d)


def test_coplanarity_planar_polygon_fully_degenerate(square):
    rep = coplanarity_concurrency_check(square, dual_pair(square))
    assert all(rep.coplanar)
    assert all(rep.concurrent)
    assert rep.coplanar == rep.concurrent


def test_coplanarity_planted_instance():
    P, edge = planted_coplanar_instance(GenConfig(seed=6, n=8))
    rep = coplanarity_concurrency_check(P, dual_pair(P))
    assert [k for k, c in enumerate(rep.coplanar) if c] == [edge]
    assert [k for k, c in enumerate(rep.concurrent) if c] == [edge]
    assert rep.coplanar == rep.concurrent


def test_coplanarity_generic_instances_fire_nowhere():
    for seed in range(15):
        P = random_framed_polygon(GenConfig(seed=300 + seed, n=6 + (seed % 10)))
        rep = coplanarity_concurrency_check(P, dual_pair(P))
        assert not any(rep.coplanar)
        assert not any(rep.concurrent)


def test_flattening_vertex_correspondence_hexagon(hexagon):
    assert flattening_nodes(hexagon) == dual_vertex_edges(dual_pair(hexagon)) == [0, 2, 4, 5]


def test_flattening_vertex_correspondence_random():
    for seed in range(25):
        P = random_framed_polygon(GenConfig(seed=400 + seed, n=5 + (seed % 18)))
        flats, verts = flattening_nodes(P), dual_vertex_edges(dual_pair(P))
        assert flats == verts, (seed, flats, verts)


def test_doubly_wound_radial_polygon_has_two_flattenings(monkeypatch):
    # negative control for the four-flattening check: gamma is locally convex
    # but winds twice about (0, 0), and the theorem's conclusion fails
    rng = np.random.default_rng([2, 1745])
    n = int(rng.integers(9, 25))
    theta = 4.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    gamma = rng.uniform(0.8, 1.2, n)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    lam = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    P = FramedPolygon(NodeSeq(np.column_stack([gamma * lam[:, None], lam])), vertical_field(n))
    assert n == 9
    assert flattening_nodes(P) == dual_vertex_edges(dual_pair(P)) == [1, 5]
    d = np.abs(delta(P).values)
    assert d.min() / d.max() > 1e-3  # far outside the sign dead band
    assert not is_convex(NodeSeq(gamma))

    # the radial generator rejects this gamma by its convexity test
    verdicts = []
    convexity = generators._convexity

    def spied_convexity(poly, tol):
        signs, convex = convexity(poly, tol)
        verdicts.append(bool(convex))
        return signs, convex

    monkeypatch.setattr(generators, "_convex_from_rng", lambda rngs, ns: (gamma, Segments.one(n), np.ones(1, dtype=bool)))
    monkeypatch.setattr(generators, "_convexity", spied_convexity)
    with pytest.raises(GenerationFailed):
        random_radial_instance(GenConfig(seed=0, n=n, max_retries=3))
    assert verdicts == [False] * 3


def test_dual_curvature_near_zero_keeps_the_correspondence():
    # instance [1003, 94587] of verify: b(Y,V) = 4.3e-8 at dual edge 0, where
    # |V'| = 1.0e-8 beside |V| = 2.94, so V' rounds by more than tol_residual
    # times |V'|; the dual's tangential verdict raised NotParallel there
    X = random_radial_instance(GenConfig(seed=[1003, 94587, 1], n=37)).X
    P = FramedPolygon(X, vertical_field(37))
    assert dual_vertex_edges(dual_pair(P)) == flattening_nodes(P)
    # a framed polygon whose dual fit raised at dual edge slot 395 (residual 3.966e-15 > bound 9.348e-16)
    P = random_framed_polygon(GenConfig(seed=1979185871, n=420))
    D = dual_pair(P)
    _, resid, scale, _ = D.curvature_fit
    assert resid[395] > DEFAULT_TOL.tol_residual * scale[395]  # dual edge slot 395 still needs the floor
    assert dual_vertex_edges(D) == flattening_nodes(P)


def test_vertex_flattening_correspondence_random():
    # the other half of the correspondence: vertex edges of (X, U) are the
    # flattening nodes of the dual polygon Y, with no index shift
    for i in range(200):
        n = int(np.random.default_rng([9, i, 0]).integers(5, 51))
        P = random_framed_polygon(GenConfig(seed=[9, i, 1], n=n))
        verts, flats = vertex_edges(P), flattening_nodes(NodeSeq(dual_pair(P).Y.values))
        assert verts == flats, (i, verts, flats)


def test_genericity_predicate_matches_dual():
    def matches_dual(P):
        rep = coplanarity_concurrency_check(P, dual_pair(P))
        return is_generic(P) == (not any(rep.concurrent))

    for seed in range(10):
        P = random_framed_polygon(GenConfig(seed=500 + seed, n=6 + seed))
        assert matches_dual(P)
    planted, _ = planted_coplanar_instance(GenConfig(seed=7, n=7))
    assert matches_dual(planted)


def test_dual_of_equal_volume_unimodular_is_equal_volume_unimodular():
    for seed in range(10):
        X, U = random_equal_volume_polygon(GenConfig(seed=600 + seed, n=6 + (seed % 7)))
        D = dual_pair(FramedPolygon(X, U))
        assert np.max(np.abs(dual_alpha_values(D) - 1.0)) <= 1e-9
        assert np.max(np.abs(dual_beta_values(D) - 1.0)) <= 1e-9


def test_duality_equivariance_under_unimodular_maps():
    rng = np.random.default_rng(12)
    P = random_framed_polygon(GenConfig(seed=77, n=10))
    D = dual_pair(P)
    for _ in range(5):
        M = random_unimodular_matrix(rng)
        Q = FramedPolygon(NodeSeq(P.X.values @ M.T), NodeSeq(P.U.values @ M.T))
        DQ = dual_pair(Q)
        Minv_T = np.linalg.inv(M).T
        scale = float(np.max(np.abs(D.Y.values)))
        assert np.max(np.abs(DQ.Y.values - D.Y.values @ Minv_T.T)) <= 1e-9 * scale
        scale = max(1.0, float(np.max(np.abs(D.V.values))))
        assert np.max(np.abs(DQ.V.values - D.V.values @ Minv_T.T)) <= 1e-9 * scale


def test_dual_curvature_equals_sigma_lambda():
    from centropoly.duality import dual_curvature

    for seed in range(15):
        P = random_framed_polygon(GenConfig(seed=700 + seed, n=5 + (seed % 14)))
        b_dual = dual_curvature(dual_pair(P))
        lam = lambda_coeff(P).values
        scale = max(1.0, float(np.max(np.abs(lam))))
        assert np.max(np.abs(b_dual - lam)) <= 1e-9 * scale
