import numpy as np
import pytest

from centropoly import (
    DEFAULT_TOL,
    FramedPolygon,
    GenConfig,
    NodeSeq,
    ToleranceConfig,
    alpha,
    beta,
    curvature_b,
    delta,
    flattening_nodes,
    focal_points,
    is_constant_curvature,
    is_equal_volume,
    is_generic,
    is_unimodular,
    delta_identity_residual,
    lambda_coeff,
    random_framed_polygon,
    random_unimodular_matrix,
    reframe,
    vertex_edges,
)
from centropoly.errors import (
    DegenerateSign,
    NonTransversal,
    NotGeneric,
    NotLocallyConvex,
    NotParallel,
)
from centropoly.cyclic import Segments, strict_signs
from centropoly.invariants import _tangential_fit, _tangential_verdict

E3 = np.array([0.0, 0.0, 1.0])


def vertical_field(n):
    return NodeSeq(np.tile(E3, (n, 1)))


def naive_det(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


# --- alpha ---------------------------------------------------------------


def test_alpha_square(square):
    assert np.array_equal(alpha(square).values, [4.0, 4.0, 4.0, 4.0])


def test_alpha_scales_cubically(square):
    doubled = FramedPolygon(NodeSeq(2.0 * square.X.values), square.U)
    assert np.allclose(alpha(doubled).values, 32.0, rtol=0, atol=1e-12)


def test_collinear_radial_vectors_rejected():
    nodes = NodeSeq([(1.0, 0.0, 1.0), (2.0, 0.0, 2.0), (1.0, 1.0, 1.0), (-1.0, -1.0, 1.0)])
    with pytest.raises(NotLocallyConvex):
        FramedPolygon(nodes, vertical_field(4))


def test_uniformly_reversed_orientation_is_accepted(square):
    reversed_square = FramedPolygon(
        NodeSeq(square.X.values[::-1]), NodeSeq(square.U.values[::-1])
    )
    assert np.array_equal(alpha(reversed_square).values, [4.0, 4.0, 4.0, 4.0])


# --- beta ----------------------------------------------------------------


def test_beta_square(square):
    assert np.array_equal(beta(square).values, [2.0, 2.0, 2.0, 2.0])


def test_field_equal_to_nodes_rejected(square):
    with pytest.raises(NonTransversal):
        FramedPolygon(square.X, square.X)


def test_beta_scales_linearly_in_field(square):
    re = reframe(square, 0.7, 3.0)
    assert np.allclose(beta(re).values, 3.0 * beta(square).values, rtol=0, atol=1e-12)


# --- curvature -----------------------------------------------------------


def test_constant_field_has_zero_curvature(square):
    assert np.array_equal(curvature_b(square).values, [0.0, 0.0, 0.0, 0.0])


def test_reframed_square_curvature(square):
    assert np.allclose(curvature_b(reframe(square, 1.0, 1.0)).values, -1.0, rtol=0, atol=1e-15)


def test_tangential_verdict_rejects_a_zero_increment():
    dg = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NotParallel, match="edge slot 1 ") as info:
        _tangential_verdict(_tangential_fit(-2.0 * dg, dg), Segments.one(3), DEFAULT_TOL)
    assert "zero" in str(info.value) and "nan" not in str(info.value)


def test_single_node_perturbation_is_not_parallel(square):
    U = square.U.values.copy()
    U[1] += np.array([1e-3, 0.0, 0.0])
    P = FramedPolygon(square.X, NodeSeq(U))
    for _ in range(2):  # a second call gives the same verdict
        with pytest.raises(NotParallel, match="edge slot 1 "):
            curvature_b(P)


def test_curvature_verdict_follows_the_tolerance_of_each_call(square):
    # curvature -1 everywhere, then U(1) moved off the tangent of edge slot 1
    # by a relative 2.5e-7: parallel under the loose bound, not the tight one
    tight, loose = ToleranceConfig(tol_residual=1e-9), ToleranceConfig(tol_residual=1e-3)

    def perturbed():
        P = reframe(square, 1.0, 1.0)
        U = P.U.values.copy()
        U[1] += np.array([1e-6, 0.0, 0.0])
        return FramedPolygon(P.X, NodeSeq(U))

    with pytest.raises(NotParallel, match="edge slot 1 ") as fresh_tight:
        curvature_b(perturbed(), tight)
    fresh_loose = curvature_b(perturbed(), loose).values
    for order in ((tight, loose), (loose, tight)):
        P = perturbed()
        for tol in order:
            if tol is tight:
                with pytest.raises(NotParallel) as got:
                    curvature_b(P, tol)
                assert str(got.value) == str(fresh_tight.value)
            else:
                assert np.array_equal(curvature_b(P, tol).values, fresh_loose)


# --- lambda and the osculating decomposition -----------------------------


def test_lambda_square(square):
    assert np.array_equal(lambda_coeff(square).values, [1.0, 1.0, 1.0, 1.0])


def test_lambda_vanishes_on_lifted_pairs(half_square):
    from centropoly import lift

    assert np.array_equal(lambda_coeff(lift(half_square)).values, np.zeros(4))


def test_lambda_shifts_under_field_shift(square):
    shifted = reframe(square, 2.5, 1.0)
    assert np.allclose(lambda_coeff(shifted).values, lambda_coeff(square).values + 2.5,
                       rtol=0, atol=1e-12)


def osculating_coefficients(P, i):
    """Oracle: A, B with -lambda(i) X(i) + U(i) = A X'(i-1/2) + B X'(i+1/2), by least squares."""
    w = -lambda_coeff(P).values[i] * P.X.values[i] + P.U.values[i]
    basis = np.stack([P.edge_vectors[i - 1], P.edge_vectors[i]], axis=1)
    (A, B), *_ = np.linalg.lstsq(basis, w, rcond=None)
    return float(A), float(B)


def test_osculating_coefficients_square(square):
    A, B = osculating_coefficients(square, 0)
    assert A == pytest.approx(-0.5, abs=1e-12)
    assert B == pytest.approx(0.5, abs=1e-12)


def test_first_osculating_coefficient_invariant_under_shift(square):
    A0, _ = osculating_coefficients(square, 2)
    A1, _ = osculating_coefficients(reframe(square, -1.3, 1.0), 2)
    assert A1 == pytest.approx(A0, abs=1e-12)


def test_first_osculating_coefficient_is_minus_beta_over_alpha():
    for seed in range(10):
        P = random_framed_polygon(GenConfig(seed=[70, seed], n=5 + 4 * seed))
        for i in range(P.n):
            A, _ = osculating_coefficients(P, i)
            expected = -P.beta_values[i] / P.alpha_values[i]
            assert abs(A - expected) <= 1e-9 * max(1.0, abs(expected)), (seed, i)


def test_exact_decomposition_when_field_in_edge_plane(square):
    # -lambda X + U already lies in span of the two edge vectors at node 0
    i = 0
    lam = lambda_coeff(square).values[i]
    w = -lam * square.X.values[i] + square.U.values[i]
    e_prev = square.edge_vectors[i - 1]
    e_next = square.edge_vectors[i]
    A, B = osculating_coefficients(square, i)
    assert np.allclose(A * e_prev + B * e_next, w, rtol=0, atol=1e-12)


# --- delta and flattening points -----------------------------------------


def test_delta_vanishes_on_planar_polygons(square):
    assert np.allclose(delta(square).values, 0.0, rtol=0, atol=1e-15)


def test_hexagon_delta_against_naive_oracle(hexagon):
    x = hexagon.X.values
    n = 6
    expected = []
    for k in range(n):
        e_next = x[(k + 2) % n] - x[(k + 1) % n]
        e_here = x[(k + 1) % n] - x[k]
        e_prev = x[k] - x[(k - 1) % n]
        expected.append(naive_det(e_next, e_here, e_prev))
    assert np.allclose(delta(hexagon).values, expected, rtol=0, atol=1e-15)


def test_hexagon_flattenings(hexagon):
    assert is_generic(hexagon)
    flats = flattening_nodes(hexagon)
    assert flats == [0, 2, 4, 5]
    assert len(flats) % 2 == 0


def test_planar_polygon_is_not_generic(square):
    assert not is_generic(square)
    with pytest.raises(NotGeneric):
        flattening_nodes(square)


def test_flattening_count_even_on_random_instances():
    for seed in range(10):
        P = random_framed_polygon(GenConfig(seed=seed, n=7 + seed))
        assert len(flattening_nodes(P)) % 2 == 0


# --- vertices -------------------------------------------------------------


def square_with_curvatures(b):
    """Planar-square framed polygon whose parallel field has curvatures b."""
    nodes = np.array([(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0)])
    edges = np.roll(nodes, -1, axis=0) - nodes
    U = [np.array([0.0, 0.0, 1.0])]
    for k in range(3):
        U.append(U[-1] - b[k] * edges[k])
    return FramedPolygon(NodeSeq(nodes), NodeSeq(np.array(U)))


def test_constant_curvature_has_no_detectable_vertices(square):
    with pytest.raises(DegenerateSign):
        vertex_edges(square)


def test_alternating_curvature_square_all_vertices():
    P = square_with_curvatures([1.0, 2.0, 1.0, 2.0])
    assert np.allclose(curvature_b(P).values, [1.0, 2.0, 1.0, 2.0], rtol=0, atol=1e-15)
    assert vertex_edges(P) == [0, 1, 2, 3]


def test_vertex_count_even_on_random_instances():
    for seed in range(10):
        P = random_framed_polygon(GenConfig(seed=100 + seed, n=8 + seed))
        assert len(vertex_edges(P)) % 2 == 0


# --- focal points ---------------------------------------------------------


def test_constant_field_focal_points_at_infinity(square):
    pts = focal_points(square)
    assert all(fp.kind == "at_infinity" for fp in pts)
    for fp in pts:
        assert np.array_equal(fp.direction, E3)


def test_unit_curvature_focal_points(square):
    P = reframe(square, 1.0, 1.0)  # curvature -1 everywhere
    pts = focal_points(P)
    for fp in pts:
        assert fp.kind == "finite"
        assert np.allclose(fp.position, [0.0, 0.0, -1.0], rtol=0, atol=1e-12)


def test_focal_points_are_where_both_normal_lines_meet():
    # E(k) = X(k) + U(k)/b is computed from node k alone.  Exactly,
    # E(k) - (X(k+1) + U(k+1)/b) = -(U' + b X')/b, whose norm is the fit
    # residual over |b|.  The residual is computed from the rounded U' and
    # X', and each point from rounded quotients and sums; each of these
    # roundings is at most a few eps times |X(k)| + |X(k+1)| + (|U(k)| +
    # |U(k+1)|)/|b|.  4 such units bound their sum (the worst seen is 0.75).
    eps = np.finfo(float).eps
    for i in range(200):
        n = int(np.random.default_rng([19, i, 0]).integers(5, 51))
        P = random_framed_polygon(GenConfig(seed=[19, i, 1], n=n))
        b, resid, _ = P.curvature_fit
        X, U = P.X.values, P.U.values
        X_next, U_next = P.nodes_next, P.field_next
        pts = focal_points(P)
        finite = strict_signs(b) != 0
        assert [fp.kind == "finite" for fp in pts] == finite.tolist()
        for k in np.flatnonzero(finite):
            assert np.array_equal(pts[k].position, X[k] + U[k] / b[k])
            norms = [np.linalg.norm(v) for v in (X[k], X_next[k], U[k], U_next[k])]
            slack = 4 * eps * (norms[0] + norms[1] + (norms[2] + norms[3]) / abs(b[k]))
            far = X_next[k] + U_next[k] / b[k]
            assert np.linalg.norm(pts[k].position - far) <= resid[k] / abs(b[k]) + slack


def test_focal_points_at_infinity_are_the_edges_without_curvature(square):
    # U moves only along edges 0 and 2 (U' = -X'/4 there) and is constant
    # along edges 1 and 3, where b is 0 exactly
    U = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 1.0], [0.5, 0.0, 1.0], [0.0, 0.0, 1.0]])
    P = FramedPolygon(square.X, NodeSeq(U))
    b = curvature_b(P).values
    assert b.tolist() == [0.25, 0.0, 0.25, 0.0]
    pts = focal_points(P)
    assert [fp.kind for fp in pts] == ["finite", "at_infinity", "finite", "at_infinity"]
    for k in (0, 2):
        assert np.array_equal(pts[k].position, square.X.values[k] + U[k] / 0.25)
    for k in (1, 3):
        assert np.array_equal(pts[k].direction, U[k])


def closest_meet_residual(points, directions):
    """Least-squares meet of lines p + t d; returns the worst line distance."""
    A = np.zeros((3, 3))
    rhs = np.zeros(3)
    for p, d in zip(points, directions):
        d = d / np.linalg.norm(d)
        proj = np.eye(3) - np.outer(d, d)
        A += proj
        rhs += proj @ p
    meet = np.linalg.solve(A, rhs)
    worst = 0.0
    for p, d in zip(points, directions):
        d = d / np.linalg.norm(d)
        offset = meet - p
        worst = max(worst, np.linalg.norm(offset - (offset @ d) * d))
    return worst


def test_three_normal_lines_concurrent_iff_equal_curvatures():
    # equal consecutive curvatures force concurrency, unequal ones break it
    P_eq = square_with_curvatures([2.0, 2.0, 2.0, 2.0])
    pts = P_eq.X.values
    dirs = P_eq.U.values
    resid = closest_meet_residual(pts[:3], dirs[:3])
    assert resid <= 1e-12
    P_ne = square_with_curvatures([1.0, 2.0, 1.0, 2.0])
    resid = closest_meet_residual(P_ne.X.values[:3], P_ne.U.values[:3])
    assert resid > 1e-3


# --- constant curvature detection -----------------------------------------


def test_constant_curvature_square(square):
    flag, witness = is_constant_curvature(square)
    assert flag
    assert np.array_equal(witness, E3)


def test_constant_curvature_reframed(square):
    flag, witness = is_constant_curvature(reframe(square, 1.0, 1.0))
    assert flag
    assert np.allclose(witness, [0.0, 0.0, -1.0], rtol=0, atol=1e-12)


def test_random_polygon_is_not_constant_curvature():
    P = random_framed_polygon(GenConfig(seed=5, n=9))
    flag, witness = is_constant_curvature(P)
    assert not flag and witness is None


def test_constant_witness_spans_field_and_nodes(square):
    # the witness must be expressible as c X + d U with the same c, d at all nodes
    P = reframe(square, 1.0, 1.0)
    _, witness = is_constant_curvature(P)
    stacked = np.concatenate([np.stack([P.X.values[i], P.U.values[i]], axis=1) for i in range(P.n)])
    rhs = np.concatenate([witness for _ in range(P.n)])
    (c, d), *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    assert np.max(np.abs(stacked @ [c, d] - rhs)) <= 1e-9


# --- the volume identity ---------------------------------------------------


def test_delta_identity_zero_on_square(square):
    assert delta_identity_residual(square) == 0.0


def test_delta_identity_on_random_instances():
    worst = 0.0
    for seed in range(50):
        P = random_framed_polygon(GenConfig(seed=seed, n=5 + (seed % 20)))
        worst = max(worst, delta_identity_residual(P))
    assert worst <= 1e-9


def test_delta_identity_invariant_under_field_shift():
    P = random_framed_polygon(GenConfig(seed=11, n=12))
    r0 = delta_identity_residual(P)
    r1 = delta_identity_residual(reframe(P, 0.8, 1.0))
    assert abs(r1 - r0) <= 1e-12


def test_invariant_bundle_roundtrip(square):
    assert np.array_equal(alpha(square).values, [4.0] * 4)
    assert np.array_equal(curvature_b(square).values, [0.0] * 4)
    assert delta_identity_residual(square) <= 1e-9


# --- equal volume / unimodular flags ---------------------------------------


def test_scaled_square_is_equal_volume(square):
    s = 4.0 ** (-1.0 / 3.0)
    assert is_equal_volume(NodeSeq(s * square.X.values))
    assert not is_equal_volume(square.X)


def test_unimodular_flag(square):
    assert not is_unimodular(square)
    assert is_unimodular(reframe(square, 0.0, 0.5))


# --- reframing -------------------------------------------------------------


def test_reframe_identity(square):
    P = reframe(square, 0.0, 1.0)
    assert np.array_equal(P.U.values, square.U.values)


def test_reframe_requires_positive_scale(square):
    with pytest.raises(NonTransversal):
        reframe(square, 1.0, 0.0)
    with pytest.raises(NonTransversal):
        reframe(square, 1.0, -2.0)


def test_reframe_preserves_vertices():
    rng = np.random.default_rng(3)
    for seed in range(8):
        P = random_framed_polygon(GenConfig(seed=200 + seed, n=9 + seed))
        before = vertex_edges(P)
        c, d = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
        assert vertex_edges(reframe(P, c, d)) == before


# --- centroaffine equivariance ---------------------------------------------


def test_invariants_unchanged_under_unimodular_maps():
    rng = np.random.default_rng(17)
    P = random_framed_polygon(GenConfig(seed=23, n=11))
    assert delta_identity_residual(P) <= 1e-9
    flats, verts = flattening_nodes(P), vertex_edges(P)
    for _ in range(5):
        M = random_unimodular_matrix(rng)
        Q = FramedPolygon(NodeSeq(P.X.values @ M.T), NodeSeq(P.U.values @ M.T))
        assert delta_identity_residual(Q) <= 1e-9
        for f in (alpha, beta, curvature_b, lambda_coeff, delta):
            a = f(P).values
            b = f(Q).values
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - b)) <= 1e-9 * scale, f.__name__
        assert flattening_nodes(Q) == flats
        assert vertex_edges(Q) == verts
