import numpy as np
import pytest

from centropoly import (
    FramedPolygon,
    GenConfig,
    NodeSeq,
    PlanarPair,
    area2,
    co_normal,
    curvature_b,
    cylindrical_pedal,
    constant_field_frame,
    dual_pair,
    dual_planar_parts,
    is_constant_curvature,
    is_convex,
    is_equal_volume,
    is_exact,
    is_unimodular,
    lambda_coeff,
    lift,
    node_diff,
    planar_curvature,
    planar_vertices,
    radial_projection,
    random_equal_area_polygon,
    random_planar_pair,
    random_radial_instance,
    random_unimodular_matrix,
    second_diff,
    unpedal,
    vertex_edges,
    vertical_field,
)
from centropoly.errors import (
    DegenerateSign,
    NonProjectable,
    NonTransversal,
    NotExact,
    NotGeneric,
    NotParallel,
)

E3 = np.array([0.0, 0.0, 1.0])


def radial_dual_parts(inst):
    """Planar parts of the dual of a radial instance framed by the vertical field."""
    return dual_planar_parts(dual_pair(FramedPolygon(inst.X, vertical_field(inst.X.n))))


# --- planar curvature ------------------------------------------------------


def test_inward_field_has_unit_curvature():
    # no constant field is transversal to a closed planar polygon, so the
    # zero-curvature end of the scale is covered by is_exact instead
    x = NodeSeq([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    pp = PlanarPair(x, NodeSeq(-x.values))
    assert np.allclose(planar_curvature(pp).values, 1.0, rtol=0, atol=1e-15)


def test_half_square_curvature_against_difference_oracle(half_square):
    b = planar_curvature(half_square).values
    du = node_diff(half_square.u).values
    dx = node_diff(half_square.x).values
    for k in range(4):
        expected = -(du[k] @ dx[k]) / (dx[k] @ dx[k])
        assert b[k] == pytest.approx(expected, abs=1e-15)


def test_non_parallel_planar_field_rejected(half_square):
    u = half_square.u.values.copy()
    u[2] += [0.05, 0.0]
    with pytest.raises(NotParallel):
        planar_curvature(PlanarPair(half_square.x, NodeSeq(u)))


# --- co-normal --------------------------------------------------------------


def test_co_normal_half_square(half_square):
    y = co_normal(half_square)
    assert np.array_equal(y.values[0], [0.0, -1.0])


def test_co_normal_defining_equations(half_square):
    y = co_normal(half_square).values
    dx = node_diff(half_square.x).values
    assert np.max(np.abs(np.einsum("ij,ij->i", y, dx))) == 0.0
    assert np.max(np.abs(np.einsum("ij,ij->i", y, half_square.u.values) - 1.0)) <= 1e-15


def test_co_normal_equivariance():
    pp = random_planar_pair(GenConfig(seed=5, n=7))
    y = co_normal(pp).values
    A = np.array([[1.3, 0.4], [-0.2, (1.0 + 0.4 * 0.2) / 1.3]])  # det 1
    mapped = PlanarPair(NodeSeq(pp.x.values @ A.T), NodeSeq(pp.u.values @ A.T))
    y_mapped = co_normal(mapped).values
    expected = y @ np.linalg.inv(A)
    assert np.max(np.abs(y_mapped - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


# --- lifting ----------------------------------------------------------------


def test_half_square_lifts_to_equal_volume_unimodular(half_square):
    P = lift(half_square)
    assert is_equal_volume(P.X)
    assert is_unimodular(P)


def test_lift_preserves_curvature():
    for seed in range(20):
        pp = random_planar_pair(GenConfig(seed=seed, n=5 + (seed % 10)))
        b2 = planar_curvature(pp).values
        b3 = curvature_b(lift(pp)).values
        assert np.max(np.abs(b3 - b2)) <= 1e-12 * max(1.0, np.max(np.abs(b2)))


def test_lift_has_zero_osculating_coefficient():
    pp = random_planar_pair(GenConfig(seed=31, n=9))
    lam = lambda_coeff(lift(pp)).values
    assert np.max(np.abs(lam)) <= 1e-12


# --- cylindrical pedal -------------------------------------------------------


def test_pedal_half_square(half_square):
    res = cylindrical_pedal(half_square)
    assert np.array_equal(res.Y.values[0], [0.0, -1.0, 0.5])
    assert np.array_equal(res.heights.values, [0.5, 0.5, 0.5, 0.5])


def test_pedal_pair_has_constant_curvature(half_square):
    res = cylindrical_pedal(half_square)
    pair = FramedPolygon(NodeSeq(res.Y.values), NodeSeq(np.tile(E3, (4, 1))))
    flag, witness = is_constant_curvature(pair)
    assert flag
    assert np.array_equal(witness, E3)


def test_pedal_equals_dual_of_lifting():
    for seed in range(20):
        pp = random_planar_pair(GenConfig(seed=40 + seed, n=5 + (seed % 9)))
        res = cylindrical_pedal(pp)
        D = dual_pair(lift(pp))
        scale = max(1.0, np.max(np.abs(D.Y.values)))
        assert np.max(np.abs(res.Y.values - D.Y.values)) <= 1e-9 * scale


# --- inverse pedal -----------------------------------------------------------


def test_unpedal_round_trip_half_square(half_square):
    res = cylindrical_pedal(half_square)
    back = unpedal(res.Y, E3)
    assert np.max(np.abs(back.x.values - half_square.x.values)) <= 1e-12
    assert np.max(np.abs(back.u.values - half_square.u.values)) <= 1e-12


def test_unpedal_round_trip_random():
    for seed in range(20):
        pp = random_planar_pair(GenConfig(seed=70 + seed, n=5 + (seed % 8)))
        res = cylindrical_pedal(pp)
        back = unpedal(res.Y, E3)
        scale = max(1.0, np.max(np.abs(pp.x.values)))
        assert np.max(np.abs(back.x.values - pp.x.values)) <= 1e-9 * scale
        assert np.max(np.abs(back.u.values - pp.u.values)) <= 1e-9 * scale


def test_unpedal_with_general_constant_field():
    rng = np.random.default_rng(9)
    pp = random_planar_pair(GenConfig(seed=101, n=8))
    Yv = cylindrical_pedal(pp).Y.values
    M = random_unimodular_matrix(rng)
    back = unpedal(NodeSeq(Yv @ M.T), M @ E3)
    # the recovered pair is a unimodular image of the original; its pedal
    # consistency is asserted inside unpedal, re-check transversality here
    assert np.all(back.beta_values > 0.0)


def test_unpedal_rejects_non_transversal_field(half_square):
    Y = cylindrical_pedal(half_square).Y
    with pytest.raises(NonTransversal):
        unpedal(Y, np.array([1.0, 0.0, 0.0]))


def test_constant_field_frame_is_unimodular():
    rng = np.random.default_rng(2)
    assert np.array_equal(constant_field_frame(E3), np.eye(3))
    for _ in range(20):
        E = rng.uniform(-2.0, 2.0, 3)
        if np.linalg.norm(E) < 0.1:
            continue
        M = constant_field_frame(E)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(M[2], E, rtol=0, atol=1e-15)


# --- convexity ---------------------------------------------------------------


def test_square_is_convex():
    assert is_convex(NodeSeq([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]))


def test_arrowhead_is_not_convex():
    assert not is_convex(NodeSeq([(0.0, 0.0), (2.0, 1.0), (0.0, 2.0), (1.0, 1.0)]))


def test_pentagram_winds_twice_and_fails():
    angles = 2.0 * np.pi * (2 * np.arange(5) % 5) / 5.0
    star = NodeSeq(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    assert not is_convex(star)


def test_collinear_nodes_raise():
    with pytest.raises(DegenerateSign):
        is_convex(NodeSeq([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)]))


def test_clockwise_traversal_is_rejected():
    cw = NodeSeq([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)])
    assert not is_convex(cw)


# --- exact fields and planar vertices ----------------------------------------


def test_constant_field_is_exact():
    y = NodeSeq([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    v = NodeSeq(np.tile([0.3, 0.4], (4, 1)))
    ok, b = is_exact(y, v)
    assert ok
    assert np.array_equal(b.values, np.zeros(4))


def test_is_exact_rejects_mismatched_lengths():
    y = NodeSeq([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    v = NodeSeq(np.tile([0.3, 0.4], (5, 1)))
    with pytest.raises(ValueError):
        is_exact(y, v)


def repeated_node_pair():
    """A pair whose y has a repeated node, so one increment of y and of v is zero."""
    y = NodeSeq([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    return y, NodeSeq(-y.values)


def test_is_exact_rejects_a_zero_increment():
    assert is_exact(*repeated_node_pair()) == (False, None)


def test_planar_vertices_reject_a_zero_increment():
    with pytest.raises(NotExact):
        planar_vertices(*repeated_node_pair())


def test_dual_parts_of_radial_instance_are_exact():
    inst = random_radial_instance(GenConfig(seed=3, n=9))
    y, v = radial_dual_parts(inst)
    ok, b = is_exact(y, v)
    assert ok


def test_rotated_increment_breaks_exactness():
    inst = random_radial_instance(GenConfig(seed=4, n=8))
    y, v = radial_dual_parts(inst)
    dy = node_diff(y).values
    bad = v.values.copy()
    bad[3] += 0.1 * np.array([-dy[2][1], dy[2][0]])
    ok, _ = is_exact(y, NodeSeq(bad))
    assert not ok


def test_planar_vertices_against_direct_scan():
    for seed in range(10):
        inst = random_radial_instance(GenConfig(seed=20 + seed, n=6 + (seed % 9)))
        y, v = radial_dual_parts(inst)
        _, b = is_exact(y, v)
        d = b.values - np.roll(b.values, 1)
        n = y.n
        expected = sorted(i for i in range(n) if d[(i - 1) % n] * d[i] < 0.0)
        assert planar_vertices(y, v) == expected


def test_planar_vertices_constant_curvature_raises(half_square):
    y = co_normal(half_square)
    # pedal pair with constant field: curvature differences all vanish
    with pytest.raises(NotGeneric):
        planar_vertices(NodeSeq(y.values), NodeSeq(np.tile([0.1, 0.2], (4, 1))))


def test_planar_vertices_require_exactness():
    y = NodeSeq([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    v = NodeSeq([(0.0, 0.1), (0.4, 0.0), (0.0, -0.2), (-0.3, 0.1)])
    with pytest.raises(NotExact):
        planar_vertices(y, v)


def test_planar_vertices_match_lifted_vertex_edges():
    for seed in range(10):
        inst = random_radial_instance(GenConfig(seed=50 + seed, n=6 + (seed % 8)))
        y, v = radial_dual_parts(inst)
        n = y.n
        lifted = FramedPolygon(
            NodeSeq(np.column_stack([y.values, np.ones(n)])),
            NodeSeq(np.column_stack([v.values, np.zeros(n)])),
        )
        shifted = sorted((j + 1) % n for j in vertex_edges(lifted))
        assert planar_vertices(y, v) == shifted


# --- radial projection --------------------------------------------------------


def test_radial_projection_of_lifted_square(square):
    inst = radial_projection(square.X)
    assert np.array_equal(inst.lam.values, np.ones(4))
    assert np.array_equal(inst.gamma.values, square.X.values[:, :2])
    assert inst.gamma_convex and inst.origin_interior


def test_radial_projection_uniform_scaling(square):
    inst = radial_projection(NodeSeq(2.0 * square.X.values))
    assert np.array_equal(inst.lam.values, np.full(4, 2.0))
    assert np.array_equal(inst.gamma.values, square.X.values[:, :2])


def test_radial_projection_round_trip():
    inst = random_radial_instance(GenConfig(seed=13, n=11))
    again = radial_projection(inst.X)
    assert np.max(np.abs(again.gamma.values - inst.gamma.values)) <= 1e-12
    assert np.max(np.abs(again.lam.values - inst.lam.values)) <= 1e-12
    assert np.max(np.abs(again.X.values - inst.X.values)) <= 1e-12


def test_radial_projection_rejects_nonpositive_heights():
    nodes = NodeSeq([(1.0, 0.0, 1.0), (0.0, 1.0, -1.0), (-1.0, 0.0, 1.0), (0.0, -1.0, 1.0)])
    with pytest.raises(NonProjectable):
        radial_projection(nodes)


# --- the equal-area story -------------------------------------------------------


def equal_area_deviation(x: NodeSeq) -> float:
    e = node_diff(x).values
    return float(np.max(np.abs(area2(np.roll(e, 1, axis=0), e) - 1.0)))


def test_second_difference_field_is_parallel_unimodular_on_equal_area():
    for seed in range(10):
        x = random_equal_area_polygon(GenConfig(seed=seed, n=5 + (seed % 9)))
        pp = PlanarPair(x, second_diff(x))
        planar_curvature(pp)  # parallel
        assert np.max(np.abs(pp.beta_values - 1.0)) <= 1e-12


def test_unique_parallel_unimodular_planar_field():
    # oracle: solve for all parallel unimodular fields as a linear system in
    # the start vector and the closure-kernel curvature coordinates
    x = random_equal_area_polygon(GenConfig(seed=7, n=9))
    xv = x.values
    n = x.n
    E = np.roll(xv, -1, axis=0) - xv
    _, s, vt = np.linalg.svd(E.T, full_matrices=True)
    K = vt[2:].T
    m = K.shape[1]
    rot = np.stack([-E[:, 1], E[:, 0]], axis=1)  # [E_i, w] = rot(E_i) . w
    A = np.zeros((n, 2 + m))
    for i in range(n):
        A[i, :2] = rot[i]
        if i > 0:
            A[i, 2:] -= (rot[i] @ E[:i].T) @ K[:i]
    sol, *_ = np.linalg.lstsq(A, np.ones(n), rcond=None)
    assert np.max(np.abs(A @ sol - 1.0)) <= 1e-9
    _, sv, _ = np.linalg.svd(A)
    assert sv[-1] > 1e-8 * sv[0]  # full rank: the field is unique
    b = K @ sol[2:]
    steps = -b[:, None] * E
    u = sol[:2] + np.vstack([np.zeros(2), np.cumsum(steps[:-1], axis=0)])
    assert np.max(np.abs(u - second_diff(x).values)) <= 1e-9


def test_pedal_of_equal_area_pair_is_equal_volume_unimodular():
    from centropoly.duality import dual_alpha_values, dual_beta_values

    for seed in range(10):
        x = random_equal_area_polygon(GenConfig(seed=30 + seed, n=5 + (seed % 8)))
        pp = PlanarPair(x, second_diff(x))
        D = dual_pair(lift(pp))
        assert np.max(np.abs(dual_alpha_values(D) - 1.0)) <= 1e-9
        assert np.max(np.abs(dual_beta_values(D) - 1.0)) <= 1e-9


def test_constant_curvature_equal_volume_unpedals_to_equal_area():
    for seed in range(10):
        x = random_equal_area_polygon(GenConfig(seed=60 + seed, n=5 + (seed % 7)))
        pp = PlanarPair(x, second_diff(x))
        Yv = cylindrical_pedal(pp).Y.values
        n = x.n
        # disguise the constant field inside a reframed transversal field
        c = 0.4
        pair = FramedPolygon(NodeSeq(Yv), NodeSeq(np.tile(E3, (n, 1)) + c * Yv))
        flag, _ = is_constant_curvature(pair)
        assert flag
        b_bar = float(np.mean(curvature_b(pair).values))
        E_rec = pair.U.values + b_bar * Yv
        assert np.max(np.abs(E_rec - E_rec.mean(axis=0))) <= 1e-9
        back = unpedal(NodeSeq(Yv), E_rec.mean(axis=0))
        assert equal_area_deviation(back.x) <= 1e-9
