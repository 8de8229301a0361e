"""A stack of polygons is evaluated in one pass; each segment gets its polygon's own results, bit for bit."""

import dataclasses

import numpy as np
import pytest

from centropoly import (
    FramedPolygon,
    GenConfig,
    NodeSeq,
    coplanarity_concurrency_check,
    curvature_b,
    delta_identity_residual,
    dual_invariants,
    dual_of_dual,
    dual_pair,
    dual_planar_parts,
    dual_vertex_edges,
    flattening_nodes,
    is_convex,
    planar_vertices,
    planted_coplanar_instance,
    random_framed_polygon,
    random_radial_instance,
    vertex_edges,
    vertical_field,
)
from centropoly.cyclic import stack
from centropoly.duality import involution_error
from centropoly.errors import NotGeneric, NotParallel


def stacked(polys) -> FramedPolygon:
    return FramedPolygon(stack([p.X for p in polys]), stack([p.U for p in polys]))


@pytest.fixture(scope="module")
def framed():
    return [random_framed_polygon(GenConfig(seed=[8, i], n=n)) for i, n in enumerate((5, 13, 40, 7, 26))]


@pytest.fixture(scope="module")
def radial():
    return [
        FramedPolygon(random_radial_instance(GenConfig(seed=[9, i], n=n)).X, vertical_field(n))
        for i, n in enumerate((6, 31, 9, 50))
    ]


def test_stacked_framed_polygons_give_each_polygon_its_own_results(framed):
    P = stacked(framed)
    D = dual_pair(P)
    alone = [dual_pair(p) for p in framed]
    for name in ("Y", "V"):
        assert np.array_equal(getattr(D, name).values, np.concatenate([getattr(d, name).values for d in alone]))
    assert flattening_nodes(P) == [flattening_nodes(p) for p in framed]
    assert vertex_edges(P) == [vertex_edges(p) for p in framed]
    assert dual_vertex_edges(D) == [dual_vertex_edges(d) for d in alone]
    assert delta_identity_residual(P) == [delta_identity_residual(p) for p in framed]
    assert involution_error(P, dual_of_dual(D)) == [involution_error(p, dual_of_dual(d)) for p, d in zip(framed, alone)]
    reports = [dual_invariants(p, d) for p, d in zip(framed, alone)]
    for field in dataclasses.fields(reports[0]):
        assert getattr(dual_invariants(P, D), field.name) == [getattr(r, field.name) for r in reports]
    rep = coplanarity_concurrency_check(P, D)
    reps = [coplanarity_concurrency_check(p, d) for p, d in zip(framed, alone)]
    assert rep.coplanar == [r.coplanar for r in reps]
    assert rep.concurrent == [r.concurrent for r in reps]


def test_stacked_radial_polygons_reorient_and_dualize_segment_by_segment(radial):
    reversed_nodes = NodeSeq(radial[1].X.values[::-1])  # alpha < 0 at every node
    P = FramedPolygon(
        stack([radial[0].X, reversed_nodes, *(p.X for p in radial[2:])]),
        stack([p.U for p in radial]),
    )
    assert np.array_equal(P.X.values, np.concatenate([p.X.values for p in radial]))
    y, v = dual_planar_parts(dual_pair(P))
    parts = [dual_planar_parts(dual_pair(p)) for p in radial]
    assert is_convex(y) == [is_convex(part[0]) for part in parts] == [True] * len(radial)
    assert planar_vertices(y, v) == [planar_vertices(*part) for part in parts]


def test_an_error_about_a_stack_names_its_segment_with_the_message_of_that_polygon(framed):
    rng = np.random.default_rng(5)
    p = framed[2]
    bent = FramedPolygon(p.X, NodeSeq(p.U.values + 1e-3 * rng.standard_normal(p.U.values.shape)))
    planted, _ = planted_coplanar_instance(GenConfig(seed=2024, n=6))
    for fn, polys, segment, error in (
        (curvature_b, [framed[0], bent, framed[1]], 1, NotParallel),
        (flattening_nodes, [framed[0], framed[1], planted], 2, NotGeneric),
    ):
        with pytest.raises(error) as alone:
            fn(polys[segment])
        with pytest.raises(error) as together:
            fn(stacked(polys))
        assert (together.value.segment, str(together.value)) == (segment, str(alone.value))
    # dual_pair checks the far-node relations only where the field is parallel
    D = dual_pair(stacked([framed[0], bent]))
    assert np.array_equal(D.Y.values, np.concatenate([dual_pair(framed[0]).Y.values, dual_pair(bent).Y.values]))
