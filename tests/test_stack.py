"""A stack of polygons is evaluated in one pass; each segment gets its polygon's own results, bit for bit."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from centropoly import (
    DualReport,
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
    is_generic,
    planar_vertices,
    planted_coplanar_instance,
    random_framed_polygon,
    random_radial_instance,
    vertex_edges,
    vertical_field,
)
from centropoly import generators
from centropoly.cyclic import stack
from centropoly.duality import involution_error
from centropoly.errors import GenerationFailed, NotGeneric, NotParallel
from centropoly.generators import random_radial_instances


def stacked(polys) -> FramedPolygon:
    return FramedPolygon(stack([p.X.values for p in polys]), stack([p.U.values for p in polys]))


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
        stack([radial[0].X.values, reversed_nodes.values, *(p.X.values for p in radial[2:])]),
        stack([p.U.values for p in radial]),
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


def test_a_stack_of_one_gives_the_polygon_result_in_a_list_of_one(radial, framed):
    # verify stacks a chunk that holds a single instance so (say, with CHUNK_ROWS = 1)
    for p in (radial[1], framed[2]):
        P = stacked([p])
        D, d = dual_pair(P), dual_pair(p)
        assert np.array_equal(D.Y.values, d.Y.values) and np.array_equal(D.V.values, d.V.values)
        cases = {
            "flattening_nodes": (flattening_nodes(P), flattening_nodes(p), list),
            "dual_vertex_edges": (dual_vertex_edges(D), dual_vertex_edges(d), list),
            "involution_error": (involution_error(P, dual_of_dual(D)), involution_error(p, dual_of_dual(d)), float),
            "delta_identity_residual": (delta_identity_residual(P), delta_identity_residual(p), float),
            "is_generic": (is_generic(P), is_generic(p), bool),
        }
        together, alone = dual_invariants(P, D), dual_invariants(p, d)
        for field in dataclasses.fields(DualReport):
            kind = int if field.name == "sign_sigma" else float
            cases[field.name] = (getattr(together, field.name), getattr(alone, field.name), kind)
        rep, one = coplanarity_concurrency_check(P, D), coplanarity_concurrency_check(p, d)
        cases["coplanar"] = (rep.coplanar, one.coplanar, tuple)
        cases["concurrent"] = (rep.concurrent, one.concurrent, tuple)
        if p is radial[1]:  # the planar parts need the vertical field
            (y, v), (y1, v1) = dual_planar_parts(D), dual_planar_parts(d)
            cases["is_convex"] = (is_convex(y), is_convex(y1), bool)
            cases["planar_vertices"] = (planar_vertices(y, v), planar_vertices(y1, v1), list)
        for name, (got, want, kind) in cases.items():
            assert type(want) is kind, name
            assert got == [want], name


def chunk_configs(seed, count, lo, hi, lambda_range):
    """Configs as verify draws them (n from [seed, i, 0], the polygon from [seed, i, 1]), with varied retry bounds."""
    return [
        GenConfig(
            seed=[seed, i, 1],
            n=int(np.random.default_rng([seed, i, 0]).integers(lo, hi + 1)),
            lambda_range=lambda_range,
            max_retries=3 + i % 4,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("lambda_range", [(0.5, 2.0), (1.0, 1.0)])
@pytest.mark.parametrize("seed, count, lo, hi", [(6, 60, 4, 60), (7, 12, 40, 300)])
def test_a_chunk_generated_together_gives_each_config_its_own_instance(monkeypatch, seed, count, lo, hi, lambda_range):
    cfgs = chunk_configs(seed, count, lo, hi, lambda_range)
    alone = []
    for cfg in cfgs:
        try:
            alone.append(random_radial_instance(cfg).X.values)
        except GenerationFailed as exc:
            alone.append(exc)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_convex_from_rng", "_closure_draw"):
        monkeypatch.setattr(generators, name, counted(name, getattr(generators, name)))
    X, errors = random_radial_instances(cfgs)
    rows = iter(X.segments.rows(s) for s in range(len(X.segments.lengths))) if X is not None else iter(())
    for want, error in zip(alone, errors):
        if isinstance(want, GenerationFailed):
            assert (type(error), str(error)) == (GenerationFailed, str(want))
        else:
            assert error is None and np.array_equal(X.values[next(rows)], want)
    assert next(rows, None) is None
    if lambda_range == (1.0, 1.0):  # a planar X: no torsion volume has a strict sign
        assert X is None and all("no generic radial instance" in str(e) for e in errors)
    elif lo == 4:  # the closure rejects a draw at small n, which that stream draws again
        assert calls["_closure_draw"] > calls["_convex_from_rng"]


def test_a_stream_whose_lengths_never_close_fails_alone(monkeypatch):
    cfgs = [GenConfig(seed=[3, i, 1], n=n) for i, n in enumerate((9, 7, 12, 7, 30))]
    alone = [random_radial_instance(cfg).X.values for cfg in cfgs]
    draws = []
    closure_draw = generators._closure_draw

    def collapsing_at_n_7(rngs, ns, layout):
        dirs, lengths, short = closure_draw(rngs, ns, layout)
        draws.append(len(ns))
        return dirs, lengths, short | (np.array(ns) == 7)

    monkeypatch.setattr(generators, "_closure_draw", collapsing_at_n_7)
    X, errors = random_radial_instances(cfgs)
    assert draws == [5] + [2] * 999  # every stream draws at most 1000 times
    assert [str(e) if e else None for e in errors] == [
        None, "edge lengths kept collapsing under the closure correction", None,
        "edge lengths kept collapsing under the closure correction", None,
    ]
    assert np.array_equal(X.values, np.concatenate([alone[0], alone[2], alone[4]]))
    assert X.segments.lengths.tolist() == [9, 12, 30]
    with pytest.raises(GenerationFailed, match="collapsing"):
        random_radial_instance(cfgs[1])
