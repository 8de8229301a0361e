import tracemalloc

import numpy as np
import pytest
from numpy.random.bit_generator import _coerce_to_uint32_array

from centropoly import (
    FramedPolygon,
    GenConfig,
    NodeSeq,
    PlanarPair,
    area2,
    curvature_b,
    delta,
    is_convex,
    is_equal_volume,
    is_generic,
    is_unimodular,
    node_diff,
    perturb_to_generic,
    planted_coplanar_instance,
    random_equal_area_polygon,
    random_equal_volume_polygon,
    random_framed_polygon,
    random_planar_pair,
    random_radial_instance,
    random_unimodular_matrix,
)
from centropoly import generators
from centropoly.errors import GenerationFailed
from centropoly.generators import _closure_projection
from centropoly.invariants import _alpha_values


# the convex polygon is the radial projection gamma of a radial instance


def test_seeds_hashed_together_give_the_streams_of_default_rng():
    # verify's [seed, index, k] for seeds of 1, 2 and 3 uint32 words, int
    # seeds, and entropy of 4 and 5 words; numpy splits each int into words
    # lowest first, and more than 4 words take default_rng itself
    seeds = [[s, i, k] for s in (0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32 + 5, 2**64 - 1, 2**64 + 5)
             for i in range(250) for k in (0, 1)]
    seeds += [0, 5, 2**32 + 3, 2**64 + 3, 2**96 + 3, [1, 2, 3, 4], (1, 2, 3, 4, 5), [True, 2]]
    got = generators.default_rngs(seeds)
    hashed = [isinstance(g.bit_generator.seed_seq, generators._SeedState) for g in got]
    assert hashed == [len(_coerce_to_uint32_array(s)) <= 4 for s in seeds]
    assert 3000 < sum(hashed) < len(seeds)
    for seed, g in zip(seeds, got):
        want = np.random.default_rng(seed)
        assert g.bit_generator.state == want.bit_generator.state
        assert g.random() == want.random()


def test_a_few_seeds_take_default_rng():
    seeds = [[3, i, 1] for i in range(generators._HASHED_FROM - 1)]
    got = generators.default_rngs(seeds)
    assert not any(isinstance(g.bit_generator.seed_seq, generators._SeedState) for g in got)
    assert [g.bit_generator.state for g in got] == [np.random.default_rng(s).bit_generator.state for s in seeds]


def test_convex_polygon_postconditions():
    for seed in range(50):
        poly = random_radial_instance(GenConfig(seed=seed, n=4 + (seed % 24))).gamma
        assert is_convex(poly)
        pts = poly.values
        assert np.all(area2(pts, np.roll(pts, -1, axis=0)) > 0.0)  # origin inside


def test_convex_polygon_deterministic():
    a = random_radial_instance(GenConfig(seed=42, n=6)).gamma
    b = random_radial_instance(GenConfig(seed=42, n=6)).gamma
    assert np.array_equal(a.values, b.values)


def test_convex_polygon_exact_node_count():
    # no triangle is generic (its three edges are coplanar), so n starts at 4
    for n in (4, 7, 23, 50):
        assert random_radial_instance(GenConfig(seed=1, n=n)).gamma.n == n


def test_radial_instance_deterministic_and_generic():
    a = random_radial_instance(GenConfig(seed=7, n=12))
    b = random_radial_instance(GenConfig(seed=7, n=12))
    assert np.array_equal(a.X.values, b.X.values)
    assert is_generic(a.X)


def test_radial_instance_locally_convex():
    for seed in range(20):
        inst = random_radial_instance(GenConfig(seed=seed, n=5 + (seed % 16)))
        assert np.all(_alpha_values(inst.X.values, inst.X.segments) > 0.0)


def test_constant_scale_radial_instance_never_generic():
    with pytest.raises(GenerationFailed):
        random_radial_instance(GenConfig(seed=0, n=8, lambda_range=(1.0, 1.0), max_retries=8))


def test_framed_polygon_has_nonconstant_curvature():
    for seed in range(10):
        P = random_framed_polygon(GenConfig(seed=seed, n=6 + seed))
        b = curvature_b(P).values
        assert np.max(b) - np.min(b) > 0.0
        assert is_generic(P)


def svd_kernel_part(edges: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The part of z in the closure kernel, through an n x n orthonormal basis from the SVD of the edges."""
    _, s, vt = np.linalg.svd(edges.T, full_matrices=True)
    rank = int((s > 1e-12 * s[0]).sum())
    kernel = vt[rank:].T
    return kernel @ (kernel.T @ z)


@pytest.mark.parametrize("generate", [random_framed_polygon, random_planar_pair])
def test_closure_projection_agrees_with_the_svd_basis(generate):
    # Both are the orthogonal projection of z onto the kernel of E^T, up to
    # rounding.  E^T z and E^T E are n-term sums, which round by about
    # sqrt(n) u times their terms (the roundings add like a random walk); a
    # change dc of E^T z moves entry i of z - E (E^T E)^-1 E^T z by
    # e_i (E^T E)^-1 dc, at most about sqrt(n) u kappa(E)^2 max|z| for edges
    # of comparable length.  The SVD basis rounds by the same order, and 8
    # covers both sides: over 3600 draws with n in 5..100 the largest
    # difference was 1.8 of that unit
    u = np.finfo(float).eps / 2
    for n in (5, 8, 50, 300, 1500):
        for i in range(3):
            P = generate(GenConfig(seed=[5, i, n], n=n))
            x = P.X.values if isinstance(P, FramedPolygon) else P.x.values
            edges = np.roll(x, -1, axis=0) - x
            z = np.random.default_rng([6, i, n]).standard_normal(n)
            unit = np.sqrt(n) * u * np.linalg.cond(edges) ** 2 * np.abs(z).max()
            diff = np.abs(_closure_projection(edges, z) - svd_kernel_part(edges, z)).max()
            assert diff <= 8.0 * unit, (n, i, diff / unit)


@pytest.mark.parametrize("generate", [random_framed_polygon, random_planar_pair])
def test_parallel_fields_are_drawn_without_an_n_by_n_array(generate):
    # an n x n float64 array is 18 MB at n = 1500
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        generate(GenConfig(seed=1, n=1500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_planar_pair_deterministic():
    a = random_planar_pair(GenConfig(seed=9, n=8))
    b = random_planar_pair(GenConfig(seed=9, n=8))
    assert np.array_equal(a.x.values, b.x.values)
    assert np.array_equal(a.u.values, b.u.values)


def test_equal_volume_polygon_generator():
    X, U = random_equal_volume_polygon(GenConfig(seed=3, n=8))
    assert is_equal_volume(X)
    P = FramedPolygon(X, U)
    assert is_unimodular(P)
    curvature_b(P)


def test_equal_area_polygon_generator():
    for seed in range(10):
        x = random_equal_area_polygon(GenConfig(seed=seed, n=5 + (seed % 10)))
        e = node_diff(x).values
        areas = area2(np.roll(e, 1, axis=0), e)
        assert np.max(np.abs(areas - 1.0)) <= 1e-12
        assert is_convex(x)


def test_perturb_to_generic_identity_when_generic():
    inst = random_radial_instance(GenConfig(seed=8, n=9))
    out = perturb_to_generic(inst.X, GenConfig(seed=8, n=9, perturb_scale=0.0))
    assert out is inst.X


def test_perturb_to_generic_fixes_planar_octagon():
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    octagon = NodeSeq(np.column_stack([np.cos(angles), np.sin(angles), np.ones(8)]))
    out = perturb_to_generic(octagon, GenConfig(seed=1, n=8, perturb_scale=1e-2))
    assert is_generic(out)
    assert np.all(_alpha_values(out.values, out.segments) > 0.0)


def test_planted_instance_has_single_coplanar_quadruple():
    for seed in range(10):
        P, edge = planted_coplanar_instance(GenConfig(seed=seed, n=7 + (seed % 5)))
        d = delta(P).values
        scale = np.max(np.abs(d))
        assert abs(d[edge]) <= 1e-12 * scale
        others = np.delete(d, edge)
        assert np.min(np.abs(others)) > 1e-6 * scale


def test_fixture_catalog(fx):
    assert set(fx) >= {
        "lifted_square",
        "half_square_pair",
        "perturbed_hexagon",
        "planted_coplanar_hexagon",
        "constant_curvature_pair",
    }
    assert isinstance(fx["half_square_pair"], PlanarPair)
    cc = fx["constant_curvature_pair"]
    from centropoly import is_constant_curvature

    flag, _ = is_constant_curvature(cc)
    assert flag


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=2)
    with pytest.raises(ValueError):
        GenConfig(lambda_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        GenConfig(max_retries=0)


@pytest.mark.parametrize("generate", [random_radial_instance, random_planar_pair])
def test_generators_retry_only_geometry_errors(generate, monkeypatch):
    def broken(poly, tol):
        raise TypeError("planted")

    for convexity_test in ("is_convex", "_convexity"):  # the radial generator calls _convexity
        monkeypatch.setattr(generators, convexity_test, broken)
    with pytest.raises(TypeError, match="planted"):
        generate(GenConfig(seed=1, n=8))


class SingularRng:
    """Draws only the zero matrix, and stops an unbounded draw loop after 100 000 draws."""

    def __init__(self):
        self.draws = 0

    def uniform(self, low, high, size):
        self.draws += 1
        if self.draws > 100_000:
            raise RuntimeError("the draw loop is unbounded")
        return np.zeros(size)


def test_unimodular_matrix_gives_up_on_singular_draws():
    with pytest.raises(GenerationFailed):
        random_unimodular_matrix(SingularRng())
