"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from centropoly import (
    FramedPolygon,
    GenConfig,
    NodeSeq,
    PlanarPair,
    alpha,
    beta,
    coplanarity_concurrency_check,
    curvature_b,
    delta,
    dual_invariants,
    dual_of_dual,
    dual_pair,
    dual_planar_parts,
    dual_vertex_edges,
    cylindrical_pedal,
    flattening_nodes,
    is_constant_curvature,
    is_convex,
    is_equal_volume,
    is_unimodular,
    delta_identity_residual,
    lambda_coeff,
    lift,
    planar_vertices,
    planted_coplanar_instance,
    random_equal_area_polygon,
    random_equal_volume_polygon,
    random_framed_polygon,
    random_planar_pair,
    random_radial_instance,
    random_unimodular_matrix,
    reframe,
    second_diff,
    unpedal,
    vertex_edges,
)
from centropoly.duality import dual_alpha_values, dual_beta_values

E3 = np.array([0.0, 0.0, 1.0])
TOL = 1e-9
ABS_TOL = 1e-12


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def radial_pair(inst) -> FramedPolygon:
    return FramedPolygon(inst.X, NodeSeq(np.tile(E3, (inst.X.n, 1))))


@pytest.fixture(scope="module")
def framed_500():
    out = []
    for i in range(500):
        n = int(np.random.default_rng([10, i, 0]).integers(5, 51))
        out.append(random_framed_polygon(GenConfig(seed=[10, i, 1], n=n)))
    return out


@pytest.fixture(scope="module")
def radial_500():
    out = []
    for i in range(500):
        n = int(np.random.default_rng([20, i, 0]).integers(5, 51))
        out.append(random_radial_instance(GenConfig(seed=[20, i, 1], n=n)))
    return out


def test_criterion_01_fixture_exactness():
    def chain():
        square = FramedPolygon(
            NodeSeq([(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0)]),
            NodeSeq(np.tile(E3, (4, 1))),
        )
        values = (alpha(square).values, beta(square).values, curvature_b(square).values,
                  lambda_coeff(square).values, delta(square).values)
        D = dual_pair(square)
        return square, values, D, dual_beta_values(D), dual_alpha_values(D), dual_of_dual(D)

    chain()  # warm the code path; the bound is about steady-state cost
    elapsed = float("inf")
    for _ in range(10):
        started = time.perf_counter()
        square, values, D, bd, ad, back = chain()
        elapsed = min(elapsed, time.perf_counter() - started)

    a, b, curv, lam, d = values
    errs = [
        np.max(np.abs(a - 4.0)),
        np.max(np.abs(b - 2.0)),
        np.max(np.abs(curv)),
        np.max(np.abs(lam - 1.0)),
        np.max(np.abs(d)),
        np.max(np.abs(D.Y.values[0] - [0.0, -1.0, 1.0])),
        np.max(np.abs(D.V.values[0] - [0.0, 1.0, 0.0])),
        np.max(np.abs(bd - 1.0)),
        np.max(np.abs(ad - 2.0)),
        np.max(np.abs(back.X.values - square.X.values)),
        np.max(np.abs(back.U.values - square.U.values)),
    ]
    worst = max(float(e) for e in errs)
    ok = worst <= ABS_TOL and elapsed < 1e-3
    report(1, "fixture exactness", ok, f"worst abs err {worst:.2e}, {elapsed*1e3:.3f} ms")
    assert worst <= ABS_TOL
    assert elapsed < 1e-3


def test_criterion_02_involution():
    started = time.perf_counter()
    worst = 0.0
    for i in range(500):
        n = int(np.random.default_rng([10, i, 0]).integers(5, 51))
        P = random_framed_polygon(GenConfig(seed=[10, i, 1], n=n))
        back = dual_of_dual(dual_pair(P))
        worst = max(worst, rel_err(back.X.values, P.X.values),
                    rel_err(back.U.values, P.U.values))
    elapsed = time.perf_counter() - started
    ok = worst <= TOL and elapsed < 1.0
    report(2, "duality involution x500", ok, f"max rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst <= TOL
    assert elapsed < 1.0


def test_criterion_03_volume_identities(framed_500):
    worst_dual = 0.0
    worst_delta = 0.0
    for P in framed_500:
        rep = dual_invariants(P, dual_pair(P))
        worst_dual = max(worst_dual, rep.beta_dual_residual, rep.alpha_dual_residual)
        worst_delta = max(worst_delta, delta_identity_residual(P))
    ok = worst_dual <= TOL and worst_delta <= TOL
    report(3, "dual volume + delta identities x500", ok,
           f"dual {worst_dual:.2e}, delta {worst_delta:.2e}")
    assert worst_dual <= TOL
    assert worst_delta <= TOL


def test_criterion_04_dual_field_parallel_single_sigma(framed_500):
    worst_par = 0.0
    worst_fit = 0.0
    sigmas = set()
    for P in framed_500:
        rep = dual_invariants(P, dual_pair(P))
        worst_par = max(worst_par, rep.v_parallel_residual)
        worst_fit = max(worst_fit, rep.sigma_fit_residual)
        sigmas.add(rep.sign_sigma)
    ok = worst_par <= TOL and worst_fit <= TOL and len(sigmas) == 1
    report(4, "dual field parallel, global sign", ok,
           f"parallel {worst_par:.2e}, fit {worst_fit:.2e}, sigma {sorted(sigmas)}")
    assert worst_par <= TOL
    assert worst_fit <= TOL
    assert len(sigmas) == 1


def test_criterion_05_coplanarity_concurrency(framed_500):
    planted_ok = 0
    for i in range(100):
        n = int(np.random.default_rng([30, i, 0]).integers(6, 15))
        P, edge = planted_coplanar_instance(GenConfig(seed=[30, i, 1], n=n))
        rep = coplanarity_concurrency_check(P, dual_pair(P))
        fired_cop = [k for k, c in enumerate(rep.coplanar) if c]
        fired_con = [k for k, c in enumerate(rep.concurrent) if c]
        if fired_cop == [edge] and fired_con == [edge]:
            planted_ok += 1
    quiet_ok = 0
    for P in framed_500:
        rep = coplanarity_concurrency_check(P, dual_pair(P))
        if not any(rep.coplanar) and not any(rep.concurrent):
            quiet_ok += 1
    ok = planted_ok == 100 and quiet_ok == 500
    report(5, "coplanarity <-> concurrency", ok,
           f"planted {planted_ok}/100, generic quiet {quiet_ok}/500")
    assert planted_ok == 100
    assert quiet_ok == 500


def test_criterion_06_flattening_sets_reframing(framed_500):
    rng = np.random.default_rng(99)
    checked = 0
    for P in framed_500:
        base = flattening_nodes(P)
        assert dual_vertex_edges(dual_pair(P)) == base
        for c in rng.uniform(-1.0, 1.0, 10):
            Q = reframe(P, float(c), 1.0)
            assert flattening_nodes(Q) == base
            assert dual_vertex_edges(dual_pair(Q)) == base
        checked += 1
    ok = checked == 500
    report(6, "flattening sets under reframing", ok, f"{checked}/500 instances x10 shifts")
    assert checked == 500


def test_criterion_07_four_flattenings_at_scale():
    started = time.perf_counter()
    counts = []
    for i in range(1000):
        n = int(np.random.default_rng([40, i, 0]).integers(5, 51))
        inst = random_radial_instance(GenConfig(seed=[40, i, 1], n=n))
        counts.append(len(flattening_nodes(radial_pair(inst))))
    elapsed = time.perf_counter() - started
    counts = np.array(counts)
    good = np.all(counts >= 4) and np.all(counts % 2 == 0)
    ok = bool(good) and elapsed < 10.0
    report(7, "four flattenings x1000 radial", ok,
           f"min {counts.min()}, all even {bool(np.all(counts % 2 == 0))}, {elapsed:.2f} s")
    assert np.all(counts >= 4)
    assert np.all(counts % 2 == 0)
    assert elapsed < 10.0


def test_criterion_08_convex_planar_dual(radial_500):
    convex = 0
    matched = 0
    for inst in radial_500:
        y, v = dual_planar_parts(dual_pair(radial_pair(inst)))
        if is_convex(y):
            convex += 1
        flats = flattening_nodes(radial_pair(inst))
        verts = planar_vertices(y, v)  # raises NotExact unless v' = -b y' on every edge
        if verts == flats and len(verts) >= 4:
            matched += 1
    ok = convex == 500 and matched == 500
    report(8, "planar dual convex + vertices", ok, f"convex {convex}/500, matched {matched}/500")
    assert convex == 500
    assert matched == 500


def test_criterion_09_pedal_chain():
    worst_pedal = 0.0
    worst_round = 0.0
    constant = 0
    for i in range(200):
        n = int(np.random.default_rng([50, i, 0]).integers(5, 21))
        pp = random_planar_pair(GenConfig(seed=[50, i, 1], n=n))
        res = cylindrical_pedal(pp)
        D = dual_pair(lift(pp))
        worst_pedal = max(worst_pedal, rel_err(res.Y.values, D.Y.values))
        pair = FramedPolygon(NodeSeq(res.Y.values), NodeSeq(np.tile(E3, (n, 1))))
        flag, _ = is_constant_curvature(pair)
        constant += bool(flag)
        back = unpedal(res.Y, E3)
        worst_round = max(worst_round, rel_err(back.x.values, pp.x.values),
                          rel_err(back.u.values, pp.u.values))

    lifted_ok = 0
    worst_dualvol = 0.0
    for i in range(50):
        n = int(np.random.default_rng([60, i, 0]).integers(5, 13))
        x = random_equal_area_polygon(GenConfig(seed=[60, i, 1], n=n))
        pp = PlanarPair(x, second_diff(x))
        L = lift(pp)
        if is_equal_volume(L.X) and is_unimodular(L):
            lifted_ok += 1
        D = dual_pair(L)
        worst_dualvol = max(
            worst_dualvol,
            float(np.max(np.abs(dual_alpha_values(D) - 1.0))),
            float(np.max(np.abs(dual_beta_values(D) - 1.0))),
        )
    ok = (worst_pedal <= TOL and worst_round <= TOL and constant == 200
          and lifted_ok == 50 and worst_dualvol <= TOL)
    report(9, "pedal chain", ok,
           f"pedal=dual {worst_pedal:.2e}, roundtrip {worst_round:.2e}, "
           f"constant {constant}/200, lifted {lifted_ok}/50, dual volumes {worst_dualvol:.2e}")
    assert worst_pedal <= TOL
    assert worst_round <= TOL
    assert constant == 200
    assert lifted_ok == 50
    assert worst_dualvol <= TOL


def test_criterion_10_equal_volume_suite():
    # the instances of generate --kind equal-volume: unit node volumes and a
    # parallel unimodular field
    worst_vol = 0.0
    worst_unimod = 0.0
    for i in range(50):
        n = int(np.random.default_rng([80, i, 0]).integers(5, 13))
        X, U = random_equal_volume_polygon(GenConfig(seed=[80, i, 1], n=n))
        P = FramedPolygon(X, U)
        curvature_b(P)  # parallel or raises
        worst_vol = max(worst_vol, float(np.max(np.abs(P.alpha_values - 1.0))))
        worst_unimod = max(worst_unimod, float(np.max(np.abs(P.beta_values - 1.0))))
    ok = max(worst_vol, worst_unimod) <= TOL
    report(10, "equal-volume suite", ok,
           f"unit volumes {worst_vol:.2e}, unimodular {worst_unimod:.2e}, parallel 50/50")
    assert worst_vol <= TOL
    assert worst_unimod <= TOL


def test_criterion_11_equivariance():
    rng = np.random.default_rng(123)
    worst = 0.0
    sets_ok = 0
    for i in range(50):
        n = int(np.random.default_rng([90, i, 0]).integers(5, 21))
        P = random_framed_polygon(GenConfig(seed=[90, i, 1], n=n))
        assert delta_identity_residual(P) <= TOL
        flats, verts = flattening_nodes(P), vertex_edges(P)
        good = True
        for _ in range(20):
            M = random_unimodular_matrix(rng)
            Q = FramedPolygon(NodeSeq(P.X.values @ M.T), NodeSeq(P.U.values @ M.T))
            assert delta_identity_residual(Q) <= TOL
            for f in (alpha, beta, curvature_b, lambda_coeff, delta):
                a, b = f(P).values, f(Q).values
                worst = max(worst, float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a)))))
            good = good and flattening_nodes(Q) == flats and vertex_edges(Q) == verts
        sets_ok += bool(good)
    ok = worst <= TOL and sets_ok == 50
    report(11, "centroaffine equivariance", ok, f"max rel dev {worst:.2e}, sets {sets_ok}/50")
    assert worst <= TOL
    assert sets_ok == 50
