"""The dual pair of a framed polygon and its identity checks.

Given a framed polygon (X, U) about the origin, the dual pair (Y, V) is the
unique edge-indexed polygon and field satisfying, per edge,

    Y . X' = 0,  Y . U(i) = 1,  Y . X(i) = 0,
    V . X' = 0,  V . U(i) = 0,  V . X(i) = 1.

Closed forms: beta Y = X(i) x X(i+1) and beta V = X'(i+1/2) x U(i).  The
construction is involutive: dualizing the edge-indexed pair with the node
convention X(i) from Y(i-1/2), Y(i+1/2) lands back on (X, U) with no index
shift.  That convention is used throughout this module.  ``dual_of_dual``
builds the pair back without checking it; ``involution_error`` measures
how far it lies from the source polygon.

The dual curvature satisfies b(Y,V) = sigma * lambda(X,U) for a single
global sign sigma; this implementation measures sigma instead of assuming
it, and the test suite pins its observed value.

Every function here that verify runs takes a stack of polygons as well as
one polygon (see ``cyclic.Segments``): the dual pair of a stack is the
stack of the dual pairs, and a per-polygon result comes back as a list with
one entry per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclic import (
    DEFAULT_TOL,
    EdgeSeq,
    NodeSeq,
    Segments,
    ToleranceConfig,
    cross3,
    det3,
    row_norms,
)
from .errors import DegenerateSign, DualityResidual, NotGeneric
from .invariants import (
    FramedPolygon,
    _alpha_values,
    _not_tangential,
    _tangential_fit,
    _tangential_verdict,
)


@dataclass(frozen=True)
class DualPair:
    """Edge-indexed dual polygon Y with its transversal field V, and arrays derived from them."""

    Y: EdgeSeq
    V: EdgeSeq

    @property
    def segments(self) -> Segments:
        return self.Y.segments

    @cached_property
    def increments(self) -> tuple[np.ndarray, np.ndarray]:
        """(V'(i), Y'(i)) in slot i, the increments across the dual edges."""
        Yv, Vv, seg = self.Y.values, self.V.values, self.segments
        return Vv - seg.prev(Vv), Yv - seg.prev(Yv)

    @cached_property
    def beta_values(self) -> np.ndarray:
        """beta(Y,V)(i) = [Y(i-1/2), Y(i+1/2), V(i+1/2)] in slot i."""
        Yv = self.Y.values
        return det3(self.segments.prev(Yv), Yv, self.V.values)

    @cached_property
    def curvature_fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The ``_tangential_fit`` of V' = -b(Y,V) Y'."""
        Yv, Vv, seg = self.Y.values, self.V.values, self.segments
        return _tangential_fit(seg.prev(Vv), Vv, seg.prev(Yv), Yv)


@dataclass(frozen=True)
class DualReport:
    """Residuals of the dual volume identities and the measured curvature sign; per segment for a stack."""

    beta_dual_residual: float
    alpha_dual_residual: float
    v_parallel_residual: float
    sign_sigma: int
    sigma_fit_residual: float


# The defining relations in checking order.  The first six hold for every
# transversal field; the last four, at the far node of each edge, need U
# parallel.
_RELATION_NAMES = (
    "Y . X'", "Y . U", "Y . X", "V . X'", "V . U", "V . X",
    "Y . U+", "Y . X+", "V . U+", "V . X+",
)
# Required value of (Y, V) dotted with (X', U, X, U+, X+); all are
# nonnegative, so they double as their own magnitudes in the bound.
_RELATION_WANT = np.array([[0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 1.0]])[:, :, None]


def dual_pair(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> DualPair:
    """Construct (Y, V) by the cross-product closed forms and verify the incidences.

    The six defining dot products are always checked.  The four relations at
    the far node (Y.U(i+1) = 1, Y.X(i+1) = 0, V.U(i+1) = 0, V.X(i+1) = 1)
    hold when U is parallel and are checked in that case only.  All checked
    relations are evaluated at once; an error names the first failing one,
    in the order Y.X', Y.U, Y.X, V.X', V.U, V.X, then the far-node four.
    """
    seg = P.segments
    r, r_next, e = P.X.values, P.nodes_next, P.edge_vectors
    u = P.U.values
    duals = cross3(np.array((r, e)), np.array((r_next, u))) / P.beta_values[:, None]
    Yv, Vv = duals

    partners = np.array((e, u, r, P.field_next, r_next))
    got = np.einsum("dij,pij->dpi", duals, partners)
    norms = row_norms(np.array((r, u, Yv, Vv)))
    tops = seg.max(norms[:2])
    bound = tol.tol_residual * (norms[2:, None, :] * seg.spread(tops[0] + tops[1]) + _RELATION_WANT)
    # per (Y, V), partner and segment
    excess = seg.max(np.abs(got - _RELATION_WANT) - bound)
    nonparallel = seg.max(_not_tangential(P.curvature_fit, tol))
    if seg.first(nonparallel) is not None:  # the far-node relations are checked where U is parallel
        excess[:, 3:, nonparallel] = -np.inf
    s = seg.first((excess > 0.0).any(axis=(0, 1)))
    if s is not None:
        # rows are (Y, V); put the six near-node relations before the far ones
        worst = np.concatenate((excess[:, :3, s].ravel(), excess[:, 3:, s].ravel()))
        j = int(np.argmax(worst > 0.0))
        raise DualityResidual(f"defining relation {_RELATION_NAMES[j]} failed by {worst[j]:.3e}").at(s)
    return DualPair(EdgeSeq.on(Yv, seg), EdgeSeq.on(Vv, seg))


def dual_beta_values(D: DualPair) -> np.ndarray:
    """beta(Y,V)(i) = [Y(i-1/2), Y(i+1/2), V(i+1/2)], slot i."""
    return D.beta_values


def dual_alpha_values(D: DualPair) -> np.ndarray:
    """alpha(Y)(k+1/2) = [Y(k-1/2), Y(k+1/2), Y(k+3/2)], slot k."""
    return _alpha_values(D.Y.values, D.segments)


def dual_curvature(D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """b(Y,V)(i) with V'(i) = -b(Y,V)(i) Y'(i); indexed by the dual edges (integers)."""
    return _tangential_verdict(D.curvature_fit, D.segments, tol)


def _dual_curvature_jumps(D: DualPair, tol: ToleranceConfig) -> np.ndarray:
    """b(Y,V)' at the dual nodes: slot j holds b(Y,V)(j+1) - b(Y,V)(j), the value at j+1/2."""
    b_dual = dual_curvature(D, tol)
    return D.segments.next(b_dual) - b_dual


def dual_invariants(P: FramedPolygon, D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> DualReport:
    """Check the product formulas for the dual volumes and measure sigma.

    beta(Y,V)(i) must equal alpha(i) / (beta(i-1/2) beta(i+1/2)) and
    alpha(Y)(i+1/2) must equal alpha(i) alpha(i+1) / (beta(i-1/2) beta(i+1/2)
    beta(i+3/2)).  V' is checked to be parallel to Y', and the global sign
    sigma minimizing max |b(Y,V) - sigma lambda| is fitted.

    The products of two alphas or three betas can leave the floating-point
    range while the quotients do not, so they are formed from the mantissas
    of ``np.frexp`` and the binary exponents are put back with ``np.ldexp``.
    Scaling by a power of two is exact, so in range this rounds exactly as
    the plain quotients do.
    """
    seg = P.segments
    a, ea = np.frexp(P.alpha_values)
    b, eb = np.frexp(P.beta_values)
    b_prev, eb_prev = seg.prev(b), seg.prev(eb)
    b_next, eb_next = seg.next(b), seg.next(eb)
    bd = dual_beta_values(D)
    bd_expect = np.ldexp(a / (b_prev * b), ea - eb_prev - eb)
    ad = dual_alpha_values(D)
    ad_expect = np.ldexp(
        a * seg.next(a) / (b_prev * b * b_next),
        ea + seg.next(ea) - eb_prev - eb - eb_next,
    )

    def rel(got, want):
        scale = np.maximum(np.maximum(seg.max(np.abs(got)), seg.max(np.abs(want))), 1e-300)
        return seg.max(np.abs(got - want)) / scale

    dV, dY = D.increments
    crossnorm = row_norms(cross3(dV, dY))
    denom = row_norms(dV) * row_norms(dY)
    parallel_resid = seg.max(crossnorm / np.where(denom == 0.0, 1.0, denom))

    b_dual = dual_curvature(D, tol)
    lam = P.lambda_values
    lam_scale = np.maximum(1.0, seg.max(np.abs(lam)))
    dev_plus, dev_minus = seg.max(np.abs(b_dual - lam)), seg.max(np.abs(b_dual + lam))
    plus = dev_plus <= dev_minus
    return DualReport(
        beta_dual_residual=seg.unstack(rel(bd, bd_expect).tolist()),
        alpha_dual_residual=seg.unstack(rel(ad, ad_expect).tolist()),
        v_parallel_residual=seg.unstack(parallel_resid.tolist()),
        sign_sigma=seg.unstack(np.where(plus, 1, -1).tolist()),
        sigma_fit_residual=seg.unstack((np.where(plus, dev_plus, dev_minus) / lam_scale).tolist()),
    )


def dual_of_dual(D: DualPair) -> FramedPolygon:
    """Dualize an edge-indexed pair back to a node-indexed framed polygon.

    X(i) is built from Y(i-1/2), Y(i+1/2) so the involution lands on the
    original index set with no shift.  The result is not checked here;
    ``involution_error`` compares it with the polygon D came from.
    """
    seg = D.segments
    Yv, Vv = D.Y.values, D.V.values
    bd = D.beta_values[:, None]
    Xv, Uv = cross3(np.array((seg.prev(Yv), D.increments[1])), np.array((Yv, seg.prev(Vv)))) / bd
    return FramedPolygon(NodeSeq.on(Xv, seg), NodeSeq.on(Uv, seg))


def involution_error(P: FramedPolygon, back: FramedPolygon) -> float:
    """How far ``back``, P dualized twice, lies from P.

    The larger of the deviations in X and in U, each relative to the
    largest entry of P's array, or to 1 when that is smaller.
    """
    seg = P.segments
    err_x, err_u = (
        seg.peak(np.abs(got - want)) / np.maximum(1.0, seg.peak(np.abs(want)))
        for got, want in ((back.X.values, P.X.values), (back.U.values, P.U.values))
    )
    return seg.unstack(np.maximum(err_x, err_u).tolist())


@dataclass(frozen=True)
class CoplanarityReport:
    """Edgewise comparison of node coplanarity with dual normal-line concurrency.

    For a stack of polygons each field holds one tuple per segment.
    """

    coplanar: tuple[bool, ...]
    concurrent: tuple[bool, ...]


def coplanarity_concurrency_check(
    P: FramedPolygon, D: DualPair, tol: ToleranceConfig = DEFAULT_TOL
) -> CoplanarityReport:
    """Compare Delta(i+1/2) = 0 with concurrency of the normal lines of D, the dual of P.

    Concurrency of the three dual normal lines around dual edge i is decided
    by the curvature-equality criterion b(Y,V)(i) = b(Y,V)(i+1), not by
    intersecting lines in floating point.
    """
    seg = P.segments
    _tangential_verdict(P.curvature_fit, seg, tol)  # the correspondence needs a parallel field
    coplanar = seg.signs(P.delta_values, tol) == 0
    concurrent = seg.signs(_dual_curvature_jumps(D, tol), tol) == 0
    return CoplanarityReport(
        coplanar=seg.unstack([tuple(part) for part in seg.parts(coplanar)]),
        concurrent=seg.unstack([tuple(part) for part in seg.parts(concurrent)]),
    )


def dual_vertex_edges(D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Vertices of the dual pair: dual edges i where b(Y,V)' changes sign across i."""
    seg = D.segments
    jumps = _dual_curvature_jumps(D, tol)
    try:
        flips = seg.sign_flips(jumps, tol)
    except DegenerateSign as exc:
        raise NotGeneric("a dual curvature difference has no strict sign").at(exc.segment) from exc
    return seg.unstack(seg.nodes_after(flips))
