"""The dual pair of a framed polygon and its identity checks.

Given a framed polygon (X, U) about the origin, the dual pair (Y, V) is the
unique edge-indexed polygon and field satisfying, per edge,

    Y . X' = 0,  Y . U(i) = 1,  Y . X(i) = 0,
    V . X' = 0,  V . U(i) = 0,  V . X(i) = 1.

Closed forms: beta Y = X(i) x X(i+1) and beta V = X'(i+1/2) x U(i).  The
construction is involutive: dualizing the edge-indexed pair with the node
convention X(i) from Y(i-1/2), Y(i+1/2) lands back on (X, U) with no index
shift.  That convention is used throughout this module.

The dual curvature satisfies b(Y,V) = sigma * lambda(X,U) for a single
global sign sigma; this implementation measures sigma instead of assuming
it, and the test suite pins its observed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclic import (
    DEFAULT_TOL,
    EdgeSeq,
    NodeSeq,
    ToleranceConfig,
    cross3,
    det3,
    row_norms,
    shift_next,
    shift_prev,
    sign_change_nodes,
    strict_signs,
)
from .errors import DegenerateSign, DualityResidual, NotGeneric, NotParallel
from .invariants import (
    FramedPolygon,
    _alpha_values,
    _lambda_values,
    _tangential_fit,
    _tangential_verdict,
)


@dataclass(frozen=True)
class DualPair:
    """Edge-indexed dual polygon Y with its transversal field V, and arrays derived from them."""

    Y: EdgeSeq
    V: EdgeSeq

    @cached_property
    def increments(self) -> tuple[np.ndarray, np.ndarray]:
        """(V'(i), Y'(i)) in slot i, the increments across the dual edges."""
        Yv, Vv = self.Y.values, self.V.values
        return Vv - shift_prev(Vv), Yv - shift_prev(Yv)

    @cached_property
    def curvature_fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``_tangential_fit`` of V' = -b(Y,V) Y'."""
        return _tangential_fit(*self.increments)


@dataclass(frozen=True)
class DualReport:
    """Residuals of the dual volume identities and the measured curvature sign."""

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
    r, r_next, e = P.X.values, P.nodes_next, P.edge_vectors
    u = P.U.values
    duals = cross3(np.array((r, e)), np.array((r_next, u))) / P.beta_values[:, None]
    Yv, Vv = duals

    try:
        _tangential_verdict(P.curvature_fit, tol)
    except NotParallel:
        partners = np.array((e, u, r))
    else:
        partners = np.array((e, u, r, P.field_next, r_next))
    want = _RELATION_WANT[:, : len(partners)]
    got = np.einsum("dij,pij->dpi", duals, partners)
    norms = row_norms(np.array((r, u, Yv, Vv)))
    r_top, u_top = norms[:2].max(axis=1)
    bound = tol.tol_residual * (norms[2:, None, :] * float(r_top + u_top) + want)
    excess = (np.abs(got - want) - bound).max(axis=2)
    if (excess > 0.0).any():
        # rows are (Y, V); put the six near-node relations before the far ones
        excess = np.concatenate((excess[:, :3].ravel(), excess[:, 3:].ravel()))
        j = int(np.argmax(excess > 0.0))
        raise DualityResidual(f"defining relation {_RELATION_NAMES[j]} failed by {excess[j]:.3e}")
    return DualPair(EdgeSeq(Yv), EdgeSeq(Vv))


def dual_beta_values(D: DualPair) -> np.ndarray:
    """beta(Y,V)(i) = [Y(i-1/2), Y(i+1/2), V(i+1/2)], slot i."""
    Yv, Vv = D.Y.values, D.V.values
    return det3(shift_prev(Yv), Yv, Vv)


def dual_alpha_values(D: DualPair) -> np.ndarray:
    """alpha(Y)(k+1/2) = [Y(k-1/2), Y(k+1/2), Y(k+3/2)], slot k."""
    return _alpha_values(D.Y.values)


def dual_curvature(D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """b(Y,V)(i) with V'(i) = -b(Y,V)(i) Y'(i); indexed by the dual edges (integers)."""
    return _tangential_verdict(D.curvature_fit, tol)


def _dual_curvature_jumps(D: DualPair, tol: ToleranceConfig) -> np.ndarray:
    """b(Y,V)' at the dual nodes: slot j holds b(Y,V)(j+1) - b(Y,V)(j), the value at j+1/2."""
    b_dual = dual_curvature(D, tol)
    return shift_next(b_dual) - b_dual


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
    a, ea = np.frexp(P.alpha_values)
    b, eb = np.frexp(P.beta_values)
    b_prev, eb_prev = shift_prev(b), shift_prev(eb)
    bd = dual_beta_values(D)
    bd_expect = np.ldexp(a / (b_prev * b), ea - eb_prev - eb)
    ad = dual_alpha_values(D)
    ad_expect = np.ldexp(
        a * shift_next(a) / (b_prev * b * shift_next(b)),
        ea + shift_next(ea) - eb_prev - eb - shift_next(eb),
    )

    def rel(got, want):
        scale = max(float(np.max(np.abs(got))), float(np.max(np.abs(want))), 1e-300)
        return float(np.max(np.abs(got - want)) / scale)

    dV, dY = D.increments
    crossnorm = row_norms(cross3(dV, dY))
    denom = row_norms(dV) * row_norms(dY)
    parallel_resid = float(np.max(crossnorm / np.where(denom == 0.0, 1.0, denom)))

    b_dual = dual_curvature(D, tol)
    lam = _lambda_values(P, tol)
    lam_scale = max(1.0, float(np.max(np.abs(lam))))
    dev = {s: float(np.max(np.abs(b_dual - s * lam))) for s in (1, -1)}
    sigma = min(dev, key=dev.get)
    return DualReport(
        beta_dual_residual=rel(bd, bd_expect),
        alpha_dual_residual=rel(ad, ad_expect),
        v_parallel_residual=parallel_resid,
        sign_sigma=sigma,
        sigma_fit_residual=dev[sigma] / lam_scale,
    )


def dual_of_dual(D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> FramedPolygon:
    """Dualize an edge-indexed pair back to a node-indexed framed polygon.

    X(i) is built from Y(i-1/2), Y(i+1/2) so the involution lands on the
    original index set with no shift.  The result is validated by checking
    that its own dual reproduces (Y, V).
    """
    Yv, Vv = D.Y.values, D.V.values
    Y_prev = shift_prev(Yv)
    bd = det3(Y_prev, Yv, Vv)[:, None]  # dual_beta_values(D)
    Xv, Uv = cross3(np.array((Y_prev, Yv - Y_prev)), np.array((Yv, shift_prev(Vv)))) / bd
    P = FramedPolygon(NodeSeq(Xv), NodeSeq(Uv))
    back = dual_pair(P, tol)
    pair = np.array((Yv, Vv))
    scale = float(np.abs(pair).max())
    err = float(np.abs(np.array((back.Y.values, back.V.values)) - pair).max())
    if err > tol.tol_residual * scale:
        raise DualityResidual(f"dual of the reconstructed pair deviates by {err:.3e}")
    return P


def involution_error(P: FramedPolygon, back: FramedPolygon) -> float:
    """How far ``back``, P dualized twice, lies from P.

    The larger of the deviations in X and in U, each relative to the
    largest entry of P's array, or to 1 when that is smaller.
    """
    return max(
        float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        for got, want in ((back.X.values, P.X.values), (back.U.values, P.U.values))
    )


@dataclass(frozen=True)
class CoplanarityReport:
    """Edgewise comparison of node coplanarity with dual normal-line concurrency."""

    coplanar: tuple[bool, ...]
    concurrent: tuple[bool, ...]

    @property
    def agreement(self) -> tuple[bool, ...]:
        return tuple(c == k for c, k in zip(self.coplanar, self.concurrent))


def coplanarity_concurrency_check(
    P: FramedPolygon, D: DualPair, tol: ToleranceConfig = DEFAULT_TOL
) -> CoplanarityReport:
    """Compare Delta(i+1/2) = 0 with concurrency of the normal lines of D, the dual of P.

    Concurrency of the three dual normal lines around dual edge i is decided
    by the curvature-equality criterion b(Y,V)(i) = b(Y,V)(i+1), not by
    intersecting lines in floating point.
    """
    _tangential_verdict(P.curvature_fit, tol)  # the correspondence needs a parallel field
    coplanar = strict_signs(P.delta_values, tol) == 0
    concurrent = strict_signs(_dual_curvature_jumps(D, tol), tol) == 0
    return CoplanarityReport(
        coplanar=tuple(bool(x) for x in coplanar),
        concurrent=tuple(bool(x) for x in concurrent),
    )


def dual_vertex_edges(D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Vertices of the dual pair: dual edges i where b(Y,V)' changes sign across i."""
    try:
        return sign_change_nodes(_dual_curvature_jumps(D, tol), tol)
    except DegenerateSign as exc:
        raise NotGeneric("a dual curvature difference has no strict sign") from exc
