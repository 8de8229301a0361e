"""Centroaffine invariants of a framed spatial polygon.

A framed polygon is a closed polygon X in 3-space, locally convex with
respect to the origin (0, 0, 0), together with a transversal vector field U
at the nodes.  The basic volumes are

    alpha(i)     = [X(i-1), X(i), X(i+1)]          node volumes, > 0
    beta(i+1/2)  = [X(i), X(i+1), U(i)]            edge volumes, > 0

U is *parallel* when its increments are tangential, U' = -b X'; the scalar
b(i+1/2) is the curvature of the edge.  lambda(i) is the coefficient that
pulls U back into the osculating plane span{X'(i+1/2), X''(i)}, and
Delta(i+1/2) is the torsion-like volume of three consecutive edge vectors.
Vertices are edges where b' changes sign, flattening points are nodes where
Delta changes sign.

All functions are pure; polygons and sequences are immutable values.
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
    cyclic_sign_changes,
    det3,
    row_norms,
    shift_next,
    shift_prev,
    sign_change_nodes,
    strict_signs,
)
from .errors import (
    DegenerateSign,
    IdentityCheckFailed,
    NonTransversal,
    NotGeneric,
    NotLocallyConvex,
    NotParallel,
)


def _tangential_fit(df: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least-squares b with df = -b dg slotwise, the residual |df + b dg| and its scale.

    The scale |df| + |b| |dg| weighs both factors, so it stays meaningful
    when single components of dg vanish.  A zero row of dg makes b, and so
    the residual, NaN in that slot; dividing by NaN there instead of by 0
    keeps the 0/0 from warning.
    """
    dg_sq = np.einsum("ij,ij->i", dg, dg)
    b = -np.einsum("ij,ij->i", df, dg) / np.where(dg_sq == 0.0, np.nan, dg_sq)
    resid, df_norm, dg_norm = row_norms(np.array((df + b[:, None] * dg, df, dg)))
    return b, resid, df_norm + np.abs(b) * dg_norm


def _tangential_verdict(fit: tuple, tol: ToleranceConfig) -> np.ndarray:
    """b of a ``_tangential_fit``, or NotParallel when a residual is not within tol_residual times its scale.

    A NaN residual, from an edge increment that is zero or whose square is
    out of floating-point range, fails its bound with an error saying so.
    """
    b, resid, scale = fit
    bound = tol.tol_residual * scale
    bad = ~(resid <= bound)
    k = int(bad.argmax())
    if bad[k]:
        if np.isnan(resid[k]):
            raise NotParallel(
                f"increment at edge slot {k} has no tangential fit "
                "(the edge increment is zero or out of range)"
            )
        raise NotParallel(
            f"increment at edge slot {k} is not tangential "
            f"(residual {resid[k]:.3e} > bound {bound[k]:.3e})"
        )
    return b


def tangential_ratio(df: np.ndarray, dg: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Extract b with df = -b dg slotwise, or raise NotParallel."""
    return _tangential_verdict(_tangential_fit(df, dg), tol)


def _alpha_values(r: np.ndarray) -> np.ndarray:
    return det3(shift_prev(r), r, shift_next(r))


def _delta_values(x: np.ndarray) -> np.ndarray:
    e = shift_next(x) - x
    return det3(shift_next(e), e, shift_prev(e))


class FramedPolygon:
    """A locally convex closed polygon with a transversal node field.

    Construction validates alpha(i) > 0 and beta(i+1/2) > 0.  Input whose
    alpha is negative at every node is accepted and silently reoriented by
    reversing the node order; mixed signs are rejected.

    X is taken about the origin (0, 0, 0); a document with another origin
    has it subtracted when it is read.  The arrays every invariant starts
    from are computed here, once: the shifted nodes ``nodes_next`` (X(k+1)
    in slot k), and the volumes ``alpha_values`` and ``beta_values``.
    Further derived arrays are kept on the instance when first asked for; X
    and U are immutable, so none of them can go stale.  None of them depends
    on a tolerance: every verdict is taken per call from these arrays.
    """

    __slots__ = ("X", "U", "__dict__")

    def __init__(self, X: NodeSeq, U: NodeSeq):
        if not isinstance(X, NodeSeq) or not isinstance(U, NodeSeq):
            raise TypeError("X and U must be NodeSeq instances")
        if X.values.ndim != 2 or X.values.shape[1] != 3:
            raise ValueError("X must hold 3-vectors")
        if U.values.shape != X.values.shape:
            raise ValueError("U must hold one 3-vector per node")
        r = X.values
        a = _alpha_values(r)
        if not a.min() > 0.0:
            if (a < 0.0).all():
                X = NodeSeq(X.values[::-1])
                U = NodeSeq(U.values[::-1])
                r = X.values
                a = _alpha_values(r)
            if not (a > 0.0).all():
                raise NotLocallyConvex(
                    f"alpha is not positive at node slot {int(np.argmin(a))}"
                )
        self.X = X
        self.U = U
        self.nodes_next = r_next = shift_next(r)
        self.alpha_values = a
        self.beta_values = b = det3(r, r_next, U.values)
        if not b.min() > 0.0:
            raise NonTransversal(f"beta is not positive at edge slot {int(np.argmin(b))}")

    @property
    def n(self) -> int:
        return self.X.n

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """X'(k+1/2) in slot k."""
        return self.nodes_next - self.X.values

    @cached_property
    def second_diffs(self) -> np.ndarray:
        """X''(i) in slot i."""
        e = self.edge_vectors
        return e - shift_prev(e)

    @cached_property
    def field_next(self) -> np.ndarray:
        """U(k+1) in slot k."""
        return shift_next(self.U.values)

    @cached_property
    def curvature_fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``_tangential_fit`` of U' = -b X': b, |U' + b X'| and |U'| + |b| |X'| per edge slot."""
        return _tangential_fit(self.field_next - self.U.values, self.edge_vectors)

    @cached_property
    def delta_values(self) -> np.ndarray:
        """Delta(k+1/2) in slot k."""
        return _delta_values(self.X.values)

    @cached_property
    def osculating_dets(self) -> np.ndarray:
        """[X', X'', X](i) and [X', X'', U](i) in slot i, stacked."""
        return det3(self.edge_vectors, self.second_diffs, np.array((self.X.values, self.U.values)))

    def __repr__(self):
        return f"FramedPolygon(n={self.n})"


def alpha(P: FramedPolygon) -> NodeSeq:
    """Node volumes alpha(i) = [X(i-1), X(i), X(i+1)] about the origin."""
    return NodeSeq(P.alpha_values)


def beta(P: FramedPolygon) -> EdgeSeq:
    """Edge volumes beta(i+1/2) = [X(i), X(i+1), U(i)] about the origin."""
    return EdgeSeq(P.beta_values)


def curvature_b(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> EdgeSeq:
    """Edge curvatures of a parallel field: U' = -b X'."""
    return EdgeSeq(_tangential_verdict(P.curvature_fit, tol))


def _lambda_values(P: FramedPolygon, tol: ToleranceConfig) -> np.ndarray:
    den, num = P.osculating_dets
    a = P.alpha_values
    scale = float(np.abs(a).max())
    if np.abs(den - a).max() > tol.tol_residual * scale:
        raise IdentityCheckFailed("[X', X'', X] failed to reproduce alpha")
    return num / a


def lambda_coeff(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> NodeSeq:
    """Osculating coefficients lambda(i) with [X', X'', -lambda X + U] = 0.

    Solved in closed form as [X', X'', U] / alpha(i); the denominator
    [X', X'', X] expands to exactly alpha(i), which is re-checked here, so
    local convexity guarantees well-posedness.
    """
    return NodeSeq(_lambda_values(P, tol))


def _delta_of(poly) -> np.ndarray:
    return poly.delta_values if isinstance(poly, FramedPolygon) else _delta_values(poly.values)


def delta(poly) -> EdgeSeq:
    """Torsion volumes Delta(i+1/2) = [X(i+2)-X(i+1), X(i+1)-X(i), X(i)-X(i-1)].

    Accepts a FramedPolygon or a bare NodeSeq of 3-vectors; only differences
    enter, so a translation of X leaves Delta unchanged.
    """
    return EdgeSeq(_delta_of(poly))


def is_generic(poly, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when every Delta has a strict sign under the dead-band."""
    return bool((strict_signs(_delta_of(poly), tol) != 0).all())


def flattening_nodes(poly, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Nodes i where Delta(i-1/2) * Delta(i+1/2) < 0.

    Requires a generic polygon.  When the input is a framed polygon with a
    parallel field, the equivalent criterion through sign changes of
    lambda' is evaluated as a cross-check.
    """
    try:
        nodes = sign_change_nodes(_delta_of(poly), tol)
    except DegenerateSign as exc:
        raise NotGeneric(str(exc)) from exc
    if isinstance(poly, FramedPolygon):
        try:
            lam = _lambda_values(poly, tol)
            _tangential_verdict(poly.curvature_fit, tol)
            lam_nodes = sign_change_nodes(shift_next(lam) - lam, tol)
        except (NotParallel, IdentityCheckFailed, DegenerateSign):
            return nodes
        if lam_nodes != nodes:
            raise IdentityCheckFailed(
                f"flattening sets disagree: Delta {nodes} vs lambda' {lam_nodes}"
            )
    return nodes


def vertex_edges(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Edges (i+1/2) where b'(i) * b'(i+1) < 0, for a parallel field."""
    b = _tangential_verdict(P.curvature_fit, tol)
    _, junctions = cyclic_sign_changes(b - shift_prev(b), tol)
    return sorted(junctions)


@dataclass(frozen=True)
class FocalPoint:
    """Meet of two consecutive normal lines; at infinity when the edge curvature vanishes."""

    kind: str  # "finite" or "at_infinity"
    position: np.ndarray | None = None
    direction: np.ndarray | None = None


def focal_points(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> list[FocalPoint]:
    """Focal points E(i+1/2) = X(i) + U(i)/b(i+1/2), one per edge slot.

    Positions are taken about the origin (0, 0, 0), like X.  Edges whose
    curvature has no strict sign yield the common direction U(i) instead:
    the two normal lines are parallel and meet at infinity.
    """
    b = _tangential_verdict(P.curvature_fit, tol)
    signs = strict_signs(b, tol)
    r, u = P.X.values, P.U.values
    r_next, u_next = P.nodes_next, P.field_next
    out: list[FocalPoint] = []
    scale = float(np.max(row_norms(r)) + np.max(row_norms(u)))
    for k in range(P.n):
        if signs[k] == 0:
            out.append(FocalPoint("at_infinity", direction=u[k].copy()))
            continue
        e1 = r[k] + u[k] / b[k]
        e2 = r_next[k] + u_next[k] / b[k]
        if np.linalg.norm(e1 - e2) > tol.tol_residual * max(scale, np.linalg.norm(e1)):
            raise IdentityCheckFailed(
                f"the two focal expressions disagree at edge slot {k}"
            )
        out.append(FocalPoint("finite", position=e1))
    return out


def is_constant_curvature(
    P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Detect a constant-curvature pair and return the constant witness field.

    For b identically zero the witness is U itself (all normal lines are
    parallel); otherwise it is the common focal point.  Returns (False, None)
    when b varies.
    """
    u = P.U.values
    du = P.field_next - u
    if np.max(row_norms(du)) <= tol.tol_sign * np.max(row_norms(u)):
        return True, u[0].copy()
    b = _tangential_verdict(P.curvature_fit, tol)
    bmax = float(np.max(np.abs(b)))
    if np.max(np.abs(b - b.mean())) > tol.tol_residual * bmax:
        return False, None
    witness = P.X.values[0] + u[0] / b[0]
    return True, witness


def delta_identity_residual(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Relative residual of beta * Delta = lambda' * alpha(i) * alpha(i+1).

    A validation diagnostic: the identity holds exactly for any framed
    polygon with a parallel field, so the residual measures numerical noise.
    """
    _tangential_verdict(P.curvature_fit, tol)  # parallelism gate
    lhs = P.beta_values * P.delta_values
    lam = _lambda_values(P, tol)
    rhs = (shift_next(lam) - lam) * P.alpha_values * shift_next(P.alpha_values)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def is_equal_volume(X: NodeSeq, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when alpha(i) = 1 at every node, within tol_residual."""
    a = _alpha_values(X.values)
    return bool(np.max(np.abs(a - 1.0)) <= tol.tol_residual * max(1.0, float(np.max(np.abs(a)))))


def is_unimodular(P: FramedPolygon, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when beta(i+1/2) = 1 at every edge, within tol_residual."""
    b = P.beta_values
    return bool(np.max(np.abs(b - 1.0)) <= tol.tol_residual * max(1.0, float(np.max(np.abs(b)))))


def reframe(P: FramedPolygon, c: float, d: float) -> FramedPolygon:
    """Replace U by c X + d U.

    Parallelism is preserved and the curvature transforms as b -> d b - c;
    d must be positive to keep the field transversal.
    """
    if d <= 0.0:
        raise NonTransversal("reframing needs a positive coefficient on U")
    U = NodeSeq(c * P.X.values + d * P.U.values)
    return FramedPolygon(P.X, U)
