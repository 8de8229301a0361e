"""Planar parallel pairs, liftings, and the affine cylindrical pedal.

A planar pair (x, u) is a closed planar polygon with a transversal field u
whose increments are tangential, u' = -b x'.  Its lifting places the polygon
in the plane z = 1 with a horizontal field; the affine cylindrical pedal

    Y(i+1/2) = (y(i+1/2), -y(i+1/2) . x(i))

built from the co-normal y (y . x' = 0, y . u = 1) is exactly the dual of
the lifting, with the constant field E = (0, 0, 1) as dual field.  Pairs
(Y, E) with constant E are precisely the constant-curvature pairs, and
every such polygon is the pedal of a planar pair; ``unpedal`` inverts the
construction globally.

The module also carries the planar support used by the spatial flattening
machinery: convexity by winding index, exact fields and planar vertices.
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
    area2,
    as_vec3,
    cross3,
    det3,
)
from .duality import DualPair, dual_pair
from .errors import (
    DegenerateSign,
    DualityResidual,
    NonTransversal,
    NotExact,
    NotGeneric,
    NotPlanarDual,
)
from .invariants import (
    FramedPolygon,
    _not_tangential,
    _tangential_fit,
    _tangential_verdict,
)

# The vertical constant field E = (0, 0, 1), the dual field of every lifting.
E3 = np.array([0.0, 0.0, 1.0])
E3.setflags(write=False)

# Total-turning test for the winding index; the index is an integer so this
# only needs to separate 2*pi from its multiples.
TURNING_TOL = 1e-6


def vertical_field(n: int) -> NodeSeq:
    """The field E3 at each of n nodes."""
    return NodeSeq(np.tile(E3, (n, 1)))


class PlanarPair:
    """A planar polygon x with a transversal planar field u.

    Transversality means [x'(i+1/2), u(i)] > 0 on every edge.
    """

    __slots__ = ("x", "u", "__dict__")

    def __init__(self, x: NodeSeq, u: NodeSeq):
        if x.values.ndim != 2 or x.values.shape[1] != 2:
            raise ValueError("x must hold 2-vectors")
        if u.values.shape != x.values.shape:
            raise ValueError("u must hold one 2-vector per node")
        self.x = x
        self.u = u
        if not np.all(self.beta_values > 0.0):
            k = int(np.argmin(self.beta_values))
            raise NonTransversal(f"planar field is not transversal at edge slot {k}")

    @property
    def n(self) -> int:
        return self.x.n

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        return self.x.segments.next(self.x.values) - self.x.values

    @cached_property
    def beta_values(self) -> np.ndarray:
        """[x'(i+1/2), u(i)] in slot i."""
        return area2(self.edge_vectors, self.u.values)

    def __repr__(self):
        return f"PlanarPair(n={self.n})"


def planar_curvature(pp: PlanarPair, tol: ToleranceConfig = DEFAULT_TOL) -> EdgeSeq:
    """Edge curvatures of a parallel planar field: u' = -b x'."""
    seg = pp.x.segments
    u, x = pp.u.values, pp.x.values
    u_next, x_next = seg.next(u), seg.next(x)
    fit = _tangential_fit(u, u_next, x, x_next, u_next - u, x_next - x)
    return EdgeSeq.on(_tangential_verdict(fit, seg, tol), seg)


def co_normal(pp: PlanarPair) -> EdgeSeq:
    """Co-normal covectors y(i+1/2) with y . x' = 0 and y . u(i) = 1.

    Transversality makes the 2x2 system uniquely solvable; in closed form y
    is the quarter-turn of x' divided by [x', u].
    """
    e = pp.edge_vectors
    rot = np.stack([-e[:, 1], e[:, 0]], axis=1)
    return EdgeSeq(rot / pp.beta_values[:, None])


def lift(pp: PlanarPair) -> FramedPolygon:
    """Lift to the spatial pair X = (x, 1), U = (u, 0) about the origin.

    Local convexity of the lift is equivalent to positive consecutive
    edge-vector areas of x and is validated by the framed-polygon
    constructor; transversality carries over edge by edge.
    """
    n = pp.n
    X = NodeSeq(np.column_stack([pp.x.values, np.ones(n)]))
    U = NodeSeq(np.column_stack([pp.u.values, np.zeros(n)]))
    return FramedPolygon(X, U)


@dataclass(frozen=True)
class PedalResult:
    """Pedal polygon Y = (y, -y . x) with its planar co-normals and heights."""

    Y: EdgeSeq
    y: EdgeSeq
    heights: EdgeSeq


def cylindrical_pedal(pp: PlanarPair, tol: ToleranceConfig = DEFAULT_TOL) -> PedalResult:
    """Affine cylindrical pedal of a parallel planar pair.

    Compared with the dual of the lifting: the pedal with the constant
    field (0, 0, 1) must reproduce dual_pair(lift(pp)), whose construction
    validates the lifting's local convexity and transversality.  A pair
    with a constant field has constant curvature (b = 0), so that is not
    re-checked here.
    """
    planar_curvature(pp, tol)  # parallelism gate
    y = co_normal(pp).values
    heights = -np.einsum("ij,ij->i", y, pp.x.values)
    Yv = np.column_stack([y, heights])

    D = dual_pair(lift(pp), tol)
    scale = max(float(np.max(np.abs(Yv))), 1.0)
    if np.max(np.abs(D.Y.values - Yv)) > tol.tol_residual * scale:
        raise DualityResidual("pedal deviates from the dual of the lifting")
    if np.max(np.abs(D.V.values - E3)) > tol.tol_residual:
        raise DualityResidual("dual field of the lifting is not the vertical constant")
    return PedalResult(Y=EdgeSeq(Yv), y=EdgeSeq(y), heights=EdgeSeq(heights))


def constant_field_frame(E) -> np.ndarray:
    """A unimodular matrix whose third row is E, rows built by Gram-Schmidt.

    The first two rows orthonormalize the coordinate axes least aligned with
    E; one of them is rescaled so the determinant is exactly one.  For
    E = (0, 0, 1) this is the identity.
    """
    E = as_vec3(E)
    norm = np.linalg.norm(E)
    if norm == 0.0:
        raise ValueError("the constant field must be nonzero")
    ehat = E / norm
    first, second = np.argsort(np.abs(E), kind="stable")[:2]
    a = np.eye(3)[first] - np.dot(np.eye(3)[first], ehat) * ehat
    a /= np.linalg.norm(a)
    b = np.eye(3)[second] - np.dot(np.eye(3)[second], ehat) * ehat - np.dot(np.eye(3)[second], a) * a
    b /= np.linalg.norm(b)
    if np.dot(cross3(a, b), E) < 0.0:
        a, b = b, a
    M = np.stack([a / norm, b, E])
    return M


def unpedal(Y, E, tol: ToleranceConfig = DEFAULT_TOL) -> PlanarPair:
    """Recover the planar pair whose pedal is the polygon Y transversal to constant E.

    The dual of (Y, E) is a planar pair lying in the plane E . p = 1 with a
    field parallel to that plane; an affine normalization with unit
    determinant maps the plane to z = 1.  Accepts Y as either an EdgeSeq or
    a NodeSeq; slot k of the result pairs with slots (k-1, k) of Y, so
    pedals invert with no index shift.
    """
    E = as_vec3(E)
    Yv = Y.values if isinstance(Y, (NodeSeq, EdgeSeq)) else np.asarray(Y, dtype=float)
    seg = Segments.one(len(Yv))
    Y_prev = seg.prev(Yv)
    bd = det3(Y_prev, Yv, np.broadcast_to(E, Yv.shape))
    if np.all(bd < 0.0):
        Yv = Yv[::-1]
        Y_prev = seg.prev(Yv)
        bd = det3(Y_prev, Yv, np.broadcast_to(E, Yv.shape))
    if not np.all(bd > 0.0):
        raise NonTransversal("the constant field is not transversal to the polygon")
    Xv = cross3(Y_prev, Yv) / bd[:, None]
    dY = Yv - Y_prev
    Uv = cross3(dY, np.broadcast_to(E, Yv.shape)) / bd[:, None]

    plane = Xv @ E
    if np.max(np.abs(plane - 1.0)) > tol.tol_residual:
        raise NotPlanarDual("dual polygon left the incidence plane")
    M = constant_field_frame(E)
    Xn = Xv @ M.T
    Un = Uv @ M.T
    if np.max(np.abs(Un[:, 2])) > tol.tol_residual * max(1.0, float(np.max(np.abs(Un)))):
        raise NotPlanarDual("dual field left the incidence plane direction space")
    pp = PlanarPair(NodeSeq(Xn[:, :2]), NodeSeq(Un[:, :2]))

    back = cylindrical_pedal(pp, tol).Y.values
    target = Yv @ np.linalg.inv(M)  # (M^-T Y) rowwise
    if np.max(np.abs(back - target)) > tol.tol_residual * max(1.0, float(np.max(np.abs(target)))):
        raise NotPlanarDual("re-pedaled pair failed to reproduce the input polygon")
    return pp


def _convexity(poly: NodeSeq, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The dead-banded turn signs, and per segment whether the polygon is convex.

    A segment with a turn of no strict sign (three collinear consecutive
    nodes) is not convex: its turns are not all strict left turns.
    """
    seg = poly.segments
    v = poly.values
    e = seg.next(v) - v
    prev = seg.prev(e)
    turns = area2(prev, e)
    signs = seg.signs(turns, tol)
    left = ~seg.max(signs != 1)
    angles = np.arctan2(turns, np.einsum("ij,ij->i", prev, e))
    winds_once = np.abs(seg.sums(angles) - 2.0 * np.pi) <= TURNING_TOL
    return signs, left & winds_once


def is_convex(poly: NodeSeq, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Convexity with orientation: strict left turns and total turning 2*pi.

    Local turn signs alone admit star polygons that wind more than once;
    requiring the summed exterior angles to equal 2*pi (winding index one)
    excludes them.  Three collinear consecutive nodes have no strict turn
    sign and raise DegenerateSign.  A stack of polygons gives one verdict
    per segment.
    """
    signs, convex = _convexity(poly, tol)
    hit = poly.segments.find(signs == 0)
    if hit is not None:
        raise DegenerateSign("three consecutive nodes are collinear").at(hit[0])
    return poly.segments.unstack(convex.tolist())


def planar_vertices(y: NodeSeq, v: NodeSeq, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Vertex edges of an exact planar pair, labeled in the half-integer-node frame.

    The stored slots of y are read as the nodes y(k+1/2), so edge i joins
    slots i-1 and i; index i is returned when the curvature difference
    changes sign across that edge.  These labels coincide with the
    flattening node labels of a source spatial polygon under duality.
    """
    seg = y.segments
    vv, yv = v.values, y.values
    v_next, y_next = seg.next(vv), seg.next(yv)
    fit = _tangential_fit(vv, v_next, yv, y_next, v_next - vv, y_next - yv)  # v' = -b y'
    hit = seg.find(_not_tangential(fit, tol))
    if hit is not None:
        raise NotExact("the field is not exact with respect to the polygon").at(hit[0])
    b = fit[0]
    try:
        flips = seg.sign_flips(b - seg.prev(b), tol)
    except DegenerateSign as exc:
        raise NotGeneric("a curvature difference has no strict sign").at(exc.segment) from exc
    return seg.unstack(seg.nodes_after(flips))


def dual_planar_parts(D: DualPair, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[NodeSeq, NodeSeq]:
    """Planar parts (y, v) of D, the dual pair of a polygon with the field E3.

    The incidences Y . U = 1 and V . U = 0 with U = E3 make Y = (y, 1) and
    V = (v, 0); the planar slots are returned as node sequences in the
    half-integer frame.
    """
    seg = D.segments
    Yv, Vv = D.Y.values, D.V.values
    s = seg.first(seg.max(np.abs(Yv[:, 2] - 1.0)) > tol.tol_residual)
    if s is not None:
        raise DualityResidual("dual polygon is not a lifted planar polygon").at(s)
    s = seg.first(seg.max(np.abs(Vv[:, 2])) > tol.tol_residual * np.maximum(1.0, seg.peak(np.abs(Vv))))
    if s is not None:
        raise DualityResidual("dual field is not horizontal").at(s)
    return NodeSeq.on(Yv[:, :2], seg), NodeSeq.on(Vv[:, :2], seg)
