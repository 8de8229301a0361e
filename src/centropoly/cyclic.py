"""Cyclic sequences on integer and half-integer lattices, and 3-vector primitives.

A closed polygon with n nodes carries data on two staggered cyclic lattices:
node quantities live at integer indices i (mod n), edge quantities at
half-integers.  ``EdgeSeq`` stores the value for index k + 1/2 in slot k, so
no fractional indices appear anywhere in code.

Discrete derivatives move between the lattices::

    node_diff(g)[k] = g(k+1) - g(k)        value at k + 1/2
    edge_diff(h)[i] = h(i+1/2) - h(i-1/2)  value at i

so ``edge_diff(node_diff(g))`` is the second difference g''.

Polygons are small (tens of nodes), so the cost of the primitives here is
numpy's per-call overhead rather than arithmetic.  The cyclic shifts are
therefore two slice concatenations instead of ``np.roll``, and the vector
products gather permuted components instead of calling ``np.cross``; both
perform the same floating-point operations as the numpy routines they
replace, so results agree bit for bit.

Sign predicates use a relative dead-band (``tol_sign`` times the sequence's
largest magnitude) rather than an absolute epsilon, so every analysis is
invariant under global rescaling of the polygon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSign


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances: dead-band for sign predicates, bound for identities."""

    tol_sign: float = 1e-9
    tol_residual: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.tol_sign < 1.0):
            raise ValueError("tol_sign must lie strictly between 0 and 1")
        if not (0.0 < self.tol_residual < 1.0):
            raise ValueError("tol_residual must lie strictly between 0 and 1")


DEFAULT_TOL = ToleranceConfig()


def _as_cyclic_values(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("slots must hold scalars or flat vectors")
    if arr.shape[0] < 3:
        raise ValueError("cyclic sequences need period n >= 3")
    if not np.isfinite(arr).all():
        raise ValueError("sequence entries must all be finite")
    arr.setflags(write=False)
    return arr


class _CyclicSeq:
    """Shared behaviour of NodeSeq and EdgeSeq: cyclic slot access over an array."""

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(self, "values", _as_cyclic_values(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, slot: int):
        return self.values[slot % self.n]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, values={self.values!r})"


class NodeSeq(_CyclicSeq):
    """Cyclic sequence indexed by integers; slot i holds the value at node i."""


class EdgeSeq(_CyclicSeq):
    """Cyclic sequence indexed by half-integers; slot k holds the value at k + 1/2."""


def shift_next(v: np.ndarray) -> np.ndarray:
    """Slot k gets v[k+1] (mod n); equal to ``np.roll(v, -1, axis=0)``."""
    return np.concatenate((v[1:], v[:1]))


def shift_prev(v: np.ndarray) -> np.ndarray:
    """Slot k gets v[k-1] (mod n); equal to ``np.roll(v, 1, axis=0)``."""
    return np.concatenate((v[-1:], v[:-1]))


def node_diff(g: NodeSeq) -> EdgeSeq:
    """First difference of a node sequence: slot k gets g(k+1) - g(k)."""
    v = g.values
    return EdgeSeq(shift_next(v) - v)


def edge_diff(h: EdgeSeq) -> NodeSeq:
    """First difference of an edge sequence: slot i gets h(i+1/2) - h(i-1/2)."""
    v = h.values
    return NodeSeq(v - shift_prev(v))


def second_diff(g: NodeSeq) -> NodeSeq:
    """Second difference g'': edge_diff(node_diff(g))."""
    return edge_diff(node_diff(g))


# Component orders for the vector product (1, 2, 0) x (2, 0, 1) and for the
# first-row cofactors (1, 0, 0) x (2, 2, 1).
_CYC1 = np.array([1, 2, 0])
_CYC2 = np.array([2, 0, 1])
_COF1 = np.array([1, 0, 0])
_COF2 = np.array([2, 2, 1])


def det3(a, b, c):
    """3x3 determinant with rows a, b, c, by cofactor expansion along a.

    Evaluates a0 (b1 c2 - b2 c1) - a1 (b0 c2 - b2 c0) + a2 (b0 c1 - b1 c0)
    in that order.  Broadcasts over leading axes, so (n, 3) arrays give n
    determinants.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    cof = (
        b.take(_COF1, axis=-1) * c.take(_COF2, axis=-1)
        - b.take(_COF2, axis=-1) * c.take(_COF1, axis=-1)
    )
    t = a * cof
    return t[..., 0] - t[..., 1] + t[..., 2]


def cross3(a, b) -> np.ndarray:
    """Vector product (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0).

    The same products and differences as ``np.cross``, so the result is
    identical; satisfies det3(a, b, c) == cross3(a, b) . c.  Broadcasts over
    leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (
        a.take(_CYC1, axis=-1) * b.take(_CYC2, axis=-1)
        - a.take(_CYC2, axis=-1) * b.take(_CYC1, axis=-1)
    )


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis; equal to ``np.linalg.norm(v, axis=-1)``."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def area2(a, b):
    """Signed area form of two planar vectors (the 2x2 determinant)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def as_vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    return arr


def strict_signs(values, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Dead-banded signs of a whole sequence, scaled by its own max magnitude."""
    arr = values.values if isinstance(values, _CyclicSeq) else np.asarray(values, dtype=float)
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    band = tol.tol_sign * scale
    return (arr > band).astype(int) - (arr < -band)


def cyclic_sign_changes(values, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, list[int]]:
    """Count cyclically adjacent strict sign flips.

    Returns ``(count, junctions)`` where junction j sits between slots j and
    j+1 (mod n).  Every entry must have a strict sign under the dead-band;
    a zero raises DegenerateSign since ties cannot be classified.  The count
    is always even on a cycle.
    """
    s = strict_signs(values, tol)
    zeros = np.nonzero(s == 0)[0]
    if zeros.size:
        raise DegenerateSign(f"entry at slot {int(zeros[0])} has no strict sign")
    flips = s * shift_next(s) < 0
    junctions = [int(j) for j in np.nonzero(flips)[0]]
    return len(junctions), junctions


def sign_change_nodes(values, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """The slots just after each strict sign flip, ascending.

    Junction j of ``cyclic_sign_changes`` lies between slots j and j+1; read
    as an edge sequence, that is node j+1 (mod n).  Raises DegenerateSign as
    ``cyclic_sign_changes`` does.
    """
    _, junctions = cyclic_sign_changes(values, tol)
    n = len(values)
    return sorted((j + 1) % n for j in junctions)
