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
numpy's per-call overhead rather than arithmetic.  Two things follow.
First, a cyclic shift is one ``take`` over wrap indices computed once per
``Segments`` instead of ``np.roll``, and the vector products gather
permuted components (on long arrays, multiply columns) instead of calling
``np.cross``; both perform the same floating-point operations as the numpy
routines they replace, so results agree bit for bit.  Second, a chunk of
polygons is evaluated in one pass: ``stack`` joins the polygons' node rows
into one array whose rows split into ``Segments``, each its own cycle; a
sequence built on its own is a stack of one.

Sign predicates use a relative dead-band (``tol_sign`` times the sequence's
largest magnitude) rather than an absolute epsilon, so every analysis is
invariant under global rescaling of the polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


class Segments:
    """How the rows of a sequence split into cycles, one per polygon.

    ``stack`` joins polygons' node rows into one array whose rows keep
    their own cycles, so a chunk of polygons is evaluated in one pass over
    all its rows.  The shifts wrap within each segment; maxima, sign scans,
    verdicts and sums (``sums``) are taken per segment.  Every other
    operation acts row by row, and a maximum is exact under any grouping,
    so a polygon's numbers in a stack are its numbers on its own, bit for
    bit.

    A sequence built on its own is a stack of one (``Segments.one``), so
    every operation here has one body.  Only ``unstack`` tells the two
    apart: a function that returns one result per polygon returns, for a
    stack, a list with one result per segment, and for a polygon on its own
    that one result.  An error it raises is about the first segment that
    fails the earliest of its gates, which it names in
    ``GeometryError.segment``; its message is the one that polygon alone
    would give.
    """

    __slots__ = ("starts", "lengths", "bounds", "owner", "slot", "alone", "_next", "_prev")

    def __init__(self, lengths):
        """A stack of consecutive segments of the given row counts."""
        self.lengths = np.array(lengths, dtype=np.intp)
        if self.lengths.ndim != 1 or not self.lengths.size or self.lengths.min() < 3:
            raise ValueError("segments need period n >= 3 each")
        ends = self.lengths.cumsum()
        self.starts = ends - self.lengths
        self.bounds = (0, *ends.tolist())
        rows = np.arange(self.bounds[-1])
        self.owner = np.arange(len(self.lengths)).repeat(self.lengths)  # each row's segment
        self.slot = rows - self.starts.take(self.owner)  # each row's slot within its segment
        self.alone = False
        # the row each row's shifts read, wrapping within its segment
        lasts = ends - 1
        self._next = rows + 1
        self._next[lasts] = self.starts
        self._prev = rows - 1
        self._prev[self.starts] = lasts

    @staticmethod
    @lru_cache(maxsize=64)
    def one(n: int) -> Segments:
        """The one segment of a polygon of n rows on its own, shared by every sequence of that length.

        Nothing may write to its arrays (numpy copies read-only indices on every ``take``).
        """
        seg = Segments([n])
        seg.alone = True
        return seg

    def unstack(self, results: list):
        """``results``, one per segment, as returned: the list for a stack, its one entry for a polygon on its own."""
        return results[0] if self.alone else results

    def next(self, v: np.ndarray) -> np.ndarray:
        """Row k gets v[k+1], wrapping to the first row of its segment."""
        return v.take(self._next, axis=0)

    def prev(self, v: np.ndarray) -> np.ndarray:
        """Row k gets v[k-1], wrapping to the last row of its segment."""
        return v.take(self._prev, axis=0)

    def max(self, a: np.ndarray) -> np.ndarray:
        """The largest entry of each segment along the last axis (the rows), which becomes the segment axis."""
        return np.maximum.reduceat(a, self.starts, axis=-1)

    def peak(self, a: np.ndarray) -> np.ndarray:
        """The largest entry of each segment of a 2-D array of row vectors."""
        return np.maximum.reduceat(a, self.starts, axis=0).max(axis=1)

    def spread(self, x: np.ndarray) -> np.ndarray:
        """Per-segment values (along the first axis) repeated over the rows."""
        return x.take(self.owner, axis=0)

    def rows(self, s: int) -> slice:
        return slice(self.bounds[s], self.bounds[s + 1])

    def first(self, bad: np.ndarray) -> int | None:
        """The first segment for which a per-segment verdict is true, or None."""
        s = int(bad.argmax())
        return s if bad[s] else None

    def find(self, mask: np.ndarray) -> tuple[int, int, int] | None:
        """(segment, slot within it, row) of the first true row of ``mask``, or None."""
        k = int(mask.argmax())
        if not mask[k]:
            return None
        return int(self.owner[k]), int(self.slot[k]), k

    def parts(self, a: np.ndarray) -> list[list]:
        """The rows of a 1-D array as one list per segment."""
        values = a.tolist()
        return [values[lo:hi] for lo, hi in zip(self.bounds, self.bounds[1:])]

    def slots(self, mask: np.ndarray) -> list[list[int]]:
        """Per segment, the ascending slots where ``mask`` is true."""
        (rows,) = mask.nonzero()
        local = self.slot.take(rows).tolist()
        cuts = [0, *rows.searchsorted(self.starts[1:]).tolist(), len(local)]
        return [local[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def signs(self, arr: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
        """Dead-banded signs, each segment scaled by its own largest magnitude."""
        band = self.spread(tol.tol_sign * self.max(np.abs(arr)))
        return (arr > band).astype(int) - (arr < -band)

    def flips(self, signs: np.ndarray) -> np.ndarray:
        """Per row k, whether slots k and k+1 of its segment have strictly opposite signs."""
        return signs * self.next(signs) < 0

    def sign_flips(self, arr: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
        """``flips`` of the dead-banded signs of ``arr``.

        Every entry must have a strict sign; a zero raises DegenerateSign,
        for the first segment that has one.
        """
        s = self.signs(arr, tol)
        hit = self.find(s == 0)
        if hit is not None:
            raise DegenerateSign(f"entry at slot {hit[1]} has no strict sign").at(hit[0])
        return self.flips(s)

    def nodes_after(self, flips: np.ndarray) -> list[list[int]]:
        """Per segment, the slots just after each flip, ascending: junction j gives slot j+1 (mod n)."""
        return self.slots(self.prev(flips))

    def sums(self, a: np.ndarray) -> np.ndarray:
        """The sums of each segment along the last axis (the rows), each added up as for that row of that segment alone."""
        a = np.ascontiguousarray(a)  # numpy may add up a strided row in another order
        return np.array([np.add.reduce(a[..., lo:hi], axis=-1) for lo, hi in zip(self.bounds, self.bounds[1:])])


def _as_cyclic_values(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("slots must hold scalars or flat vectors")
    if arr.shape[0] < 3:
        raise ValueError("cyclic sequences need period n >= 3")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError("sequence entries must all be finite")
    arr.setflags(write=False)
    return arr


class _CyclicSeq:
    """Shared behaviour of NodeSeq and EdgeSeq: cyclic slot access over an array.

    ``segments`` says how the rows split into cycles: ``Segments.one`` for
    a sequence built on its own, one segment per polygon for ``stack``.
    """

    __slots__ = ("values", "segments")

    def __init__(self, values):
        object.__setattr__(self, "values", _as_cyclic_values(values))
        object.__setattr__(self, "segments", Segments.one(self.n))

    @classmethod
    def on(cls, values, segments: Segments):
        """A sequence of ``values`` whose rows split into ``segments``."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "values", _as_cyclic_values(values))
        if segments.bounds[-1] != seq.n:
            raise ValueError("segments must cover the rows of the sequence")
        object.__setattr__(seq, "segments", segments)
        return seq

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


def stack(parts: list[np.ndarray]) -> NodeSeq:
    """The node rows of polygons ``parts`` in order, as one node sequence with a segment for each."""
    return NodeSeq.on(np.concatenate(parts), Segments([len(p) for p in parts]))


def node_diff(g: NodeSeq) -> EdgeSeq:
    """First difference of a node sequence: slot k gets g(k+1) - g(k)."""
    v, seg = g.values, g.segments
    return EdgeSeq.on(seg.next(v) - v, seg)


def edge_diff(h: EdgeSeq) -> NodeSeq:
    """First difference of an edge sequence: slot i gets h(i+1/2) - h(i-1/2)."""
    v, seg = h.values, h.segments
    return NodeSeq.on(v - seg.prev(v), seg)


def second_diff(g: NodeSeq) -> NodeSeq:
    """Second difference g'': edge_diff(node_diff(g))."""
    return edge_diff(node_diff(g))


# Component orders for the vector product (1, 2, 0) x (2, 0, 1) and for the
# first-row cofactors (1, 0, 0) x (2, 2, 1).
_CYC1 = np.array([1, 2, 0])
_CYC2 = np.array([2, 0, 1])
_COF1 = np.array([1, 0, 0])
_COF2 = np.array([2, 2, 1])

# Up to this many entries per factor (128 3-vectors), det3 and cross3 gather
# permuted components, which takes the fewest numpy calls; beyond it they
# multiply columns, because a gather along the last axis copies row by row.
# Both forms evaluate the same products and differences in the same order.
_GATHER_SIZE = 384


def det3(a, b, c):
    """3x3 determinant with rows a, b, c, by cofactor expansion along a.

    Evaluates a0 (b1 c2 - b2 c1) - a1 (b0 c2 - b2 c0) + a2 (b0 c1 - b1 c0)
    in that order.  Broadcasts over leading axes, so (n, 3) arrays give n
    determinants.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if b.size <= _GATHER_SIZE and c.size <= _GATHER_SIZE:
        t = a * (
            b.take(_COF1, axis=-1) * c.take(_COF2, axis=-1)
            - b.take(_COF2, axis=-1) * c.take(_COF1, axis=-1)
        )
        return t[..., 0] - t[..., 1] + t[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
    return a[..., 0] * (b1 * c2 - b2 * c1) - a[..., 1] * (b0 * c2 - b2 * c0) + a[..., 2] * (b0 * c1 - b1 * c0)


def cross3(a, b) -> np.ndarray:
    """Vector product (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0).

    The same products and differences as ``np.cross``, so the result is
    identical; satisfies det3(a, b, c) == cross3(a, b) . c.  Broadcasts over
    leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size <= _GATHER_SIZE and b.size <= _GATHER_SIZE:
        return (
            a.take(_CYC1, axis=-1) * b.take(_CYC2, axis=-1)
            - a.take(_CYC2, axis=-1) * b.take(_CYC1, axis=-1)
        )
    a0, a1, a2 = a[..., 0, None], a[..., 1, None], a[..., 2, None]
    b0, b1, b2 = b[..., 0, None], b[..., 1, None], b[..., 2, None]
    return np.concatenate((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis; equal to ``np.linalg.norm(v, axis=-1)``.

    The squares are summed column by column, in order, as numpy's reduction
    sums so few: the same bits, several times faster than a reduction over
    a last axis of 2 or 3.
    """
    squares = v * v
    total = squares[..., 0]
    for k in range(1, v.shape[-1]):
        total = total + squares[..., k]
    return np.sqrt(total)


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


def _split(values) -> tuple[np.ndarray, Segments]:
    if isinstance(values, _CyclicSeq):
        return values.values, values.segments
    arr = np.asarray(values, dtype=float)
    return arr, Segments.one(len(arr))


def strict_signs(values, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Dead-banded signs of a sequence, each segment scaled by its own largest magnitude."""
    arr, seg = _split(values)
    return seg.signs(arr, tol)


def cyclic_sign_changes(values, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, list[int]]:
    """Count cyclically adjacent strict sign flips.

    Returns ``(count, junctions)`` where junction j sits between slots j and
    j+1 (mod n).  Every entry must have a strict sign under the dead-band;
    a zero raises DegenerateSign since ties cannot be classified.  The count
    is always even on a cycle.
    """
    arr, seg = _split(values)
    return seg.unstack([(len(js), js) for js in seg.slots(seg.sign_flips(arr, tol))])

