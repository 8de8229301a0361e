"""Reproducible random instances and the canonical fixtures.

All randomness flows through numpy's default generator (PCG64 seeded by a
SeedSequence), which is platform independent; identical configurations give
bit-identical instances.  Batch drivers give each instance its own seeds,
so batches are order independent: ``verify`` draws instance ``index``'s n
from ``[seed, index, 0]`` and its polygon from ``[seed, index, 1]``.  The
streams of a batch are seeded together (``default_rngs``): numpy's
SeedSequence hash runs once over all their seeds, as arrays of uint32
words, and each stream gets a Generator of its own, with exactly the bits
``np.random.default_rng`` gives it.  A batch of fewer than eight streams,
and a seed of more than four uint32 words, takes ``default_rng`` itself.

The convex polygon under each instance is built from edge directions: n
angles jittered around the regular spacing (gaps bounded away from zero, so
consecutive node triples never get needle-thin) with random edge lengths
projected onto the closure constraint.  Angle-sorted edges make the polygon
strictly convex with exactly n vertices by construction; it is then
centered at its area centroid (so the origin is strictly interior) and
scaled to mean vertex radius one.

Radial instances can also be generated a chunk at a time
(``random_radial_instances``), in retry rounds: a round draws one polygon
for every instance still without one, each from its own stream and in the
order one instance draws, and computes and tests them all as one stack.
An instance whose draw is rejected draws again in the next round.  Each
instance has the bits it has when generated on its own (see
``_convex_from_rng``).

A framed polygon, and a planar pair, carries a parallel field of
non-constant curvature.  The curvature is a normal draw projected onto the
closure kernel sum b(k) X'(k) = 0 in O(n), by one 3x3 (2x2 for a planar
pair) solve with the edge vectors (``_parallel_field``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .cyclic import (
    DEFAULT_TOL,
    NodeSeq,
    Segments,
    ToleranceConfig,
    area2,
    cross3,
    node_diff,
    row_norms,
    second_diff,
    stack,
)
from .errors import GenerationFailed, GeometryError
from .invariants import FramedPolygon, _alpha_values, delta, is_equal_volume, is_generic
from .pedal import E3, PlanarPair, _convexity, cylindrical_pedal, is_convex, vertical_field


@dataclass(frozen=True)
class GenConfig:
    """Knobs for instance generation; seed may be an int or a sequence of ints."""

    seed: object = 0
    n: int = 8
    lambda_range: tuple[float, float] = (0.5, 2.0)
    perturb_scale: float = 1e-2
    max_retries: int = 64

    def __post_init__(self):
        lo, hi = self.lambda_range
        if self.n < 3:
            raise ValueError("polygons need at least 3 nodes")
        if not (0.0 < lo <= hi < np.inf):
            raise ValueError("lambda_range must satisfy 0 < lo <= hi < inf")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.perturb_scale < 0.0:
            raise ValueError("perturb_scale must be nonnegative")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# numpy's SeedSequence constants (pool size 4).  Its k-th hashmix of the
# entropy XORs with _MIXING[k] and multiplies by _MIXING[k + 1]; the k-th
# state word, drawn from pool word k mod 4, likewise with _OUTPUT.
_MIXING = _powers(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT = _powers(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# below this many streams one default_rng each is cheaper than the hash's
# fixed cost (about 60 us against 12 us per stream)
_HASHED_FROM = 8


def _hashmix(v: np.ndarray, k: int, m: int) -> np.ndarray:
    """numpy's hashmix k .. k + m - 1, one per column; uint32 products wrap as numpy's do."""
    v = (v ^ _MIXING[k:k + m]) * _MIXING[k + 1:k + m + 1]
    return v ^ (v >> 16)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each row e of 4 uint32 entropy words.

    An entropy of fewer words is zero-padded to 4, as numpy pads it.
    """
    pool = _hashmix(entropy, 0, 4)
    for src in range(4):  # each pool word is hashed into the other three, in numpy's order
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[:, dst] - _MIX_R * _hashmix(pool[:, src:src + 1], 4 + 3 * src, 3)
        pool[:, dst] = mixed ^ (mixed >> 16)
    out = (np.tile(pool, 2) ^ _OUTPUT[:8]) * _OUTPUT[1:]
    # pairs of words read as little-endian uint64, as numpy reads them
    return (out ^ (out >> 16)).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _entropy_words(seed) -> list[int] | None:
    """numpy's uint32 entropy words of a nonnegative int or a list of them, zero-padded to 4; None if not 1 to 4."""
    words = []
    for v in seed if isinstance(seed, (list, tuple)) else (seed,):
        if not isinstance(v, int) or v < 0:
            return None
        words.append(v & 0xFFFFFFFF)  # lowest word first
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return words + [0] * (4 - len(words)) if 0 < len(words) <= 4 else None


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 state words were computed by ``_seed_state``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype):
        return self.state  # PCG64 asks for 4 uint64 words


def default_rngs(seeds: list) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each of seeds: a Generator of its own with the same bits.

    The seeds' SeedSequence states are hashed together, and PCG64 seeds
    itself from them.  A seed whose entropy is not 1 to 4 uint32 words
    (``[s, i, k]`` with s past 2^64), or that holds a negative or non-int
    entry, takes default_rng, as do all of them when there are few.
    """
    if len(seeds) < _HASHED_FROM:
        return [np.random.default_rng(s) for s in seeds]
    words = [_entropy_words(s) for s in seeds]
    state = _seed_state(np.array([w or [0, 0, 0, 0] for w in words], dtype=np.uint32))
    return [
        np.random.default_rng(s) if w is None else np.random.Generator(np.random.PCG64(_SeedState(st)))
        for s, w, st in zip(seeds, words, state)
    ]


@dataclass(frozen=True)
class RadialInstance:
    """A spatial polygon X(i) = lam(i) * (gamma(i), 1) over a convex planar polygon gamma."""

    gamma: NodeSeq
    lam: NodeSeq
    X: NodeSeq


_COLLAPSED = "edge lengths kept collapsing under the closure correction"


def _origin_interior(g: np.ndarray, seg: Segments) -> np.ndarray:
    """Per segment, whether (0, 0) is strictly left of every edge."""
    return ~seg.max(area2(g, seg.next(g)) <= 0.0)


def _area_centroid(g: np.ndarray, seg: Segments) -> np.ndarray:
    g_next = seg.next(g)
    x, y = g[:, 0], g[:, 1]
    xn, yn = g_next[:, 0], g_next[:, 1]
    w = x * yn - xn * y
    total = seg.sums(np.array((w, (x + xn) * w, (y + yn) * w)))  # twice the area, and the moments
    return total[:, 1:] / (6.0 * (0.5 * total[:, :1]))


def _layout(ns: list[int]) -> tuple:
    """How polygons of ``ns`` nodes stack: their segments, where each row goes when padded, its slot and its n.

    One stream's polygon stands on its own (``Segments.one``) and fills its padded segment.
    """
    if len(ns) == 1:
        return Segments.one(ns[0]), (0, slice(None)), np.arange(ns[0]), ns[0]
    seg = Segments(ns)
    return seg, (seg.owner, seg.slot), seg.slot, seg.spread(seg.lengths)


def _padded(a: np.ndarray, seg: Segments, at) -> np.ndarray:
    """The rows of each segment along axis 1, zero past its end."""
    out = np.zeros((len(seg.lengths), int(seg.lengths.max()), *a.shape[1:]))
    out[at] = a
    return out


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _closure_draw(rngs: list, ns: list[int], layout: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One draw of edge directions and closure-corrected lengths per stream, stacked; per stream, whether they fell short."""
    seg, at, slot, n = layout
    jitter, lengths = [], []
    for rng, k in zip(rngs, ns):
        jitter.append(rng.uniform(-0.45, 0.45, k))
        lengths.append(rng.uniform(0.7, 1.3, k))
    theta = 2.0 * np.pi * (slot + _joined(jitter)) / n
    dirs = np.empty((len(theta), 2))
    dirs[:, 0], dirs[:, 1] = np.cos(theta), np.sin(theta)
    # least-norm correction so the edge vectors sum to zero; a product of
    # one polygon's directions with a vector is taken for that polygon alone
    if len(ns) == 1:
        D = dirs.T
        lengths = lengths[0] - D.T @ np.linalg.solve(D @ D.T, D @ lengths[0])
    else:
        cuts = [dirs[seg.rows(s)] for s in range(len(ns))]
        D = _padded(dirs, seg, at)  # zero rows leave each Gram matrix's bits as they are
        rhs = np.array([d.T @ x for d, x in zip(cuts, lengths)])
        sol = np.linalg.solve(D.transpose(0, 2, 1) @ D, rhs[..., None])
        lengths = np.concatenate([x - d @ y[:, 0] for d, x, y in zip(cuts, lengths, sol)])
    return dirs, lengths, seg.max(lengths < 0.2)


def _convex_from_rng(rngs: list, ns: list[int]) -> tuple[np.ndarray | None, Segments | None, list[bool]]:
    """One convex-polygon draw from each stream: jittered edge directions, closure-projected lengths.

    Direction gaps stay within [0.1, 1.9] of the regular spacing and edge
    lengths within [0.7, 1.3] before the closure correction, which keeps
    every consecutive node triple well conditioned at any n.  A stream
    whose corrected lengths fall below 0.2 draws both again, up to 1000
    times.

    The streams' polygons are computed together, stacked in stream order;
    one stream's polygon stands on its own.  Every polygon gets the bits its
    stream gives it on its own: the work is elementwise, on a stack of
    2x2 systems (the solves), on stacks padded with zero rows where that
    changes no bit (the Gram matrices, the cumulative sums), or polygon by
    polygon where padding would (the products of directions with a
    vector, and the sums).  Returns the stacked polygons of the streams
    that closed (None if none did), their segments, and per stream whether
    it closed.
    """
    layout = _layout(ns)
    dirs, lengths, short = _closure_draw(rngs, ns, layout)
    redraw = np.flatnonzero(short).tolist()
    for _ in range(999):  # up to 1000 draws per stream
        if not redraw:
            break
        sub = [ns[i] for i in redraw]
        d, l, short = _closure_draw([rngs[i] for i in redraw], sub, _layout(sub))
        ends = np.cumsum(ns)
        rows = np.concatenate([np.arange(ends[i] - ns[i], ends[i]) for i in redraw])
        dirs[rows], lengths[rows] = d, l
        redraw = [redraw[j] for j in np.flatnonzero(short).tolist()]
    closed = [True] * len(ns)
    for i in redraw:
        closed[i] = False
    if redraw:
        if not any(closed):
            return None, None, closed
        keep = np.repeat(closed, ns)
        dirs, lengths, ns = dirs[keep], lengths[keep], [n for n, ok in zip(ns, closed) if ok]
        layout = _layout(ns)
    seg, at, _, _ = layout
    steps = _padded(lengths[:, None] * dirs, seg, at)
    pts = np.zeros(steps.shape)
    steps[:, :-1].cumsum(axis=1, out=pts[:, 1:])
    pts = pts[at]
    pts = pts - seg.spread(_area_centroid(pts, seg))
    radius = seg.sums(row_norms(pts)) / seg.lengths  # mean vertex radius
    return pts / seg.spread(radius)[..., None], seg, closed


def _convex_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """The draw of one stream, or GenerationFailed when it does not close."""
    pts, _, (closed,) = _convex_from_rng([rng], [n])
    if not closed:
        raise GenerationFailed(_COLLAPSED)
    return pts


def _radial_rounds(cfgs: list[GenConfig], tol: ToleranceConfig) -> tuple[list, list]:
    """The retry rounds of ``random_radial_instance``, for every config together.

    Each config draws from its own stream, in the order one instance draws.
    A round draws a polygon for every config still without an instance,
    stacked, and runs each acceptance test once on the stack; a config
    whose draw is rejected draws again in the next round, up to its
    ``max_retries`` rounds.  Returns per config the GenerationFailed it
    raised or None, and its instance or None: the round's gamma, lam and X
    with the slice of its rows (all of them when there is one config).
    """
    rngs = default_rngs([cfg.seed for cfg in cfgs])
    logs = {r: (np.log(r[0]), np.log(r[1])) for r in {cfg.lambda_range for cfg in cfgs}}
    found: list = [None] * len(cfgs)
    errors: list = [None] * len(cfgs)
    todo = list(range(len(cfgs)))
    tries = 0
    while todo:
        tries += 1
        gamma, seg, closed = _convex_from_rng([rngs[i] for i in todo], [cfgs[i].n for i in todo])
        for i, ok in zip(todo, closed):
            if not ok:
                errors[i] = GenerationFailed(_COLLAPSED)
        drawn, todo = [i for i, ok in zip(todo, closed) if ok], []
        if not drawn:
            break
        lam = np.exp(_joined([rngs[i].uniform(*logs[cfgs[i].lambda_range], cfgs[i].n) for i in drawn]))
        g = NodeSeq.on(gamma, seg)
        X = NodeSeq.on(np.concatenate((gamma * lam[:, None], lam[:, None]), axis=1), seg)
        accepted = _origin_interior(gamma, seg) & _convexity(g, tol)[1] & is_generic(X, tol)
        for s, (i, ok) in enumerate(zip(drawn, accepted.tolist())):
            if ok:
                found[i] = (g, lam, X, seg.rows(s))
            elif tries < cfgs[i].max_retries:
                todo.append(i)
            else:
                errors[i] = GenerationFailed(f"no generic radial instance after {cfgs[i].max_retries} tries")
    return found, errors


def random_radial_instance(cfg: GenConfig, tol: ToleranceConfig = DEFAULT_TOL) -> RadialInstance:
    """A generic spatial polygon lam(i) * (gamma(i), 1) over a random convex gamma.

    Radial scales are log-uniform on lambda_range.  A draw is rejected unless
    gamma is convex with (0, 0) strictly inside and every torsion volume has
    a strict sign.  Local convexity about the origin is then automatic for
    positive scales.  This is the one-config case of ``random_radial_instances``.
    """
    (found,), (error,) = _radial_rounds([cfg], tol)
    if error is not None:
        raise error
    gamma, lam, X, _ = found
    return RadialInstance(gamma, NodeSeq(lam), X)


def random_radial_instances(
    cfgs: list[GenConfig], tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[NodeSeq | None, list[GeometryError | None]]:
    """The X of ``random_radial_instance`` for each of a chunk of configs, generated together.

    Returns the instances' X, bit for bit as generated one at a time,
    stacked in config order with a segment each (None when no config gave
    one); and per config the GenerationFailed that it raised, or None.
    """
    found, errors = _radial_rounds(cfgs, tol)
    rows = [X.values[r] for _, _, X, r in filter(None, found)]
    return (stack(rows) if rows else None), errors


def _check_kernel(n: int, dim: int, kind: str) -> None:
    """ValueError unless n nodes in dim dimensions leave a non-constant curvature in the closure kernel."""
    if n <= dim + 1:
        raise ValueError(
            f"a {kind} needs at least {dim + 2} nodes: at n = {n} closure leaves only constant "
            "curvature, so no parallel field has a non-constant one"
        )


def _closure_projection(edges: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z - E (E^T E)^-1 E^T z: the part of z in the kernel of sum z(k) E(k), for edge rows E that span the space."""
    return z - edges @ np.linalg.solve(edges.T @ edges, edges.T @ z)


def _parallel_field(positions: np.ndarray, edges: np.ndarray, beta0: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray | None:
    """A non-constant parallel perturbation of a constant transversal field.

    Draws a curvature sequence z, projects it onto the closure kernel
    sum b(k) X'(k) = 0 as z - E (E^T E)^-1 E^T z, with E the n x dim
    matrix of edge vectors, adds a random constant, integrates it into a
    field increment W, and caps the amplitude so every edge keeps at least
    half of the base transversality margin.  The solve is dim x dim and
    needs edges that span the space: a generic polygon's three consecutive
    edges are independent (Delta has a strict sign), and a convex planar
    polygon's edges span the plane.  With n <= dim there is no such kernel
    draw, and the result is None.
    """
    n, dim = edges.shape
    if n <= dim:
        return None
    raw = _closure_projection(edges, rng.standard_normal(n))
    wiggle = raw - raw.mean()
    peak = np.abs(wiggle).max()
    if peak < 1e-8:
        return None
    wiggle = wiggle / peak
    b = wiggle + rng.uniform(-1.0, 1.0)
    w0 = rng.uniform(-1.0, 1.0, dim)
    increments = -b[:, None] * edges
    W = w0 + np.concatenate((np.zeros((1, dim)), np.cumsum(increments[:-1], axis=0)))
    if dim == 3:
        contrib = np.einsum("ij,ij->i", cross3(positions, Segments.one(n).next(positions)), W)
    else:
        contrib = area2(edges, W)
    top = float(np.abs(contrib).max())
    if top == 0.0:
        return None
    s = 0.5 * float(beta0.min()) / top
    return s * W


def random_framed_polygon(cfg: GenConfig, tol: ToleranceConfig = DEFAULT_TOL) -> FramedPolygon:
    """A generic framed polygon whose parallel field has non-constant curvature.

    The polygon is a random radial instance; the field is the vertical
    constant plus a parallel perturbation, whose curvature is a draw
    projected onto the closure kernel, kept inside the transversality
    margin, so construction never fails validation.  The polygon is
    generic before the field is drawn, so its edges span space and the
    projection is well posed.  Closure leaves a non-constant curvature only
    from n = 5 on (the kernel has dimension n - 3), so a smaller n raises
    ValueError before any draw.
    """
    _check_kernel(cfg.n, 3, "framed polygon")
    rng = cfg.rng()
    lo, hi = cfg.lambda_range
    for _ in range(cfg.max_retries):
        gamma = _convex_polygon(rng, cfg.n)
        lam = np.exp(rng.uniform(np.log(lo), np.log(hi), cfg.n))
        X = np.concatenate((gamma * lam[:, None], lam[:, None]), axis=1)
        nodes = NodeSeq(X)
        if not is_generic(nodes, tol):
            continue
        X_next = nodes.segments.next(X)
        edges = X_next - X
        beta0 = area2(X, X_next)  # [X(i), X(i+1), E3], the margin of the vertical field
        W = _parallel_field(X, edges, beta0, rng)
        if W is None:
            continue
        try:
            P = FramedPolygon(nodes, NodeSeq(E3 + W))
        except GeometryError:
            continue
        return P
    raise GenerationFailed(f"no framed polygon after {cfg.max_retries} tries")


def random_planar_pair(cfg: GenConfig, tol: ToleranceConfig = DEFAULT_TOL) -> PlanarPair:
    """A convex planar polygon with a random parallel field of non-constant curvature.

    The polygon is convex before the field is drawn, so its edges span the
    plane.  Closure leaves a non-constant curvature only from n = 4 on (the
    kernel has dimension n - 2), so a smaller n raises ValueError before
    any draw.
    """
    _check_kernel(cfg.n, 2, "planar pair")
    rng = cfg.rng()
    for _ in range(cfg.max_retries):
        x = _convex_polygon(rng, cfg.n)
        try:
            if not is_convex(NodeSeq(x), tol):
                continue
        except GeometryError:
            continue
        edges = Segments.one(cfg.n).next(x) - x
        base = -x  # inward field, curvature 1, beta = [x(i), x(i+1)]
        beta0 = area2(edges, base)
        if np.min(beta0) <= 0.0:
            continue
        W = _parallel_field(x, edges, beta0, rng)
        if W is None:
            continue
        try:
            return PlanarPair(NodeSeq(x), NodeSeq(base + W))
        except GeometryError:
            continue
    raise GenerationFailed(f"no planar pair after {cfg.max_retries} tries")


def _newton_equal_area(p: np.ndarray) -> np.ndarray | None:
    """Radial multipliers mu with unit consecutive edge-vector areas, or None."""
    n = p.shape[0]
    seg = Segments.one(n)
    p_next = seg.next(p)
    a = area2(p, p_next)
    b = seg.prev(a)
    c = area2(seg.prev(p), p_next)
    base = b + a - c  # areas at mu = 1
    if np.min(base) <= 0.0:
        return None
    mu = np.full(n, 1.0 / np.sqrt(np.mean(base)))

    def F(m):
        m_prev, m_next = seg.prev(m), seg.next(m)
        return m * m_next * a + m_prev * m * b - m_prev * m_next * c - 1.0

    f = F(mu)
    for _ in range(80):
        if np.max(np.abs(f)) <= 1e-13:
            return mu
        J = np.zeros((n, n))
        idx = np.arange(n)
        mu_prev, mu_next = seg.prev(mu), seg.next(mu)
        J[idx, (idx - 1) % n] += mu * b - mu_next * c
        J[idx, idx] += mu_next * a + mu_prev * b
        J[idx, (idx + 1) % n] += mu * a - mu_prev * c
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(40):
            trial = mu + t * step
            if np.min(trial) > 0.0:
                ft = F(trial)
                if np.max(np.abs(ft)) < np.max(np.abs(f)):
                    mu, f = trial, ft
                    break
            t *= 0.5
        else:
            return None
    return mu if np.max(np.abs(f)) <= 1e-12 else None


def random_equal_area_polygon(cfg: GenConfig, tol: ToleranceConfig = DEFAULT_TOL) -> NodeSeq:
    """A random convex polygon rescaled to unit consecutive edge-vector areas."""
    rng = cfg.rng()
    for _ in range(cfg.max_retries):
        p = _convex_polygon(rng, cfg.n)
        mu = _newton_equal_area(p)
        if mu is None:
            continue
        out = NodeSeq(mu[:, None] * p)
        e = node_diff(out).values
        areas = area2(e, out.segments.next(e))
        if np.max(np.abs(areas - 1.0)) <= 1e-12:
            return out
    raise GenerationFailed(f"no equal-area polygon after {cfg.max_retries} tries")


def random_unimodular_matrix(rng: np.random.Generator) -> np.ndarray:
    """A random 3x3 matrix with determinant one and condition number at most 50."""
    for _ in range(1000):
        M = rng.uniform(-1.0, 1.0, (3, 3))
        det = np.linalg.det(M)
        if abs(det) < 1e-3:
            continue
        M = M / np.cbrt(det)
        if np.linalg.cond(M) <= 50.0:
            return M
    raise GenerationFailed("no well-conditioned unimodular matrix in 1000 draws")


def random_equal_volume_polygon(cfg: GenConfig, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[NodeSeq, NodeSeq]:
    """An equal-volume polygon carrying a parallel unimodular transversal field.

    Not every equal-volume polygon admits one: the natural-field integration
    closes up only when the structure function tau sums to zero around the
    cycle.  Pedals of equal-area planar pairs always satisfy the closure, so
    the instance is built as such a pedal pushed through a random unimodular
    map.  Returns (X, U) with U parallel and unimodular.
    """
    rng = cfg.rng()
    for _ in range(cfg.max_retries):
        p = _convex_polygon(rng, cfg.n)
        mu = _newton_equal_area(p)
        if mu is None:
            continue
        x = NodeSeq(mu[:, None] * p)
        pp = PlanarPair(x, second_diff(x))
        Yv = cylindrical_pedal(pp, tol).Y.values
        M = random_unimodular_matrix(rng)
        X = NodeSeq(Yv @ M.T)
        U = NodeSeq(np.tile(E3 @ M.T, (cfg.n, 1)))
        if is_equal_volume(X, tol=tol) and is_generic(X, tol):
            return X, U
    raise GenerationFailed(f"no equal-volume instance after {cfg.max_retries} tries")


def perturb_to_generic(X: NodeSeq, cfg: GenConfig, tol: ToleranceConfig = DEFAULT_TOL) -> NodeSeq:
    """Add uniform node noise until the polygon is generic and still locally convex.

    Already-generic input is returned untouched.  Noise magnitude is
    perturb_scale times the polygon diameter, redrawn up to max_retries.
    """
    if is_generic(X, tol) and np.all(_alpha_values(X.values, X.segments) > 0.0):
        return X
    rng = cfg.rng()
    spread = X.values - X.values.mean(axis=0)
    diameter = 2.0 * float(np.max(np.linalg.norm(spread, axis=1)))
    for _ in range(cfg.max_retries):
        noise = rng.uniform(-1.0, 1.0, X.values.shape) * cfg.perturb_scale * diameter
        trial = NodeSeq(X.values + noise)
        if is_generic(trial, tol) and np.all(_alpha_values(trial.values, trial.segments) > 0.0):
            return trial
    raise GenerationFailed(f"perturbation stayed degenerate after {cfg.max_retries} tries")


def planted_coplanar_instance(
    cfg: GenConfig, edge: int | None = None, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[FramedPolygon, int]:
    """A framed polygon with exactly one coplanar consecutive node quadruple.

    One node of a generic radial instance is projected onto the plane of its
    three quadruple partners, zeroing a single torsion volume while every
    other stays strictly signed.  Returns the polygon (field: the vertical
    constant) and the edge slot whose torsion vanishes.
    """
    rng = cfg.rng()
    lo, hi = cfg.lambda_range
    for _ in range(cfg.max_retries):
        gamma = _convex_polygon(rng, cfg.n)
        lam = np.exp(rng.uniform(np.log(lo), np.log(hi), cfg.n))
        X = np.column_stack([gamma * lam[:, None], lam])
        if not is_generic(NodeSeq(X), tol):
            continue
        i = int(rng.integers(cfg.n)) if edge is None else edge % cfg.n
        moved = X.copy()
        p0, p1, p2, p3 = X[(i - 1) % cfg.n], X[i], X[(i + 1) % cfg.n], X[(i + 2) % cfg.n]
        normal = cross3(p1 - p0, p3 - p0)
        norm = np.linalg.norm(normal)
        if norm == 0.0:
            continue
        normal /= norm
        moved[(i + 1) % cfg.n] = p2 - np.dot(p2 - p0, normal) * normal
        d = delta(NodeSeq(moved)).values
        scale = float(np.max(np.abs(d)))
        strict = np.abs(d) > 10.0 * tol.tol_sign * scale
        planted_ok = abs(d[i]) <= 0.1 * tol.tol_sign * scale
        strict[i] = True
        if not (planted_ok and np.all(strict)):
            continue
        try:
            P = FramedPolygon(NodeSeq(moved), vertical_field(cfg.n))
        except GeometryError:
            continue
        return P, i
    raise GenerationFailed(f"no planted coplanar instance after {cfg.max_retries} tries")


def fixtures() -> dict[str, object]:
    """The canonical instances used across the documentation and tests."""
    square = NodeSeq([(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0)])
    lifted_square = FramedPolygon(square, vertical_field(4))

    half = NodeSeq([(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)])
    half_square_pair = PlanarPair(half, second_diff(half))

    angles = np.pi * np.arange(6) / 3.0
    heights = 1.0 + np.array([0.10, 0.04, -0.05, -0.03, 0.06, -0.07])
    hexagon = NodeSeq(np.column_stack([np.cos(angles), np.sin(angles), heights]))
    perturbed_hexagon = FramedPolygon(hexagon, vertical_field(6))

    planted, planted_edge = planted_coplanar_instance(GenConfig(seed=2024, n=6))

    pedal = cylindrical_pedal(half_square_pair)
    constant_curvature_pair = FramedPolygon(NodeSeq(pedal.Y.values), vertical_field(4))

    return {
        "lifted_square": lifted_square,
        "half_square_pair": half_square_pair,
        "perturbed_hexagon": perturbed_hexagon,
        "planted_coplanar_hexagon": planted,
        "planted_coplanar_edge": planted_edge,
        "constant_curvature_pair": constant_curvature_pair,
    }
