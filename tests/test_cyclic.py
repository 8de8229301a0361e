import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centropoly import (
    EdgeSeq,
    NodeSeq,
    ToleranceConfig,
    cross3,
    cyclic_sign_changes,
    det3,
    edge_diff,
    node_diff,
)
from centropoly.cyclic import DEFAULT_TOL, Segments, row_norms, strict_signs
from centropoly.errors import DegenerateSign

SQUARE = np.array([(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0)])

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
seqs = st.lists(finite, min_size=3, max_size=12)


def test_node_diff_of_constant_is_zero():
    g = NodeSeq(np.full((5, 3), 2.5))
    assert np.all(node_diff(g).values == 0.0)


def test_node_diff_square_first_edge():
    d = node_diff(NodeSeq(SQUARE))
    assert np.array_equal(d[0], [-2.0, 0.0, 0.0])


def test_node_diff_scalar_with_wrap():
    d = node_diff(NodeSeq([0.0, 1.0, 3.0]))
    assert np.array_equal(d.values, [1.0, 2.0, -3.0])


def test_edge_diff_of_zero_is_zero():
    h = EdgeSeq(np.zeros((4, 3)))
    assert np.all(edge_diff(h).values == 0.0)


def test_second_difference_on_square():
    dd = edge_diff(node_diff(NodeSeq(SQUARE)))
    assert np.array_equal(dd[0], [-2.0, -2.0, 0.0])


@given(seqs)
@settings(max_examples=60)
def test_node_diff_telescopes_to_zero(values):
    total = np.sum(node_diff(NodeSeq(values)).values)
    assert abs(total) <= 1e-12 * max(1.0, np.max(np.abs(values)))


@given(seqs, seqs, finite)
@example(
    g_vals=[776848.8357909492, 932068.3945484622, 776849.0],
    h_vals=[0.0, 1.8645671445410699, 0.0],
    a=18.0,
)
@settings(max_examples=60)
def test_diff_linearity(g_vals, h_vals, a):
    m = min(len(g_vals), len(h_vals))
    g, h = np.array(g_vals[:m]), np.array(h_vals[:m])
    lhs = node_diff(NodeSeq(a * g + h)).values
    rhs = a * node_diff(NodeSeq(g)).values + node_diff(NodeSeq(h)).values
    # Rounding error is relative to the inputs, not the output: a*g may
    # cancel down to a small difference.  With u = eps/2 and
    # M = |a| max|g| + max|h|, each side is within 6uM of the exact
    # difference (Higham, Accuracy and Stability, 2.2), so |lhs - rhs| <= 12uM
    # to first order; 8 eps = 16u covers the second-order terms, and the
    # floor of 1 absorbs subnormal underflow.
    M = abs(a) * np.max(np.abs(g)) + np.max(np.abs(h))
    assert np.max(np.abs(lhs - rhs)) <= 8 * np.finfo(float).eps * max(1.0, M)


def test_det3_identity_rows():
    assert det3([1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1.0


def test_det3_square_rows():
    assert det3(SQUARE[0], SQUARE[1], SQUARE[2]) == 4.0


def test_det3_repeated_row_vanishes():
    a, c = [1.2, -0.3, 4.0], [0.5, 2.0, -1.0]
    assert det3(a, a, c) == 0.0


def test_cross3_basis():
    assert np.array_equal(cross3([1, 0, 0], [0, 1, 0]), [0, 0, 1])


def test_cross3_square_rows():
    assert np.array_equal(cross3(SQUARE[0], SQUARE[1]), [0.0, -2.0, 2.0])


def test_cross3_self_vanishes():
    assert np.array_equal(cross3([3.0, -1.0, 2.0], [3.0, -1.0, 2.0]), [0.0, 0.0, 0.0])


def test_det3_equals_cross_dot_on_random_triples():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        a, b, c = rng.uniform(-1.0, 1.0, (3, 3))
        d1 = det3(a, b, c)
        d2 = float(np.dot(cross3(a, b), c))
        worst = max(worst, abs(d1 - d2) / max(1.0, abs(d1)))
    assert worst <= 1e-12


@pytest.mark.parametrize("rows", [4, 64, 128, 129, 2000])
def test_det3_and_cross3_agree_bit_for_bit_with_their_formulas_at_any_length(rows):
    def expansion(a, b, c):
        b0, b1, b2, c0, c1, c2 = b[..., 0], b[..., 1], b[..., 2], c[..., 0], c[..., 1], c[..., 2]
        return a[..., 0] * (b1 * c2 - b2 * c1) - a[..., 1] * (b0 * c2 - b2 * c0) + a[..., 2] * (b0 * c1 - b1 * c0)

    rng = np.random.default_rng(rows)
    a, b, c = rng.standard_normal((3, 2, rows, 3)) * np.exp(rng.uniform(-20.0, 20.0, (3, 2, rows, 1)))
    assert np.array_equal(cross3(a, b), np.cross(a, b))
    assert np.array_equal(cross3(a, b[0]), np.cross(a, b[0]))
    assert np.array_equal(det3(a, b, c), expansion(a, b, c))
    assert np.array_equal(det3(a, b[0], c[0]), expansion(a, b[0], c[0]))


@pytest.mark.parametrize("width", [2, 3])
def test_row_norms_have_the_bits_of_numpys_norm(width):
    rng = np.random.default_rng(width)
    v = rng.standard_normal((2, 3000, width)) * np.exp(rng.uniform(-30.0, 30.0, (2, 3000, width)))
    v[rng.random(v.shape) < 0.05] = 0.0
    for w in (v, v[1], v[:, ::-3], np.ascontiguousarray(v.transpose(2, 0, 1)).transpose(1, 2, 0)):
        assert np.array_equal(row_norms(w), np.linalg.norm(w, axis=-1))
        assert np.array_equal(row_norms(w), np.sqrt(np.add.reduce(w * w, axis=-1)))


def test_sign_of_dead_band():
    tol = ToleranceConfig(tol_sign=1e-9)
    assert strict_signs([5.0, 0.0, -1e-12, -1e-6], tol).tolist() == [1, 0, 0, -1]


def test_sign_changes_all_positive():
    assert cyclic_sign_changes(np.ones(6)) == (0, [])


def test_sign_changes_alternating():
    count, where = cyclic_sign_changes(np.array([1.0, -1.0, 1.0, -1.0]))
    assert count == 4
    assert where == [0, 1, 2, 3]


def test_sign_changes_mixed_sequence():
    # independent scan: flips at the 2 -> -1 and -3 -> 4 junctions
    count, where = cyclic_sign_changes(np.array([1.0, 2.0, -1.0, -3.0, 4.0, 5.0]))
    assert count == 2
    assert where == [1, 3]


def test_sign_changes_rejects_dead_band_zero():
    with pytest.raises(DegenerateSign):
        cyclic_sign_changes(np.array([1.0, 0.0, -1.0]))


@given(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=3, max_size=40))
@settings(max_examples=80)
def test_sign_change_count_is_even(values):
    count, _ = cyclic_sign_changes(np.array(values))
    assert count % 2 == 0


def test_sequences_reject_non_finite():
    with pytest.raises(ValueError):
        NodeSeq([1.0, np.nan, 2.0])
    with pytest.raises(ValueError):
        NodeSeq([1.0, 2.0])


def test_cyclic_indexing_wraps():
    g = NodeSeq([10.0, 20.0, 30.0])
    assert g[3] == 10.0
    assert g[-1] == 30.0


@st.composite
def stacked_rows(draw):
    """Segment lengths (1-6 segments of 3-40 rows), rows of 3-vectors and a row mask."""
    lengths = draw(st.lists(st.integers(3, 40), min_size=1, max_size=6))
    rows = sum(lengths)
    return lengths, draw(arrays(float, (rows, 3), elements=finite)), draw(arrays(bool, rows))


def split(lengths, a):
    return np.split(a, np.cumsum(lengths)[:-1])


def same(got, want) -> bool:
    """Equal, and bit for bit where arrays of floats are compared."""
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    return type(got) is type(want) and got == want


@given(stacked_rows())
@settings(max_examples=100, deadline=None)
def test_segment_primitives_match_numpy_on_each_segment(stack):
    lengths, v, mask = stack
    seg = Segments(lengths)
    parts, masks = split(lengths, v), split(lengths, mask)
    col = v[:, 0]
    for shift, step in ((seg.next, -1), (seg.prev, 1)):
        assert same(shift(v), np.concatenate([np.roll(p, step, axis=0) for p in parts]))
        assert same(shift(col), np.concatenate([np.roll(p[:, 0], step) for p in parts]))
    assert same(seg.max(v.T), np.array([p.max(axis=0) for p in parts]).T)
    assert same(seg.peak(v), np.array([p.max() for p in parts]))
    assert same(seg.spread(np.arange(len(lengths))), np.repeat(np.arange(len(lengths)), lengths))
    # each sum is added up as numpy adds up that segment's column on its own
    assert same(seg.sums(col), np.array([np.add.reduce(np.ascontiguousarray(p[:, 0])) for p in parts]))
    assert same(seg.sums(v.T), np.array([[np.add.reduce(np.ascontiguousarray(c)) for c in p.T] for p in parts]))
    assert seg.slots(mask) == [np.flatnonzero(m).tolist() for m in masks]
    assert seg.nodes_after(mask) == [np.flatnonzero(np.roll(m, 1)).tolist() for m in masks]
    hits = [(s, int(np.argmax(m))) for s, m in enumerate(masks) if m.any()]
    want = (hits[0][0], hits[0][1], sum(lengths[:hits[0][0]]) + hits[0][1]) if hits else None
    assert seg.find(mask) == want
    assert seg.first(np.array([m.any() for m in masks])) == (hits[0][0] if hits else None)


@given(st.integers(3, 40).flatmap(lambda n: st.tuples(arrays(float, (n, 3), elements=finite), arrays(bool, n))))
@settings(max_examples=60, deadline=None)
def test_a_polygon_on_its_own_is_a_stack_of_one(case):
    v, mask = case
    n = len(v)
    alone, stacked = Segments.one(n), Segments([n])
    for op in (
        lambda s: s.next(v), lambda s: s.prev(v), lambda s: s.max(v.T), lambda s: s.peak(v),
        lambda s: s.spread(np.array([2.5])), lambda s: s.sums(v.T), lambda s: s.slots(mask),
        lambda s: s.nodes_after(mask), lambda s: s.find(mask), lambda s: s.first(np.array([mask.any()])),
        lambda s: s.parts(v[:, 0]), lambda s: s.rows(0), lambda s: s.signs(v[:, 0], DEFAULT_TOL),
    ):
        assert same(op(alone), op(stacked))
    assert alone.unstack(["result"]) == "result"
    assert stacked.unstack(["result"]) == ["result"]
    assert Segments.one(n) is alone
