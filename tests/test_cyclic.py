import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from centropoly.cyclic import strict_signs
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
