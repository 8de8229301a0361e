"""The parallel unimodular fields of an equal-volume polygon, against a linear-algebra oracle."""

import numpy as np

from centropoly import GenConfig, random_equal_volume_polygon


def parallel_unimodular_solutions(Xv):
    """Independent oracle: the affine space of parallel unimodular fields.

    Parametrizes parallel fields by the start vector and a curvature sequence
    from the closure kernel, then imposes the unit edge volumes as a linear
    system.  Returns (matrix, rhs, kernel) of that system.
    """
    n = len(Xv)
    E = np.roll(Xv, -1, axis=0) - Xv
    _, s, vt = np.linalg.svd(E.T, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * s[0]))
    K = vt[rank:].T
    m = K.shape[1]
    N = np.cross(Xv, np.roll(Xv, -1, axis=0))
    A = np.zeros((n, 3 + m))
    for i in range(n):
        A[i, :3] = N[i]
        if i > 0:
            A[i, 3:] -= (N[i] @ E[:i].T) @ K[:i]
    return A, np.ones(n), K, E


def field_from_params(params, K, E, n):
    U0, coords = params[:3], params[3:]
    b = K @ coords
    steps = -b[:, None] * E
    return U0 + np.vstack([np.zeros(3), np.cumsum(steps[:-1], axis=0)])


def test_parallel_unimodular_fields_form_a_line():
    # oracle: the solution space of the parallel+unimodular linear system is
    # one-dimensional and runs along X
    X, _ = random_equal_volume_polygon(GenConfig(seed=99, n=9))
    A, rhs, K, E = parallel_unimodular_solutions(X.values)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    assert np.max(np.abs(A @ sol - rhs)) <= 1e-9
    _, s, _ = np.linalg.svd(A)
    assert s[-1] <= 1e-9 * s[0] and s[-2] > 1e-6 * s[0]


def test_any_parallel_unimodular_field_differs_by_node_multiple():
    for seed in range(10):
        X, U_seq = random_equal_volume_polygon(GenConfig(seed=130 + seed, n=6 + (seed % 7)))
        Xv, U = X.values, U_seq.values
        A, rhs, K, E = parallel_unimodular_solutions(Xv)
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        other = field_from_params(sol, K, E, X.n)
        assert np.max(np.abs(A @ sol - rhs)) <= 1e-9
        diff = other - U
        c = float(diff[0] @ Xv[0] / (Xv[0] @ Xv[0]))
        resid = np.max(np.abs(diff - c * Xv))
        assert resid <= 1e-9 * max(1.0, float(np.max(np.abs(U))))

