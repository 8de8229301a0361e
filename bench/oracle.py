"""Independent checks of centropoly's outputs, in numpy alone.

Nothing here imports centropoly.  Volumes are ``np.linalg.det`` of stacked
3x3 matrices (LU, not the program's cofactor expansion), vector products
are ``np.cross``, and sign changes are counted by a plain loop.

Every residual bound comes from the rounding model
``fl(x op y) = (x op y)(1 + d)``, ``|d| <= u = eps / 2`` (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2.2), applied to the magnitudes of the
inputs and to the conditioning of the 3x3 systems that define the dual pair.
No bound is fitted to observed residuals.

The constant ``C`` below counts rounding steps, in units of eps:

* a 3x3 determinant rounds about five times per term, and the sum of the
  absolute terms is at most 3^(3/2) |a| |b| |c| (each row's 1-norm is at
  most sqrt(3) times its 2-norm), so its error is at most 26u |a||b||c|;
* a vector product component rounds three times, at most 3u |a||b| after
  a dot with a unit vector; a 3-term dot product adds 3u |Y||Z|; a division
  and the subtraction forming an edge vector add u each.

Together that is about 35u, i.e. 18 eps.  ``C = 32`` leaves a factor near two
for second-order terms.  A planted relative error of 1e-6 exceeds every
bound below by many orders of magnitude at the sizes the benchmark uses.
"""

from __future__ import annotations

import json

import numpy as np

EPS = float(np.finfo(float).eps)
C = 32.0


def norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=-1))


def prev(v: np.ndarray) -> np.ndarray:
    return np.roll(v, 1, axis=0)


def nxt(v: np.ndarray) -> np.ndarray:
    return np.roll(v, -1, axis=0)


def det_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Determinants of the stacked 3x3 matrices with rows a[k], b[k], c[k]."""
    return np.linalg.det(np.stack((a, b, c), axis=-2))


def strict_signs(values: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """+1 / -1 where |value| exceeds its rounding bound, 0 where it does not."""
    out = np.zeros(len(values), dtype=int)
    out[values > errors] = 1
    out[values < -errors] = -1
    return out


# ---------------------------------------------------------------- volumes


def volumes(X: np.ndarray, U: np.ndarray):
    """alpha(i) = [X(i-1), X(i), X(i+1)], beta(i+1/2) = [X(i), X(i+1), U(i)], with error bounds."""
    Xp, Xn = prev(X), nxt(X)
    a = det_rows(Xp, X, Xn)
    b = det_rows(X, Xn, U)
    a_err = C * EPS * norms(Xp) * norms(X) * norms(Xn)
    b_err = C * EPS * norms(X) * norms(Xn) * norms(U)
    return a, a_err, b, b_err


def check_volumes(X, U, alpha_prog=None, beta_prog=None) -> list[str]:
    """alpha > 0 and beta > 0 beyond rounding; the program's values agree with ours."""
    out = []
    a, a_err, b, b_err = volumes(X, U)
    if not (a > a_err).all():
        out.append(f"alpha not positive at node {int(np.argmin(a - a_err))}")
    if not (b > b_err).all():
        out.append(f"beta not positive at edge {int(np.argmin(b - b_err))}")
    # two independent evaluations, each within its bound of the exact value
    for name, got, want, err in (("alpha", alpha_prog, a, a_err), ("beta", beta_prog, b, b_err)):
        if got is None:
            continue
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            out.append(f"{name} has {got.shape} values, expected {want.shape}")
            continue
        bad = np.abs(got - want) > 2.0 * err
        if bad.any():
            k = int(np.argmax(bad))
            out.append(f"{name}[{k}] = {got[k]!r} differs from the oracle {want[k]!r}")
    return out


# ---------------------------------------------------------------- flattenings


def torsion(X: np.ndarray):
    """Delta(k+1/2) = [X'(k+3/2), X'(k+1/2), X'(k-1/2)] in slot k, with error bounds.

    The edge vectors are formed by one subtraction each, a relative error of
    at most u, which the determinant bound absorbs.
    """
    e = nxt(X) - X
    en, ep = nxt(e), prev(e)
    d = det_rows(en, e, ep)
    err = C * EPS * norms(en) * norms(e) * norms(ep)
    return d, err


def flattening_set(X: np.ndarray) -> list[int] | None:
    """Nodes i where Delta(i-1/2) and Delta(i+1/2) have opposite strict signs.

    Returns None when some Delta lies within its rounding bound of zero, so
    that its sign cannot be decided.
    """
    d, err = torsion(X)
    s = strict_signs(d, err)
    if (s == 0).any():
        return None
    flats = []
    for i in range(len(s)):
        if s[i - 1] * s[i] < 0:
            flats.append(i)
    return flats


def check_flattenings(own: list[int] | None, *claimed: tuple[str, object]) -> list[str]:
    """At least four flattenings, an even number, and every claimed set equal to ours."""
    if own is None:
        return ["a torsion volume is within rounding of zero; flattenings undecidable"]
    out = []
    if len(own) < 4 or len(own) % 2:
        out.append(f"{len(own)} flattenings; the theorem needs an even count of at least 4")
    for name, got in claimed:
        if got is None or list(got) != own:
            out.append(f"{name} {got} differs from the oracle flattening set {own}")
    return out


def check_histogram(counts: list[int], reported: dict) -> list[str]:
    """The report's flattening histogram equals the one built from our own counts."""
    hist: dict[str, int] = {}
    for c in sorted(counts):
        hist[str(c)] = hist.get(str(c), 0) + 1
    if reported != hist:
        return [f"flattening histogram {reported} differs from the oracle's {hist}"]
    return []


# ---------------------------------------------------------------- parallel field


def check_parallel(X: np.ndarray, U: np.ndarray) -> list[str]:
    """U' is parallel to X': |U'(k) x X'(k)| within rounding of zero.

    U'(k) carries an absolute error of a few u (|U(k)| + |U(k+1)|), however
    small U' itself is, so the bound scales with |U| and not with |U'|.
    """
    e = nxt(X) - X
    du = nxt(U) - U
    resid = norms(np.cross(du, e))
    bound = C * EPS * (norms(U) + norms(nxt(U))) * norms(e)
    bad = resid > bound
    if bad.any():
        k = int(np.argmax(resid / bound))
        return [f"U' not parallel to X' at edge {k}: |U' x X'| = {resid[k]:.3e} > {bound[k]:.3e}"]
    return []


# ---------------------------------------------------------------- the dual pair


def dual_budget(X: np.ndarray, U: np.ndarray):
    """Absolute error budgets (in units of C eps) of a computed dual (Y, V) of (X, U).

    Y = X(i) x X(i+1) / beta and V = X'(i+1/2) x U(i) / beta.  The vector
    product errs by a few u |a||b| and beta by a few u |X(i)||X(i+1)||U(i)|,
    a relative error of kappa(i) = |X(i)||X(i+1)||U(i)| / beta(i), the
    conditioning of the edge's 3x3 system.
    """
    Xn = nxt(X)
    e = Xn - X
    beta = det_rows(X, Xn, U)
    kappa = norms(X) * norms(Xn) * norms(U) / beta
    return beta, kappa, norms(X) * norms(Xn) / beta, norms(e) * norms(U) / beta


def check_incidences(X, U, Y, V) -> list[str]:
    """The six defining relations of the dual pair, edge by edge.

    Y.X' = 0, Y.U = 1, Y.X = 0, V.X' = 0, V.U = 0, V.X = 1.  For relation
    W.Z = want the bound is C eps (|a||b||Z| / beta + want kappa), with a, b
    the two factors of W's vector product.
    """
    X, U, Y, V = (np.asarray(t, dtype=float) for t in (X, U, Y, V))
    if not (X.shape == U.shape == Y.shape == V.shape):
        return [f"shape mismatch: X {X.shape}, U {U.shape}, Y {Y.shape}, V {V.shape}"]
    beta, kappa, ab_Y, ab_V = dual_budget(X, U)
    if not (beta > 0).all():
        return ["beta not positive; the dual is undefined"]
    e = nxt(X) - X
    out = []
    for wname, W, ab in (("Y", Y, ab_Y), ("V", V, ab_V)):
        for zname, Z in (("X'", e), ("U", U), ("X", X)):
            want = 1.0 if (wname, zname) in (("Y", "U"), ("V", "X")) else 0.0
            got = (W * Z).sum(axis=1)
            bound = C * EPS * (ab * norms(Z) + want * kappa)
            ratio = np.abs(got - want) / bound
            if (ratio > 1.0).any():
                k = int(np.argmax(ratio))
                out.append(
                    f"{wname}.{zname} = {got[k]!r} at edge {k}, want {want}, bound {bound[k]:.3e}"
                )
    return out


def dual_of(Y: np.ndarray, V: np.ndarray):
    """The node-indexed pair whose dual is the edge-indexed (Y, V).

    X(i) is orthogonal to Y(i-1/2) and Y(i+1/2) with X(i).V(i+1/2) = 1;
    U(i) is orthogonal to Y(i+1/2) - Y(i-1/2) and to V(i-1/2), with
    U(i).Y(i+1/2) = 1.  Slot i of Y holds Y(i+1/2).
    """
    Yp, Vp = prev(Y), prev(V)
    X = np.cross(Yp, Y) / det_rows(Yp, Y, V)[:, None]
    U = np.cross(Y - Yp, Vp) / det_rows(Yp, Y, Vp)[:, None]
    return X, U


def inverse_bound(Y, V, aY, aV):
    """Absolute error bounds of a computed dual of (Y, V) at each node.

    aY, aV are the absolute error budgets of Y, V (in units of C eps, per
    slot).  First order: the errors of Y, V propagate through
    X = (Y- x Y) / d and U = (dY x V-) / d with d = [Y-, Y, V]; the computation
    itself adds C eps (|Y-||Y| / |d| + kappa' |X|), kappa' = |Y-||Y||V| / |d|,
    and likewise for U.  Returns (bound_X, bound_U), one value per node.
    """
    Yp, Vp = prev(Y), prev(V)
    nY, nYp, nV, nVp = norms(Y), norms(Yp), norms(V), norms(Vp)
    aYp, aVp = prev(aY), prev(aV)
    d = np.abs(det_rows(Yp, Y, V))
    X = np.cross(Yp, Y) / d[:, None]
    dY = Y - Yp
    U = np.cross(dY, Vp) / d[:, None]
    kappa = nYp * nY * nV / d
    d_err = aYp * nY * nV + nYp * aY * nV + nYp * nY * aV
    bound_X = (aYp * nY + nYp * aY) / d + norms(X) * d_err / d
    bound_X += nYp * nY / d + kappa * norms(X)
    bound_U = ((aYp + aY) * nVp + norms(dY) * aVp) / d + norms(U) * d_err / d
    bound_U += (nYp + nY) * nVp / d + kappa * norms(U)
    return C * EPS * bound_X, C * EPS * bound_U


def primal_budgets(X, U, Y, V):
    """Budgets aY, aV of the program's dual (Y, V) of (X, U); see dual_budget."""
    _, kappa, ab_Y, ab_V = dual_budget(X, U)
    return ab_Y + kappa * norms(Y), ab_V + kappa * norms(V)


def check_close(name: str, got, want, bound) -> list[str]:
    """|got - want| within the per-row bound."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name} has shape {got.shape}, expected {want.shape}"]
    resid = norms(got - want) if got.ndim == 2 else np.abs(got - want)
    ratio = resid / bound
    if (ratio > 1.0).any():
        k = int(np.argmax(ratio))
        return [f"{name} row {k} off by {resid[k]:.3e}, bound {bound[k]:.3e}"]
    return []


def check_roundtrip(X, U, Y, V, Xb, Ub) -> list[str]:
    """The program's dual of its dual (Xb, Ub) is (X, U) within the propagated bound."""
    aY, aV = primal_budgets(X, U, Y, V)
    bX, bU = inverse_bound(Y, V, aY, aV)
    return check_close("dual of dual X", Xb, X, bX) + check_close("dual of dual U", Ub, U, bU)


def check_roundtrip_error(X, U, Y, V, reported) -> list[str]:
    """The error that ``dual --roundtrip`` prints is within the propagated bound.

    The command prints max|Xb - X| / max(1, max|X|), and the same for U, and
    takes the larger; a component is at most the row norm that
    ``inverse_bound`` bounds, so the bound is scaled the same way.
    """
    if not isinstance(reported, float) or not 0.0 <= reported < float("inf"):
        return [f"roundtrip_error = {reported!r} is not a finite non-negative float"]
    aY, aV = primal_budgets(X, U, Y, V)
    bX, bU = inverse_bound(Y, V, aY, aV)
    scale_X = max(1.0, float(np.abs(X).max()))
    scale_U = max(1.0, float(np.abs(U).max()))
    bound = max(float(bX.max()) / scale_X, float(bU.max()) / scale_U)
    if reported > bound:
        return [f"roundtrip_error = {reported:.3e} exceeds the propagated bound {bound:.3e}"]
    return []


def check_pedal(x, u, Y, field) -> list[str]:
    """The pedal (Y, field) of the planar pair (x, u) is the dual of its lifting.

    So the oracle's own dual of (Y, field) must lie in the plane z = 1 and
    equal ((x, 1), (u, 0)).  The field must be the vertical constant.
    """
    x, u, Y, field = (np.asarray(t, dtype=float) for t in (x, u, Y, field))
    n = len(x)
    if not (field == np.array([0.0, 0.0, 1.0])).all():
        return ["pedal field is not the vertical constant (0, 0, 1)"]
    Xl = np.column_stack((x, np.ones(n)))
    Ul = np.column_stack((u, np.zeros(n)))
    aY, aV = primal_budgets(Xl, Ul, Y, field)
    bX, bU = inverse_bound(Y, field, aY, aV)
    Xo, Uo = dual_of(Y, field)
    # the oracle's own dual adds its own rounding, bounded by the same terms
    return (
        check_close("dual of pedal, height", Xo[:, 2], np.ones(n), 2.0 * bX)
        + check_close("dual of pedal X", Xo, Xl, 2.0 * bX)
        + check_close("dual of pedal U", Uo, Ul, 2.0 * bU)
    )


def check_unpedal(x, u, Y, field, x_back, u_back) -> list[str]:
    """pedal --invert gives back the planar pair (x, u) within the propagated bound."""
    x, u, Y, field = (np.asarray(t, dtype=float) for t in (x, u, Y, field))
    n = len(x)
    Xl = np.column_stack((x, np.ones(n)))
    Ul = np.column_stack((u, np.zeros(n)))
    aY, aV = primal_budgets(Xl, Ul, Y, field)
    bX, bU = inverse_bound(Y, field, aY, aV)
    return check_close("unpedal x", x_back, x, bX) + check_close("unpedal u", u_back, u, bU)


# ---------------------------------------------------------------- documents


def load_sorted(text: str) -> tuple[object, list[str]]:
    """json.loads, recording every object whose keys are not in sorted order."""
    unsorted: list[str] = []

    def hook(pairs):
        keys = [k for k, _ in pairs]
        if keys != sorted(keys):
            unsorted.append(f"keys not sorted: {keys}")
        return dict(pairs)

    try:
        obj = json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    return obj, unsorted


def check_bits(name: str, parsed, source) -> list[str]:
    """The parsed array equals the program's array bit for bit."""
    got = np.asarray(parsed, dtype=float)
    want = np.asarray(source, dtype=float)
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        return [f"{name}: parsed values differ from the program's arrays"]
    return []


def check_repeat(argv: str, first: str, again: str) -> list[str]:
    """The same command run twice emits the same bytes."""
    if first != again:
        return [f"{argv} emitted different bytes when run again"]
    return []


def parse_obj(text: str, nodes) -> list[str]:
    """The OBJ polyline lists the nodes bit for bit and closes the cycle."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    lines = text.splitlines()
    verts = [line for line in lines if line.startswith("v ")]
    if len(verts) < n:
        return [f"OBJ has {len(verts)} vertices, expected {n}"]
    rows = np.array([[float(t) for t in line.split()[1:]] for line in verts[:n]])
    out = check_bits("OBJ vertices", rows, nodes)
    cycle = " ".join(str(i + 1) for i in range(n)) + " 1"
    if f"l {cycle}" not in lines:
        out.append("OBJ polyline does not close the node cycle")
    return out
