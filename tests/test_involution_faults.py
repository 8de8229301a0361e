"""Each faulty reconstruction of the dual of the dual is caught by the checks that compare it with the source.

Three readings compare ``dual_of_dual``'s result with the polygon it came
from: verify's check 4 (``duality_involution``), ``dual --roundtrip`` and
acceptance criterion 2.  Each fault below is planted in place of
``dual_of_dual``, so whatever check the library makes of its own result is
not part of it, and all three readings must still fail.  A fault returns
its X and U unvalidated, so each reading fails on its comparison, not on
building a polygon.
"""

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np
import pytest

from centropoly import GenConfig, NodeSeq, cli, dual_of_dual, dual_pair, random_framed_polygon
from centropoly.cyclic import cross3, det3
from test_acceptance import TOL, rel_err


@dataclass(frozen=True)
class Pair:
    X: NodeSeq
    U: NodeSeq


def wrong_end_of_the_edge(D, tol=None):
    """The reconstruction with V read at the far end of each dual edge instead of the near one."""
    seg = D.segments
    Yv, Vv = D.Y.values, D.V.values
    Y_prev = seg.prev(Yv)
    bd = det3(Y_prev, Yv, Vv)[:, None]
    Xv, Uv = cross3(np.array((Y_prev, Yv - Y_prev)), np.array((Yv, seg.next(Vv)))) / bd
    return Pair(NodeSeq.on(Xv, seg), NodeSeq.on(Uv, seg))


def one_node_scaled(D, tol=None):
    """The real result with the first node of each polygon scaled by 1 + 1e-6."""
    back = dual_of_dual(D)
    seg = D.segments
    Xv = back.X.values.copy()
    Xv[seg.starts] *= 1.0 + 1e-6
    return Pair(NodeSeq.on(Xv, seg), back.U)


def field_tilted(D, tol=None):
    """The real result with U replaced by U + 1e-6 X."""
    back = dual_of_dual(D)
    return Pair(back.X, NodeSeq.on(back.U.values + 1e-6 * back.X.values, D.segments))


FAULTS = [wrong_end_of_the_edge, one_node_scaled, field_tilted]


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("fault", FAULTS, ids=[f.__name__ for f in FAULTS])
def test_every_reading_of_the_involution_catches_a_faulty_reconstruction(tmp_path, monkeypatch, fault):
    # acceptance criterion 2's comparison, on the first 20 of its polygons
    for i in range(20):
        n = int(np.random.default_rng([10, i, 0]).integers(5, 51))
        P = random_framed_polygon(GenConfig(seed=[10, i, 1], n=n))
        back = fault(dual_pair(P))
        assert max(rel_err(back.X.values, P.X.values), rel_err(back.U.values, P.U.values)) > TOL

    code, text = run("generate", "--kind", "framed", "--n", "12", "--seed", "7")
    assert code == 0
    path = tmp_path / "framed.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "dual_of_dual", fault)
    code, text = run("dual", str(path), "--roundtrip")
    assert code == 1
    assert json.loads(text)["roundtrip_error"] > 1e-9

    code, text = run("verify", "--instances", "50", "--seed", "1")
    assert code == 1
    failures = json.loads(text)["failures"]
    assert [f["check"] for f in failures] == ["duality_involution"] * 50
    assert all(f["residual"] > 1e-9 for f in failures)
    assert sorted(f["seed"][1] for f in failures) == list(range(50))
