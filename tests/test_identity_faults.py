"""A fault planted in lambda or in Delta is caught by verify's checks of the identities that read them.

Each fault replaces one cached array of ``FramedPolygon`` with a copy that
is wrong at the first slot of every polygon: lambda scaled by 1 + 1e-6, or
Delta with its sign flipped.  Whatever the library checks of its own
arrays is not part of this: the fault is in the arrays themselves, so
only the checks that compare them with an independent reading (the dual
curvature, the dual vertices, beta Delta = lambda' alpha alpha) can see
it.  Under either fault every instance of a verify run must fail.
"""

import contextlib
import io
import json
from functools import cached_property

import pytest

from centropoly import FramedPolygon, cli


def scale_lambda(values, starts):
    values[starts] *= 1.0 + 1e-6


def flip_delta(values, starts):
    values[starts] = -values[starts]


FAULTS = {"lambda_values": scale_lambda, "delta_values": flip_delta}


def plant(monkeypatch, name, fault):
    """Make FramedPolygon.<name> apply ``fault`` to the first slot of each polygon."""
    original = vars(FramedPolygon)[name].func

    def faulty(P):
        values = original(P).copy()
        fault(values, P.segments.starts)
        return values

    prop = cached_property(faulty)
    prop.__set_name__(FramedPolygon, name)
    monkeypatch.setattr(FramedPolygon, name, prop)


def verify(*argv: str) -> tuple[int, list[dict]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", *argv])
    return code, json.loads(out.getvalue())["failures"]


def test_verify_passes_without_a_fault():
    assert verify("--instances", "50", "--seed", "1") == (0, [])


@pytest.mark.parametrize("name", FAULTS)
def test_verify_catches_a_planted_fault_in_every_instance(monkeypatch, name):
    plant(monkeypatch, name, FAULTS[name])
    code, failures = verify("--instances", "50", "--seed", "1")
    assert code == 1
    assert sorted({f["seed"][1] for f in failures}) == list(range(50))
    assert "generate" not in {f["check"] for f in failures}
    if name == "lambda_values":
        # b(Y,V) = sigma lambda no longer fits one sign: the dual's curvature
        # is computed from Y and V, not from the faulty lambda
        failing = [f["seed"][1] for f in failures if f["check"] == "sigma_constant"]
        assert sorted(failing) == list(range(50))
