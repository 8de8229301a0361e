"""Plants one fault per oracle check and shows that the check catches it.

    python3 bench/selftest.py

Each case runs an oracle check twice: on true outputs of the program, where
it must pass, and on the same outputs with one planted fault, where it must
fail.  Exits 0 when every case behaves so, 1 otherwise.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import centropoly as cp  # noqa: E402
import centropoly.cli  # noqa: E402

import oracle  # noqa: E402

REL = 1e-6  # the planted relative error
FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def cli(*argv: str, stdin: str = "") -> str:
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = centropoly.cli.main(list(argv))
    finally:
        sys.stdin = saved
    if rc != 0:
        raise SystemExit(f"centropoly {' '.join(argv)} exited {rc}")
    return out.getvalue()


def bump(a: np.ndarray, row: int, rel: float = REL) -> np.ndarray:
    """A copy of a with one row moved by rel times its norm, off its own direction."""
    a = np.array(a, dtype=float)
    v = a[row]
    side = np.roll(v, 1) - v * (np.roll(v, 1) @ v) / (v @ v)  # orthogonal to v
    if not np.any(side):
        side = np.eye(len(v))[0]
    a[row] = v + rel * np.linalg.norm(v) * side / np.linalg.norm(side)
    return a


def digit15(text: str, after: str = "") -> str:
    """Change the 15th significant digit of the first float, past `after`, that has one."""
    for m in FLOAT.finditer(text, text.index(after)):
        mantissa = m.group().split("e")[0]
        sig = [k for k, ch in enumerate(mantissa) if ch.isdigit()]
        sig = sig[next(i for i, k in enumerate(sig) if mantissa[k] != "0"):]
        if len(sig) >= 15:
            pos = m.start() + sig[14]
            new = str((int(text[pos]) + 1) % 10)
            return text[:pos] + new + text[pos + 1:]
    raise ValueError("no float with 15 significant digits")


def cases():
    P = cp.random_framed_polygon(cp.GenConfig(seed=3, n=60))
    X, U = P.X.values, P.U.values
    D = cp.dual_pair(P)
    Y, V = D.Y.values, D.V.values
    B = cp.dual_of_dual(D)
    Xb, Ub = B.X.values, B.U.values
    alpha, beta = cp.alpha(P).values, cp.beta(P).values
    own = oracle.flattening_set(X)
    flats = cp.flattening_nodes(P)
    shifted = [flats[0] + 1] + flats[1:]

    pp = cp.random_planar_pair(cp.GenConfig(seed=4, n=40))
    x, u = pp.x.values, pp.u.values
    Yp = cp.cylindrical_pedal(pp).Y.values
    E = np.tile([0.0, 0.0, 1.0], (len(x), 1))
    back = cp.unpedal(cp.EdgeSeq(Yp), np.array([0.0, 0.0, 1.0]))

    rt_error = json.loads(cli("dual", "-", "--roundtrip", stdin=cli(
        "generate", "--kind", "framed", "--n", "60", "--seed", "3")))["roundtrip_error"]

    text = cli("generate", "--kind", "framed", "--n", "12", "--seed", "7")
    source = cp.random_framed_polygon(cp.GenConfig(seed=7, n=12)).X.values
    obj_text = cli("export", "-", stdin=text)

    counts = [4, 6, 4]
    hist = {"4": 2, "6": 1}

    return [
        ("alpha > 0 (orientation reversed)",
         lambda: oracle.check_volumes(X, U), lambda: oracle.check_volumes(X[::-1], U[::-1])),
        ("alpha agrees with the oracle",
         lambda: oracle.check_volumes(X, U, alpha, beta),
         lambda: oracle.check_volumes(X, U, alpha * (1 + REL * (np.arange(len(alpha)) == 5)), beta)),
        ("beta agrees with the oracle",
         lambda: oracle.check_volumes(X, U, alpha, beta),
         lambda: oracle.check_volumes(X, U, alpha, beta * (1 + REL * (np.arange(len(beta)) == 5)))),
        ("flattening set (one index shifted)",
         lambda: oracle.check_flattenings(own, ("flattening_nodes", flats)),
         lambda: oracle.check_flattenings(own, ("flattening_nodes", shifted))),
        ("at least four, even, flattenings",
         lambda: oracle.check_flattenings([1, 5, 9, 14]), lambda: oracle.check_flattenings([1, 5, 9])),
        ("flattening histogram",
         lambda: oracle.check_histogram(counts, hist),
         lambda: oracle.check_histogram(counts, {"4": 1, "6": 2})),
        ("U' parallel to X'",
         lambda: oracle.check_parallel(X, U), lambda: oracle.check_parallel(X, bump(U, 7))),
        ("dual incidences (Y perturbed by 1e-6 relative)",
         lambda: oracle.check_incidences(X, U, Y, V),
         lambda: oracle.check_incidences(X, U, Y * (1 + REL), V)),
        ("dual incidences (one V row perturbed)",
         lambda: oracle.check_incidences(X, U, Y, V),
         lambda: oracle.check_incidences(X, U, Y, bump(V, 11))),
        ("dual of dual returns (X, U): X",
         lambda: oracle.check_roundtrip(X, U, Y, V, Xb, Ub),
         lambda: oracle.check_roundtrip(X, U, Y, V, bump(Xb, 3), Ub)),
        ("dual of dual returns (X, U): U",
         lambda: oracle.check_roundtrip(X, U, Y, V, Xb, Ub),
         lambda: oracle.check_roundtrip(X, U, Y, V, Xb, bump(Ub, 3))),
        ("dual --roundtrip error within the bound (error 1e-6)",
         lambda: oracle.check_roundtrip_error(X, U, Y, V, rt_error),
         lambda: oracle.check_roundtrip_error(X, U, Y, V, REL)),
        ("dual of the pedal is the lifting",
         lambda: oracle.check_pedal(x, u, Yp, E), lambda: oracle.check_pedal(x, u, bump(Yp, 2), E)),
        ("pedal field is vertical",
         lambda: oracle.check_pedal(x, u, Yp, E), lambda: oracle.check_pedal(x, u, Yp, E + [0.0, 1e-6, 0.0])),
        ("pedal --invert gives back the planar pair",
         lambda: oracle.check_unpedal(x, u, Yp, E, back.x.values, back.u.values),
         lambda: oracle.check_unpedal(x, u, Yp, E, bump(back.x.values, 4), back.u.values)),
        ("JSON parse is bit-exact (15th digit changed)",
         lambda: oracle.check_bits("nodes", oracle.load_sorted(text)[0]["nodes"], source),
         lambda: oracle.check_bits("nodes", oracle.load_sorted(digit15(text, '"nodes"'))[0]["nodes"], source)),
        ("JSON keys sorted",
         lambda: oracle.load_sorted(text)[1],
         lambda: oracle.load_sorted(text.replace('"field"', '"zfield"', 1))[1]),
        ("same command, same bytes",
         lambda: oracle.check_repeat("generate", text, text),
         lambda: oracle.check_repeat("generate", text, digit15(text))),
        ("OBJ vertices bit-exact",
         lambda: oracle.parse_obj(obj_text, source), lambda: oracle.parse_obj(digit15(obj_text), source)),
    ]


def main() -> int:
    bad = 0
    for name, clean, planted in cases():
        ok_clean = clean() == []
        caught = planted()
        status = "ok" if ok_clean and caught else "FAIL"
        bad += status == "FAIL"
        detail = caught[0] if caught else "not caught"
        print(f"{status:4s} {name}: clean {'passes' if ok_clean else 'FAILS: ' + str(clean())}; "
              f"planted -> {detail}")
    print(f"{bad} of the self-test cases failed" if bad else "every planted fault was caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
