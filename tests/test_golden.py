"""Golden outputs: the sha256 prefix of stdout and the exit code of fixed CLI runs.

A change that keeps every floating-point operation keeps these bytes.  A
change that alters an output on purpose updates its value here and says why.
"""

import argparse
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from centropoly import GenConfig, cli, random_radial_instance
from centropoly.cyclic import DEFAULT_TOL
from centropoly.documents import dump_json

GENERATE = {
    "framed": (("--kind", "framed", "--n", "12", "--seed", "7"), "97af493277058284"),
    "radial": (("--kind", "radial", "--n", "12", "--seed", "7"), "ef6d06dbc970e6fd"),
    "equal-volume": (("--kind", "equal-volume", "--n", "10", "--seed", "7"), "157da6dace3e8953"),
    "planar": (("--kind", "planar", "--n", "12", "--seed", "7"), "a050a12a4b79007d"),
    "framed-40": (("--kind", "framed", "--n", "40", "--seed", "3"), "4cf8808311bf1d28"),
    "framed-300": (("--kind", "framed", "--n", "300", "--seed", "11"), "73d4b488485e20e6"),
}

# the framed document translated by this vector, written with it as its origin
SHIFT = [0.1, 0.2, 0.3]

# (command, document) -> stdout prefix; every run exits 0
DOCUMENTS = {
    ("analyze", "framed"): "57b85fa5e39d1390",
    ("analyze", "radial"): "e417fcd3f15ee1d3",
    ("analyze", "equal-volume"): "8679c28fe15f54eb",
    ("analyze", "framed-40"): "a9e154d3e4bf79ee",
    ("analyze", "framed-300"): "a507b9d3b0f0dd0e",
    ("dual --roundtrip", "framed"): "782d9cc35ba0c905",
    ("dual --roundtrip", "radial"): "305f999cf0d596ee",
    ("dual --roundtrip", "equal-volume"): "15fafb14785d480a",
    ("dual --roundtrip", "framed-40"): "c88f8f30bfdcf967",
    ("dual --roundtrip", "framed-300"): "44a0f82518cab371",
    ("export --with-focal", "framed"): "7b7a98255cbea0b7",
    ("export --with-focal", "radial"): "7d9c8c2a1c5a4964",
    ("export --with-focal", "equal-volume"): "9a4e1b941dd0aa2e",
    ("export --with-focal", "framed-40"): "3fa1e7c83f899d7c",
    ("export --with-focal", "framed-300"): "b5a312a5e6ae27cd",
    ("analyze", "framed-shifted"): "27db73092b443a59",
    ("dual --roundtrip", "framed-shifted"): "b9aa868938b1ef6e",
    ("export --with-focal", "framed-shifted"): "d14f3ace1ad802f5",
    ("pedal", "planar"): "8cb37b8382b44d35",
    ("pedal --invert", "pedal"): "634065a8a29fd4a9",
}

# (global flags, verify flags, exit code, stdout prefix); the last two runs
# pin the failure paths: raised and residual failures, and failed generations
VERIFY = [
    ((), ("--instances", "100", "--seed", "1"), 0, "23ff26aa613ab5e5"),
    ((), ("--instances", "300", "--seed", "5", "--n-range", "5..12"), 0, "8db955c1839348bb"),
    ((), ("--instances", "40", "--seed", "2", "--n-range", "40..120"), 0, "9cf02d5728453b5c"),
    ((), ("--instances", "3", "--lambda-range", "1..1"), 4, "4f47ede6ea4f3053"),
    # the tangential verdict's bound has a rounding floor: the instances
    # whose dual curvature fit raised NotParallel at 1e-14 complete the
    # battery (passes 279 -> 289 and 274 -> 279)
    (("--tol-residual", "1e-14"), ("--instances", "40", "--seed", "3"), 1, "c5efc2be9d57af04"),
    (("--tol-sign", "3e-2", "--tol-residual", "1e-14"), ("--instances", "60", "--seed", "4"), 4,
     "5e98b3241978e2bb"),
    # instance 12 (n = 5) closes only at its second draw of edge lengths
    ((), ("--seed", "128"), 0, "98aa1549a6eac9ce"),
    # small n makes closure redraws common: 6 of these 300 instances have one
    ((), ("--instances", "300", "--n-range", "4..6", "--seed", "2"), 0, "4f759063b0962991"),
    # seeds past 32 and 64 bits: numpy splits each into more uint32 words of entropy
    ((), ("--instances", "50", "--seed", "4294967303"), 0, "0c191be1e838eacd"),
    ((), ("--instances", "50", "--seed", "18446744073709551617"), 0, "8ceaa3cc3992c8bd"),
]


def run(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and its sha256 prefix of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    return code, text, hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Path, exit code and stdout prefix of each generated document.

    "pedal" holds the path of the planar document's pedal and
    "framed-shifted" that of the framed document translated by SHIFT.
    """
    base = tmp_path_factory.mktemp("golden")
    out = {}
    for name, (args, _) in GENERATE.items():
        code, text, digest = run("generate", *args)
        path = base / f"{name}.json"
        path.write_text(text)
        out[name] = (str(path), code, digest)
    _, text, _ = run("pedal", out["planar"][0])  # checked as the ("pedal", "planar") case
    path = base / "pedal.json"
    path.write_text(text)
    out["pedal"] = (str(path), None, None)
    with open(out["framed"][0]) as fh:
        doc = json.load(fh)
    doc.update(nodes=(np.array(doc["nodes"]) + SHIFT).tolist(), origin=SHIFT)
    path = base / "framed-shifted.json"
    path.write_text(dump_json(doc))
    out["framed-shifted"] = (str(path), None, None)
    return out


@pytest.mark.parametrize("name", GENERATE)
def test_generate_golden(generated, name):
    _, code, digest = generated[name]
    assert (code, digest) == (0, GENERATE[name][1])


@pytest.mark.parametrize("command, name", DOCUMENTS, ids=[" ".join(k) for k in DOCUMENTS])
def test_document_command_golden(generated, command, name):
    verb, *flags = command.split()
    code, _, digest = run(verb, generated[name][0], *flags)
    assert (code, digest) == (0, DOCUMENTS[command, name])


def verify_id(case) -> str:
    flags, args = case[:2]
    return " ".join((*flags, "verify", *args) if flags else args)


@pytest.mark.parametrize("flags, args, exit_code, want", VERIFY, ids=[verify_id(v) for v in VERIFY])
def test_verify_golden(flags, args, exit_code, want):
    code, _, digest = run(*flags, "verify", *args)
    assert (code, digest) == (exit_code, want)


# a chunk of verify instances holds at most cli.CHUNK_ROWS polygon rows
CHUNKED = [VERIFY[1], VERIFY[4], VERIFY[5], VERIFY[7]]


@pytest.mark.parametrize("flags, args, exit_code, want", CHUNKED, ids=[verify_id(v) for v in CHUNKED])
def test_verify_report_does_not_depend_on_chunking(monkeypatch, flags, args, exit_code, want):
    code, text, _ = run(*flags, "verify", *args)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 1)  # one instance per chunk
    # the n streams seeded 9 at a time, hashed together; a last block of fewer takes default_rng
    monkeypatch.setattr(cli, "SEED_BLOCK", 9)
    assert run(*flags, "verify", *args)[:2] == (code, text)


def test_one_parser_carries_nothing_between_calls(tmp_path):
    cli._parser.cache_clear()
    fresh = run("generate")
    assert cli._parser() is cli._parser()
    assert run("generate", "--n", "9", "--seed", "5")[1] != fresh[1]
    assert run("generate") == fresh
    # a tolerance flag, then the default tolerance
    for flags, args, exit_code, want in (VERIFY[4], VERIFY[0]):
        assert run(*flags, "verify", *args)[::2] == (exit_code, want)
    # an argparse error exits 2 as it does from a parser built for it
    for argv in (["verify", "--instances", "x"], ["nonsense"], ["--tol-sign"]):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        assert exc.value.code == 2
    # --report, then no report: the second run writes no file
    flags, args, exit_code, want = VERIFY[0]
    report = tmp_path / "r.json"
    assert run("verify", *args, "--report", str(report))[::2] == (exit_code, want)
    report.unlink()
    assert run("verify", *args)[::2] == (exit_code, want)
    assert not report.exists()
    assert run("generate") == fresh


# (seed, instances, n range) -> sha256 prefix of the nodes of verify's instances
INSTANCE_BITS = {
    (128, 100, (5, 50)): "caafeea24d8e69bd",
    (183, 100, (5, 50)): "9618ac4d406a5c37",
    (2, 300, (4, 6)): "31cda9c4c2f31180",
}


@pytest.mark.parametrize("seed, instances, n_range", INSTANCE_BITS, ids=[str(k) for k in INSTANCE_BITS])
def test_verify_instances_keep_their_bits(seed, instances, n_range):
    lo, hi = n_range
    one_by_one = hashlib.sha256()
    for i in range(instances):
        n = int(np.random.default_rng([seed, i, 0]).integers(lo, hi + 1))
        one_by_one.update(random_radial_instance(GenConfig(seed=[seed, i, 1], n=n)).X.values.tobytes())
    chunked = hashlib.sha256()
    args = argparse.Namespace(seed=seed, instances=instances)
    for chunk in cli._verify_chunks(args, lo, hi, (0.5, 2.0), DEFAULT_TOL):
        for _, X in chunk:
            chunked.update(X.tobytes())
    want = INSTANCE_BITS[seed, instances, n_range]
    assert (one_by_one.hexdigest()[:16], chunked.hexdigest()[:16]) == (want, want)
