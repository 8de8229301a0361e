import json
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from centropoly import FramedPolygon, cli, cyclic, duality, fixtures, generators, invariants, pedal
from centropoly.documents import dump_json, framed_to_document
from centropoly.errors import DualityResidual


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    base = tmp_path_factory.mktemp("docs")
    fx = fixtures()
    square = base / "square.json"
    square.write_text(dump_json(framed_to_document(fx["lifted_square"])))
    half = base / "half.json"
    pp = fx["half_square_pair"]
    half.write_text(dump_json({"n": 4, "x": pp.x.values.tolist(), "u": pp.u.values.tolist()}))
    hexagon = base / "hexagon.json"
    hexagon.write_text(dump_json(framed_to_document(fx["perturbed_hexagon"])))
    return {"square": str(square), "half": str(half), "hexagon": str(hexagon), "dir": base}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_square(docs, capsys):
    code, out, _ = run(capsys, "analyze", docs["square"])
    assert code == 0
    data = json.loads(out)
    assert data["alpha"]["values"] == [4.0, 4.0, 4.0, 4.0]
    assert data["beta"]["values"] == [2.0, 2.0, 2.0, 2.0]
    assert data["b"]["values"] == [0.0, 0.0, 0.0, 0.0]
    assert data["lambda"]["values"] == [1.0, 1.0, 1.0, 1.0]
    assert data["delta"]["values"] == [0.0, 0.0, 0.0, 0.0]
    assert data["beta"]["indexing"] == "edge"
    assert data["is_constant_curvature"] is True
    assert data["is_generic"] is False
    assert data["flattenings"] is None


def test_analyze_hexagon_flattenings(docs, capsys):
    code, out, _ = run(capsys, "analyze", docs["hexagon"])
    assert code == 0
    data = json.loads(out)
    assert data["is_generic"] is True
    assert data["flattenings"] == [0, 2, 4, 5]


@pytest.mark.parametrize("kind, n, smallest", [("framed", 4, 5), ("framed", 3, 5), ("planar", 3, 4)])
def test_generate_refuses_a_size_with_no_nonconstant_parallel_field_before_any_draw(
    kind, n, smallest, monkeypatch, capsys
):
    # closure leaves only constant curvature below `smallest` nodes
    streams = Counter()
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        streams["default_rng"] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    code, out, err = run(capsys, "generate", "--kind", kind, "--n", str(n))
    assert (code, out, streams["default_rng"]) == (2, "", 0)
    assert "ValueError" in err and "constant" in err
    code, out, _ = run(capsys, "generate", "--kind", kind, "--n", str(smallest))
    assert code == 0 and json.loads(out)["n"] == smallest and streams["default_rng"] > 0


def test_analyze_rejects_bad_field_length(docs, tmp_path, capsys):
    doc = json.loads(Path(docs["square"]).read_text())
    doc["field"] = doc["field"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "field length" in err


@pytest.mark.parametrize("command, key", [("analyze", "hexagon"), ("pedal", "half")])
@pytest.mark.parametrize("make_n", [lambda n: n + 0.9, lambda n: True, str],
                         ids=["float", "bool", "string"])
def test_documents_need_a_json_integer_n(command, key, make_n, docs, tmp_path, capsys):
    doc = json.loads(Path(docs[key]).read_text())
    doc["n"] = make_n(doc["n"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert "integer n" in err


@pytest.mark.parametrize(
    "origin",
    [[[0, 0, 0]], [[0], [0], [0]], [1, 2], "abc", True, [10**400, 0, 0]],
    ids=["nested-row", "nested-column", "two-entries", "string", "bool", "out-of-range"],
)
def test_analyze_rejects_a_malformed_origin_by_name(origin, docs, tmp_path, capsys):
    doc = json.loads(Path(docs["square"]).read_text())
    doc["origin"] = origin
    path = tmp_path / "origin.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "ValidationError" in err and "origin" in err


def test_analyze_rejects_an_integer_node_out_of_float_range(docs, tmp_path, capsys):
    doc = json.loads(Path(docs["square"]).read_text())
    doc["nodes"][0][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "ValidationError" in err and "nodes" in err


@pytest.mark.parametrize("entry", [True, "1"], ids=["bool", "string"])
@pytest.mark.parametrize("key, field", [("square", "nodes"), ("square", "field"), ("half", "x"), ("half", "u")])
def test_documents_reject_an_entry_that_is_not_a_json_number_by_name(key, field, entry, docs, tmp_path, capsys):
    doc = json.loads(Path(docs[key]).read_text())
    doc[field][0][0] = entry
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze" if key == "square" else "pedal", str(path))
    assert code == 2
    assert out == ""
    assert "ValidationError" in err and field in err


def test_dual_fixture_and_roundtrip(docs, capsys):
    code, out, _ = run(capsys, "dual", docs["square"], "--roundtrip")
    assert code == 0
    data = json.loads(out)
    assert data["dual"]["nodes"][0] == [0.0, -1.0, 1.0]
    assert data["dual"]["field"][0] == [0.0, 1.0, 0.0]
    assert data["dual"]["indexing"] == "edge"
    assert data["report"]["beta_dual_residual"] <= 1e-9
    assert data["report"]["alpha_dual_residual"] <= 1e-9
    assert data["report"]["sigma_observed"] == 1
    assert data["roundtrip_error"] <= 1e-9


def test_pedal_forward_and_invert(docs, tmp_path, capsys):
    code, out, _ = run(capsys, "pedal", docs["half"])
    assert code == 0
    data = json.loads(out)
    assert data["nodes"][0] == [0.0, -1.0, 0.5]
    pedal_doc = tmp_path / "pedal.json"
    pedal_doc.write_text(out)
    code, out, _ = run(capsys, "pedal", str(pedal_doc), "--invert")
    assert code == 0
    back = json.loads(out)
    assert np.max(np.abs(np.array(back["x"]) - [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])) <= 1e-9


def test_pedal_invert_reads_the_document_origin(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--kind", "planar", "--n", "12", "--seed", "7")
    assert code == 0
    planar = json.loads(out)
    path = tmp_path / "planar.json"
    path.write_text(out)
    code, out, _ = run(capsys, "pedal", str(path))
    assert code == 0
    doc = json.loads(out)
    t = [0.5, -0.25, 2.0]
    doc["nodes"] = (np.array(doc["nodes"]) + t).tolist()
    doc["origin"] = t
    x, u = np.array(planar["x"]), np.array(planar["u"])
    bound = 1e-12 * np.max(np.abs(x))
    for fieldless in (False, True):  # the field, then E3 by default
        if fieldless:
            del doc["field"]
        path.write_text(dump_json(doc))
        code, out, _ = run(capsys, "pedal", str(path), "--invert")
        assert code == 0
        back = json.loads(out)
        assert np.max(np.abs(np.array(back["x"]) - x)) <= bound
        assert np.max(np.abs(np.array(back["u"]) - u)) <= bound


@pytest.fixture
def framed_doc(capsys):
    """The ``generate --kind framed --n 12 --seed 7`` document, as a dict."""
    code, out, _ = run(capsys, "generate", "--kind", "framed", "--n", "12", "--seed", "7")
    assert code == 0
    return json.loads(out)


def assert_translated(got, want, t):
    """``got`` is ``want`` with every focal ``position`` moved by t.

    Integers, booleans, strings and nulls match exactly; number arrays and
    scalars match within 1e-12 relative to the largest entry of ``want``, or
    to 1 for a scalar residual.
    """
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            if key == "position":
                assert_translated(list(np.subtract(got[key], t)), want[key], t)
            else:
                assert_translated(got[key], want[key], t)
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    elif isinstance(want, list) and want and all(isinstance(v, (float, list)) for v in want):
        got_arr, want_arr = np.array(got, dtype=float), np.array(want, dtype=float)
        assert got_arr.shape == want_arr.shape
        assert np.max(np.abs(got_arr - want_arr)) <= 1e-12 * np.max(np.abs(want_arr))
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_translated(g, w, t)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("command", ["analyze", "dual --roundtrip", "export --with-focal"])
def test_document_origin_is_subtracted_and_added_back(command, framed_doc, tmp_path, capsys):
    # the same polygon written about the origin t: results match, positions move by t
    t = [0.5, -0.25, 2.0]
    shifted = dict(framed_doc, nodes=(np.array(framed_doc["nodes"]) + t).tolist(), origin=t)
    outputs = []
    for name, doc in (("plain", framed_doc), ("shifted", shifted)):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(doc))
        verb, *flags = command.split()
        code, out, _ = run(capsys, verb, str(path), *flags)
        assert code == 0
        outputs.append(out)
    want, got = outputs
    if command.startswith("export"):
        assert len(got.splitlines()) == len(want.splitlines())
        for g, w in zip(got.splitlines(), want.splitlines()):
            if w.startswith("v "):  # polygon nodes and focal points alike
                g_pos = np.array(g.split()[1:], dtype=float) - t
                w_pos = np.array(w.split()[1:], dtype=float)
                assert np.max(np.abs(g_pos - w_pos)) <= 1e-12 * np.max(np.abs(w_pos))
            else:
                assert g == w
    else:
        want, got = json.loads(want), json.loads(got)
        if command == "analyze":
            assert (got.pop("origin"), want.pop("origin")) == (t, [0.0, 0.0, 0.0])
        assert_translated(got, want, t)


def test_dual_roundtrip_of_a_large_scale_document(framed_doc, tmp_path, capsys):
    # alpha is about 1e300 here: products of two alphas or three betas leave the double range
    doc = dict(framed_doc, nodes=(np.array(framed_doc["nodes"]) * 1e100).tolist())
    path = tmp_path / "large.json"
    path.write_text(dump_json(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "dual", str(path), "--roundtrip")
    assert code == 0, err
    data = json.loads(out)
    assert np.all(np.isfinite(data["dual"]["nodes"])) and np.all(np.isfinite(data["dual"]["field"]))
    report = data["report"]
    assert max(report["alpha_dual_residual"], report["beta_dual_residual"], data["roundtrip_error"]) <= 1e-12


def test_pedal_invert_rejects_nonconstant_curvature(tmp_path, capsys):
    from centropoly import GenConfig, dual_pair, random_framed_polygon

    P = random_framed_polygon(GenConfig(seed=3, n=9))
    D = dual_pair(P)
    doc = {
        "n": 9,
        "nodes": D.Y.values.tolist(),
        "field": D.V.values.tolist(),
        "origin": [0.0, 0.0, 0.0],
        "indexing": "edge",
    }
    path = tmp_path / "ncc.json"
    path.write_text(dump_json(doc))
    code, _, err = run(capsys, "pedal", str(path), "--invert")
    assert code == 3
    assert "not planar" in err


def test_generate_deterministic_bytes(capsys):
    code, out1, _ = run(capsys, "generate", "--kind", "radial", "--n", "12", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "generate", "--kind", "radial", "--n", "12", "--seed", "7")
    assert out1 == out2


def test_generate_radial_validates(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "radial", "--n", "12", "--seed", "7")
    data = json.loads(out)
    from centropoly import NodeSeq, is_convex, is_generic

    X = np.array(data["nodes"])
    assert is_generic(NodeSeq(X))
    lam = X[:, 2]  # the radial projection onto z = 1
    assert np.all(lam > 0.0)
    assert is_convex(NodeSeq(X[:, :2] / lam[:, None]))


def test_generate_framed_and_planar(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "framed", "--n", "9", "--seed", "2")
    assert code == 0
    assert json.loads(out)["n"] == 9
    code, out, _ = run(capsys, "generate", "--kind", "planar", "--n", "7", "--seed", "2")
    assert code == 0
    assert set(json.loads(out)) == {"n", "x", "u"}


def test_generate_equal_volume(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "equal-volume", "--n", "10", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    from centropoly import NodeSeq, is_equal_volume

    assert is_equal_volume(NodeSeq(np.array(data["nodes"])))


def test_verify_small_run(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--instances", "20", "--n-range", "5..20", "--seed", "1",
        "--report", str(report_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == 20
    assert data["passes"] == 20 * data["checks_per_instance"]
    assert data["failures"] == []
    assert data["sigma_observed"] == 1
    for count, freq in data["flattening_histogram"].items():
        assert int(count) >= 4 and int(count) % 2 == 0 and freq > 0
    assert json.loads(report_path.read_text())["instances"] == 20
    assert "sigma=+1" in err


@pytest.mark.parametrize("where", ["missing/r.json", "."], ids=["missing-directory", "a-directory"])
def test_verify_rejects_an_unwritable_report_before_generating(where, tmp_path, monkeypatch, capsys):
    def generating(*args):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(cli, "random_radial_instances", generating)
    code, out, err = run(capsys, "verify", "--instances", "2", "--report", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert "ValidationError" in err and "cannot write report" in err


@pytest.mark.parametrize(
    "flags, named",
    [(("--seed", "-1"), "--seed"), (("--lambda-range", "2..1"), "lambda_range")],
    ids=["negative-seed", "empty-lambda-range"],
)
def test_verify_rejects_bad_generation_flags_before_opening_the_report(flags, named, tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, err = run(capsys, "verify", "--instances", "2", *flags, "--report", str(path))
    assert code == 2
    assert out == ""
    assert named in err
    assert not path.exists()


def test_generate_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "generate", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "ValidationError" in err and "--seed" in err


def test_verify_deterministic_bytes(tmp_path, capsys):
    argv = ["verify", "--instances", "5", "--seed", "2"]
    _, out1, _ = run(capsys, *argv, "--report", str(tmp_path / "a.json"))
    _, out2, _ = run(capsys, *argv, "--report", str(tmp_path / "b.json"))
    assert out1 == out2
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_records_one_failure_under_the_raising_check(monkeypatch, capsys):
    def raising(D):
        raise DualityResidual("planted")

    monkeypatch.setattr(cli, "dual_of_dual", raising)
    code, out, _ = run(capsys, "verify", "--instances", "2")
    assert code == 1
    data = json.loads(out)
    assert [f["check"] for f in data["failures"]] == ["duality_involution"] * 2
    assert all(f["error"] == "planted" and f["residual"] is None for f in data["failures"])
    assert data["checks_per_instance"] == 9
    assert data["passes"] == 2 * 3  # the three checks before it; the five after it do not run


def test_verify_sigma_constant_checks_the_dual_curvature_fit(monkeypatch, capsys):
    # b(Y,V) = 2 sigma lambda + 0.3 keeps every sign, so only the fit residual can see it
    dual_curvature = duality.dual_curvature
    monkeypatch.setattr(duality, "dual_curvature", lambda D, tol: 2.0 * dual_curvature(D, tol) + 0.3)
    code, out, _ = run(capsys, "verify", "--instances", "100", "--seed", "1")
    assert code == 1
    data = json.loads(out)
    assert [f["check"] for f in data["failures"]] == ["sigma_constant"] * 100
    assert all(f["residual"] > 0.1 for f in data["failures"])
    assert data["passes"] == 100 * 8


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_verify_rejects_fewer_than_one_instance(instances, capsys):
    code, out, err = run(capsys, "verify", "--instances", instances)
    assert code == 2
    assert out == ""
    assert "--instances" in err


@pytest.mark.parametrize("bounds", ["5.7..6.2", "5..6.5"])
def test_verify_rejects_non_integral_n_range(bounds, capsys):
    code, out, err = run(capsys, "verify", "--instances", "1", "--n-range", bounds)
    assert code == 2
    assert out == ""
    assert "ValidationError" in err and "--n-range" in err


@pytest.mark.parametrize("bounds", ["1..inf", "0.5..nan"])
@pytest.mark.parametrize("command", [("generate",), ("verify", "--instances", "2")])
def test_non_finite_lambda_range_is_rejected(command, bounds, capsys):
    code, out, err = run(capsys, *command, "--lambda-range", bounds)
    assert code == 2
    assert out == ""
    assert "ValueError" in err and "lambda_range" in err


def test_verify_reports_generation_failures(tmp_path, capsys):
    # with every radial scale 1 the polygon is planar, so no draw is generic
    path = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "verify", "--instances", "3", "--lambda-range", "1..1", "--report", str(path)
    )
    assert code == 4
    data = json.loads(out)
    assert [(f["seed"], f["check"]) for f in data["failures"]] == [([0, i], "generate") for i in range(3)]
    assert all(f["residual"] is None and "generic" in f["error"] for f in data["failures"])
    assert data["passes"] == 0
    assert data["checks_per_instance"] == 9
    assert path.read_text() == out


def test_verify_computes_each_invariant_once(monkeypatch, capsys):
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    fit = counted("fit", invariants._tangential_fit)
    pair = counted("dual_pair", duality.dual_pair)
    for module in (invariants, duality, pedal):
        monkeypatch.setattr(module, "_tangential_fit", fit)
    for module in (cli, duality):
        monkeypatch.setattr(module, "dual_pair", pair)
    for name in ("lambda_values", "delta_values"):
        prop = cached_property(counted(name, vars(FramedPolygon)[name].func))
        prop.__set_name__(FramedPolygon, name)
        monkeypatch.setattr(FramedPolygon, name, prop)
    monkeypatch.setattr(cyclic, "_as_cyclic_values", counted("wrap", cyclic._as_cyclic_values))
    monkeypatch.setattr(generators, "_convex_from_rng", counted("draw", generators._convex_from_rng))
    assert 50 * 40 <= cli.CHUNK_ROWS  # 50 instances with n <= 40 make one chunk
    for instances in (5, 50):
        calls.clear()
        code, _, _ = run(capsys, "verify", "--instances", str(instances), "--n-range", "5..40")
        assert code == 0
        # the chunk is generated in one retry round: no draw is rejected
        assert calls.pop("draw") == 1
        # NodeSeq/EdgeSeq are built per chunk, not per instance: by generation
        # (gamma and X for the acceptance tests, the stacked X), where the
        # battery's stack is assembled (X and the field, on X's segments) and
        # where a public function returns one: the dual pair, the polygon
        # dualized back and the planar parts
        assert calls.pop("wrap") == 11
        # per chunk, the curvature is fitted for (X, U), for its dual and for the planar parts
        assert calls == {"fit": 3, "lambda_values": 1, "delta_values": 1, "dual_pair": 1}


def test_dual_roundtrip_self_check_failure_exits_1(tmp_path, monkeypatch, capsys):
    def raising(D):
        raise DualityResidual("planted")

    code, out, _ = run(capsys, "generate", "--kind", "framed", "--n", "12", "--seed", "7")
    assert code == 0
    path = tmp_path / "framed.json"
    path.write_text(out)
    monkeypatch.setattr(cli, "dual_of_dual", raising)
    code, out, err = run(capsys, "dual", str(path), "--roundtrip")
    assert code == 1
    assert out == ""
    assert "DualityResidual" in err


def test_export_obj(docs, capsys):
    code, out, _ = run(capsys, "export", docs["square"])
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert "l 1 2 3 4 1" in lines


def test_export_with_focal_all_at_infinity(docs, capsys):
    code, out, err = run(capsys, "export", docs["square"], "--with-focal")
    assert code == 0
    assert "# skipped 4 focal points at infinity" in out
    assert "4 focal points at infinity omitted" in err


def test_export_with_finite_focal(tmp_path, capsys):
    from centropoly import fixtures, reframe

    P = reframe(fixtures()["lifted_square"], 1.0, 1.0)  # curvature -1, finite focal points
    path = tmp_path / "re.json"
    path.write_text(dump_json(framed_to_document(P)))
    code, out, _ = run(capsys, "export", str(path), "--with-focal")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 8
    assert any(l.startswith("l 5 6 7 8 5") for l in lines)


def test_analyze_deterministic_bytes(docs, capsys):
    _, out1, _ = run(capsys, "analyze", docs["hexagon"])
    _, out2, _ = run(capsys, "analyze", docs["hexagon"])
    assert out1 == out2


def test_unknown_format_rejected(docs, capsys):
    code, _, err = run(capsys, "export", docs["square"], "--format", "stl")
    assert code == 2
    assert "format" in err


def test_sign_dead_band_flag_widens(docs, capsys):
    # a huge dead-band absorbs every torsion sign, so nothing is generic
    code, out, _ = run(capsys, "--tol-sign", "0.99", "analyze", docs["hexagon"])
    assert code == 0
    data = json.loads(out)
    assert data["is_generic"] is False
    assert data["flattenings"] is None
