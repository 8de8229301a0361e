"""dump_json: the same bytes as the recursive formatter it replaced, its non-finite guard, and its cost per document.

``reference_dump_json`` is that formatter, kept here as the reference: one
Python call per value, each float through its own ``repr`` or ``.17g``.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centropoly import GenConfig, cli, documents, fixtures, random_framed_polygon
from centropoly.documents import ObjectRows, dump_json, framed_to_document


def reference_fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite numbers cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return format(x, ".17g")


def reference_dump_json(obj, indent: int = 0) -> str:
    """The recursive formatter: one call per value; a list is inline at <= 16 items of <= 24 characters."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dump_json(v, indent + 2) for v in obj]
        if all(len(s) <= 24 and "\n" not in s for s in items) and len(items) <= 16:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(f"{inner}{json.dumps(key)}: {reference_dump_json(obj[key], indent + 2)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# the values where the two formats meet or a string is longest: signed
# zeros, integers on both sides of 1e16, the smallest subnormal, the
# smallest normal and the largest magnitudes
EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.1, -1 / 3, 123456789012345.0, 9999999999999998.0, -9999999999999998.0,
    1e16, -1e16, 10000000000000002.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    -1.2345678901234567e-308, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
]
floats = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
    st.integers(10**16 - 64, 10**16 + 64).map(float),
)
float_arrays = st.one_of(
    arrays(np.float64, st.integers(0, 20), elements=floats),
    arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(0, 17)), elements=floats),
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30), floats, st.text(max_size=8),
    st.lists(st.integers(-(10**30), 10**30), max_size=20),
    st.lists(floats, max_size=20),
    float_arrays,
)
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=18), st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=12,
)


@given(float_arrays, st.sampled_from([0, 2, 6]))
@settings(max_examples=150, deadline=None)
def test_float_arrays_keep_the_bytes_of_the_recursive_formatter(a, indent):
    assert dump_json(a, indent) == reference_dump_json(a.tolist(), indent)
    assert dump_json(a.tolist(), indent) == reference_dump_json(a.tolist(), indent)


@given(json_trees)
@settings(max_examples=100, deadline=None)
def test_documents_keep_the_bytes_of_the_recursive_formatter(obj):
    assert dump_json(obj) == reference_dump_json(obj)


@given(
    arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(0, 17)), elements=floats),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_object_rows_keep_the_bytes_of_a_list_of_objects(rows, data):
    # keys and strings hold "%" and NUL, which the one formatting pass must
    # neither read as a format nor take for the row's slot
    text = st.text(alphabet=st.sampled_from("ab%\0é\""), max_size=4)
    shapes = data.draw(st.lists(st.tuples(text, st.dictionaries(text, text, max_size=2)), min_size=1, max_size=3))
    which = data.draw(st.lists(st.integers(0, len(shapes) - 1), min_size=len(rows), max_size=len(rows)))
    objects = [{**shapes[s][1], shapes[s][0]: row} for s, row in zip(which, rows.tolist())]
    got = dump_json({"values": ObjectRows(rows, which, tuple(shapes))})
    assert got == reference_dump_json({"values": objects})


def test_the_documents_the_tests_write_keep_their_bytes(fx):
    pp = fx["half_square_pair"]
    docs = [framed_to_document(fx[name]) for name in ("lifted_square", "perturbed_hexagon", "constant_curvature_pair")]
    docs.append({"n": 4, "x": pp.x.values.tolist(), "u": pp.u.values.tolist()})
    docs += [framed_to_document(random_framed_polygon(GenConfig(seed=s, n=n))) for s, n in ((1, 12), (2, 40))]
    for doc in docs:
        listed = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
        assert dump_json(doc) == dump_json(listed) == reference_dump_json(listed)


NON_FINITE = [math.nan, math.inf, -math.inf]
MESSAGE = "non-finite numbers cannot be serialized"


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_a_non_finite_value_is_refused_wherever_it_stands(bad):
    values = np.arange(1.0, 41.0)
    cases = [bad, np.float64(bad), [1.0, bad], [1, bad], {"k": [bad]}]
    for at in (0, 20, 39):  # first, middle and last entry
        a = values.copy()
        a[at] = bad
        cases += [a, a.reshape(20, 2), a.reshape(4, 10), a[:1] if at == 0 else a[at - 3:at + 1]]
        cases.append(ObjectRows(a.reshape(-1, 2), [0] * 20, (("p", {}),)))
    for case in cases:
        with pytest.raises(ValueError, match=f"^{MESSAGE}$"):
            dump_json(case)


@pytest.mark.parametrize("where", ["scalar", "array"])
def test_a_command_that_reaches_a_non_finite_value_exits_2_and_prints_nothing(where, monkeypatch, tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(dump_json(framed_to_document(fixtures()["lifted_square"])))
    if where == "scalar":  # dual --roundtrip writes its error as a scalar
        monkeypatch.setattr(cli, "involution_error", lambda P, back: math.nan)
        argv = ["dual", str(path), "--roundtrip"]
    else:  # analyze writes alpha as an array; its middle entry becomes +inf
        alpha = cli.alpha
        monkeypatch.setattr(cli, "alpha", lambda P: SimpleNamespace(values=alpha(P).values * [1, np.inf, 1, 1]))
        argv = ["analyze", str(path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert MESSAGE in captured.err


def dump_calls(monkeypatch, capsys, argv) -> tuple[int, str]:
    """The calls of dump_json while the CLI runs argv, its own recursive calls included, and the output."""
    calls = [0]
    original = documents.dump_json

    def counted(obj, indent=0):
        calls[0] += 1
        return original(obj, indent)

    with monkeypatch.context() as m:
        m.setattr(documents, "dump_json", counted)
        m.setattr(cli, "dump_json", counted)
        assert cli.main(argv) == 0, argv
    return calls[0], capsys.readouterr().out


def test_the_cost_of_a_document_does_not_grow_with_its_floats(monkeypatch, tmp_path, capsys):
    # a call per float would make the n = 300 counts about ten times the
    # n = 30 ones; with one formatting pass per array they are equal
    counts = {}
    for n in (30, 300):
        poly, planar, pedal = (tmp_path / f"{name}-{n}.json" for name in ("poly", "planar", "pedal"))
        runs = [
            ("generate", ["generate", "--kind", "framed", "--n", str(n), "--seed", "5"], poly),
            ("analyze", ["analyze", str(poly)], None),
            ("dual", ["dual", str(poly), "--roundtrip"], None),
            ("generate planar", ["generate", "--kind", "planar", "--n", str(n), "--seed", "5"], planar),
            ("pedal", ["pedal", str(planar)], pedal),
            ("pedal --invert", ["pedal", str(pedal), "--invert"], None),
        ]
        for name, argv, target in runs:
            counts[name, n], out = dump_calls(monkeypatch, capsys, argv)
            if target:
                target.write_text(out)
    assert {name: c for (name, n), c in counts.items() if n == 30} == {
        name: c for (name, n), c in counts.items() if n == 300
    }
