"""Polygon document schemas and deterministic JSON serialization.

Spatial documents carry a closed polygon and an optional node field::

    {"n": 4, "nodes": [[x, y, z], ...], "field": [[...], ...],
     "origin": [0, 0, 0], "indexing": "node"}

``origin`` is the point the polygon is taken about.  It is subtracted
from the nodes where a document is read (``document_nodes``), so the
library works about (0, 0, 0) only; commands that print positions add it
back.  ``indexing`` is "node" for integer-indexed slots and "edge" when slot k
holds the value at index k + 1/2; the tag keeps the half-integer convention
in-band.  Planar pair documents use ``{"n": ..., "x": [[x, y], ...],
"u": [[x, y], ...]}``.

Serialization is byte-deterministic: keys sorted, floats rendered with 17
significant digits (round-trip exact for doubles), or with ``repr`` where
they are integral and below 1e16, so that ``1.0`` and ``-0.0`` read back
as floats.  A float array is written by one ``%`` operation over all its
values, with a template built once per array: the per-value work is
Python's own float formatting and nothing else.  A list is written on one
line when it has at most 16 items of at most 24 characters each; no float
is longer, so the width of an array row alone decides its layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .cyclic import NodeSeq
from .errors import ValidationError
from .invariants import FramedPolygon
from .pedal import PlanarPair


@dataclass(frozen=True)
class PolygonDocument:
    n: int
    nodes: np.ndarray
    field: np.ndarray | None = None
    origin: np.ndarray | None = None
    indexing: str = "node"


def _rows(obj, name: str, width: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of numbers") from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValidationError(f"{name} must be a list of {width}-element arrays")
    # numpy reads true as 1.0 and "1" as 1.0; a JSON number parses as an int or a float
    if not set(map(type, chain.from_iterable(obj))) <= {int, float}:
        raise ValidationError(f"{name} entries must be JSON numbers, not booleans or strings")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} entries must be finite")
    return arr


def _document_n(obj) -> int:
    """The n of a document object; only a JSON integer is one, not a bool, float or string."""
    if not isinstance(obj, dict):
        raise ValidationError("document must be a JSON object")
    n = obj.get("n")
    if type(n) is not int:
        raise ValidationError("document needs an integer n")
    return n


def _origin(obj) -> np.ndarray:
    """The origin of a document: absent or null means (0, 0, 0); else a flat list of 3 finite numbers."""
    if obj is None:
        return np.zeros(3)
    if not (isinstance(obj, list) and len(obj) == 3 and all(type(c) in (int, float) for c in obj)):
        raise ValidationError("origin must be a flat array of 3 numbers")
    try:
        origin = np.array(obj, dtype=float)
    except OverflowError as exc:
        raise ValidationError("origin entries must be finite") from exc
    if not np.all(np.isfinite(origin)):
        raise ValidationError("origin entries must be finite")
    return origin


def parse_polygon_document(obj: dict) -> PolygonDocument:
    n = _document_n(obj)
    nodes = _rows(obj.get("nodes"), "nodes", 3)
    if nodes.shape[0] != n:
        raise ValidationError("nodes length does not match n")
    fld = None
    if obj.get("field") is not None:
        fld = _rows(obj["field"], "field", 3)
        if fld.shape[0] != n:
            raise ValidationError("field length does not match n")
    origin = _origin(obj.get("origin"))
    indexing = obj.get("indexing", "node")
    if indexing not in ("node", "edge"):
        raise ValidationError('indexing must be "node" or "edge"')
    return PolygonDocument(n=n, nodes=nodes, field=fld, origin=origin, indexing=indexing)


def parse_planar_document(obj: dict) -> PlanarPair:
    n = _document_n(obj)
    x = _rows(obj.get("x"), "x", 2)
    u = _rows(obj.get("u"), "u", 2)
    if x.shape[0] != n:
        raise ValidationError("x length does not match n")
    if u.shape[0] != n:
        raise ValidationError("u length does not match n")
    return PlanarPair(NodeSeq(x), NodeSeq(u))


def document_nodes(doc: PolygonDocument) -> NodeSeq:
    """The nodes of ``doc`` about its origin: the one place a document's origin is subtracted."""
    return NodeSeq(doc.nodes - doc.origin)


def document_to_framed(doc: PolygonDocument) -> FramedPolygon:
    if doc.field is None:
        raise ValidationError("document carries no field")
    return FramedPolygon(document_nodes(doc), NodeSeq(doc.field))


def framed_to_document(P: FramedPolygon) -> dict:
    return {
        "n": P.n,
        "nodes": P.X.values,
        "field": P.U.values,
        "origin": [0.0, 0.0, 0.0],
        "indexing": "node",
    }


def load_document(path: str) -> dict:
    try:
        if path == "-":
            import sys

            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read input: {exc}") from exc


# A float is written with repr where it is integral and below 1e16, so 1.0
# and -0.0 keep their ".0" and read back as floats, and with 17 significant
# digits elsewhere.  Either string has at most 24 characters
# ("-1.2345678901234567e-308"), so a float always fits the inline rule.
_REPR = "%r"
_G17 = "%.17g"
# a list is written on one line when it has at most this many items, each of
# at most _INLINE_CHARS characters and no newline; else one item per line
_INLINE_ITEMS = 16
_INLINE_CHARS = 24


class ObjectRows:
    """A JSON array of objects built from stacked rows, which ``dump_json`` writes in one formatting pass.

    Object k is ``{**fields, key: rows[k]}`` with ``(key, fields) =
    shapes[which[k]]``; ``fields`` holds strings only.  ``analyze`` writes
    its focal points this way: ``{"kind": "finite", "position": [...]}`` or
    ``{"direction": [...], "kind": "at_infinity"}`` per edge.
    """

    def __init__(self, rows: np.ndarray, which: list[int], shapes: tuple[tuple[str, dict], ...]):
        self.rows = rows
        self.which = which
        self.shapes = shapes


def _repr_at(values) -> np.ndarray:
    """Where a float, scalar or array, is written with repr rather than with 17 digits.

    The one home of that rule; it raises ValueError on a non-finite value.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite numbers cannot be serialized")
    return (values == np.trunc(values)) & (np.abs(values) < 1e16)


def _layout(items: list[str], indent: int, inline: bool) -> str:
    """The JSON array of ``items``: on one line, or one item per line at ``indent + 2``."""
    if not items:
        return "[]"
    if inline:
        return "[" + ", ".join(items) + "]"
    inner = " " * (indent + 2)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + " " * indent + "]"


def _fits(items: list[str]) -> bool:
    """Whether a list of these JSON texts is written on one line."""
    return len(items) <= _INLINE_ITEMS and all(len(s) <= _INLINE_CHARS and "\n" not in s for s in items)


def _row_templates(a: np.ndarray, indent: int) -> list[str]:
    """The ``%`` template of each row of a 2-D float64 array, written at ``indent``.

    Every float fits the inline rule, so a row is inline exactly when it
    has at most 16 entries.
    """
    inline = a.shape[1] <= _INLINE_ITEMS
    repr_at = _repr_at(a)
    copies = 1
    if (repr_at == repr_at[:1]).all():  # every row alike: one template serves them all
        repr_at, copies = repr_at[:1], len(a)
    return [_layout(f, indent, inline) for f in np.where(repr_at, _REPR, _G17).tolist()] * copies


def _float_array(a: np.ndarray, indent: int) -> str:
    """A 1-D or 2-D float64 array as JSON, its values formatted by one ``%`` operation.

    The text is the one ``dump_json`` gives the list ``a.tolist()``.
    """
    if a.ndim == 1:
        return _row_templates(a.reshape(1, -1), indent)[0] % tuple(a.tolist())
    rows = _row_templates(a, indent + 2)
    if len(rows) > _INLINE_ITEMS:
        return _layout(rows, indent, False) % tuple(a.ravel().tolist())
    # at most 16 rows: whether they share one line depends on their lengths
    texts = [t % tuple(r) for t, r in zip(rows, a.tolist())]
    return _layout(texts, indent, _fits(texts))


def _object(entries: dict, indent: int) -> str:
    """A JSON object from its entries' JSON texts, keys sorted, one entry per line."""
    if not entries:
        return "{}"
    inner = " " * (indent + 2)
    parts = []
    for key in sorted(entries):
        if not isinstance(key, str):
            raise TypeError("JSON object keys must be strings")
        parts.append(f"{inner}{encode_basestring_ascii(key)}: {entries[key]}")
    return "{\n" + ",\n".join(parts) + "\n" + " " * indent + "}"


def _object_rows(obj: ObjectRows, indent: int) -> str:
    """An ObjectRows array, its values formatted by one ``%`` operation."""
    if not len(obj.rows):
        return "[]"
    # each shape's object once, with its row's slot marked by a NUL, which
    # the escaped keys and strings around it cannot hold
    halves = []
    for key, fields in obj.shapes:
        text = _object({**{k: dump_json(v, indent + 4) for k, v in fields.items()}, key: "\0"}, indent + 2)
        halves.append(text.replace("%", "%%").split("\0"))
    rows = _row_templates(obj.rows, indent + 4)
    objects = [halves[s][0] + row + halves[s][1] for s, row in zip(obj.which, rows)]
    return _layout(objects, indent, False) % tuple(obj.rows.ravel().tolist())


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.

    A float array of one or two dimensions, a list of floats and an
    ObjectRows are each formatted by one ``%`` operation over all their
    values; a list of ints by one join.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return (_REPR if _repr_at(x) else _G17) % x
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2):
            return _float_array(obj, indent)
        obj = obj.tolist()
    if isinstance(obj, ObjectRows):
        return _object_rows(obj, indent)
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {float}:
            return _float_array(np.array(obj), indent)
        if kinds == {int}:
            items = list(map(str, obj))
        else:
            items = [dump_json(v, indent + 2) for v in obj]
        return _layout(items, indent, _fits(items))
    if isinstance(obj, dict):
        return _object({key: dump_json(value, indent + 2) for key, value in obj.items()}, indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
