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
significant digits (round-trip exact for doubles).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

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
        "nodes": P.X.values.tolist(),
        "field": P.U.values.tolist(),
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


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite numbers cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))  # keeps a trailing .0 so the type survives
    return format(x, ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
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
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dump_json(v, indent + 2) for v in obj]
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
            parts.append(f"{inner}{json.dumps(key)}: {dump_json(obj[key], indent + 2)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
