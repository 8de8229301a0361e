"""Command-line front end: analysis, duality, pedal transforms, generation, verification.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 input
validation failure, 3 structural impossibility (no planar dual), 4 instance
generation failure.  All output JSON is byte-deterministic for fixed flags
and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cyclic import NodeSeq, ToleranceConfig, stack
from .documents import (
    document_nodes,
    document_to_framed,
    dump_json,
    framed_to_document,
    load_document,
    parse_planar_document,
    parse_polygon_document,
)
from .duality import (
    coplanarity_concurrency_check,
    dual_invariants,
    dual_of_dual,
    dual_pair,
    dual_vertex_edges,
    involution_error,
)
from .errors import (
    GenerationFailed,
    GeometryError,
    NotParallel,
    NotPlanarDual,
    ValidationError,
)
from .generators import (
    GenConfig,
    random_equal_volume_polygon,
    random_framed_polygon,
    random_planar_pair,
    random_radial_instance,
    random_radial_instances,
)
from .invariants import (
    FramedPolygon,
    alpha,
    beta,
    curvature_b,
    delta,
    delta_identity_residual,
    flattening_nodes,
    focal_points,
    is_constant_curvature,
    is_equal_volume,
    is_generic,
    is_unimodular,
    lambda_coeff,
    vertex_edges,
)
from .pedal import (
    E3,
    cylindrical_pedal,
    dual_planar_parts,
    is_convex,
    planar_vertices,
    unpedal,
    vertical_field,
)


def _edge(values) -> dict:
    return {"indexing": "edge", "values": np.asarray(values).tolist()}


def _node(values) -> dict:
    return {"indexing": "node", "values": np.asarray(values).tolist()}


def cmd_analyze(args, tol: ToleranceConfig) -> int:
    doc = parse_polygon_document(load_document(args.input))
    P = document_to_framed(doc)
    out: dict = {
        "n": P.n,
        "origin": doc.origin.tolist(),
        "input_indexing": doc.indexing,
        "alpha": _node(alpha(P).values),
        "beta": _edge(beta(P).values),
        "delta": _edge(delta(P).values),
        "lambda": _node(lambda_coeff(P).values),
        "is_generic": is_generic(P, tol),
        "is_equal_volume": is_equal_volume(P.X, tol),
        "is_unimodular": is_unimodular(P, tol),
    }
    try:
        b = curvature_b(P, tol)
        parallel = True
    except NotParallel:
        b = None
        parallel = False
    out["parallel"] = parallel
    out["b"] = _edge(b.values) if parallel else None
    if parallel:
        focal = []
        for fp in focal_points(P, tol):
            if fp.kind == "finite":
                focal.append({"kind": "finite", "position": (fp.position + doc.origin).tolist()})
            else:
                focal.append({"kind": "at_infinity", "direction": fp.direction.tolist()})
        out["focal_points"] = {"indexing": "edge", "values": focal}
        constant, witness = is_constant_curvature(P, tol)
        out["is_constant_curvature"] = constant
        out["constant_witness"] = witness.tolist() if witness is not None else None
        try:
            out["vertices"] = vertex_edges(P, tol)
        except GeometryError:
            out["vertices"] = None
    else:
        out["focal_points"] = None
        out["is_constant_curvature"] = False
        out["constant_witness"] = None
        out["vertices"] = None
    out["flattenings"] = flattening_nodes(P, tol) if out["is_generic"] else None
    print(dump_json(out))
    return 0


def cmd_dual(args, tol: ToleranceConfig) -> int:
    doc = parse_polygon_document(load_document(args.input))
    P = document_to_framed(doc)
    D = dual_pair(P, tol)
    rep = dual_invariants(P, D, tol)
    out = {
        "dual": {
            "n": D.Y.n,
            "nodes": D.Y.values.tolist(),
            "field": D.V.values.tolist(),
            "origin": [0.0, 0.0, 0.0],
            "indexing": "edge",
        },
        "report": {
            "beta_dual_residual": rep.beta_dual_residual,
            "alpha_dual_residual": rep.alpha_dual_residual,
            "v_parallel_residual": rep.v_parallel_residual,
            "sigma_observed": rep.sign_sigma,
            "sigma_fit_residual": rep.sigma_fit_residual,
        },
    }
    status = 0
    if args.roundtrip:
        try:
            back = dual_of_dual(D)
        except GeometryError as exc:  # the polygon dualized back is not a framed polygon
            return _fail(exc, 1)
        out["roundtrip_error"] = err = involution_error(P, back)
        if err > tol.tol_residual:
            status = 1
    print(dump_json(out))
    return status


def cmd_pedal(args, tol: ToleranceConfig) -> int:
    raw = load_document(args.input)
    if args.invert:
        doc = parse_polygon_document(raw)
        nodes = document_nodes(doc)
        if doc.field is None:
            E = E3
        else:
            shifted = FramedPolygon(nodes, NodeSeq(doc.field))
            constant, _ = is_constant_curvature(shifted, tol)
            if not constant:
                raise NotPlanarDual(
                    "pair has non-constant curvature, so its dual polygon is not planar"
                )
            b = curvature_b(shifted, tol).values
            E_field = doc.field + float(np.mean(b)) * nodes.values
            spread = np.max(np.abs(E_field - E_field.mean(axis=0)))
            if spread > tol.tol_residual * max(1.0, float(np.max(np.abs(E_field)))):
                raise NotPlanarDual("no constant transversal field exists for this pair")
            E = E_field.mean(axis=0)
        pp = unpedal(nodes, E, tol)
        out = {"n": pp.n, "x": pp.x.values.tolist(), "u": pp.u.values.tolist()}
        print(dump_json(out))
        return 0
    pp = parse_planar_document(raw)
    result = cylindrical_pedal(pp, tol)
    out = {
        "n": pp.n,
        "nodes": result.Y.values.tolist(),
        "field": vertical_field(pp.n).values.tolist(),
        "origin": [0.0, 0.0, 0.0],
        "indexing": "edge",
    }
    print(dump_json(out))
    return 0


def _parse_range(text: str, what: str, number: type) -> tuple:
    try:
        lo, hi = text.split("..")
        return number(lo), number(hi)
    except ValueError as exc:
        raise ValidationError(f"{what} must look like lo..hi, with {number.__name__} bounds") from exc


def _gen_config(args, n: int) -> GenConfig:
    """The GenConfig of --seed and --lambda-range for polygons of n nodes."""
    if args.seed < 0:
        raise ValidationError("--seed must be a nonnegative integer")
    return GenConfig(seed=args.seed, n=n, lambda_range=_parse_range(args.lambda_range, "--lambda-range", float))


def cmd_generate(args, tol: ToleranceConfig) -> int:
    cfg = _gen_config(args, args.n)
    if args.kind == "planar":
        pp = random_planar_pair(cfg, tol)
        out = {"n": pp.n, "x": pp.x.values.tolist(), "u": pp.u.values.tolist()}
        print(dump_json(out))
        return 0
    if args.kind == "radial":
        inst = random_radial_instance(cfg, tol)
        P = FramedPolygon(inst.X, vertical_field(cfg.n))
    elif args.kind == "framed":
        P = random_framed_polygon(cfg, tol)
    else:  # equal-volume
        X, U = random_equal_volume_polygon(cfg, tol)
        P = FramedPolygon(X, U)
    print(dump_json(framed_to_document(P)))
    return 0


def _verify_battery(tol: ToleranceConfig):
    """The checks, in running order, each run once on a stack of instances.

    A check takes the stacked polygon P and a dict ``got`` and returns, per
    instance (segment) in P, whether it passed and its residual; it may
    raise a GeometryError about one instance.  ``got`` starts with
    ``sigma_ref``, the sign of the first instance before the stack that ran
    every check; what several checks share is computed once, by the first
    check that needs it, and kept in ``got``: the flattening sets, the dual
    pair, its report and its planar parts.
    """

    def flattening_count(P, got):
        got["flats"] = flats = flattening_nodes(P, tol)
        return [len(f) >= 4 and len(f) % 2 == 0 for f in flats], [float(len(f)) for f in flats]

    def flattening_vertex_sets(P, got):
        got["dual"] = D = dual_pair(P, tol)
        pairs = list(zip(got["flats"], dual_vertex_edges(D, tol)))
        return [f == v for f, v in pairs], [float(len(set(f) ^ set(v))) for f, v in pairs]

    def coplanarity_concurrency(P, got):
        rep = coplanarity_concurrency_check(P, got["dual"], tol)
        quiet = [not any(c) and not any(k) for c, k in zip(rep.coplanar, rep.concurrent)]
        return quiet, [0.0 if q else 1.0 for q in quiet]

    def duality_involution(P, got):
        errs = involution_error(P, dual_of_dual(got["dual"]))
        return [e <= tol.tol_residual for e in errs], errs

    def dual_volume_identities(P, got):
        got["report"] = rep = dual_invariants(P, got["dual"], tol)
        errs = [max(b, a) for b, a in zip(rep.beta_dual_residual, rep.alpha_dual_residual)]
        return [e <= tol.tol_residual for e in errs], errs

    def delta_lambda_identity(P, got):
        errs = delta_identity_residual(P, tol)
        return [e <= tol.tol_residual for e in errs], errs

    def dual_projection_convex(P, got):
        got["planar"] = dual_planar_parts(got["dual"], tol)
        convex = is_convex(got["planar"][0], tol)
        return convex, [0.0 if c else 1.0 for c in convex]

    def planar_vertices_match(P, got):
        pverts = planar_vertices(*got["planar"], tol)
        return (
            [p == f and len(p) >= 4 for p, f in zip(pverts, got["flats"])],
            [float(len(p)) for p in pverts],
        )

    def sigma_constant(P, got):
        ref, oks, residuals = got["sigma_ref"], [], []
        for sign, fit in zip(got["report"].sign_sigma, got["report"].sigma_fit_residual):
            if ref is not None and sign != ref:
                oks.append(False)
                residuals.append(float(sign))
            else:
                oks.append(fit <= tol.tol_residual)
                residuals.append(fit)
            # every instance that reaches this check runs them all, so the
            # first sets the reference when no earlier instance has
            ref = sign if ref is None else ref
        return oks, residuals

    return (
        flattening_count, flattening_vertex_sets, coplanarity_concurrency, duality_involution,
        dual_volume_identities, delta_lambda_identity, dual_projection_convex,
        planar_vertices_match, sigma_constant,
    )


# verify stacks consecutive instances into chunks of at most this many
# polygon rows (one instance at least) and runs each check once per chunk:
# numpy's per-call overhead, not arithmetic, is the cost at these sizes.
CHUNK_ROWS = 2048


def _verify_chunks(args, lo: int, hi: int, lam_range: tuple, tol: ToleranceConfig):
    """The instances of a verify run, in chunks, each chunk's instances generated together.

    A chunk is a list of (where, X): the instance's seed and n, and the
    rows of its nodes, or the GeometryError that generating them raised.
    A chunk holds at most ``CHUNK_ROWS`` rows, counting those of failed
    instances too.
    """
    wheres, cfgs, rows = [], [], 0
    for index in range(args.instances):
        seed = [args.seed, index]
        n = int(np.random.default_rng(seed + [0]).integers(lo, hi + 1))
        if cfgs and rows + n > CHUNK_ROWS:
            yield _generate_chunk(wheres, cfgs, tol)
            wheres, cfgs, rows = [], [], 0
        wheres.append({"seed": seed, "n": n})
        cfgs.append(GenConfig(seed=seed + [1], n=n, lambda_range=lam_range))
        rows += n
    if cfgs:
        yield _generate_chunk(wheres, cfgs, tol)


def _generate_chunk(wheres: list[dict], cfgs: list[GenConfig], tol: ToleranceConfig) -> list[tuple]:
    """(where, X) per config: the rows of its instance's nodes, or the GeometryError that generating it raised."""
    X, errors = random_radial_instances(cfgs, tol)
    bounds = X.segments.bounds if X is not None else []
    parts = (X.values[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    return [(where, next(parts) if error is None else error) for where, error in zip(wheres, errors)]


def _failure(where: dict, check: str, outcome) -> dict:
    """A report entry: the residual that failed its bound, or the GeometryError the check raised."""
    if isinstance(outcome, GeometryError):
        return {**where, "check": check, "residual": None, "error": str(outcome)}
    return {**where, "check": check, "residual": outcome}


def cmd_verify(args, tol: ToleranceConfig) -> int:
    if args.instances < 1:
        raise ValidationError("--instances must be at least 1")
    lo, hi = _parse_range(args.n_range, "--n-range", int)
    if lo < 4 or hi < lo:
        raise ValidationError("--n-range needs 4 <= lo <= hi")
    lam_range = _gen_config(args, lo).lambda_range
    if args.report:
        try:  # before any instance is generated, so an unwritable path costs no run
            open(args.report, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValidationError(f"cannot write report: {exc}") from exc
    battery = _verify_battery(tol)
    passes = 0
    failures: list[dict] = []
    histogram: dict[int, int] = {}
    sigma_ref: int | None = None
    for chunk in _verify_chunks(args, lo, hi, lam_range, tol):
        found = []  # (instance in chunk, check number, failure), in that order below
        live = []
        for i, (where, X) in enumerate(chunk):
            if isinstance(X, GeometryError):
                found.append((i, -1, _failure(where, "generate", X)))
            else:
                live.append(i)
        # An instance whose check raises has that failure recorded and leaves
        # the stack.  The other instances then run again as one stack,
        # recording only the checks not yet recorded for them.
        recorded = 0
        while live:
            X = stack([chunk[i][1] for i in live])
            try:
                P = FramedPolygon(X, NodeSeq.on(np.tile(E3, (X.n, 1)), X.segments))
            except GeometryError as exc:  # the polygon of one instance is not valid
                i = live.pop(exc.segment)
                found.append((i, -1, _failure(chunk[i][0], "generate", exc)))
                continue
            got = {"sigma_ref": sigma_ref}
            for c, check in enumerate(battery):
                try:
                    oks, residuals = check(P, got)
                except GeometryError as exc:  # the instance's remaining checks do not run
                    i = live.pop(exc.segment)
                    found.append((i, c, _failure(chunk[i][0], check.__name__, exc)))
                    recorded = c
                    break
                if c < recorded:
                    continue
                for i, ok, residual in zip(live, oks, residuals):
                    if ok:
                        passes += 1
                    else:
                        found.append((i, c, _failure(chunk[i][0], check.__name__, residual)))
            else:
                for flats in got["flats"]:
                    histogram[len(flats)] = histogram.get(len(flats), 0) + 1
                if sigma_ref is None:
                    sigma_ref = got["report"].sign_sigma[0]
                break
        found.sort(key=lambda f: f[:2])
        failures += [f for _, _, f in found]
    report = {
        "instances": args.instances,
        "checks_per_instance": len(battery),
        "passes": passes,
        "failures": failures,
        "flattening_histogram": {str(k): v for k, v in histogram.items()},
        "sigma_observed": sigma_ref,
    }
    text = dump_json(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if sigma_ref is not None and sigma_ref != -1:
        print(f"note: observed dual curvature sign sigma={sigma_ref:+d}", file=sys.stderr)
    if any(f["check"] == "generate" for f in failures):
        return 4
    return 0 if not failures else 1


def cmd_export(args, tol: ToleranceConfig) -> int:
    doc = parse_polygon_document(load_document(args.input))
    if args.format != "obj":
        raise ValidationError(f"unsupported format {args.format!r}")
    lines = [f"# centropoly polygon n={doc.n}", "o polygon"]
    for row in doc.nodes:
        lines.append("v " + " ".join(format(c, ".17g") for c in row))
    cycle = " ".join(str(i + 1) for i in range(doc.n))
    lines.append(f"l {cycle} 1")
    if args.with_focal:
        P = document_to_framed(doc)
        pts = focal_points(P, tol)
        finite = [fp.position + doc.origin for fp in pts if fp.kind == "finite"]
        skipped = len(pts) - len(finite)
        lines.append("o focal")
        for pos in finite:
            lines.append("v " + " ".join(format(c, ".17g") for c in pos))
        if finite:
            idx = [str(doc.n + 1 + k) for k in range(len(finite))]
            if skipped == 0:
                idx.append(str(doc.n + 1))
            lines.append("l " + " ".join(idx))
        if skipped:
            lines.append(f"# skipped {skipped} focal points at infinity")
            print(f"warning: {skipped} focal points at infinity omitted", file=sys.stderr)
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centropoly",
        description="Centroaffine analysis, duality, and pedal transforms of closed spatial polygons.",
    )
    parser.add_argument("--tol-sign", type=float, default=1e-9, help="relative dead-band for sign predicates")
    parser.add_argument("--tol-residual", type=float, default=1e-9, help="relative bound for identity checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants and feature report of a framed polygon document")
    p.add_argument("input", help="polygon document path, or - for stdin")

    p = sub.add_parser("dual", help="dual pair and its identity residuals")
    p.add_argument("input")
    p.add_argument("--roundtrip", action="store_true", help="check that dualizing twice returns the input")

    p = sub.add_parser("pedal", help="affine cylindrical pedal of a planar pair document")
    p.add_argument("input")
    p.add_argument("--invert", action="store_true", help="recover the planar pair from a pedal document")

    p = sub.add_parser("generate", help="write a deterministic random instance document")
    p.add_argument("--kind", choices=("radial", "framed", "equal-volume", "planar"), default="radial")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-range", default="0.5..2.0")

    p = sub.add_parser("verify", help="run the statistical identity and flattening-count harness")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--n-range", default="5..50")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-range", default="0.5..2.0")
    p.add_argument("--report", help="also write the JSON report to this path")

    p = sub.add_parser("export", help="write the polygon as an OBJ polyline")
    p.add_argument("input")
    p.add_argument("--format", default="obj")
    p.add_argument("--with-focal", action="store_true", help="append finite focal points as a second object")

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "dual": cmd_dual,
    "pedal": cmd_pedal,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "export": cmd_export,
}


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = ToleranceConfig(tol_sign=args.tol_sign, tol_residual=args.tol_residual)
        return _COMMANDS[args.command](args, tol)
    except NotPlanarDual as exc:
        return _fail(exc, 3)
    except GenerationFailed as exc:
        return _fail(exc, 4)
    except (GeometryError, ValueError) as exc:
        return _fail(exc, 2)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
