"""Benchmark of centropoly: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (all closed loop, one client, one process, BLAS pinned to one thread):

* ``verify``: ``centropoly verify --instances 100 --n-range 5..50`` (100 is the
  CLI's default) with a new seed per call; the nine-check battery on radial polygons.
* ``framed_large``: framed polygons with n in 200..500 taken once through the
  library chain generate -> dual_pair -> dual_invariants -> flattening_nodes /
  dual_vertex_edges -> reframe and its flattening set.
* ``documents``: the per-document CLI commands on framed polygons and planar
  pairs with n in 20..300: generate, analyze, dual --roundtrip, export,
  generate --kind planar, pedal, pedal --invert, with files in a temporary
  directory under ``bench/out``.

The program is driven only through ``centropoly.cli.main(argv)`` with stdout
captured, and through the functions ``centropoly`` exports.  Every output is
checked against ``oracle.py``, which shares no code with the program.  A call
that exits non-zero or raises counts as a failed operation; the benchmark
itself exits 0 whenever the workload runs to its end.

On a shared host the speed a process gets can swing by up to 1.8x within
seconds, whatever it runs (measured on the 2-core host of README.md's
reference figures).  So each measured round is followed by a fixed calibration block of
numpy and Python work that shares no code with the program, and the call
timings are reported at a reference speed: each round's times are
scaled by ``CAL_REF_MS`` over the mean block time of the calibrations just
before and just after the round (each the median of one block per
``CAL_EVERY_S`` of a round's program time).  ``setup_s`` is not scaled.  The raw figures go
to stderr and to the result file beside them.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
traced rounds (see ``spans.py``) and the tracing overhead.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_CALLS = 100  # p90 needs ten samples beyond it
CAL_REPS = 16  # iterations of the calibration block
CAL_REF_MS = 1.5  # the block's time at the reference speed
CAL_EVERY_S = 0.025  # one calibration block per this much program time in a round, 1 to 9
E3 = (0.0, 0.0, 1.0)


def calibration_block() -> float:
    """Seconds taken by a fixed mix of small-array numpy calls, Python glue and JSON."""
    t = time.perf_counter()
    rng = np.random.default_rng(20181203)
    for _ in range(CAL_REPS):
        a = rng.standard_normal((24, 3))
        b = np.roll(a, -1, axis=0)
        d = np.linalg.det(np.stack((a, b, np.cross(a, b)), axis=1))
        int(np.count_nonzero(np.sign(d[1:]) != np.sign(d[:-1])))
        json.dumps({"x": a[:4].tolist()}, sort_keys=True)
    return time.perf_counter() - t


def speed_factors(cal: list[float]) -> list[float]:
    """Per round, CAL_REF_MS over the mean of the calibrations that bracket it.

    cal[0] precedes the first round and cal[j + 1] follows round j.  The
    machine's speed changes within seconds, so only the nearest blocks track it.
    """
    return [2.0 * CAL_REF_MS / ((a + b) * 1e3) for a, b in zip(cal, cal[1:])]


def import_package():
    """centropoly from this checkout's src; exit non-zero when it is not there."""
    if not (SRC / "centropoly" / "__init__.py").is_file():
        sys.exit(f"error: no centropoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import centropoly
    import centropoly.cli  # not imported by the package itself

    if Path(centropoly.__file__).resolve().parent != (SRC / "centropoly").resolve():
        sys.exit(f"error: imported centropoly from {centropoly.__file__}, not from {SRC}")
    return centropoly


class Runner:
    """Times calls into the program and counts operations and check failures.

    ``probe``, when given, is started just before each recorded call and
    stopped just after it (a tracer, or a numpy call counter).
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.latencies: list[float] = []
        self.busy = 0.0
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[tuple[float, int]] = []  # (seconds in program calls, instances)
        self.cal: list[float] = []  # median calibration block before the first round and after each
        self.call_rounds: list[int] = []  # the round of each timed call
        self.last_end = 0.0  # perf_counter at the end of the last recorded call

    def call(self, fn, *args, record: bool = True):
        """Run one operation; only recorded calls are timed and probed."""
        self.attempted += 1
        probe = self.probe if record else None
        if probe:
            probe.start()
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            if probe:
                probe.stop()
            if record:
                self.latencies.append(end - t)
                self.call_rounds.append(len(self.rounds))
                self.busy += end - t
                self.last_end = end

    def fail(self, count: int, why: str) -> None:
        """Count failed operations, including ones that could not start."""
        self.failed += count
        print(f"failed operation: {why}", file=sys.stderr)

    def expect(self, problems: list[str], where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)


class Workload:
    """One round of operations per input; inputs come from the seed alone."""

    tag = 0  # separates the input streams of the workloads

    def __init__(self, cp, oracle, runner: Runner):
        self.cp = cp
        self.oracle = oracle
        self.r = runner
        self.sigma = None

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, self.tag])
        while True:
            yield self.draw(rng)

    def cli(self, argv: list[str], record: bool = True) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cp.cli.main(argv)

        rc = self.r.call(run, record=record)
        return rc, out.getvalue()

    def warmup(self, inp) -> None:
        """One instance on a fixed input; setup_s ends with its last recorded call."""
        self.round(inp, 0)

    def close(self) -> None:
        pass

    def check_sigma(self, sigma, where: str) -> None:
        """The dual curvature sign is one global constant, +1 or -1."""
        if sigma not in (1, -1) or (self.sigma is not None and sigma != self.sigma):
            self.r.expect([f"sigma {sigma} differs from the first observed {self.sigma}"], where)
        self.sigma = self.sigma or sigma


class Verify(Workload):
    """Repeated ``verify`` calls; the oracle rebuilds each instance and its flattenings."""

    tag = 1
    per_call = 100  # the CLI's default --instances
    lo, hi = 5, 50

    def draw(self, rng):
        return int(rng.integers(0, 2**31))

    def warmup(self, inp) -> None:
        self.round(inp, 0, instances=1)

    def round(self, seed: int, j: int, instances: int | None = None) -> None:
        k = instances or self.per_call
        rc, text = self.cli(["verify", "--instances", str(k), "--n-range", f"{self.lo}..{self.hi}",
                             "--seed", str(seed)])
        self.r.instances += k
        where = f"verify seed {seed}"
        if rc != 0:
            self.r.fail(1, f"{where} exited {rc}")
            return
        report, problems = self.oracle.load_sorted(text)
        self.r.expect(problems, where)
        if report is None:
            return
        want = {"instances": k, "checks_per_instance": 9, "passes": 9 * k, "failures": []}
        for key, value in want.items():
            if report.get(key) != value:
                self.r.expect([f"report {key} = {report.get(key)!r}, expected {value!r}"], where)
        self.check_sigma(report.get("sigma_observed"), where)
        self.check_instances(seed, k, j % k, report.get("flattening_histogram"), where)

    def check_instances(self, seed, k, sampled, histogram, where) -> None:
        """Rebuild the instances as cmd_verify seeds them: n from [seed, i, 0], the polygon from [seed, i, 1]."""
        cp, oracle = self.cp, self.oracle
        counts = []
        for i in range(k):
            n = int(np.random.default_rng([seed, i, 0]).integers(self.lo, self.hi + 1))
            inst = cp.random_radial_instance(cp.GenConfig(seed=[seed, i, 1], n=n))
            X = inst.X.values
            own = oracle.flattening_set(X)
            self.r.expect(oracle.check_flattenings(own), f"{where} instance {i}")
            counts.append(len(own) if own is not None else -1)
            if i == sampled:
                U = np.tile(E3, (n, 1))
                D = cp.dual_pair(cp.FramedPolygon(inst.X, cp.NodeSeq(U)))
                self.r.expect(
                    oracle.check_incidences(X, U, D.Y.values, D.V.values)
                    + oracle.check_flattenings(own, ("dual_vertex_edges", cp.dual_vertex_edges(D))),
                    f"{where} instance {i}",
                )
        self.r.expect(oracle.check_histogram(counts, histogram), where)


class FramedLarge(Workload):
    """The library chain on one large framed polygon per round."""

    tag = 2

    def draw(self, rng):
        n = int(rng.integers(200, 501))
        seed = int(rng.integers(0, 2**31))
        return n, seed, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))

    def round(self, inp, j: int) -> None:
        n, seed, c, d = inp
        cp = self.cp

        def chain():
            P = cp.random_framed_polygon(cp.GenConfig(seed=seed, n=n))
            D = cp.dual_pair(P)
            rep = cp.dual_invariants(P, D)
            flats = cp.flattening_nodes(P)
            verts = cp.dual_vertex_edges(D)
            flats_reframed = cp.flattening_nodes(cp.reframe(P, c, d))
            return P, D, rep, flats, verts, flats_reframed

        where = f"framed_large n={n} seed={seed}"
        try:
            P, D, rep, flats, verts, flats_reframed = self.r.call(chain)
        except cp.errors.GeometryError as exc:
            self.r.fail(1, f"{where}: {type(exc).__name__}: {exc}")
            return
        finally:
            self.r.instances += 1
        oracle = self.oracle
        X, U = P.X.values, P.U.values
        Y, V = D.Y.values, D.V.values
        own = oracle.flattening_set(X)
        self.r.expect(
            oracle.check_volumes(X, U, cp.alpha(P).values, cp.beta(P).values)
            + oracle.check_parallel(X, U)
            + oracle.check_incidences(X, U, Y, V)
            + oracle.check_flattenings(
                own,
                ("flattening_nodes", flats),
                ("dual_vertex_edges", verts),
                ("flattening_nodes after reframe", flats_reframed),
            ),
            where,
        )
        self.check_sigma(rep.sign_sigma, where)


class Documents(Workload):
    """The per-document CLI commands on one framed polygon and one planar pair per round."""

    tag = 3

    def __init__(self, cp, oracle, runner):
        super().__init__(cp, oracle, runner)
        self._tmp = tempfile.TemporaryDirectory(prefix="docs-", dir=OUT)
        self.tmp = Path(self._tmp.name)

    def close(self) -> None:
        self._tmp.cleanup()

    def draw(self, rng):
        n = int(rng.integers(20, 301))
        return n, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31))

    def round(self, inp, j: int) -> None:
        n, fseed, pseed = inp
        poly, planar, pedal = (str(self.tmp / f) for f in ("poly.json", "planar.json", "pedal.json"))
        steps = [
            (["generate", "--kind", "framed", "--n", str(n), "--seed", str(fseed)], poly),
            (["analyze", poly], None),
            (["dual", poly, "--roundtrip"], None),
            (["export", poly], None),
            (["generate", "--kind", "planar", "--n", str(n), "--seed", str(pseed)], planar),
            (["pedal", planar], pedal),
            (["pedal", pedal, "--invert"], None),
        ]
        where = f"documents n={n} seeds={fseed},{pseed}"
        self.r.instances += 1
        texts = []
        for k, (argv, target) in enumerate(steps):
            rc, text = self.cli(argv)
            if rc != 0:
                unstarted = len(steps) - k  # the later calls and the repeated one
                self.r.attempted += unstarted
                self.r.fail(1 + unstarted, f"{where}: {' '.join(argv)} exited {rc}")
                return
            texts.append(text)
            if target:
                Path(target).write_text(text, encoding="utf-8")
        # the same command again must emit the same bytes
        argv = steps[j % len(steps)][0]
        rc, again = self.cli(argv, record=False)
        if rc != 0:
            self.r.fail(1, f"{where}: {' '.join(argv)} exited {rc} when run again")
        self.r.expect(self.oracle.check_repeat(" ".join(argv), texts[j % len(steps)], again), where)
        self.check(n, fseed, pseed, texts, where)

    def check(self, n, fseed, pseed, texts, where) -> None:
        cp, oracle = self.cp, self.oracle
        docs = []
        for k, text in enumerate(texts):
            if k == 3:  # export writes OBJ, not JSON
                docs.append(None)
                continue
            doc, problems = oracle.load_sorted(text)
            self.r.expect(problems, where)
            docs.append(doc)
        poly, analysis, dual, _, planar, pedal, inverted = docs
        if None in (poly, analysis, dual, planar, pedal, inverted):
            return
        # the program's arrays, rebuilt through its public functions
        P = cp.random_framed_polygon(cp.GenConfig(seed=fseed, n=n))
        D = cp.dual_pair(P)
        back = cp.dual_of_dual(D)  # what dual --roundtrip compared; it printed only the error
        pp = cp.random_planar_pair(cp.GenConfig(seed=pseed, n=n))
        Y = cp.cylindrical_pedal(pp).Y.values
        X, U = np.array(poly["nodes"]), np.array(poly["field"])
        x, u = np.array(planar["x"]), np.array(planar["u"])
        Yd, Vd = np.array(dual["dual"]["nodes"]), np.array(dual["dual"]["field"])
        Yp, Ep = np.array(pedal["nodes"]), np.array(pedal["field"])
        problems = (
            oracle.check_bits("generate nodes", X, P.X.values)
            + oracle.check_bits("generate field", U, P.U.values)
            + oracle.check_bits("dual nodes", Yd, D.Y.values)
            + oracle.check_bits("dual field", Vd, D.V.values)
            + oracle.check_bits("planar x", x, pp.x.values)
            + oracle.check_bits("planar u", u, pp.u.values)
            + oracle.check_bits("pedal nodes", Yp, Y)
            + oracle.check_volumes(X, U, analysis["alpha"]["values"], analysis["beta"]["values"])
            + oracle.check_flattenings(oracle.flattening_set(X), ("analyze flattenings", analysis["flattenings"]))
            + oracle.check_incidences(X, U, Yd, Vd)
            + oracle.check_roundtrip(X, U, Yd, Vd, back.X.values, back.U.values)
            + oracle.parse_obj(texts[3], X)
            + oracle.check_pedal(x, u, Yp, Ep)
            + oracle.check_unpedal(x, u, Yp, Ep, inverted["x"], inverted["u"])
        )
        problems += oracle.check_roundtrip_error(X, U, Yd, Vd, dual.get("roundtrip_error"))
        for name, doc in (("generate", poly), ("analyze", analysis), ("planar", planar), ("invert", inverted)):
            if doc.get("n") != n:
                problems.append(f"{name} reports n = {doc.get('n')!r}, expected {n}")
        self.r.expect(problems, where)


WORKLOADS = {"verify": Verify, "framed_large": FramedLarge, "documents": Documents}

# Why a per-layer metric reads zero on a workload.
ZERO_WHY = {
    ("framed_large", "cli"): "framed_large calls the library functions directly; no CLI command runs",
    ("framed_large", "documents"): "framed_large writes and reads no JSON document",
    ("framed_large", "pedal"): "the framed chain reaches no public pedal function",
}


def measure(workload: Workload, inputs, seconds: float) -> None:
    """Whole rounds, each followed by a calibration block, until `seconds` have
    passed and at least MIN_CALLS calls were timed."""
    r = workload.r
    r.cal.append(statistics.median(calibration_block() for _ in range(3)))
    t0 = time.perf_counter()
    j = 0
    while time.perf_counter() - t0 < seconds or len(r.latencies) < MIN_CALLS:
        busy, instances = r.busy, r.instances
        workload.round(next(inputs), j)
        r.rounds.append((r.busy - busy, r.instances - instances))
        blocks = min(9, max(1, round((r.busy - busy) / CAL_EVERY_S)))
        r.cal.append(statistics.median(calibration_block() for _ in range(blocks)))
        j += 1


def end_to_end(r: Runner, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, call timings at the reference speed, and those timings raw.

    setup_s is one cold set-up, not scaled: calibration blocks just after a
    cold start do not track the machine's speed during it.
    """
    f = speed_factors(r.cal)
    raw_ms = [t * 1e3 for t in r.latencies]
    lat_ms = [t * f[k] for t, k in zip(raw_ms, r.call_rounds)]
    busy = sum(b * f[j] for j, (b, _) in enumerate(r.rounds))
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (r.instances / busy, "1/s"),
        "call_ms_p50": (statistics.median(lat_ms), "ms"),
        "call_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "instances_per_s": r.instances / r.busy,
        "call_ms_p50": statistics.median(raw_ms),
        "call_ms_p90": statistics.quantiles(raw_ms, n=10)[8],
        "calibration_ms_p50": statistics.median(r.cal) * 1e3,
    }
    return metrics, raw


def traced(cp, oracle, name: str, seed: int, seconds: float, problems: list[str]):
    """Each round untraced, then again traced; then a numpy call count; per-layer metrics.

    Running the two sides of a round back to back exposes both to the same
    machine speed, so their difference is the tracing overhead.
    """
    from spans import SPAN_LAYERS, NumpyCallCounter, Tracer

    make = WORKLOADS[name]
    tracer = Tracer(cp)
    plain, r = Runner(), Runner(tracer)
    w_plain, w = make(cp, oracle, plain), make(cp, oracle, r)
    inputs = w.inputs(seed)
    t0 = time.perf_counter()
    rounds = 0
    while time.perf_counter() - t0 < 0.8 * seconds:
        inp = next(inputs)
        w_plain.round(inp, rounds)
        tracer.install()
        tracer.request = rounds
        w.round(inp, rounds)
        tracer.uninstall()
        rounds += 1
    w_plain.close()
    w.close()

    counter = NumpyCallCounter(np)
    rc = Runner(counter)
    w = make(cp, oracle, rc)
    inputs = w.inputs(seed)
    for j in range(min(rounds, 3)):
        w.round(next(inputs), j)
    w.close()

    inst = r.instances
    per = 1.0 / inst
    generated = sum(v for k, v in tracer.calls.items() if k.startswith("generators.random_"))
    kb = tracer.dump_bytes / 1024.0
    metrics = {f"{layer}.self_ms_per_instance": (tracer.layer_self_s(layer) * 1e3 * per, "ms")
               for layer in SPAN_LAYERS}
    metrics.update({
        "generators.draws_per_instance": (
            tracer.calls["generators._convex_from_rng"] / generated if generated else 0.0, "count"),
        "invariants.calls_per_instance": (tracer.layer_calls("invariants") * per, "count"),
        "duality.dual_pair_calls_per_instance": (tracer.calls["duality.dual_pair"] * per, "count"),
        "documents.json_kb_per_instance": (kb * per, "kB"),
        "documents.dump_us_per_kb": (tracer.dump_s * 1e6 / kb if kb else 0.0, "us/kB"),
        "cyclic.calls_per_instance": (tracer.layer_calls("cyclic") * per, "count"),
        "numpy.c_calls_per_instance": (counter.count / rc.instances, "count"),
        "trace.overhead_pct": ((r.busy / inst) / (plain.busy / plain.instances) * 100.0 - 100.0, "%"),
    })
    for runner in (plain, r, rc):
        problems.extend(runner.problems)
    attempted = plain.attempted + r.attempted + rc.attempted
    failed = plain.failed + r.failed + rc.failed

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                 {"workload": name, "seed": seed, "rounds": rounds, "instances": inst})
    print(f"traced {rounds} rounds ({inst} instances) of {name}; "
          f"untraced {plain.busy * 1e3 / plain.instances:.4f} ms, "
          f"traced {r.busy * 1e3 / inst:.4f} ms per instance")
    for key, (value, unit) in metrics.items():
        note = ""
        if value == 0.0:
            note = "  (zero: " + ZERO_WHY.get((name, key.split(".")[0]),
                                              "no call into this layer on this workload") + ")"
        print(f"  {key:40s} {value:12.4f} {unit}{note}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    cp = import_package()
    import oracle

    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    make = WORKLOADS[args.workload]
    warm = make(cp, oracle, Runner())
    warm.warmup(next(warm.inputs(2**32)))  # a fixed input, apart from every --seed
    setup_s = warm.r.last_end - START  # the warm-up's checks are not set-up
    problems.extend(warm.r.problems)
    if warm.r.failed:
        problems.append("the warm-up instance failed")
    warm.close()

    rounds: list = []
    raw: dict = {}
    if args.trace:
        metrics, attempted, failed = traced(cp, oracle, args.workload, args.seed, args.seconds, problems)
    else:
        r = Runner()
        w = make(cp, oracle, r)
        measure(w, w.inputs(args.seed), args.seconds)
        w.close()
        problems.extend(r.problems)
        metrics, raw = end_to_end(r, setup_s)
        rounds = [(b, n, c) for (b, n), c in zip(r.rounds, r.cal[1:])]
        attempted, failed = r.attempted, r.failed
        print(f"{args.workload}: {len(r.latencies)} calls, {r.instances} instances, "
              f"{attempted} operations, {failed} failed; raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)

    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    detail = {"problems": problems, "raw": raw, "rounds (busy s, instances, calibration s)": rounds}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n" + json.dumps(detail) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
