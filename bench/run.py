"""The bicone benchmark: drive the package the way a researcher does.

One Python process, one closed-loop client: every op is an in-process
``bicone.cli.main(argv)`` call with stdout captured (see workloads.py), its
JSON parsed strictly and checked by an oracle.  BLAS/OpenMP pools are pinned
to one thread.  The package is imported from ``src/`` next to this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's ops in cycle order until their summed
latency reaches S seconds (at least one whole cycle) and reports the
end-to-end metrics.  Each op of the cycle gets the mean of its latencies
over the run, each repeat with its own seed; ``ops_per_s`` is the cycle's
op count over the sum of those means and ``op_p50_s`` their median (see
``p50``).  Set-up time is the median of SETUP_PROBES fresh interpreters
(probe.py) spread over the run.

Every timed metric is given at the host's reference speed.  A shared host
changes the speed it gives one process by 1.3-2x over seconds to minutes
(measured on a 2-vCPU x86-64 VM), more than any statistic over one run
removes.  So the run also times a fixed piece of reference work that uses
no code of the package (``Calibration``), spread over the run between ops,
and multiplies every measured time by CAL_NOMINAL_S over its mean time.  A
change to the package moves the metrics; the host's drift, which slows the
reference work alike, largely cancels.  The unscaled figures are in the
detail line.

``--trace 1`` runs the workload's first ``trace_cycles`` cycles four times:
untraced to warm up, traced with every layer boundary instrumented
(spans.py), untraced as the baseline for the tracing overhead, and traced
again.  It checks that the two traced passes give identical counts and
reports the per-layer metrics.

The last stdout line is the result object; the line before it holds
provenance and per-op detail.  Exit code 2 means the package source is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
TAIL_BEYOND = 10
# Reference work (see Calibration): a 50000-step interpreter loop, 16
# vectorised passes over 65536 doubles (cache-resident) and one over 1e6
# (8 MB, memory-bound), all into preallocated buffers so that the
# allocator's state in the run cannot move it; about 13 ms on a 2-vCPU
# x86-64 VM.
CAL_LOOP = 50_000
CAL_PASSES = 16
CAL_ARRAY = 65_536
CAL_STREAM = 1_000_000
CAL_SHARE = 0.05
CAL_WARM = 5
CAL_NOMINAL_S = 0.013
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "success_rate": "ratio", "peak_rss_mb": "MB"}


class Client:
    """Runs ops in-process and returns each CLI call's (exit code, stdout)."""

    def __init__(self, package):
        from bicone import cli
        import numpy

        self.cli = cli
        self.bicone = package
        self.np = numpy

    def call(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as stop:            # argparse usage errors
                code = stop.code if isinstance(stop.code, int) else 2
        return code, out.getvalue()

    def run(self, op) -> list[tuple[int, str]]:
        if op.kind == "cli":
            return [self.call(op.argv)]
        if op.kind == "round_trip":
            first = self.call(op.argv)
            if first[0] != 0:
                return [first]
            image = json.loads(first[1])["result"]["images"][0]
            back = self.call(("eval", "--map", op.params["map"],
                              "--points", ",".join(repr(v) for v in image)))
            return [first, back]
        if op.kind == "quasi_inverse":
            return [self._quasi_inverse(op.params)]
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _quasi_inverse(self, p) -> tuple[int, str]:
        b = self.bicone
        g = b.GluedMap(b.ModulusFunction.iterlog(p["k"], 1.0, p["n"]), n=p["n"])
        radii = self.np.geomspace(*workloads.QUASI_RADII)
        res = b.quasi_inverse_check(g, g.inverted(), 0.0, radii, norm="cone",
                                    count=workloads.PROBE_COUNT, seed=p["seed"])
        return 0, json.dumps({"radii": res.radii.tolist(),
                              "map_after_inverse": res.map_after_inverse.tolist(),
                              "inverse_after_map": res.inverse_after_map.tolist()})


class Tally:
    """Latencies and verdicts of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.errors = 0
        self.failed_by_label: dict[str, int] = {}
        self.unexpected: list[dict] = []
        self.known: dict[str, int] = {}

    def add(self, op, latency: float, failure) -> None:
        self.latencies.append(latency)
        self.by_label.setdefault(op.label, []).append(latency)
        if failure is None:
            return
        self.errors += 1
        self.failed_by_label[op.label] = self.failed_by_label.get(op.label, 0) + 1
        if workloads.expected(op, failure):
            self.known[op.label] = self.known.get(op.label, 0) + 1
        else:
            self.unexpected.append({"op": op.label, "kind": failure.kind,
                                    "detail": str(failure)[:300]})

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_ops(client, ops, refs, tally: Tally, clock, between=None) -> float:
    """Run ops in a closed loop; returns their summed latency.

    ``between()``, when given, runs after each op, outside its timing."""
    total = 0.0
    for op in ops:
        started = clock()
        try:
            outputs = client.run(op)
        except Exception as crash:                 # one op must not end the run
            latency = clock() - started
            failure = workloads.CheckFailure(
                "exception", "".join(traceback.format_exception_only(crash)))
        else:
            latency = clock() - started
            failure = workloads.judge(op, outputs, refs)
        tally.add(op, latency, failure)
        total += latency
        if between is not None:
            between()
    return total


def run_timed(client, wl, seed, seconds, refs, tally, between) -> None:
    """Ops in cycle order until their summed latency reaches ``seconds``,
    and at least one whole cycle, so that every op of the cycle is timed."""
    spent, cycle = 0.0, 0
    while spent < seconds or cycle == 0:
        for op in wl.cycle(seed, cycle):
            spent += run_ops(client, [op], refs, tally, time.perf_counter, between)
            if spent >= seconds and cycle > 0:
                return
        cycle += 1


class Calibration:
    """Times a fixed piece of reference work between ops.

    The work uses no code of the package, so no change to the package moves
    it; it only tracks the speed the host gives this process.  ``keep_up``
    runs it after ops until it has taken CAL_SHARE of the op time so far, so
    its samples are spread over the whole run.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.arrays = [(x, numpy.empty_like(x), numpy.empty_like(x))
                       for x in (rng.random(CAL_ARRAY), rng.random(CAL_STREAM))]
        self.samples: list[float] = []
        self.spent = 0.0
        for _ in range(CAL_WARM):        # fault the buffers in, warm caches
            self.sample()
        self.samples.clear()
        self.spent = 0.0

    def sample(self) -> None:
        np, (small, large) = self.np, self.arrays
        started = time.perf_counter()
        total = 0.0
        for i in range(CAL_LOOP):              # interpreter work
            total += i * 0.5
        for x, a, b in [small] * CAL_PASSES + [large]:
            np.sqrt(x, out=a)
            np.log1p(x, out=b)
            np.multiply(a, b, out=a)
            total += float(a.sum())
        taken = time.perf_counter() - started
        self.samples.append(taken)
        self.spent += taken

    def keep_up(self, op_time: float) -> None:
        while self.spent < CAL_SHARE * op_time:
            self.sample()

    @property
    def scale(self) -> float:
        """Factor that takes this run's seconds to reference-speed seconds.

        A mean, not a median: the metrics sum op latencies, so the host's
        slowdown they carry is its average over the run's time."""
        return CAL_NOMINAL_S / statistics.fmean(self.samples)


def p50(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, so that it does not hang on the one or two ops in the
    middle of the cycle (their cost varies with the inputs a seed draws).
    The weight of the i-th smallest of n values is the mass that the
    Beta((n+1)/2, (n+1)/2) distribution puts on [(i-1)/n, i/n]."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    t = np.linspace(0.0, 1.0, 20_001)
    density = (t * (1.0 - t)) ** ((n - 1) / 2.0)     # up to a constant
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it; runs with too few ops report their slowest op at 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_time(workload: str) -> float:
    """Fresh interpreter to first op ready: import, parser build, warm-up ops."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), workload],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return ready - started


def references(bicone, wl) -> dict:
    """Tensor-quadrature values the Monte-Carlo ops are checked against."""
    if wl.name != "bulk_mc_energy":
        return {}
    refs = {}
    for k, n in workloads.MC_MAPS:
        m = bicone.ConeMap(bicone.ModulusFunction.iterlog(k, 1.0, n), n=n)
        res = bicone.inner_distortion_integral(m, tol=workloads.MC_REFERENCE_TOL)
        refs[f"cone:phi=iterlog:k={k},alpha=1,n={n}"] = (res.value, res.error_estimate)
    return refs


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bicone").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, wl) -> dict:
    import numpy

    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "points_per_op": wl.sizes}


def measure(args, client, wl, refs) -> tuple[dict, Tally, dict]:
    # Set-up probes are spread over the run, between ops, like the
    # calibration samples that scale them.
    setup: list[float] = []
    gap = args.seconds / SETUP_PROBES
    due = [0.0]
    cal = Calibration()
    tally = Tally()

    def between():
        cal.keep_up(sum(tally.latencies))
        if len(setup) < SETUP_PROBES and time.perf_counter() >= due[0]:
            setup.append(setup_time(wl.name))
            due[0] = time.perf_counter() + gap

    between()
    run_timed(client, wl, args.seed, args.seconds, refs, tally, between)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(wl.name))
    scale = cal.scale
    # One entry per op of the cycle, so that a run which stops inside a
    # cycle keeps the cycle's mix.  The mean over an op's repeats (each with
    # its own seed) averages the inputs, whose cost varies from seed to seed.
    op_mean = {label: statistics.fmean(v) for label, v in tally.by_label.items()}
    per_op = list(op_mean.values())
    op_success = [1.0 - tally.failed_by_label.get(label, 0) / len(v)
                  for label, v in tally.by_label.items()]
    values = {
        "setup_s": statistics.median(setup) * scale,
        "ops_per_s": len(per_op) / sum(per_op) / scale,
        "op_p50_s": p50(per_op) * scale,
        "success_rate": statistics.fmean(op_success),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    lat = tally.latencies
    tail_s, tail_pct = tail(lat)
    detail = {"ops": tally.attempted, "op_s": sum(lat),
              "speed_scale": scale, "calibration_samples": len(cal.samples),
              "calibration_runs_s": [round(t, 7) for t in cal.samples],
              "raw": {"setup_s": statistics.median(setup),
                      "ops_per_s": len(per_op) / sum(per_op),
                      "op_p50_s": p50(per_op)},
              "op_tail_s": tail_s * scale, "op_tail_percentile": tail_pct,
              "setup_runs_s": setup,
              "error_rate": tally.errors / tally.attempted,
              "op_mean_s": op_mean}
    return metrics, tally, detail


def measure_traced(args, client, wl, refs) -> tuple[dict, Tally, dict]:
    import spans

    tally = Tally()
    ops = [op for c in range(wl.trace_cycles) for op in wl.cycle(args.seed, c)]
    # A first untraced pass warms every cache (and the allocator) the later
    # passes touch, so both traced passes do the same work and their counts
    # can be compared exactly; the untraced pass between them is the
    # baseline for the tracing overhead.
    run_ops(client, ops, refs, tally, time.perf_counter)
    tracer = spans.Tracer()

    def traced_pass():
        tracer.recording = True
        try:
            wall = run_ops(client, ops, refs, tally, tracer.now)
        finally:
            tracer.recording = False
        return (*spans.summarize(tracer.take(), wall), wall)

    restore = spans.instrument(tracer, client.bicone)
    try:
        first, counts_a, wall_a = traced_pass()
        untraced = run_ops(client, ops, refs, tally, time.perf_counter)
        second, counts_b, wall_b = traced_pass()
    finally:
        restore()

    repeat = counts_a == counts_b
    if not repeat:
        sys.stderr.write(f"traced counts differ between passes:\n{counts_a}\n{counts_b}\n")
    metrics = {}
    for name, value in first.items():
        if name in spans.TIMED:
            value = (value + second[name]) / 2.0
        metrics[name] = (value, spans.UNITS[name])
    metrics["trace.overhead"] = ((wall_a + wall_b) / 2.0 / untraced - 1.0, "ratio")
    detail = {"traced_ops": len(ops), "counts": counts_a, "counts_repeat": repeat,
              "untraced_s": untraced, "traced_s": [wall_a, wall_b]}
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bicone" / "__init__.py").is_file():
        sys.stderr.write(f"bicone source not found under {SRC}\n")
        return 2
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bicone

    if Path(bicone.__file__).resolve().parent != SRC / "bicone":
        sys.stderr.write(f"imported bicone from {bicone.__file__}, not {SRC}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]

    client = Client(bicone)
    for warm in wl.warmup:
        client.call(warm)
    refs = references(bicone, wl)
    measured = measure_traced if args.trace else measure
    metrics, tally, detail = measured(args, client, wl, refs)

    correct = not tally.unexpected and detail.get("counts_repeat", True)
    print(json.dumps({"provenance": provenance(args, wl), "detail": {
        **detail, "unexpected_failures": tally.unexpected,
        "known_defect_failures": tally.known}}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.unexpected),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
