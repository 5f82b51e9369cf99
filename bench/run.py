#!/usr/bin/env python3
"""Benchmark for the shadowosc CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload {flow-dense,verify-suite,sweep-fine,query-mix} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client, in one process, with no
threads: the next operation starts when the previous one returns.  An
operation is one in-process call of ``shadowosc.cli.main(argv)``, the
console-script entry path minus interpreter start, with the argv made from
``--seed`` (see workloads.py).  Every output is judged by an oracle in
oracles.py that does not import the program.  A run attempts a fixed list
of operations made from the seed (``workloads.counted_ops``) and executes
every one of them; it then executes the list again from the start until
``--seconds`` seconds of operation time have passed, stopping at the next
group boundary, so every run sees the same mix of operation kinds.  The
operations attempted and failed thus depend on the seed alone, and each
repeated execution is checked against the first.

Times are reported at reference machine speed.  On a shared 2-core Xeon
virtual machine the speed of every process switches between two states about
1.7x apart, each lasting seconds, and raw timings spread 20-30% from run to
run.  So a fixed pure-Python calibration kernel is timed between operations
every ``CALIBRATION_EVERY_S`` of operation time (and after the last), and
each operation or set-up time is scaled by ``CALIBRATION_REFERENCE_S`` over
the median of the kernel samples taken within ``CALIBRATION_WINDOW_S`` of
it.  A change to the program moves the
operation times but not the kernel; a change of host state moves both.
Raw values are printed above the result.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` is
the length of the list; ``failed`` counts its operations with the wrong exit
status, a failed output check, or output bytes that differ from an earlier
execution of the same operation, in this run or an earlier one.
``correct`` is false when an oracle passes a corrupted output or fails the
real output of its fixed control operation, i.e. when the verdicts cannot
be trusted.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run (tracer.py), followed by
an untraced replay of the same operations that gives the tracing overhead.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.  Run artefacts go to
``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import compileall
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".bench_run/work"
SETUP_SAMPLES = 15           # fresh interpreters per run, spread over the run
CALIBRATION_EVERY_S = 0.1    # operation time between calibration samples
CALIBRATION_WINDOW_S = 0.5   # operation time around a measurement whose samples scale it
CALIBRATION_BURST = 3        # kernel runs per sample; the sample is their median
CALIBRATION_REFERENCE_S = 0.0025  # median kernel time on the reference machine
GC_EVERY_S = 1.0

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import shadowosc.cli
shadowosc.cli.build_parser()
print(repr(time.perf_counter() - start))
"""


class Result(NamedTuple):
    code: int
    out: str
    err: str


class Record(NamedTuple):
    index: int          # position of the operation in the counted list
    seconds: float
    digest: str
    units: int
    start: float        # operation time of the loop before this operation


# ------------------------------------------------------------------ environment

def locate_program(root: Path) -> Path:
    src = root / "src"
    if not (src / "shadowosc" / "cli.py").is_file():
        print(f"error: no shadowosc sources under {src}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    return src


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import shadowosc.cli  # noqa: F401  (binds the package's submodules)
    import shadowosc.verify  # noqa: F401
    package = sys.modules["shadowosc"]
    if Path(package.__file__).resolve().parent != (src / "shadowosc").resolve():
        print(f"error: imported shadowosc from {package.__file__}", file=sys.stderr)
        sys.exit(2)
    return package


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, src: Path) -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if got.returncode == 0:
                commit = got.stdout.strip()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "git_commit": commit, "source_digest": source_digest(src / "shadowosc"),
            "bench_digest": source_digest(Path(__file__).resolve().parent)}


# ------------------------------------------------------------------ measurement

class _Cell:
    __slots__ = ("z", "text")

    def __init__(self, z, text):
        self.z, self.text = z, text


def calibration_kernel() -> int:
    """Fixed pure-Python work of the program's kinds: complex arithmetic,
    small objects, %.17g formatting and string joins."""
    cells = []
    for k in range(1000):
        z = complex(k * 1e-3, 1.0)
        w = cmath.exp(z) * z + 1.0 / (z + 2.0)
        cells.append(_Cell(w, f"{w.real:.17g},{w.imag:.17g}"))
    return len(",".join(c.text for c in cells))


class Clocks:
    """Set-up samples and calibration samples, both taken between operations."""

    def __init__(self, root: Path, src: Path, seconds: float, with_setup: bool = True):
        compileall.compile_dir(str(src / "shadowosc"), quiet=1)
        self.root, self.src, self.seconds = root, src, seconds
        self.with_setup = with_setup
        self.setup = []             # (seconds, operation time of the loop when taken)
        self.calibration = []       # kernel seconds, in the order taken
        self.calibrated_at = []     # operation time of the loop at each sample
        self.next_setup = self.next_calibration = 0.0

    def sample_setup(self, busy: float) -> None:
        """Import of shadowosc.cli through a built parser, timed inside a fresh
        interpreter after the bytecode is compiled.  Interpreter start and the
        modules ``site`` imports (.pth files) fall outside the timed window."""
        got = subprocess.run([sys.executable, "-E", "-c", SETUP_CHILD, str(self.src)],
                             cwd=self.root, capture_output=True, text=True, timeout=60)
        if got.returncode != 0:
            print(got.stderr, file=sys.stderr)
            sys.exit(2)
        self.setup.append((float(got.stdout), busy))

    def sample_calibration(self, busy: float) -> None:
        runs = []
        for _ in range(CALIBRATION_BURST):
            start = time.perf_counter()
            calibration_kernel()
            runs.append(time.perf_counter() - start)
        self.calibration.append(statistics.median(runs))
        self.calibrated_at.append(busy)

    def between_operations(self, busy: float) -> None:
        if busy >= self.next_calibration:
            self.sample_calibration(busy)
            self.next_calibration = busy + CALIBRATION_EVERY_S
        if self.with_setup and busy >= self.next_setup and len(self.setup) < SETUP_SAMPLES:
            self.sample_setup(busy)
            self.next_setup = busy + self.seconds / SETUP_SAMPLES

    def scale(self, start: float, end: float) -> float:
        """Factor from the machine speed around a measurement made between
        loop operation times ``start`` and ``end`` to the reference speed."""
        lo = bisect.bisect_left(self.calibrated_at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.calibrated_at, end + CALIBRATION_WINDOW_S)
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibration[lo:hi])


# -------------------------------------------------------------------- execution

class Executor:
    """Runs operations in-process with captured output."""

    def __init__(self, package, root: Path):
        self.cli = package.cli
        self.work = root / WORK_DIR

    def call(self, op) -> tuple[Result, float, dict]:
        if op.kind == "flow":
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an escaped exception exits 1 with a traceback
                code = 1
                print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            seconds = time.perf_counter() - start
        files = {}
        if op.kind == "flow" and self.work.is_dir():
            # paths only: the oracle and the digest stream the files, so the
            # bench holds none of them whole and peak RSS stays the program's
            files = {p.name: p for p in sorted(self.work.iterdir())}
        return Result(code, out.getvalue(), err.getvalue()), seconds, files


def digest(op, result: Result, files: dict) -> str:
    h = hashlib.sha256(repr((op.argv, result.code, result.out, result.err)).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0")
        with open(files[name], "rb") as f:
            while chunk := f.read(1 << 16):
                h.update(chunk)
    return h.hexdigest()[:16]


def judge(op, result: Result, files: dict, accuracy: dict) -> tuple[str | None, int]:
    """Oracle verdict and the work units the operation delivered."""
    if op.kind == "flow":
        reason, dev, rows = oracles.check_flow(op, result, files)
        accuracy["flow.max_rel_dev"] = max(accuracy["flow.max_rel_dev"], dev)
        return reason, rows if reason is None else 0
    if op.kind == "sweep":
        reason = oracles.check_sweep(op, result)
        return reason, len(result.out.splitlines()) - 1 if reason is None else 0
    if op.kind == "verify":
        # a failing suite still ran and reported every one of its checks
        return oracles.check_verify(op, result), oracles.verify_checks(result)
    if op.kind == "hamiltonian":
        reason, res = oracles.check_hamiltonian(op, result)
        accuracy["shadow.max_exp_residual_rel"] = max(
            accuracy["shadow.max_exp_residual_rel"], res)
        return reason, int(reason is None)
    reason = oracles.check_classify(op, result)
    return reason, int(reason is None)


def emitted_outputs(op, result: Result, files: dict, built: int) -> int:
    """Branch outputs that reached the user: trajectories, Hamiltonian rows,
    or every generator of a successful sweep window or verify suite."""
    if result.code != 0:
        return 0
    if op.kind == "flow":
        return sum(1 for name in files if name.startswith("flow_m"))
    if op.kind == "hamiltonian":
        if op.args["format"] == "json":
            with contextlib.suppress(ValueError, KeyError):
                return len(json.loads(result.out)["hamiltonians"])
            return 0
        return sum(1 for line in result.out.splitlines()[1:] if not line.startswith("#"))
    if op.kind in ("sweep", "verify"):
        return built
    return 0


class Loop:
    """What one pass of the closed loop measured."""

    def __init__(self):
        self.records: list[Record] = []
        self.failures: dict = {}    # failure category -> count of failed operations
        self.failed: set = set()    # indices of failed operations in the counted list
        self.accuracy = {"flow.max_rel_dev": 0.0, "shadow.max_exp_residual_rel": 0.0}
        self.emitted = 0
        self.bytes_out = 0
        self.per_op = []            # traced runs: label and hot-layer aggregates per operation
        self.ops_hash = hashlib.sha256()

    @property
    def busy(self) -> float:
        return sum(r.seconds for r in self.records)


def run_loop(ops, executor: Executor, seconds: float, tracer=None, clocks=None) -> Loop:
    """Closed loop over every operation of ``ops``, then over ``ops`` again
    until ``seconds`` of operation time, ending on a group boundary.  A repeated
    execution fails its operation if its output bytes differ from the first.
    ``clocks`` takes its samples between operations, outside the timed calls."""
    loop = Loop()
    busy = next_gc = 0.0
    wall_start = time.perf_counter()
    for index, op in itertools.cycle(enumerate(ops)):
        repeat = len(loop.records) >= len(ops)
        if repeat and (index == 0 or op.group != ops[index - 1].group):
            if busy >= seconds or time.perf_counter() - wall_start > 2 * seconds + 40:
                break
        if busy >= next_gc:
            # The CLI runs one command per process; collect and freeze what the
            # loop has kept so far, so its records do not lengthen the program's
            # garbage collections.
            gc.collect()
            gc.freeze()
            next_gc = busy + GC_EVERY_S
        if clocks:
            clocks.between_operations(busy)
        if tracer:
            tracer.op = len(loop.records)
            built_before = tracer.generators_built
            hot_before = tracer.hot_snapshot()
        result, elapsed, files = executor.call(op)
        busy += elapsed
        reason, units = judge(op, result, files, loop.accuracy)
        output = digest(op, result, files)
        if reason is None and repeat and output != loop.records[index].digest:
            reason = "output bytes differ between runs"
        loop.bytes_out += len(result.out.encode()) + len(result.err.encode())
        if tracer:
            built = tracer.generators_built - built_before
            loop.emitted += emitted_outputs(op, result, files, built)
            loop.per_op.append({"op": len(loop.records), "label": op.label,
                                "hot": tracer.hot_delta(hot_before)})
        if reason is not None and index not in loop.failed:
            loop.failed.add(index)
            note_failure(loop.failures, op, result.err, reason)
        if not repeat:
            loop.ops_hash.update(repr(op.argv).encode())
        loop.records.append(Record(index, elapsed, output, units, busy - elapsed))
    if clocks:
        clocks.sample_calibration(busy)
    return loop


_NUMBER = re.compile(r"[-+]?\d[\d.]*(e[-+]?\d+)?")


def note_failure(failures: dict, op, err: str, reason: str) -> None:
    """Group failures by operation category and error text with numbers masked."""
    text = err.strip().splitlines()[-1] if err.strip() else reason
    key = (op.label, _NUMBER.sub("#", text))
    entry = failures.setdefault(key, {"count": 0, "tau_min": math.inf, "tau_max": -math.inf,
                                      "example": list(op.argv)})
    entry["count"] += 1
    tau = op.args.get("tau", op.args.get("start"))
    if isinstance(tau, float) and math.isfinite(tau):
        entry["tau_min"] = min(entry["tau_min"], tau)
        entry["tau_max"] = max(entry["tau_max"], op.args.get("stop", tau))


def replay(ops, records, executor: Executor, clocks):
    """Execute the loop's executions again, untraced; returns their time scaled
    by ``clocks`` and the operation indices whose output bytes differ from the
    first execution."""
    busy, times, mismatched = 0.0, [], set()
    for rec in records:
        clocks.between_operations(busy)
        op = ops[rec.index]
        result, elapsed, files = executor.call(op)
        busy += elapsed
        times.append((busy - elapsed, elapsed))
        if digest(op, result, files) != records[rec.index].digest:
            mismatched.add(rec.index)
    clocks.sample_calibration(busy)
    return sum(t * clocks.scale(s, s + t) for s, t in times), mismatched


def stored_digest_mismatches(root: Path, key: str, first) -> set[int]:
    """Compare the digests of the first executions with those of an earlier
    run of the same program and bench sources, workload and seed, or store
    them when there is none."""
    path = root / ".bench_run" / "digests" / f"{key}.json"
    current = [r.digest for r in first]
    earlier = None
    if path.is_file():
        with contextlib.suppress(ValueError):
            earlier = json.loads(path.read_text())
    if not isinstance(earlier, list) or len(earlier) != len(current):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current))
        return set()
    return {i for i, (a, b) in enumerate(zip(earlier, current)) if a != b}


def run_controls(workload: str, executor: Executor):
    """Fixed control operations per oracle kind; also warms the program up."""
    def run_control(kind):
        op = workloads.control_op(kind, WORK_DIR)
        result, _, files = executor.call(op)
        return op, result, files
    return oracles.negative_controls(workloads.ORACLE_KINDS[workload], run_control)


# ---------------------------------------------------------------------- metrics

def tail_quantile(n: int) -> float:
    """p90 if at least ten samples lie beyond it, else p50.  A fixed rung keeps
    the percentile the same when the number of operations in a run changes a
    little; p99 is printed, not gated, because it follows the few slowest
    request kinds a seed happens to draw."""
    return 0.9 if n * 0.1 >= 10.0 else 0.5


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(records, setup, rss_mb, scale=lambda start, end: 1.0):
    """End-to-end values with each time multiplied by ``scale``, the tail
    percentile used, and p99 in ms when ten samples lie beyond it."""
    latencies = sorted(r.seconds * scale(r.start, r.start + r.seconds) for r in records)
    units = sum(r.units for r in records)
    q = tail_quantile(len(latencies))
    p50 = statistics.median(latencies)
    tail = nearest_rank(latencies, q) if q > 0.5 else p50
    p99 = nearest_rank(latencies, 0.99) * 1e3 if len(latencies) * 0.01 >= 10.0 else None
    return {
        "setup_s": (statistics.median(s * scale(b, b) for s, b in setup), "s"),
        "work_per_s": (units / sum(latencies), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, q, p99


# Per-layer metric -> (unit, end-to-end metric and workload it should move).
PER_LAYER = {
    "cli.build_parser.calls": ("count", "requests_per_s, latency_p50_ms on query-mix"),
    "cli.build_parser.busy_s": ("s", "requests_per_s, latency_p50_ms on query-mix"),
    "cli.main.self_s": ("s", "requests_per_s on query-mix, points_per_s on sweep-fine"),
    "cli.bytes_out": ("B", "requests_per_s on query-mix, points_per_s on sweep-fine"),
    "integrators.make.busy_s": ("s", "points_per_s on sweep-fine, requests_per_s on query-mix"),
    "integrators.custom.busy_s": ("s", "requests_per_s on query-mix"),
    "integrators.failed": ("count", "failed_share on sweep-fine and query-mix"),
    "classifier.classify.calls": ("count", "points_per_s on sweep-fine"),
    "classifier.classify.busy_s": ("s", "points_per_s on sweep-fine"),
    "classifier.classify.calls_per_point": ("ratio", "points_per_s on sweep-fine"),
    "shadow.generators_for.busy_s": ("s", "points_per_s on sweep-fine, requests_per_s on query-mix"),
    "shadow.generators_for.self_s": ("s", "points_per_s on sweep-fine, requests_per_s on query-mix"),
    "shadow.generators_built": ("count", "points_per_s on sweep-fine, rows_per_s on flow-dense"),
    "shadow.generators_per_emitted": ("ratio", "points_per_s on sweep-fine, rows_per_s on flow-dense"),
    "shadow.failed": ("count", "failed_share on sweep-fine and query-mix"),
    "algebra.closed_exp.under_shadow.calls": ("count", "points_per_s on sweep-fine"),
    "algebra.closed_exp.under_shadow.busy_s": ("s", "points_per_s on sweep-fine"),
    "algebra.closed_exp.under_flow.calls": ("count", "rows_per_s on flow-dense, checks_per_s on verify-suite"),
    "algebra.closed_exp.under_flow.busy_s": ("s", "rows_per_s on flow-dense, checks_per_s on verify-suite"),
    "flow.continuous_state.calls": ("count", "rows_per_s on flow-dense, checks_per_s on verify-suite"),
    "flow.continuous_state.busy_s": ("s", "rows_per_s on flow-dense, checks_per_s on verify-suite"),
    "flow.continuous_state.us_per_call": ("us", "rows_per_s on flow-dense, checks_per_s on verify-suite"),
    "flow.euler_closed_form.calls": ("count", "rows_per_s on flow-dense"),
    "flow.euler_closed_form.busy_s": ("s", "rows_per_s on flow-dense"),
    "flow.discrete_orbit.busy_s": ("s", "rows_per_s on flow-dense"),
    "flow.write_trajectory_csv.busy_s": ("s", "rows_per_s, peak_rss_mb on flow-dense"),
    "flow.trajectory_to_json.busy_s": ("s", "rows_per_s, peak_rss_mb on flow-dense"),
    "flow.serialize_us_per_row": ("us", "rows_per_s on flow-dense"),
    "flow.bytes_written": ("B", "rows_per_s on flow-dense"),
    "flow.states_held_peak": ("count", "peak_rss_mb on flow-dense"),
    "verify.series_exp.calls": ("count", "checks_per_s on verify-suite"),
    "verify.series_exp.busy_s": ("s", "checks_per_s on verify-suite"),
    "verify.check_coincidence.busy_s": ("s", "checks_per_s on verify-suite"),
    "verify.check_conservation.busy_s": ("s", "checks_per_s on verify-suite"),
    "verify.check_regime_map.busy_s": ("s", "checks_per_s on verify-suite"),
    "flow.max_rel_dev": ("ratio", "accuracy, not gated"),
    "shadow.max_exp_residual_rel": ("ratio", "accuracy, not gated"),
    "trace.overhead_share": ("ratio", "traced against untraced operation time"),
}


def per_layer(tracer, loop: Loop, overhead: float):
    """Per-layer values of a traced loop; ``overhead`` is its operation time
    against an untraced replay of the same operations, minus one."""
    t = tracer
    made = (t.calls("integrators.make") - t.raised("integrators.make")
            + t.calls("integrators.custom") - t.raised("integrators.custom"))
    cs_calls = t.calls("flow.continuous_state")
    values = {
        "cli.build_parser.calls": t.calls("cli.build_parser"),
        "cli.build_parser.busy_s": t.busy_s("cli.build_parser"),
        "cli.main.self_s": t.self_s("cli.main"),
        "cli.bytes_out": loop.bytes_out,
        "integrators.make.busy_s": t.busy_s("integrators.make"),
        "integrators.custom.busy_s": t.busy_s("integrators.custom"),
        "integrators.failed": t.raised("integrators.make") + t.raised("integrators.custom"),
        "classifier.classify.calls": t.calls("classifier.classify"),
        "classifier.classify.busy_s": t.busy_s("classifier.classify"),
        "classifier.classify.calls_per_point": t.calls("classifier.classify") / max(1, made),
        "shadow.generators_for.busy_s": t.busy_s("shadow.generators_for"),
        "shadow.generators_for.self_s": t.self_s("shadow.generators_for"),
        "shadow.generators_built": t.generators_built,
        "shadow.generators_per_emitted": t.generators_built / max(1, loop.emitted),
        "shadow.failed": t.raised("shadow.generators_for"),
        "flow.continuous_state.us_per_call": t.busy_s("flow.continuous_state") * 1e6 / max(1, cs_calls),
        "flow.serialize_us_per_row": (t.busy_s("cli._write_trajectory") * 1e6
                                      / max(1, t.rows_serialized)),
        "flow.bytes_written": t.bytes_written,
        "flow.states_held_peak": t.states_held_peak,
        "trace.overhead_share": overhead,
        **loop.accuracy,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        values[name] = t.calls(layer) if stat == "calls" else t.busy_s(layer)
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}


# ------------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = locate_program(root)
    env = environment(root, src)
    clocks = Clocks(root, src, args.seconds, with_setup=not args.trace)
    package = import_program(src)
    executor = Executor(package, root)
    controls = run_controls(args.workload, executor)
    correct = all(real and rejected for _, real, rejected in controls)
    env["rss_before_loop_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(package)
    ops = workloads.counted_ops(args.workload, args.seed, WORK_DIR)
    try:
        loop = run_loop(ops, executor, args.seconds, tracer, clocks)
    finally:
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = loop.records
    mismatched = set()
    if tracer:
        replay_s, mismatched = replay(ops, records, executor,
                                      Clocks(root, src, args.seconds, with_setup=False))
    key = f"{env['source_digest']}-{env['bench_digest']}-{args.workload}-{args.seed}"
    mismatched = sorted(mismatched | stored_digest_mismatches(root, key, records[:len(ops)]))
    for i in set(mismatched) - loop.failed:
        note_failure(loop.failures, ops[i], "", "output bytes differ between runs")
    failed = len(loop.failed | set(mismatched))

    ops_digest = loop.ops_hash.hexdigest()[:16]
    output_digest = hashlib.sha256(
        "".join(r.digest for r in records[:len(ops)]).encode()).hexdigest()[:16]
    raw = tail_q = p99 = None
    if tracer:
        traced_s = sum(r.seconds * clocks.scale(r.start, r.start + r.seconds) for r in records)
        metrics = per_layer(tracer, loop, traced_s / replay_s - 1.0)
    else:
        raw, tail_q, raw_p99 = end_to_end(records, clocks.setup, rss_mb)
        metrics, _, ref_p99 = end_to_end(records, clocks.setup, rss_mb, clocks.scale)
        if ref_p99 is not None:
            p99 = (ref_p99, raw_p99)

    report(args, env, loop, len(ops), failed, controls, metrics, raw, clocks, ops_digest,
           output_digest, mismatched, tail_q, p99)
    out = root / ".bench_run"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        (out / f"trace-{stem}.json").write_text(json.dumps(
            {"spans": tracer.spans, "ops": loop.per_op}))
    (out / f"result-{stem}.json").write_text(json.dumps({
        "environment": env, "workload": args.workload, "seed": args.seed,
        "attempted": len(ops), "failed": failed, "executions": len(records),
        "operations_digest": ops_digest, "output_digest": output_digest,
        "negative_controls": controls,
        "failures": [{"category": k[0], "error": k[1], **v} for k, v in loop.failures.items()],
        "calibration_ms": [c * 1e3 for c in clocks.calibration],
        "raw_metrics": raw and {k: v[0] for k, v in raw.items()},
        "metrics": {k: v[0] for k, v in metrics.items()}}, indent=1, default=str))

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def report(args, env, loop, attempted, failed, controls, metrics, raw, clocks, ops_digest,
           output_digest, mismatched, tail_q, p99):
    """Human-readable lines before the JSON result."""
    records = loop.records
    print(f"# shadowosc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in env.items():
        print(f"# {key:<14} {value}")
    print(f"# operations {attempted} (digest {ops_digest}), executions {len(records)}, "
          f"output digest {output_digest}")
    for name, real, rejected in controls:
        print(f"# negative control {name!r}: real output "
              f"{'passes' if real else 'FAILS'}, corruption "
              f"{'rejected' if rejected else 'ACCEPTED'}")
    print(f"# failed_share {failed / attempted:.6f} ({failed}/{attempted}); "
          f"determinism mismatches {len(mismatched)}")
    for (label, error), v in sorted(loop.failures.items(), key=lambda kv: -kv[1]["count"]):
        span = (f" tau in [{v['tau_min']:.6g}, {v['tau_max']:.6g}]"
                if math.isfinite(v["tau_min"]) else "")
        print(f"#   {v['count']:>5}  {label}: {error}{span}")
    if raw is None:
        print(f"# {'per-layer metric':<42} {'value':>14} {'unit':<6} moves")
        for name, (value, unit) in metrics.items():
            print(f"# {name:<42} {value:>14.6g} {unit:<6} {PER_LAYER[name][1]}")
        return
    units = sum(r.units for r in records)
    print(f"# setup samples (s, raw): " + " ".join(f"{s:.4f}" for s, _ in clocks.setup))
    cal = sorted(clocks.calibration)
    print(f"# calibration kernel: {len(cal)} samples, quartiles (ms) "
          + " ".join(f"{q * 1e3:.4f}" for q in statistics.quantiles(cal, n=4))
          + f", reference {CALIBRATION_REFERENCE_S * 1e3:g}")
    print(f"# work_per_s counts {units} units in {loop.busy:.3f} s of raw operation time; "
          f"latency_tail_ms is p{100 * tail_q:.4g} of {len(records)} executions")
    # The workload's own name for the generic throughput metric.
    aliases = {"work_per_s": workloads.WORK_UNITS[args.workload]}
    print(f"# {'metric':<16} {'reference':>14} {'raw':>14} unit")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<16} {value:>14.6g} {raw[name][0]:>14.6g} {unit}"
              + (f"  ({aliases[name]})" if name in aliases else ""))
    print(f"# {'failed_share':<16} {failed / attempted:>14.6g} "
          f"{failed / attempted:>14.6g} ratio")
    if p99:
        print(f"# {'latency_p99_ms':<16} {p99[0]:>14.6g} {p99[1]:>14.6g} ms  (not gated)")


if __name__ == "__main__":
    sys.exit(main())
