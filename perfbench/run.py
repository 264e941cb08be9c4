#!/usr/bin/env python3
"""coverkit benchmark: four seeded workloads, each a closed loop with one client.

    python3 perfbench/run.py                              # all workloads, one per child
    python3 perfbench/run.py --workload window --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload least-period --seed 3 --trace 1
    python3 perfbench/run.py --compare OLD NEW            # result files or directories

``--trace 0`` issues operations back to back until ``--seconds`` of timed
wall time (and at least 100 operations) have passed and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed, seed-determined list of
operations once untraced and once with every public coverkit function
wrapped, and reports the per-layer metrics; the counts in it repeat exactly
for a given seed.  Metric names, units and bounds come from BENCHMARK.json.
Reported times are corrected for the machine's speed phases (speed.py);
raw wall times are kept in the result files.

Every result is checked outside the timed region (see workloads.py); an
exception or a wrong verdict counts as failed and makes the exit code 1.
Each run writes a result file with an environment block to
``perfbench/results`` (or ``--out``), and the last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout
from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = checkout.ROOT / "BENCHMARK.json"
WORKLOADS = ("window", "full-scan", "least-period", "cli")
IMPORT_TARGET = {"cli": "coverkit.cli"}  # what a fresh process imports; default coverkit
TRACE_OPS = {"window": 400, "full-scan": 100, "least-period": 48, "cli": 24}
MIN_OPS = 100  # p90 then has at least ten samples above it
WARMUP_OPS = 5
SETUP_STARTS = 7
NPROC = len(os.sched_getaffinity(0))  # read before pin_to_one_cpu narrows it
CLI_ENTRY = "import sys; from coverkit.cli import main; sys.argv[0] = 'coverkit'; main()"


# ---------------------------------------------------------------------------
# child interpreters


def run_child(args: list[str]) -> tuple[int, str, float, int]:
    """Run a fresh interpreter on the checkout's sources.

    Returns (exit code, combined output, wall seconds, peak RSS in KiB).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=checkout.child_env(),
        cwd=checkout.ROOT,
    )
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out.decode(), time.perf_counter() - start, usage.ru_maxrss


def start_times(code: str, starts: int, speed: SpeedProbe) -> list[float]:
    """Wall times of fresh interpreters running ``code``, after one untimed
    start that fills the bytecode and file caches; a speed sample precedes
    each start."""
    times = []
    for i in range(starts + 1):
        speed.sample()
        rc, out, wall, _ = run_child(["-c", code])
        if rc != 0:
            raise RuntimeError(f"python -c {code!r} exited {rc}: {out.strip()}")
        if i:
            times.append(wall)
    return times


class ChildRunner:
    """Runs each CLI request in a fresh process through coverkit.cli:main and
    keeps the largest peak RSS among them."""

    def __init__(self):
        self.peak_kib = 0

    def __call__(self, argv) -> tuple[int, str]:
        code, out, _, rss = run_child(["-c", CLI_ENTRY, *argv])
        self.peak_kib = max(self.peak_kib, rss)
        return code, out


# ---------------------------------------------------------------------------
# running operations


def build_stream(name: str, seed: int, workdir: Path, in_process: bool):
    """(operation stream, CLI runner or None) for one workload and seed."""
    import workloads

    rng = random.Random(seed)
    runner = None
    if name == "window":
        bases = workloads.window_bases(rng)
    elif name == "full-scan":
        bases = workloads.full_scan_bases(rng)
    elif name == "least-period":
        bases = workloads.least_period_bases(rng)
    else:
        runner = workloads.run_in_process if in_process else ChildRunner()
        bases = workloads.cli_bases(workloads.cli_requests(rng), runner, workdir)
    return workloads.op_stream(bases, rng), runner


def attempt(call) -> tuple[int, object, str | None]:
    """(wall ns, result, error) of one operation; errors are not raised."""
    start = time.perf_counter_ns()
    try:
        result, error = call(), None
    except Exception as e:  # a failed operation is counted, not fatal
        result, error = None, f"{type(e).__name__}: {e}"
    return time.perf_counter_ns() - start, result, error


def check(op, result, error) -> str | None:
    if error is None:
        try:
            error = op.check(result)
        except Exception as e:
            error = f"check raised {type(e).__name__}: {e}"
    return None if error is None else f"{op.kind}: {error}"


def closed_loop(stream, seconds: float, speed: SpeedProbe) -> tuple[list[tuple], int]:
    """Issue operations one after another until ``seconds`` of timed wall
    time and MIN_OPS operations, checking each result right after it,
    untimed.  Returns one (kind, gate, ns, error, speed samples taken before
    it) per operation, which keeps no inputs alive, and the peak RSS in KiB
    at the end of the loop."""
    for _ in range(WARMUP_OPS):
        op = next(stream)
        attempt(op.call)
    runs = []
    busy = 0
    speed.sample()
    while busy < seconds * 1e9 or len(runs) < MIN_OPS:
        op = next(stream)
        j = len(speed.samples)
        ns, result, error = attempt(op.call)
        runs.append((op.kind, op.gate, ns, check(op, result, error), j))
        busy += ns
        speed.maybe_sample()
    return runs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def failures_after_gates(runs) -> list[str]:
    """Check errors plus, for every operation, its base's oracle gate (each
    gate runs once)."""
    gate_error: dict = {}
    failures = []
    for kind, gate, _, error, *_ in runs:
        if gate not in gate_error:
            try:
                gate()
                gate_error[gate] = None
            except Exception as e:
                gate_error[gate] = f"{kind}: gate raised {type(e).__name__}: {e}"
        if error or gate_error[gate]:
            failures.append(error or gate_error[gate])
    return failures


def kind_summary(runs) -> dict[str, dict]:
    """Per job kind: operation count and median latency in ms."""
    by_kind: dict[str, list[int]] = {}
    for kind, _, ns, *_ in runs:
        by_kind.setdefault(kind, []).append(ns)
    return {k: {"ops": len(v), "median_ms": statistics.median(v) / 1e6} for k, v in sorted(by_kind.items())}


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# per-layer (traced) run


def kernel_load_ns_per_point(speed: SpeedProbe) -> dict[str, float]:
    """The int64 kernels on four fixed loads: median ns per point of five
    calls after one warm-up, through the public kernel entry points, at the
    reference speed."""
    from coverkit import _kernels

    rng = random.Random(12)
    k = 40
    mod = [rng.randint(2, 97) for _ in range(k)]
    res = [rng.randrange(n) for n in mod]
    wts = [rng.randint(-3, 3) for _ in range(k)]
    rng = random.Random(21)
    periods = [7, 8, 9, 11, 12]
    flat, offs = [], []
    for n in periods:
        offs.append(len(flat))
        flat.extend(rng.randint(-9, 9) for _ in range(n))
    loads = {
        "primes-30030": (_kernels.cover_counts, ([0] * 6, [2, 3, 5, 7, 11, 13], [1] * 6, 0, 30030)),
        "random-1e6": (_kernels.cover_counts, (res, mod, wts, -500_000, 1_000_000)),
        "tables-1e6-q": (_kernels.table_sums, (flat, offs, periods, 0, 1_000_000, 0)),
        "tables-1e6-f5": (_kernels.table_sums, (flat, offs, periods, 0, 1_000_000, 5)),
    }
    medians = {}
    for name, (fn, args) in loads.items():
        fn(*args)
        times = []
        for _ in range(5):
            speed.sample()
            start = time.perf_counter_ns()
            fn(*args)
            times.append(time.perf_counter_ns() - start)
        medians[name] = statistics.median(times) / args[4]
    return {name: ns / speed.factor() for name, ns in medians.items()}


def traced_passes(name: str, stream, spans_path: Path):
    """Run the fixed operation list untraced, then traced.  Returns (tracer,
    untraced ns per op, traced ns per op, the two passes' speed probes,
    failures)."""
    import tracing
    import workloads

    ops = [next(stream) for _ in range(WARMUP_OPS + TRACE_OPS[name])]
    warmup, ops = ops[:WARMUP_OPS], ops[WARMUP_OPS:]
    for op in warmup:
        attempt(op.call)
    speeds = (SpeedProbe(), SpeedProbe())

    def timed_pass(call_of, speed, between=lambda: None):
        runs = []
        for i, op in enumerate(ops):
            runs.append(attempt(call_of(i, op)))
            between()
            speed.maybe_sample()
        return runs

    plain = timed_pass(lambda i, op: op.call, speeds[0])
    tracer = tracing.Tracer(spans_path)
    tracer.install([workloads])
    try:
        traced = timed_pass(lambda i, op: lambda: tracer.run_op(i, op.kind, op.call), speeds[1], tracer.flush)
    finally:
        tracer.uninstall()
        tracer.close()
    failures = failures_after_gates(
        [(op.kind, op.gate, ns, check(op, result, error)) for op, (ns, result, error) in zip(ops * 2, plain + traced)]
    )
    return tracer, [r[0] for r in plain], [r[0] for r in traced], speeds, failures


def layer_metrics(tr, plain_ns, traced_ns, speeds, starts, setup_speed, cli: bool) -> dict[str, float]:
    """Per-layer metrics; every time is taken to the reference speed with
    the probe of the phase it was measured in."""

    def layer(name):
        return lambda n, l: l == name

    def named(name):
        return lambda n, l: n == name

    f_plain, f_traced, f_setup = speeds[0].factor(), speeds[1].factor(), setup_speed.factor()

    def self_s(predicate):
        return tr.self_s(predicate) / f_traced

    is_zero = named("cyclotomic.CyclotomicElement.is_zero")
    zero_tests = tr.call_count(is_zero)
    kernel_s = self_s(layer("_kernels"))
    bare = statistics.median(starts["bare"])
    m = {
        "cyclotomic.is_zero.calls": zero_tests,
        "cyclotomic.is_zero.self_s": self_s(is_zero),
        "cyclotomic.is_zero.nonzero_share": tr.counts["cyclotomic.is_zero.nonzero"] / zero_tests
        if zero_tests
        else 0.0,
        "cyclotomic.coeff_terms": tr.counts["cyclotomic.coeff_terms"],
        "cyclotomic.arith.self_s": self_s(lambda n, l: l == "cyclotomic" and not is_zero(n, l)),
        "numtheory.self_s": self_s(layer("numtheory")),
        "numtheory.calls": tr.call_count(layer("numtheory")),
        "numtheory.cyclotomic_poly.self_s": self_s(named("numtheory.cyclotomic_poly")),
        "fracsets.self_s": self_s(layer("fracsets")),
        "fracsets.window_points": tr.counts["fracsets.window_points"],
        "fracsets.window_bound.subsets": tr.counts["fracsets.window_bound.subsets"],
        "covering.self_s": self_s(layer("covering")),
        "covering.checks": tr.entries["covering"],
        "covering.exact_fallbacks": tr.counts["covering.exact_fallbacks"],
        "kernels.calls": tr.call_count(layer("_kernels")),
        "kernels.points": tr.counts["kernels.points"],
        "kernels.self_s": kernel_s,
        "kernels.points_per_s": tr.counts["kernels.points"] / kernel_s if kernel_s else 0.0,
        "oracle.self_s": self_s(layer("oracle")),
        "oracle.points": tr.counts["oracle.points"],
        "multidim.self_s": self_s(layer("multidim")),
        "multidim.box_points": tr.counts["multidim.box_points"],
        "cli.interpreter_s": bare / f_setup,
        "cli.numpy_import_s": (statistics.median(starts["numpy"]) - bare) / f_setup,
        "cli.import_s": (statistics.median(starts["import"]) - bare) / f_setup,
        "cli.run_command_s": statistics.median(plain_ns) / 1e9 / f_plain if cli else 0.0,
        "trace.overhead_share": (sum(traced_ns) / f_traced) / (sum(plain_ns) / f_plain) - 1,
    }
    for load, ns in kernel_load_ns_per_point(SpeedProbe()).items():
        m[f"kernels.load.{load}.ns_per_point"] = ns
    return m


# ---------------------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int, load_start) -> dict:
    import numpy

    from coverkit import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "kernel_backend": _kernels.BACKEND,
        "seed": seed,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the speed probe
    times the processor the operations run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def result_path(out_dir: Path, name: str, seed: int, trace: bool) -> Path:
    """The first unused ``<workload>-seed<n>-trace<t>-run<i>.json``, so that
    repeated runs of one seed accumulate instead of overwriting."""
    i = 0
    while (path := out_dir / f"{name}-seed{seed}-trace{int(trace)}-run{i}.json").exists():
        i += 1
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One run of one workload; writes and returns its result record."""
    load_start = os.getloadavg()
    path = result_path(out_dir, name, seed, trace)
    target = IMPORT_TARGET.get(name, "coverkit")
    workdir = out_dir / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            speed = SpeedProbe()
            starts = {
                "bare": start_times("pass", 5, speed),
                "numpy": start_times("import numpy", 5, speed),
                "import": start_times(f"import {target}", 5, speed),
            }
            stream, _ = build_stream(name, seed, workdir, in_process=True)
            spans_path = out_dir / f"spans-{path.stem}.jsonl"
            tracer, plain_ns, traced_ns, speeds, failures = traced_passes(name, stream, spans_path)
            metrics = layer_metrics(tracer, plain_ns, traced_ns, speeds, starts, speed, name == "cli")
            attempted = 2 * len(plain_ns)
            extra = {"spans_file": spans_path.name, "spans": tracer.spans_written}
        else:
            setup_speed = SpeedProbe()
            setup = start_times(f"import {target}", SETUP_STARTS, setup_speed)
            stream, runner = build_stream(name, seed, workdir, in_process=False)
            speed = SpeedProbe()
            runs, self_peak_kib = closed_loop(stream, seconds, speed)
            failures = failures_after_gates(runs)
            ordered = sorted(r[2] for r in runs)
            n = len(ordered)
            peak_kib = runner.peak_kib if runner else self_peak_kib
            raw = {
                "checks_per_s": n / (sum(ordered) / 1e9),
                "latency_p50_ms": percentile(ordered, 0.5) / 1e6,
                "latency_p90_ms": percentile(ordered, 0.9) / 1e6,
                "setup_s": statistics.median(setup),
            }
            corrected = sorted(r[2] / speed.around(r[4]) for r in runs)
            metrics = {
                "checks_per_s": n / (sum(corrected) / 1e9),
                "latency_p50_ms": percentile(corrected, 0.5) / 1e6,
                "latency_p90_ms": percentile(corrected, 0.9) / 1e6,
                "failed_share": len(failures) / n,
                "setup_s": raw["setup_s"] / setup_speed.factor(),
                "peak_rss_mb": peak_kib / 1024,
            }
            attempted = n
            extra = {
                "latency_samples": n,
                "samples_above_p50": n - math.ceil(0.5 * n),
                "samples_above_p90": n - math.ceil(0.9 * n),
                "raw_wall_metrics": raw,
                "speed_factor": speed.factor(),
                "setup_speed_factor": setup_speed.factor(),
                "speed_samples": len(speed.samples),
                "setup_starts": setup,
                "kinds": kind_summary(runs),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "loop": "closed, one client",
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        **extra,
        "env": environment(seed, load_start),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict, spec: dict) -> dict:
    """Print a record's metrics by name and unit; return them for the JSON line."""
    key = "per_layer" if record["trace"] else "end_to_end"
    print(
        f"{record['workload']}  seed {record['seed']}  attempted {record['attempted']}  "
        f"failed {record['failed']}  failed_share {record['failed'] / record['attempted']:.4g}"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    out = {}
    for metric in spec[key]:
        name, unit = metric["name"], metric["unit"]
        value = record["metrics"][name]
        note = ""
        if name.startswith("latency_"):
            above = record["samples_above_p50" if "p50" in name else "samples_above_p90"]
            note = f"  (n={record['latency_samples']}, {above} above)"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# compare mode


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace0-run*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(old: Path, new: Path, spec: dict) -> None:
    """Per workload and end-to-end metric: both medians with quartiles and
    the ratio new/old.  A pair is unresolved when either side's
    interquartile spread, as a share of its median, exceeds the bound, or
    when the runs do not all share one run length."""
    runs = {"old": load_runs(old), "new": load_runs(new)}
    lengths = {r["seconds"] for side in runs.values() for r in side}
    if len(lengths) > 1:
        print(f"run lengths differ ({', '.join(f'{s:g} s' for s in sorted(lengths))}): every pair is unresolved")
    print(f"{'workload':<13} {'metric':<15} {'old median [q1, q3]':>32} {'new median [q1, q3]':>32} {'new/old':>8}")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for side in ("old", "new"):
                values = [r["metrics"][name] for r in runs[side] if r["workload"] == workload]
                sides.append(summary(values) if values else None)
            if None in sides:
                continue
            (m0, a0, b0), (m1, a1, b1) = sides
            ratio = m1 / m0 if m0 else float("nan")
            unresolved = len(lengths) > 1 or any(m and (b - a) / abs(m) > metric["bound"] for m, a, b in sides)
            worse = m1 < m0 if metric["better"] == "higher" else m1 > m0
            status = "unresolved" if unresolved else ("worse" if worse and abs(ratio - 1) > metric["bound"] else "")
            print(
                f"{workload:<13} {name:<15} {m0:>12.5g} [{a0:.5g}, {b0:.5g}] {m1:>12.5g} "
                f"[{a1:.5g}, {b1:.5g}] {ratio:>8.4f} {status}"
            )


# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int, out_dir: Path) -> int:
    """Every workload, each in a fresh interpreter so that ``peak_rss_mb``
    is that workload's own; prints each child's table and one JSON line
    with every metric under ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        code, out, _, _ = run_child([str(BENCH_DIR / "run.py"), *argv, "--out", str(out_dir)])
        *table, last = out.rstrip("\n").split("\n")
        try:
            result = json.loads(last)
        except ValueError:
            print(out, file=sys.stderr)
            print(f"error: {name} exited {code} without a result", file=sys.stderr)
            return code or 1
        print("\n".join(table))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "results", help="directory for result files")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    try:
        checkout.use_checkout_source()
    except checkout.MissingSource as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace, args.out)
    pin_to_one_cpu()
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.out)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": report(record, spec),
    }))  # fmt: skip
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
