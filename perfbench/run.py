#!/usr/bin/env python3
"""gausslab benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-readme, catalog, cone-gallery, link-grid (see BENCHMARK.json
and perfbench/README.md). With --trace 0 the run measures the end-to-end
metrics with nothing patched; with --trace 1 it patches spans around
gausslab's public functions and reports the per-layer metrics. Human-readable
lines come first; the last line of stdout is the JSON result. Spans and a
full result record are written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 5
IMPORT_PROBES = 3
# Speed reference. The shared 2-core machine changes speed by up to twice
# within seconds, and short work follows a fixed reference run next to it:
# per operation, a 3-point dimension-5 residual and a takagi solve
# correlated 0.94 and 0.85 with a pure-Python kernel timed just before and
# after, and a fresh ``import gausslab.cli`` 0.84 with a fresh
# ``import numpy`` (over 12-s windows their spread fell from 0.33, 0.32 and
# 0.21 to 0.03-0.04; reference_test in results/seed.json). So the reference
# runs before the first operation and after every operation and set-up
# probe, and each time is reported relative to the mean of the two reference
# times around it, in seconds at the reference's nominal time. In-process
# workloads use the kernel; cli-readme and the set-up probes, which run
# fresh interpreters, use a fresh interpreter importing numpy, a start-up the
# program does not control. Raw times go to the notes. link-grid's link
# system runs about 4 s in pool workers, longer than the machine's speed
# holds, so kernel times just around it do not track it (spread across runs
# up to 0.26 that way; link_grid_paired_trial in results/seed.json). An
# operation that runs in pool workers is therefore timed against a probe
# thread that times a 1/10 kernel every 0.1 s while the operation runs: the
# mean of those samples, times ten, stands for the reference (coefficient of
# variation of single calls 0.14 raw, 0.17 against the kernel around them
# and 0.07 against the probe in a 90-s test, 0.088, 0.15 and 0.085 in a
# steadier 100-s one; pool_probe_test in results/seed.json).
KERNEL_NOMINAL_S = 0.02
FRESH_NOMINAL_S = 0.2
PROBE_SHARE = 10  # the probe's kernel is this share of the reference kernel
PROBE_INTERVAL_S = 0.1
DIMS = range(2, 8)
STAGES = ("fundamental_data", "shape_data", "grad_f", "rough_laplacian")
STAGE_SPANS = tuple(f"geometry.{s}" for s in STAGES) + ("geometry.scalar_laplacian",)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a set-up that fails)."""


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Environment


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "GAUSSLAB_THREADS": os.environ.get("GAUSSLAB_THREADS")}


def pin_environment(workload: str) -> dict:
    """Fix what the caller could otherwise change: the program comes from
    ./src, and the worker count is the workload's, not the caller's."""
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    os.environ.pop("GAUSSLAB_THREADS", None)
    if workload == "cone-gallery":
        os.environ["GAUSSLAB_THREADS"] = "1"
    elif workload == "link-grid":
        os.environ["GAUSSLAB_THREADS"] = str(os.cpu_count() or 1)
    return dict(os.environ)


# ---------------------------------------------------------------------------
# Set-up


def setup_probes(workload: str, seed: int, env: dict, count: int) -> tuple[dict, dict]:
    """Fresh interpreters doing the workload's set-up: medians of their wall
    time and of their ``import gausslab.cli``, relative to the fresh
    reference around each probe, and the raw medians."""
    walls, imports = [], []
    before = calibrate_fresh()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload,
                               str(seed)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode()[-400:]}")
        after = calibrate_fresh()
        ref = (before + after) / 2
        before = after
        imported = json.loads(proc.stdout.decode().splitlines()[-1])["import_s"]
        walls.append((wall, wall / ref))
        imports.append((imported, imported / ref))
    relative = {"setup_s": FRESH_NOMINAL_S * statistics.median(w[1] for w in walls),
                "import_s": FRESH_NOMINAL_S * statistics.median(i[1] for i in imports)}
    raw = {"setup_s": statistics.median(w[0] for w in walls),
           "import_s": statistics.median(i[0] for i in imports)}
    return relative, raw


def import_profile(env: dict) -> dict:
    """``-X importtime`` of ``import gausslab.cli``: the whole import and the
    part spent in scipy modules, medians of IMPORT_PROBES fresh interpreters."""
    totals, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gausslab.cli"],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            raise BenchError("import gausslab.cli failed")
        total = scipy_us = 0
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            self_us, cumulative, indent, name = int(m[1]), int(m[2]), m[3], m[4]
            if indent == " " and name.split(".")[0] == "gausslab":
                total += cumulative
            if name.split(".")[0] == "scipy":
                scipy_us += self_us
        totals.append(total / 1e3)
        scipy.append(scipy_us / 1e3)
    return {"cli.import_ms": statistics.median(totals),
            "cli.import_scipy_ms": statistics.median(scipy)}


# ---------------------------------------------------------------------------
# Measuring


class OpTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"no result after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op, timeout):
    """(latency in s, output, failure reason or None). An exception or a
    timeout is a failure like a wrong output."""
    t0 = time.perf_counter()
    try:
        with deadline(timeout):
            out = op.run()
    except Exception as exc:  # any error of the program is a failed operation
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        reason = op.check(out)
    except Exception as exc:  # an output the oracle cannot read is wrong
        reason = f"oracle: {type(exc).__name__}: {exc}"
    return latency, out, reason


def calibrate(iterations: int = 100_000, clock=time.perf_counter) -> float:
    """Time of a fixed pure-Python kernel: integer, float and dict work."""
    t0 = clock()
    acc, table = 0, {}
    for i in range(iterations):
        acc += (i * i) % 7
        table[i & 255] = acc * 0.5
    return clock() - t0


class SpeedProbe:
    """A thread that times a small kernel every PROBE_INTERVAL_S while an
    operation runs in pool workers, and the reference time those samples
    stand for. It times with its own thread's CPU clock, so waiting for a
    core the workers hold does not count; it takes about 2% of one core."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(calibrate(100_000 // PROBE_SHARE, time.thread_time))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def reference(self) -> float | None:
        return PROBE_SHARE * statistics.mean(self.samples) if self.samples else None


def calibrate_fresh() -> float:
    """Time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


# reference and its nominal time per workload
REFERENCES = {"cli-readme": (calibrate_fresh, FRESH_NOMINAL_S),
              "catalog": (calibrate, KERNEL_NOMINAL_S),
              "cone-gallery": (calibrate, KERNEL_NOMINAL_S),
              "link-grid": (calibrate, KERNEL_NOMINAL_S)}


def measure(ops, seconds: float, timeout: float, reference) -> dict:
    """Whole passes over the ops, one after another, until the time is used:
    a new pass starts only while at least half a pass fits before the end.
    The reference runs before the first op and after every op; a sample is
    (op, latency, latency over the mean of the reference times around it,
    or for a pooled op over the SpeedProbe's reference during it).
    Pass times leave the reference out."""
    samples, failures, pass_times, pass_relative, references = [], [], [], [], []
    start = time.perf_counter()
    references.append(reference())
    while True:
        t_pass = time.perf_counter()
        for op in ops:
            probe = SpeedProbe() if op.pooled else nullcontext()
            with probe:
                latency, _, reason = run_op(op, timeout)
            references.append(reference())
            ref = (references[-2] + references[-1]) / 2
            if op.pooled:
                ref = probe.reference() or ref
            samples.append((op, latency, latency / ref))
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
        pass_samples = samples[-len(ops):]
        pass_times.append(sum(s[1] for s in pass_samples))
        pass_relative.append(sum(s[2] for s in pass_samples))
        full_pass = time.perf_counter() - t_pass
        if time.perf_counter() - start + full_pass / 2 >= seconds:
            break
    return {"samples": samples, "failures": failures, "pass_times": pass_times,
            "pass_relative": pass_relative, "references": references,
            "elapsed": time.perf_counter() - start}


def op_latencies(samples, index: int) -> list[float]:
    """Latency of each operation of a pass (sample field ``index``: 1 raw,
    2 relative): its median over the run's passes. There is one value per
    operation however many passes fit, so percentiles over them do not shift
    with the program's speed."""
    by_op: dict[int, list[float]] = {}
    for sample in samples:
        by_op.setdefault(id(sample[0]), []).append(sample[index])
    return [statistics.median(v) for v in by_op.values()]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child; read before the set-up probes start, so the child term is a
    process the workload itself started, or 0."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail_count(operations: int) -> int:
    """How many of the slowest operations the tail averages: a quarter."""
    return max(1, math.ceil(operations / 4))


def latency_metrics(run, index: int) -> dict:
    """The tail is the mean of the slowest quarter of the operations. The
    maximum alone is one latency of one pass on cli-readme: it spread 0.14
    and 0.23 across two ten-run sets, and in a ten-pass test 0.14 where the
    mean of the slowest three spread 0.055 (tail_test in results/seed.json)."""
    per_op = op_latencies(run["samples"], index)
    passes = run["pass_times"] if index == 1 else run["pass_relative"]
    slowest = sorted(per_op)[-tail_count(len(per_op)):]
    return {"wall_s": statistics.median(passes), "cmd_p50_s": statistics.median(per_op),
            "cmd_tail_s": statistics.mean(slowest)}


def end_to_end(workload, setup, peak_mb, run) -> tuple[dict, list[str]]:
    """End-to-end metrics and the notes: speed and raw times, error rate
    and the metrics only some workloads have. ``setup`` is what
    setup_probes returned. Times are in seconds at the reference's nominal
    speed, each relative to the reference timed around or during it."""
    relative_setup, raw_setup = setup
    nominal = REFERENCES[workload][1]
    raw = {**latency_metrics(run, 1), **raw_setup}
    speed = nominal / statistics.median(run["references"])
    times = {k: nominal * v for k, v in latency_metrics(run, 2).items()}
    busy = nominal * sum(run["pass_relative"])
    metrics = {k: {"value": v, "unit": "s"} for k, v in
               (("setup_s", relative_setup["setup_s"]), *times.items(),
                ("import_s", relative_setup["import_s"]))}
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    attempted = len(run["samples"])
    points = sum(sample[0].points for sample in run["samples"])
    passes = len(run["pass_times"])
    operations = len(op_latencies(run["samples"], 2))
    extra = [f"speed {speed:.6g} from "
             f"{len(run['references'])} reference samples; raw "
             + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()),
             f"cmd_p50_s and cmd_tail_s: median, and mean of the slowest "
             f"{tail_count(operations)}, of {operations} operations, each the median "
             f"of its {passes} pass(es)",
             f"error_rate {len(run['failures']) / attempted:.6g} "
             f"({len(run['failures'])} of {attempted})",
             f"passes {passes}, measured {run['elapsed']:.3f} s"]
    if points:
        extra.append(f"points_per_s {points / busy:.6g} 1/s")
    if workload == "cone-gallery":
        for d in DIMS:
            per_point = [rel / op.points for op, _, rel in run["samples"] if op.dim == d]
            extra.append(f"point_ms.dim{d} {1e3 * nominal * statistics.median(per_point):.6g} ms "
                         f"(median of {len(per_point)} operations)")
    return metrics, extra


# ---------------------------------------------------------------------------
# Traced run


def _merge_child_spans(tracer, path, parent_index, op_id):
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    offset = len(tracer.spans)
    for s in child["spans"]:
        s["parent"] = parent_index if s["parent"] is None else s["parent"] + offset
        s["op"] = op_id
        tracer.spans.append(s)
    tracer.counts.update(child["counts"])


def traced_pass(tracer, ops, timeout, first_id):
    """One pass with every op under its own root span; returns the pass
    wall time, the op ids and the failures."""
    failures, ids = [], []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        op_id = first_id + k
        ids.append(op_id)
        root_index = len(tracer.spans)
        with tracer.operation(op_id, op.label) as record:
            _, out, reason = run_op(op, timeout)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
        if op.meta.get("trace_file"):
            _merge_child_spans(tracer, op.meta["trace_file"], root_index, op_id)
        reports = [r for r in (out if isinstance(out, list) else [out])
                   if isinstance(getattr(r, "points", None), list)]
        if reports:
            record["points"] = sum(len(r.points) for r in reports)
            record["failed_points"] = sum(r.failed_points for r in reports)
    return time.perf_counter() - t0, ids, failures


def layer_metrics(workload, tracer, pass_ids, counted_ids, pass_counts, ratio, imports):
    from tracing import self_times

    spans = tracer.spans
    own = self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]

    def select(name, dim=None, ops=None):
        return [i for i, s in enumerate(spans) if s["name"] == name
                and (dim is None or s.get("dim") == dim) and (ops is None or s["op"] in ops)]

    def self_ms(name):
        return 1e3 * sum(own[i] for i in select(name))

    def mean_self_ms(name, dim=None):
        """Mean self time per call within the counted operations."""
        idx = select(name, dim, set(counted_ids))
        return 1e3 * sum(own[i] for i in idx) / len(idx) if idx else 0.0

    m = dict(imports)
    m["cli.overhead_ms"] = self_ms("cli.main")
    m["cli.load_config_ms"] = self_ms("cli.load_config")
    m["cli.build_chart_ms"] = self_ms("cli.build_chart")
    m["exprjet.parse_ms"] = self_ms("exprjet.parse")
    for d in DIMS:
        m[f"exprjet.eval_jet_ms.dim{d}"] = mean_self_ms("exprjet.eval_jet", d)
    for d in DIMS:
        points = len(select("geometry.fundamental_data", d, counted_ids))
        muls = pass_counts[f"jet_mul.dim{d}"]
        m[f"exprjet.jet_mul_calls.dim{d}"] = muls / points if points else 0.0
    for stage in STAGES:
        for d in DIMS:
            m[f"geometry.{stage}_ms.dim{d}"] = mean_self_ms(f"geometry.{stage}", d)
    m["geometry.scalar_laplacian_ms"] = mean_self_ms("geometry.scalar_laplacian")

    sweeps = select("biharmonic.sweep", ops=set(pass_ids))
    sweep_s = sum(dur[i] for i in sweeps)
    # serial stage sum on the same points: the pass itself when it is serial
    # (cone-gallery), the extra serial reference sweep for the pooled link grid
    serial = set(select("biharmonic.sweep", ops=set(counted_ids)))
    stage_s = sum(dur[i] for i, s in enumerate(spans)
                  if s["name"] in STAGE_SPANS and s["parent"] in serial)
    workers = {"cone-gallery": 1, "link-grid": os.cpu_count() or 1}.get(workload, 0)
    op_roots = [s for s in spans if s["name"] == "op" and s["op"] in pass_ids]
    m["biharmonic.sweep_ms"] = 1e3 * sweep_s
    m["biharmonic.overhead_ms"] = 1e3 * (sweep_s - stage_s / workers) if workers else 0.0
    m["biharmonic.points"] = sum(s.get("points", 0) for s in op_roots)
    m["biharmonic.failed_points"] = sum(s.get("failed_points", 0) for s in op_roots)
    m["biharmonic.workers"] = workers
    m["biharmonic.parallel_efficiency"] = (stage_s / (workers * sweep_s)
                                           if workers and sweep_s else 0.0)
    m["biharmonic.r4_obstruction_ms"] = 1e3 * sum(dur[i] for i in select("biharmonic.r4_obstruction"))
    m["biharmonic.r3_ode_check_ms"] = self_ms("biharmonic.r3_ode_check")
    m["hypercone.sphere_link_solver_ms"] = self_ms("hypercone.sphere_link_solver")
    m["hypercone.clifford_link_solver_ms"] = self_ms("hypercone.clifford_link_solver")
    m["hypercone.build_cone_chart_ms"] = self_ms("hypercone.build_cone_chart")
    m["hypercone.cylinder_jet_ms"] = self_ms("hypercone.cylinder_jet")
    m["isoparametric.classify_type_ms"] = self_ms("isoparametric.classify_type")
    m["isoparametric.takagi_solver_ms"] = self_ms("isoparametric.takagi_solver")
    m["isoparametric.condition_polynomial_ms"] = self_ms("isoparametric.condition_polynomial")
    isolate = select("roots.isolate_and_refine")
    m["roots.isolate_and_refine_ms"] = self_ms("roots.isolate_and_refine")
    m["roots.isolate_calls"] = len(isolate)
    m["roots.roots_isolated"] = sum(spans[i].get("results", 0) for i in isolate)
    m["roots.eval_exact_calls"] = tracer.counts["eval_exact"]
    m["trace.overhead_ratio"] = ratio
    return m


def traced_run(workload, seed, inputs, golden, env, timeout):
    """Per-layer metrics: an untraced pass, the set-up and one pass again
    with spans, and a second untraced pass; the traced pass over the mean
    untraced one is the tracing cost.
    Times cover the traced set-up and pass; jet products per point are
    counted over the pass (and, for the pooled link grid, over one serial
    sweep of the same points, whose stage times stand for the pool's)."""
    import workloads
    from tracing import Tracer

    imports = import_profile(env)
    plain_ops = workloads.build(workload, inputs, ROOT, golden, env)

    def untraced_pass():
        t0 = time.perf_counter()
        failed = [f"{op.label}: {r}" for op in plain_ops if (r := run_op(op, timeout)[2])]
        return time.perf_counter() - t0, failed

    untraced, failures = untraced_pass()

    tracer = Tracer()
    if workload != "cli-readme":  # there the program runs in traced subprocesses
        tracer.install()
    try:
        with tracer.operation(0, "set-up"):
            ops = workloads.build(workload, inputs, ROOT, golden, env,
                                  trace_dir=OUT_DIR if workload == "cli-readme" else None)
        before = Counter(tracer.counts)
        traced, pass_ids, pass_failures = traced_pass(tracer, ops, timeout, 1)
        failures += pass_failures
        counted_ids = [i for i in pass_ids
                       if workload != "link-grid" or ops[i - 1].dim != 4]
        if workload == "link-grid":
            link = ops[0]
            ref_id = len(ops) + 1
            with tracer.operation(ref_id, "serial reference sweep"):
                from gausslab.biharmonic import link_residual_system

                link_residual_system(link.meta["chart"], points=link.meta["points"], workers=1)
            counted_ids.append(ref_id)
        pass_counts = tracer.counts - before
    finally:
        tracer.uninstall()
    # untraced passes on both sides of the traced one, so drift and warm-up
    # do not pass for tracing cost
    untraced_after, more_failures = untraced_pass()
    failures += more_failures
    ratio = traced / ((untraced + untraced_after) / 2)
    metrics = layer_metrics(workload, tracer, pass_ids, counted_ids, pass_counts, ratio,
                            imports)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"))
    return metrics, 3 * len(ops), failures


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gausslab", "cli.py")):
        print("no gausslab sources under ./src: run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    env = pin_environment(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    golden = oracle.load_golden()
    inputs = workloads.make_inputs(args.workload, args.seed)
    timeout = workloads.OP_TIMEOUT_S

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "inputs": inputs}
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    try:
        if args.trace:
            values, attempted, failures = traced_run(args.workload, args.seed, inputs,
                                                     golden, env, timeout)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            extra = []
        else:
            ops = workloads.build(args.workload, inputs, ROOT, golden, env)
            run = measure(ops, args.seconds, timeout, REFERENCES[args.workload][0])
            peak_mb = peak_rss_mb()
            setup = setup_probes(args.workload, args.seed, env, SETUP_PROBES)
            metrics, extra = end_to_end(args.workload, setup, peak_mb, run)
            attempted, failures = len(run["samples"]), run["failures"]
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for line in extra + [f"failed {f}" for f in failures[:20]]:
        print(line)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record.update(result=result, notes=extra, failures=failures)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
