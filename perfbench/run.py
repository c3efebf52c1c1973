"""qemclust benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client runs the workload's op in a closed loop, with no threads
and ``workers=1``, so nothing queues and the benchmark has no wait-time
metrics. Set-up (input generation plus one warm-up op) runs
``SETUP_REPS`` times and ``setup_s`` is the median; the warm-up op is not
timed as an op. Then ops cycle over the workload's instances until
``--seconds`` have passed (and each instance ran at least once), and
every op's output is checked: structurally at every seed, and against
the golden outputs at the default seed.

Every timing in the end-to-end metrics is scaled to nominal machine
speed by the reference kernel timed beside it (see ``reference.py``).
``op_ms_p50`` is the median, over the instances, of each instance's
median op time, ``ops_per_s`` the number of instances over the sum of
those times, and ``setup_s`` the median set-up. The raw per-op median and
tail percentile are printed beside them and kept in the run record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each op
twice, untraced and traced, checks that both runs produced identical
output bytes, and prints the per-layer metrics with the tracing
overhead. Every metric is printed by name with its unit; the last line
of standard output is the JSON result. Run records and span files are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import common
import golden as golden_mod
import tracing
from outputs import CheckError
from reference import NOMINAL_S, Reference

SETUP_REPS = 3


class Ops:
    """Timings and check results of the ops of one pass."""

    def __init__(self):
        self.instances: list[int] = []
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.exact: list[str | None] = []
        self.failures: list[str] = []
        self.golden_exact = 0
        self.golden_checked = 0
        self.quality: dict[int, dict] = {}


def timed(wl, inst, tracer=None):
    t0 = time.perf_counter()
    try:
        raw = tracer.call(wl.root, wl.layer, wl.run, inst) if tracer else wl.run(inst)
        error = None
    except Exception as exc:  # a raised exception is a failed op, not a crashed benchmark
        raw, error = None, f"{type(exc).__name__}: {exc}"
    return raw, error, t0, time.perf_counter() - t0


def until(seconds: float, at_least: int):
    """Yield 0, 1, ... until ``seconds`` have passed and ``at_least`` were yielded."""
    start = time.perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        if i >= at_least and time.perf_counter() - start >= seconds:
            return


def run_one(wl, inst: int, ops: Ops, golden, first_exact, tracer=None) -> None:
    if tracer is not None:
        tracer.op = len(ops.walls)
    raw, error, start, wall = timed(wl, inst, tracer)
    ops.instances.append(inst)
    ops.starts.append(start)
    ops.walls.append(wall)
    ops.exact.append(check(wl, inst, raw, error, ops, golden, first_exact))


def check(wl, inst, raw, error, ops: Ops, golden, first_exact) -> str | None:
    """Check one op's output; record a failure and return its exact digest."""

    def fail(message):
        ops.failures.append(f"op {len(ops.walls) - 1} (instance {inst}): {message}")
        return None

    if error is not None:
        return fail(error)
    try:
        fields, exact, quality = wl.summarize(inst, raw)
    except CheckError as exc:
        return fail(str(exc))
    except Exception as exc:  # unreadable or malformed output fails the op, not the run
        return fail(f"unreadable output: {type(exc).__name__}: {exc}")
    if first_exact.setdefault(inst, exact) != exact:
        return fail("output bytes differ from an earlier run of the same instance")
    ops.quality.setdefault(inst, quality)
    if golden is not None:
        ops.golden_checked += 1
        diffs = golden_mod.compare(fields, golden["ops"][inst]["fields"])
        if diffs:
            return fail(f"golden mismatch ({len(diffs)} fields), first {diffs[0]}")
        ops.golden_exact += exact == golden["ops"][inst]["exact"]
    return exact


def set_up(wl, seed: int, reps: int, ref, problems: list[str]) -> tuple[list[float], list[float], dict]:
    """Set up ``reps`` times; each set-up regenerates the inputs and runs one warm-up op.

    The reference kernel is sampled between generated instances and its
    time is left out, as is the benchmark's own digest and check work
    after the warm-up op. Returns the raw set-up times, the same scaled to
    nominal machine speed, and the digests of the generated inputs. A
    failed warm-up op is added to ``problems`` and the run goes on, so
    that its ops fail one by one.
    """
    times, scaled, digests, errors = [], [], [], []
    ref.sample()
    for _ in range(reps):
        t0, busy0 = time.perf_counter(), ref.busy
        wl.setup(seed, ref.sample_if_due)
        raw, error, _start, _wall = timed(wl, wl.pool)
        t1 = time.perf_counter()
        ref.sample()
        times.append(t1 - t0 - (ref.busy - busy0))
        scaled.append(times[-1] * ref.scale(t0, t1))
        digests.append(wl.inputs())
        if error is None:
            try:
                wl.summarize(wl.pool, raw)
            except Exception as exc:  # reported like an op failure, below
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(error)
    if errors:
        problems.append(f"warm-up op failed in {len(errors)} of {reps} set-ups: {errors[0]}")
    if any(d != digests[0] for d in digests):
        problems.append("set-ups of one seed generated different inputs")
    return times, scaled, digests[0]


def per_instance(ops: Ops, ref) -> list[float]:
    """Each instance's median op time, scaled to nominal machine speed.

    Weighting every instance once keeps the instance mix of a seed fixed
    however many times a run cycles through it.
    """
    times: dict[int, list[float]] = {}
    for inst, start, wall in zip(ops.instances, ops.starts, ops.walls):
        times.setdefault(inst, []).append(wall * ref.scale(start, start + wall))
    return [statistics.median(v) for v in times.values()]


def tail(walls: list[float]) -> tuple[str, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(walls)
    for q in (99, 95, 90, 80, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(walls, n=100, method="inclusive")[q - 1]
    return None


QUALITY = ("hf_mitigated", "improvement", "cv_mse", "abs_err", "k_used")


def quality_metrics(ops: Ops) -> dict:
    """Means over the distinct instances run; 0 for a score the workload has not."""
    out = {}
    for key in QUALITY:
        vals = [q[key] for q in ops.quality.values() if key in q]
        name = "engine.k_used" if key == "k_used" else f"quality.{key}_mean"
        out[name] = (math.fsum(vals) / len(vals) if vals else 0.0, "count" if key == "k_used" else "1")
    return out


def untraced_pass(wl, args, golden, first_exact, ref, setup, notes) -> tuple[dict, Ops]:
    """Ops until ``--seconds`` pass, each after a reference sample; end-to-end metrics."""
    setup_raw, setup_scaled = setup
    ops = Ops()
    for i in until(args.seconds, wl.pool):
        ref.sample()
        run_one(wl, i % wl.pool, ops, golden, first_exact)
    ref.sample()
    per_inst = per_instance(ops, ref)
    metrics = {
        "op_ms_p50": (1e3 * statistics.median(per_inst), "ms"),
        "ops_per_s": (len(per_inst) / math.fsum(per_inst), "1/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    t = tail(ops.walls)
    notes.append(
        f"{len(ops.walls)} ops over {len(per_inst)} instances; raw per-op latency p50 "
        f"{1e3 * statistics.median(ops.walls):.3f} ms"
        + (f", {t[0]} {1e3 * t[1]:.3f} ms" if t else ", too few ops for a tail percentile")
    )
    notes.append(
        f"set-up raw s: {', '.join(f'{s:.4f}' for s in setup_raw)}; scaled s: "
        + ", ".join(f"{s:.4f}" for s in setup_scaled)
    )
    ref_times = [d for _t, d in ref.samples]
    notes.append(
        f"reference kernel: {len(ref_times)} samples, median {1e3 * statistics.median(ref_times):.3f} ms "
        f"(nominal {1e3 * NOMINAL_S:.1f} ms), min {1e3 * min(ref_times):.3f} ms"
    )
    for name, (value, unit) in sorted(quality_metrics(ops).items()):
        if value:
            notes.append(f"{name} = {value:.12g} {unit}")
    return metrics, ops


def traced_pass(wl, args, golden, first_exact, notes) -> tuple[dict, Ops, list[str]]:
    """Each instance untraced and traced, in alternating order; per-layer metrics.

    Running the pair back to back, with the order flipped every pair,
    keeps drift and the second run's warmer caches out of the overhead.
    """
    untraced, traced = Ops(), Ops()
    tracer = tracing.Tracer()
    for i in until(args.seconds, 1):
        inst = i % wl.pool
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                run_one(wl, inst, untraced, golden, first_exact)
                continue
            tracer.install()
            try:
                run_one(wl, inst, traced, golden, first_exact, tracer)
            finally:
                tracer.uninstall()

    problems = []
    for i, (a, b) in enumerate(zip(untraced.exact, traced.exact)):
        if a is not None and a != b:
            problems.append(f"traced op {i} output differs from the untraced run")
    n = len(traced.walls)
    metrics, missing_notes = tracing.layer_metrics(tracer.spans, n, tracer.missing)
    notes += missing_notes

    spans_path = common.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    notes.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(common.ROOT)}")

    ops = Ops()
    for part in (untraced, traced):
        ops.walls += part.walls
        ops.failures += part.failures
        ops.golden_exact += part.golden_exact
        ops.golden_checked += part.golden_checked
        for inst, q in part.quality.items():
            ops.quality.setdefault(inst, q)

    metrics["trace.overhead_frac"] = (sum(traced.walls) / sum(untraced.walls) - 1.0, "frac")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    metrics["trace.missing_hooks"] = (len(tracer.missing), "count")
    metrics.update(quality_metrics(ops))
    metrics["engine.degenerate_ops"] = (sum(bool(q.get("degenerate")) for q in ops.quality.values()), "count")
    metrics["golden.checked_ops"] = (ops.golden_checked, "count")
    metrics["golden.exact_ops"] = (ops.golden_exact, "count")
    metrics["run.failed_frac"] = (len(ops.failures) / len(ops.walls), "frac")
    return metrics, ops, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    t_import = time.perf_counter()
    common.bootstrap()
    import workloads  # imports qemclust, so only after bootstrap

    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")

    common.OUT_DIR.mkdir(exist_ok=True)
    workdir = common.OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    notes: list[str] = []
    problems: list[str] = []
    try:
        wl = workloads.make(args.workload, workdir)
        golden = None
        if args.seed == common.DEFAULT_SEED:
            golden = golden_mod.load(args.workload)
            if golden is None or golden["params"] != wl.params():
                problems.append("golden file missing or recorded for other workload parameters")
                golden = None
        else:
            notes.append(f"golden comparison skipped: seed {args.seed} is not the default {common.DEFAULT_SEED}")

        ref = Reference()
        setup_raw, setup_scaled, inputs = set_up(wl, args.seed, 1 if args.trace else SETUP_REPS, ref, problems)
        if golden is not None:
            diffs = golden_mod.compare(inputs, golden["setup"])
            if diffs:
                problems.append(f"generated inputs differ from the golden run: {diffs[0]}")

        first_exact: dict[int, str] = {}
        if args.trace:
            metrics, ops, trace_problems = traced_pass(wl, args, golden, first_exact, notes)
            problems += trace_problems
        else:
            setup = (setup_raw, setup_scaled)
            metrics, ops = untraced_pass(wl, args, golden, first_exact, ref, setup, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops.walls)
    failed = attempted if problems else len(ops.failures)  # problems void every op
    if golden is not None:
        notes.append(f"golden: {ops.golden_checked} ops checked, {ops.golden_exact} byte-identical")
    notes.append("no wait-time metrics: one process, closed loop, workers=1, so nothing queues")
    notes.append(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} ops)")

    env = common.environment(args.seed)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "import_s": import_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": ops.failures[:50],
        "problems": problems,
        "notes": notes,
        "op_instances": ops.instances,
        "op_starts_s": ops.starts,
        "op_walls_s": ops.walls,
        "reference_samples_s": ref.samples,
    }
    out_path = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"nproc {env['nproc']}  cpu {env['cpu_model']}  python {env['python']}  "
        f"numpy {env['numpy']}  commit {env['git_commit']}"
    )
    for line in problems + ops.failures[:10] + notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
