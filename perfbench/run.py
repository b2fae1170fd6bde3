"""Run one prunekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; prunekit is imported from its ``src/``
directory, not from an installed copy.  One process, one op at a time (a
closed loop with a single client).  The timed phase runs whole rounds of the
workload's job rotation until ``--seconds`` have passed, so every run sees
the same mix of jobs.

``--trace 0`` prints the end-to-end metrics, with every time taken in process
CPU time and scaled to a reference host speed (see ``hostspeed.py``), and the
unscaled figures beside them.
``--trace 1`` alternates untraced rounds with rounds in which every layer
entry point is wrapped, prints the per-layer metrics and writes the spans to
``.perfbench/trace-NAME.npz``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: seed used while writing a change, and the one kept back to check a claim
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
#: set-ups per run, and imports timed in fresh child processes; setup_s is
#: the median import plus the median set-up
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
#: jobs of a round listed one per line in the count blocks
SHOWN_JOBS = 9

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("prune_large", "certify_card", "certify_knapsack", "separation")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Runs ops one at a time, checks each output and counts failures."""

    def __init__(self, check_failed, speed):
        self.check_failed = check_failed
        self.speed = speed
        self.tracer = None
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.next_op = 0
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()

    def op(self, job) -> tuple:
        """Run and check one op.

        Returns (job, interval, facts or None, op id); the interval is the
        op's (wall start, wall end, CPU seconds) from :meth:`HostSpeed.interval`.
        """
        op_id = self.next_op
        self.next_op += 1
        tracer = self.tracer
        error = None
        with contextlib.redirect_stdout(self.sink):
            span = tracer.begin_op(op_id) if tracer else None
            since = self.speed.clock()
            try:
                out = job.run()
            except Exception as exc:  # a failing op is a counted result
                error = f"{type(exc).__name__}: {exc}"
            interval = self.speed.interval(since)
            if tracer:
                tracer.end_op(span)
        facts = None
        if error is None:
            try:
                facts = job.check(out)
            except self.check_failed as exc:
                error = f"check: {exc}"
            except (KeyError, ValueError, OSError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if facts is not None:
            seen = self.digests.setdefault(job.name, facts["digest"])
            if seen != facts["digest"]:
                error = f"result digest {facts['digest']} != {seen} on repeat"
        self.attempted += 1
        if error is not None:
            self.failures.append((job.name, error))
            facts = None
        return job, interval, facts, op_id

    def round(self, jobs) -> list[tuple]:
        return [self.op(job) for job in jobs]


def latencies_of(rounds, speed=None) -> list[float]:
    """Op latencies in seconds: raw, or at the reference speed given ``speed``."""
    return [speed.scaled(iv) if speed else iv[2] for rnd in rounds for _, iv, _, _ in rnd]


def fmt_facts(facts) -> str:
    if facts is None:
        return "FAILED"
    return " ".join(f"{k}={v}" for k, v in facts.items() if not k.endswith("_contain"))


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prunekit", "__init__.py")):
        print(f"perfbench: no prunekit sources at {SRC}", file=sys.stderr)
        return 2
    # one op at a time on one core: numpy's BLAS would otherwise spin a second
    # thread on the machine's other core
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy
    import prunekit

    if not os.path.abspath(prunekit.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported prunekit from {prunekit.__file__}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(default seed {DEFAULT_SEED}, held-out seed {HELDOUT_SEED})")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads=1 loadavg={loadavg[0]:.2f},{loadavg[1]:.2f},"
          f"{loadavg[2]:.2f}")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workloads.CheckFailed, hostspeed.HostSpeed())
    try:
        return run(args, runner, workdir, tracing, workloads)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def import_seconds() -> float:
    """CPU time of ``import numpy, prunekit`` in a fresh interpreter, as a user pays it."""
    code = ("import time; t = time.process_time(); import numpy, prunekit; "
            "print(time.process_time() - t)")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def run(args, runner, workdir, tracing, workloads) -> int:
    make = workloads.WORKLOADS[args.workload]
    speed = runner.speed
    imports = []
    for _ in range(IMPORT_REPEATS):
        speed.sample()
        wall0 = time.perf_counter()
        cpu = import_seconds()
        imports.append((wall0, time.perf_counter(), cpu))
        speed.sample()
    speed.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            since = speed.clock()
            wl = make(args.seed, workdir)
            runner.op(wl.jobs[0])  # untimed warm-up op, checked like the rest
            setups.append(speed.interval(since))
        untraced, traced, tracer = timed_phase(args, runner, wl, tracing)
        speed.settle()
    finally:
        speed.stop()

    latencies = latencies_of(untraced, speed)
    per_job = [statistics.fmean(latencies[i::len(wl.jobs)]) for i in range(len(wl.jobs))]
    print("mean latency per job at the reference speed, ms: " + ", ".join(
        f"{job.name} {1e3 * t:.1f}" for job, t in list(zip(wl.jobs, per_job))[:SHOWN_JOBS]))
    first = untraced[0]
    print("exact counts, first timed round (identical for the same code and seed):")
    for job, _, facts, _ in first[:SHOWN_JOBS]:
        print(f"  {job.name}: {fmt_facts(facts)}")
    if len(first) > SHOWN_JOBS:
        print(f"  ... {len(first) - SHOWN_JOBS} more jobs, covered by the round digest")
    round_facts = [facts for _, _, facts, _ in first]
    if all(f is not None for f in round_facts):
        print(f"  round digest: {workloads.digest([f['digest'] for f in round_facts])}")
        for line in wl.summary(round_facts):
            print(line)

    if args.trace:
        metrics = traced_metrics(args, tracer, untraced, traced, tracing)
    else:
        metrics = end_to_end(wl, untraced, imports, setups, runner)

    failed = len(runner.failures)
    for name, error in runner.failures[:10]:
        print(f"FAILED {name}: {error}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def timed_phase(args, runner, wl, tracing) -> tuple[list, list, object]:
    """Whole rounds until ``--seconds`` have passed.

    A traced run alternates untraced and traced rounds, so that both see the
    same stretches of host speed.  The timer stops during traced rounds: the
    kernel would otherwise count in the self time of whichever span is open.
    """
    tracer = tracing.Tracer() if args.trace else None

    def traced_round():
        runner.speed.stop()
        restore = tracing.install(tracer)
        runner.tracer = tracer
        try:
            return runner.round(wl.jobs)
        finally:
            runner.tracer = None
            restore()
            runner.speed.start()

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(runner.round(wl.jobs))
        if tracer:
            traced.append(traced_round())
        if time.perf_counter() >= deadline:
            return untraced, traced, tracer


def end_to_end(wl, untraced, imports, setups, runner) -> dict:
    speed = runner.speed
    raw = latencies_of(untraced)
    lat = latencies_of(untraced, speed)
    n, jobs = len(lat), len(wl.jobs)

    def job_means(xs):
        return [statistics.fmean(xs[i::jobs]) for i in range(jobs)]

    def tail(xs):
        if wl.tail_pct is None:
            return max(job_means(xs))
        return statistics.quantiles(xs, n=100, method="inclusive")[wl.tail_pct - 1]

    if wl.tail_pct is None:
        tail_note = "slowest job's mean latency; too few ops for a resolved tail"
    else:
        beyond = sum(1 for x in lat if x > tail(lat))
        tail_note = (f"p{wl.tail_pct}, N={n}, {beyond} samples beyond"
                     + ("" if beyond >= 10 else "; fewer than 10 beyond, not a resolved tail"))

    # one host factor for the whole set-up phase: an import or a set-up is too
    # short to hold enough kernel samples of its own
    setup_raw = (statistics.median(iv[2] for iv in imports)
                 + statistics.median(iv[2] for iv in setups))
    setup_s = setup_raw / speed.factor(imports[0][0], setups[-1][1])

    print(f"host speed: {len(speed.took)} kernel samples, median "
          f"{1e3 * statistics.median(speed.took):.3f} ms against {1e3 * speed.reference_s:.3f} ms "
          f"at the reference speed")
    fail_ratio = len(runner.failures) / runner.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # (name, value, unit, raw value or None, note)
    values = [
        ("setup_s", setup_s, "s", setup_raw,
         f"median of {IMPORT_REPEATS} imports in a fresh interpreter "
         f"+ median of {SETUP_REPEATS} set-ups"),
        ("ops_per_s", n / sum(lat), "ops/s", n / sum(raw), f"{n} ops"),
        # the host's speed flips within seconds, so a plain median of ops
        # lands in either speed state from run to run; the median job's mean
        # latency averages each job over the whole run instead
        ("op_p50_ms", 1e3 * statistics.median(job_means(lat)), "ms",
         1e3 * statistics.median(job_means(raw)),
         f"median over {jobs} jobs of each job's mean latency, N={n}"),
        ("op_tail_ms", 1e3 * tail(lat), "ms", 1e3 * tail(raw), tail_note),
        ("fail_ratio", fail_ratio, "ratio", None,
         f"{len(runner.failures)} of {runner.attempted} ops, warm-ups included"),
        ("peak_rss_mb", rss_mb, "MB", None, "ru_maxrss of this process"),
    ]
    print("end-to-end metrics at the reference host speed (raw: CPU time on this host):")
    for name, value, unit, raw_value, note in values:
        raw_note = "" if raw_value is None else f"raw {raw_value:10.4f}  "
        print(f"  {name:<12} {value:12.4f} {unit:<6} {raw_note}{note}")
    # fail_ratio is carried by "attempted" and "failed": a metric that reads
    # 0 on every run has no median to bound
    return {name: {"value": value, "unit": unit}
            for name, value, unit, _, _ in values if name != "fail_ratio"}


def traced_metrics(args, tracer, untraced, traced, tracing) -> dict:
    latencies = latencies_of(traced)
    untraced_ops_per_s = len(latencies_of(untraced)) / sum(latencies_of(untraced))
    traced_ops_per_s = len(latencies) / sum(latencies)
    overhead = untraced_ops_per_s / traced_ops_per_s
    table = tracing.SpanTable(tracer)
    metrics = tracing.layer_metrics(table, tracer.events, len(latencies), overhead)

    print(f"traced rounds: {len(latencies)} ops, {table.dur.size} spans; untraced "
          f"{untraced_ops_per_s:.4f} ops/s, traced {traced_ops_per_s:.4f} ops/s")
    print("layer counts, first traced round (identical for the same code and seed):")
    for job, _, _, op_id in traced[0][:SHOWN_JOBS]:
        counts = tracing.op_counts(table, op_id)
        print(f"  {job.name}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    wall, layer_self = tracing.self_time_check(table)
    untraced_cpu = len(latencies) / untraced_ops_per_s
    print(f"self-time check: layer self times sum to {layer_self:.4f} s of {wall:.4f} s "
          f"traced op wall time; unattributed {wall - layer_self:.4f} s "
          f"(benchmark glue inside ops); tracing overhead {sum(latencies) - untraced_cpu:.4f} "
          f"CPU s")
    print("per-layer metrics (means per traced op):")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:14.6g} {tracing.LAYER_UNITS[name]}")
    path = os.path.join(OUT, f"trace-{args.workload}.npz")
    tracer.save(path)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
            for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
