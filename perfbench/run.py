"""keplersym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the end-to-end metrics are measured; with --trace 1 the
same ops run once untraced and once with the layer tracer installed, and
the per-layer metrics are reported.  The report lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 1 when any output
check fails, 2 when the working directory is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

env.pin_threads()

import workloads as wl  # noqa: E402  (after pinning the BLAS threads)
from calib import CAL_REF_S, Calibration, pin_to_one_cpu  # noqa: E402
from layertrace import per_layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-all", "ode-queries", "orbit-pipeline", "dynamics")
SETUP_PROBES = 15
DETERMINISM_PREFIX_S = 1.0
ODE_CHECK_SHARE = 0.1  # share of ode-queries requests after round 0 checked in sympy
END_TO_END = ("latency_p50_ms", "latency_tail_ms", "ops_per_s", "peak_rss_mb", "setup_s")
UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "ops_per_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s", "verify_s": "s", "error_ratio": "ratio",
         "mismatch_count": "count"}
RAW_SHOWN = ("latency_p50_ms", "latency_tail_ms", "ops_per_s", "setup_s", "verify_s")


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.latencies: list[float] = []  # raw wall time of each op
        self.repeats: list[bool] = []  # per op: does it repeat an earlier input
        self.op_starts: list[float] = []  # perf_counter() at the start of each op
        self.setup_raw: list[float] = []
        self.setup_starts: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.digests: list[str] = []
        self.peak_rss_mb = 0.0
        self.notes: dict = {}
        self.cal_ops = Calibration()  # sampled while the ops run
        self.cal_setup = Calibration()  # sampled before and after each set-up probe


# --------------------------------------------------------------------------
# set-up probes and determinism
# --------------------------------------------------------------------------

def measure_setup(src: Path, workload: str, seed: int, run: Run) -> None:
    """Time the start-up of fresh interpreters; the last probe also
    replays the first ops of round 0 for the determinism check."""
    for i in range(SETUP_PROBES):
        run.cal_setup.sample()
        prefix = DETERMINISM_PREFIX_S if (i == SETUP_PROBES - 1 and workload != "verify-all") else 0
        start = time.perf_counter()
        run.setup_starts.append(start)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(prefix)],
            stdout=subprocess.PIPE, env=env.child_env(src))
        first = proc.stdout.readline()
        took = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or first.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        run.cal_setup.sample()
        run.setup_raw.append(took)
        if prefix:
            fresh = json.loads(rest)
            run.mismatches += sum(1 for a, b in zip(fresh, run.digests) if a != b)
            run.notes["determinism_ops_replayed"] = len(fresh)


def check_against_earlier_runs(run: Run, digests: list[str], source: str) -> None:
    """Outputs for a seed must repeat in every run of the same program
    source.  Another source may round differently and still be correct;
    its outputs are judged by the reference checks alone."""
    path = env.OUT_DIR / "digests" / source / f"{run.workload}-{run.seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        run.mismatches += sum(1 for a, b in zip(earlier, digests) if a != b)
        run.notes["determinism_earlier_run"] = True
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# verify-all
# --------------------------------------------------------------------------

def wait_sampling(proc: subprocess.Popen, cal: Calibration):
    """Wait for `proc` (on this CPU), sampling the calibration kernel every
    0.1 s meanwhile; returns the child's rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        cal.sample()
        time.sleep(0.1)


def cli_verify(src: Path, run: Run) -> tuple[float, int, bytes, float]:
    """Launch `kepler-sym verify --suite all --json` and wait for its exit.

    Returns (wall s, exit code, stdout, peak RSS MB of that process)."""
    report = env.OUT_DIR / "verify.stdout"
    errors = env.OUT_DIR / "verify.stderr"
    start = time.perf_counter()
    run.op_starts.append(start)
    with open(report, "wb") as out, open(errors, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "keplersym", "verify", "--suite", "all", "--json",
             "--seed", str(run.seed)], stdout=out, stderr=err, env=env.child_env(src))
        usage = wait_sampling(proc, run.cal_ops)
    wall = time.perf_counter() - start
    return wall, proc.returncode, report.read_bytes(), usage.ru_maxrss / 1024.0


def score_report(run: Run, rc: int, stdout: bytes) -> None:
    cases, not_pass, mismatched = wl.verify_outcome(stdout, wl.SUITES)
    run.attempted += max(cases, wl.VERIFY_CASES)
    run.failed += not_pass + (rc != 0) + max(0, wl.VERIFY_CASES - cases)
    run.mismatches += mismatched
    run.digests.append(wl.verify_digest(stdout))


def verify_all(src: Path, run: Run, seconds: float) -> None:
    start = time.perf_counter()
    while not run.latencies or time.perf_counter() - start < seconds:
        wall, rc, out, rss = cli_verify(src, run)
        run.latencies.append(wall)
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        score_report(run, rc, out)
    run.mismatches += sum(1 for d in run.digests if d != run.digests[0])


def verify_all_traced(src: Path, run: Run) -> dict:
    """The CLI's main() once untraced and once traced, each in a fresh
    interpreter; the overhead compares their calibrated times."""
    results = []
    for trace in (0, 1):
        path = env.OUT_DIR / f"verify-trace{trace}.json"
        spans = env.OUT_DIR / "spans-verify-all.jsonl.gz"
        run.op_starts.append(time.perf_counter())
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "verify", str(run.seed),
                                 str(trace), str(path), str(spans)], env=env.child_env(src))
        wait_sampling(proc, run.cal_ops)
        if proc.returncode != 0:
            raise RuntimeError(f"traced verify child exited with {proc.returncode}")
        result = json.loads(path.read_text())
        run.latencies.append(result["wall_s"])
        score_report(run, result["rc"], result["stdout"].encode())
        results.append(result)
    run.mismatches += sum(1 for d in run.digests if d != run.digests[0])
    metrics = results[1]["metrics"]
    untraced_s, traced_s = calibrated(run.cal_ops, run.op_starts, run.latencies)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics


# --------------------------------------------------------------------------
# in-process workloads
# --------------------------------------------------------------------------

class InProcess:
    def __init__(self, workload: str, src: Path, run: Run):
        self.ks = env.load(src)
        self.workload = workload
        self.run = run
        self.make_round, self.digest = wl.IN_PROCESS[workload]
        self.call = wl.runner(workload, self.ks)
        self.pending: list[tuple[dict, tuple]] = []  # ode requests awaiting sympy
        self.busy = 0.0  # op time so far, the clock of the calibration samples
        self.round0 = 0  # ops in round 0

    def rounds(self, seconds: float) -> list[list[dict]]:
        """Run whole rounds until `seconds` of op time have been spent."""
        done, busy = [], 0.0
        while busy < seconds or not done:
            ops = self.make_round(self.run.seed, len(done))
            self.round0 = self.round0 or len(ops)
            busy += self.execute(ops)
            done.append(ops)
        return done

    def execute(self, ops: list[dict], clock=time.perf_counter) -> float:
        busy = 0.0
        run = self.run
        for op in ops:
            run.cal_ops.every(self.busy + busy)
            run.attempted += 1
            run.op_starts.append(time.perf_counter())
            run.repeats.append(bool(op.get("repeat")))
            start = clock()
            try:
                out = self.call(op)
            except Exception as err:  # a failed op is counted, never retried
                run.latencies.append(clock() - start)
                run.failed += 1
                run.notes.setdefault("first_error", f"{op['key']}: {err!r}")
                continue
            took = clock() - start
            busy += took
            run.latencies.append(took)
            run.digests.append(self.digest(op, out))
            self.check(op, out)
        self.busy += busy
        return busy

    def check(self, op: dict, out) -> None:
        if self.workload == "orbit-pipeline":
            self.run.mismatches += not wl.orbit_agrees(op, out)
        elif self.workload == "dynamics":
            self.run.mismatches += not wl.dynamics_agrees(op, out)
        else:
            self.pending.append((op, out))

    def check_pending(self, seed: int) -> None:
        """ode-queries: all of round 0 and a seeded share of later requests."""
        if not self.pending:
            return
        ref = wl.OdeReference()
        pick = wl.rng_for(seed, "ode-check")
        checked = 0
        for i, (op, out) in enumerate(self.pending):
            if i < self.round0 or pick.random() < ODE_CHECK_SHARE:
                checked += 1
                self.run.mismatches += not ref.agrees(op, out)
        self.run.notes["sympy_checked"] = checked
        self.pending.clear()


def in_process(src: Path, run: Run, seconds: float) -> None:
    w = InProcess(run.workload, src, run)
    done = w.rounds(seconds)
    run.cal_ops.sample()  # the sample after the last op
    run.peak_rss_mb = rss_mb()
    run.notes["rounds"] = len(done)
    w.check_pending(run.seed)


def in_process_traced(src: Path, run: Run, seconds: float) -> dict:
    from layertrace import Tracer

    w = InProcess(run.workload, src, run)
    for op in w.make_round(run.seed, 0):
        w.call(op)  # warm-up, so that neither pass pays first-call costs
    done = w.rounds(seconds / 2)
    untraced, n_untraced = list(run.digests), len(run.latencies)
    run.digests.clear()
    tracer = Tracer()
    tracer.install()
    try:
        for ops in done:
            for op in ops:
                tracer.op += 1
                w.execute([op], clock=tracer.now)
    finally:
        tracer.uninstall()
    run.cal_ops.sample()
    scaled = calibrated(run.cal_ops, run.op_starts, run.latencies)
    untraced_s, traced_s = sum(scaled[:n_untraced]), sum(scaled[n_untraced:])
    run.peak_rss_mb = rss_mb()
    run.mismatches += sum(1 for a, b in zip(untraced, run.digests) if a != b)
    run.mismatches += abs(len(untraced) - len(run.digests))
    run.notes["rounds"] = len(done)
    w.check_pending(run.seed)
    tracer.write_spans(env.OUT_DIR / f"spans-{run.workload}.jsonl.gz")
    # both passes in calibrated time, so that host-speed drift between them cancels
    return tracer.metrics(traced_s - untraced_s)


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def calibrated(cal: Calibration, starts: list[float], durations: list[float]) -> list[float]:
    return [cal.scale(s, d) for s, d in zip(starts, durations)]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples above it, or the maximum when that percentile would not
    lie above the median (fewer than 20 samples)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def provenance(run: Run, trace: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": run.workload, "seed": run.seed, "trace": trace,
        "threads": {k: os.environ[k] for k in env.THREAD_VARS},
        "ops": len(run.latencies), **run.notes,
    }


def end_to_end(run: Run, latencies: list[float], setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics from op latencies and set-up times in s."""
    value, pct, n = tail(latencies)
    run.notes.update(tail_percentile=round(pct, 2), tail_samples=n)
    metrics = {
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    if run.workload == "verify-all":
        metrics["verify_s"] = statistics.median(latencies)
    if run.repeats:
        run.notes["repeat_share"] = sum(run.repeats) / len(run.repeats)
    if any(run.repeats):
        # the repeat share is a design choice, not measured traffic, so a
        # cache's gain is reported on repeated and fresh requests apart
        for name, flag in (("fresh", False), ("repeat", True)):
            metrics[f"latency_p50_ms.{name}"] = 1e3 * statistics.median(
                t for t, r in zip(latencies, run.repeats) if r is flag)
    metrics["error_ratio"] = run.failed / max(1, run.attempted)
    metrics["mismatch_count"] = run.mismatches
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = env.find_source()
    if src is None:
        print("error: run from the root of a keplersym checkout (no src/keplersym here)",
              file=sys.stderr)
        return 2
    env.OUT_DIR.mkdir(exist_ok=True)
    cpus_allowed = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    run = Run(args.workload, args.seed)
    run.notes["cpus_allowed"] = cpus_allowed

    if args.trace:
        if args.workload == "verify-all":
            layer = verify_all_traced(src, run)
        else:
            layer = in_process_traced(src, run, args.seconds)
    elif args.workload == "verify-all":
        verify_all(src, run, args.seconds)
    else:
        in_process(src, run, args.seconds)
    source = env.source_id(src)
    run.notes["source_sha256"] = source
    check_against_earlier_runs(run, run.digests[:24], source)
    measure_setup(src, args.workload, args.seed, run)
    raw = end_to_end(run, run.latencies, run.setup_raw)
    e2e = end_to_end(run, calibrated(run.cal_ops, run.op_starts, run.latencies),
                     calibrated(run.cal_setup, run.setup_starts, run.setup_raw))
    correct = run.mismatches == 0 and run.failed == 0
    run.notes["calibration"] = {
        "cpu": cpu, "reference_ms": 1e3 * CAL_REF_S, "ops_samples": len(run.cal_ops.samples),
        "ops_kernel_median_ms": 1e3 * statistics.median(run.cal_ops.samples),
        "setup_kernel_median_ms": 1e3 * statistics.median(run.cal_setup.samples),
    }
    prov = provenance(run, args.trace)

    if args.trace:
        specs = per_layer_metrics()
        reported = {k: layer[k] for k, _, _ in specs}
        units = {k: u for k, u, _ in specs}
        shown = {k: e2e[k] for k in ("error_ratio", "mismatch_count")} | reported
    else:
        reported = {k: e2e[k] for k in END_TO_END}
        units = UNITS
        shown = e2e | {f"raw.{k}": raw[k] for k in RAW_SHOWN if k in raw}
    for name, value in shown.items():
        base = name.removeprefix("raw.").removesuffix(".fresh").removesuffix(".repeat")
        print(f"{name} = {value:.6g} {units.get(name, UNITS.get(base))}")
    if not args.trace:
        print(f"latency_tail = p{prov['tail_percentile']} of {prov['tail_samples']} samples")
    print("provenance " + json.dumps(prov, sort_keys=True))

    results = env.OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "end_to_end": e2e, "raw": raw,
         "per_layer": layer if args.trace else None}, indent=1, sort_keys=True))
    (results / f"{stem}.samples.json").write_text(json.dumps(
        {"op_starts": run.op_starts, "latencies": run.latencies,
         "kernel_stamps": run.cal_ops.stamps, "kernel_s": run.cal_ops.samples}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
