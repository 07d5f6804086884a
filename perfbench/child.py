"""Fresh-interpreter helpers started by run.py; not meant to be run by hand.

    child.py setup <workload> <seed> <prefix_s>
        Import what the workload needs, print "ready" (run.py times the
        start-up from launch to this line), then, if prefix_s > 0, run the
        first ops of round 0 for about prefix_s seconds and print their
        output digests as a JSON list (the cross-process determinism check).

    child.py verify <seed> <trace> <result.json> <spans.jsonl.gz>
        Run `kepler-sym verify --suite all --json` through the CLI's main()
        in this process, with the layer tracer installed when trace is 1,
        and write the wall time, exit code, report and per-layer metrics.
"""

from __future__ import annotations

import sys

import env

env.pin_threads()


def setup(workload: str, seed: int, prefix_s: float) -> None:
    import json
    import time

    src = env.find_source()
    ks = env.load(src)
    import workloads as wl

    if workload == "verify-all":
        import keplersym.cli  # noqa: F401  (what the CLI process imports)
        print("ready", flush=True)
        return
    make_round, digest = wl.IN_PROCESS[workload]
    ops = make_round(seed, 0)
    run = wl.runner(workload, ks)
    print("ready", flush=True)
    digests = []
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start >= prefix_s:
            break
        digests.append(digest(op, run(op)))
    if prefix_s > 0:
        print(json.dumps(digests), flush=True)


def verify(seed: int, trace: bool, result_path: str, spans_path: str) -> None:
    import contextlib
    import io
    import json
    import time

    env.load(env.find_source())
    from keplersym import cli

    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    clock = tracer.now if tracer else time.perf_counter
    buf = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--suite", "all", "--json", "--seed", str(seed)])
    wall = clock() - start
    result = {"wall_s": wall, "rc": rc, "stdout": buf.getvalue()}
    if tracer:
        tracer.uninstall()
        result["metrics"] = tracer.metrics(0.0)
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))
    elif mode == "verify":
        verify(int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4], sys.argv[5])
    else:
        sys.exit(f"unknown mode {mode!r}")
