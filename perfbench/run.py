"""banachlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dp_exact --seed 1 --seconds 20 --trace 0

Run from the root of a banachlab checkout (the directory holding
src/banachlab). Prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from
a traced run. The full result, and with --trace 1 every span, is written
under perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dp_exact", "calderon_spr", "dual_lp", "drivers")
# set-up is measured this many times per run (the worker's own and in
# set-up-only processes) and reported as the median
SETUPS = 3
TIME_LIMIT_S = 170.0
# single-threaded: numpy's OpenBLAS pool otherwise adds threads
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small operation lists, for self-tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "banachlab", "__init__.py")):
        return fail(f"no src/banachlab under {root}; run from the root of a banachlab checkout")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, **THREAD_ENV)
    deadline = time.monotonic() + TIME_LIMIT_S
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")

    def spawn(extra):
        t0 = time.monotonic()
        proc = subprocess.run(cmd + extra + ["--t0", repr(t0)], env=env, cwd=root,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        setups = [] if args.trace else [spawn(["--setup-only"])["setup_s"] for _ in range(SETUPS - 1)]
        res = spawn(["--trace-out", os.path.join(out_dir, f"trace-{stem}.json")] if args.trace else [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    setups.append(res["setup_s"])
    res["setup_runs_s"] = setups
    res["setup_s"] = statistics.median(setups)
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    for problem in res["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for failure in res["failures"]:
        print(f"perfbench: operation failed: {failure}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                   for name, value in res["per_layer"].items()}
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
