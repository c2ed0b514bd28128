"""One benchmark process: set up a workload, run whole rounds of it, check the outputs.

Started by run.py, which sets the thread counts and passes --t0, the
monotonic clock reading taken just before this process was spawned.
Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# A fixed piece of pure-Python work, independent of banachlab, timed before
# every operation. The host's speed drifts by 20-45 % for tens of seconds
# at a time on the reference machine, far more than any change worth
# measuring; dividing by the probe's time cancels most of it. Times are
# reported at the probe's reference speed: PROBE_REF_S is about the
# probe's best time on the reference machine.
PROBE_REF_S = 0.8e-3
PROBE_WINDOW = 7  # operations on each side whose probes set one operation's factor
_ROWS = [[((a * 7 + b * 13) % 17) / 17.0 for b in range(32)] for a in range(32)]


def probe() -> float:
    t = time.perf_counter()
    best = 0.0
    for a in range(32):
        ra = _ROWS[a]
        for b in range(32):
            rb = _ROWS[b]
            for k in range(a, min(a + 4, 32)):
                s = ra[k] + rb[k] * 0.5
                if s > best:
                    best = s
    return time.perf_counter() - t


def normalized(times, probes):
    """Each operation's time at the probe's reference speed."""
    out = []
    for j, t in enumerate(times):
        window = probes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1]
        out.append(t * PROBE_REF_S / statistics.median(window))
    return out


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n values beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from banachlab.errors import BanachLabError

    import tracing
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tiny)
    wl.warmup()
    workloads.reset_caches()
    ctx = wl.new_context()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    times = []  # times[r][j]: operation j in round r, seconds at reference speed
    raw_round_s = []
    all_results = []
    failures = []
    timed = 0.0
    for _ in range(wl.rounds(args.seconds)):
        if times:
            workloads.reset_caches()
            ctx = wl.new_context()
        results, round_times, probes = [], [], []
        start = time.perf_counter()
        for op in wl.ops:
            if tracer is not None:
                tracer.phase = op.phase
            probes.append(probe())
            t = time.perf_counter()
            try:
                res = op.run(ctx)
            except BanachLabError as exc:
                res = None
                failures.append(f"{op.kind}: {exc}")
            round_times.append(time.perf_counter() - t)
            results.append(res)
        timed += time.perf_counter() - start
        raw_round_s.append(sum(round_times))
        times.append(normalized(round_times, probes))
        all_results.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    rounds = len(times)

    # Each operation's time is its best over the rounds, which drops the
    # short bursts of slowness that the probe scaling leaves.
    best = [min(col) for col in zip(*times)]
    done = [j for j in range(len(wl.ops)) if any(r[j] is not None for r in all_results)]
    completed = sum(res is not None for results in all_results for res in results)
    best_done = [best[j] for j in done]
    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "ops_per_round": len(wl.ops),
        "attempted": rounds * len(wl.ops),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "timed_s": timed,
        "ops_per_s": completed / rounds / sum(best),
        "ops_per_s_raw": completed / sum(raw_round_s),
        "latency_p50_ms": 1e3 * percentile(best_done, 50),
        "latency_tail_ms": 1e3 * percentile(best_done, tail_percentile(len(best_done))),
        "tail_percentile": tail_percentile(len(best_done)),
        "peak_rss_mb": peak_rss_mb,
        "round_s": raw_round_s,
        "round_s_normalized": [sum(r) for r in times],
        "best_ms": [1e3 * t for t in best],
    }
    if tracer is not None:
        out["per_layer"] = tracing.per_layer_metrics(tracer.spans, rounds)
        tracer.uninstall()
        if args.trace_out:
            tracer.write(args.trace_out, {k: v for k, v in out.items() if k != "failures"})

    memo: dict = {}
    problems = []
    for results in all_results:
        problems += wl.check(wl.ops, results, memo)
        problems += workloads.failure_problems(wl.ops, results)
    out["problems"] = sorted(set(problems))
    out["correct"] = not problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
