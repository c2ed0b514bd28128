"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They run tiny operation lists through perfbench/run.py, check the shape
of its output against BENCHMARK.json, and check that every output
checker rejects a deliberately perturbed value.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from banachlab import LOG2P1, NormEvaluator, SeqVector, s_norm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the command -------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    ops = workloads.build(workload, 3, tiny=True).ops
    known = sum(1 for op in ops if op.data.get("known_failure"))
    assert out["attempted"] % len(ops) == 0  # whole rounds
    assert out["failed"] == out["attempted"] // len(ops) * known
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    out = last_json(run_bench("--workload", "drivers", "--seed", "3", "--seconds", "1",
                              "--trace", "1", "--tiny"))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["metrics"]["experiments.beta_s"]["value"] > 0
    assert out["metrics"]["duality.lozanovskii_lp_per_sample"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    proc = run_bench("--workload", "dp_exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_benchmark_json_matches_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER
    assert set(tracing.per_layer_metrics([], 1)) == set(tracing.UNITS)


def test_tracer_sees_the_names_engine_looks_up():
    from banachlab import Schlumprecht, engine, schlumprecht

    original = schlumprecht.s_norm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        NormEvaluator(Schlumprecht(LOG2P1)).norm(SeqVector.from_values([1.0, 0.5, 0.25]))
    finally:
        tracer.uninstall()
    assert schlumprecht.s_norm is original and engine.s_norm is original
    names = [s.name for s in tracer.spans]
    assert names == ["engine.norm", "schlumprecht.dp"]
    assert tracer.spans[0].dp and tracer.spans[1].parent is tracer.spans[0]


# -- every checker rejects a perturbed value ----------------------------------


def test_dp_checks():
    x = SeqVector.from_values([1.0, -0.5, 0.25, 2.0])
    value, cert = s_norm(x, LOG2P1)
    vals = [v for _, v in x]
    attained = cert.evaluate(x)
    ref = value
    assert checks.dp_norm(vals, value, attained, reference=ref) == []
    bad = value * (1 + 1e-9)
    assert checks.dp_norm(vals, bad, attained)  # functional no longer attains it
    assert checks.dp_norm(vals, value, attained, reference=bad)
    assert checks.dp_norm(vals, 2.0 * sum(abs(v) for v in vals), attained)  # above l1
    ones = [1.0] * 8
    v8, _ = s_norm(SeqVector.from_values(ones), LOG2P1)
    assert checks.dp_norm(ones, v8, v8, closed_form=8 / checks.gauge(8)) == []
    assert checks.dp_norm(ones, v8 + 1e-8, v8 + 1e-8, closed_form=8 / checks.gauge(8))
    dyadic = [0.5, 0.25, 3.0]
    assert checks.dp_norm(dyadic, 3.75, 3.75, exact_l1=True) == []
    nudged = math.nextafter(3.75, 4.0)
    assert checks.dp_norm(dyadic, nudged, nudged, exact_l1=True)


def test_factorization_checks():
    ev = NormEvaluator(workloads.SPR, tol=workloads.SPR_TOL)
    z = SeqVector.from_values([0.9, -0.3, 0.6])
    value, fac = ev.factorize(z)
    nx = checks.lp_norm([v for _, v in fac.x], workloads.SPR.x.p)
    ny = workloads.schlumprecht.s_norm_value(fac.y, LOG2P1)

    def check(value=value, achieved=fac.achieved_value, lower=fac.lower_bound,
              x=fac.x.canonical(), nx=nx, ny=ny):
        return checks.factorization(z.canonical(), value, achieved, lower, x,
                                    fac.y.canonical(), 0.5, nx, ny, 1e-6)

    assert check() == []
    assert check(value=value * (1 + 1e-5), achieved=value * (1 + 1e-5))  # bracket too wide
    assert check(achieved=value * (1 + 1e-12))
    assert check(lower=value * (1 + 1e-9))
    x_bad = tuple((i, v * (1 + 1e-6) if i == 1 else v) for i, v in fac.x.canonical())
    assert check(x=x_bad)
    assert check(nx=nx * (1 + 1e-6))
    assert check(ny=ny * (1 - 1e-6))


def test_scalar_checks():
    assert checks.within(1.0, 1.0 + 5e-7, 1e-6, "v") == []
    assert checks.within(1.0, 1.0 + 2e-6, 1e-6, "v")
    assert checks.squeeze(1.0, 0.9, 1.1, "s") == [] and checks.squeeze(1.2, 0.9, 1.1, "s")
    assert checks.product_exponent(1.0, math.inf, 0.5) == 2.0
    assert checks.parallelogram(1.0, 1.0, 1.2, 1.2, 4 / 3, 4.0) == []
    assert checks.parallelogram(1.0, 1.0, 2.0, 2.0, 4 / 3, 4.0)
    assert checks.identical("a,b\n", "a,b\n", "p") == [] and checks.identical("a\n", "b\n", "p")


def test_dual_checks():
    good = dict(value=2.0, attained=2.0, maximizer_norm=1.0, primal=[(1.0, 1.0)],
                closed_form=2.0)
    assert checks.dual_norm(**good) == []
    assert checks.dual_norm(**{**good, "maximizer_norm": 1.0 + 1e-6})
    assert checks.dual_norm(**{**good, "attained": 2.0 + 1e-6})
    assert checks.dual_norm(**{**good, "primal": [(2.1, 1.0)]})
    assert checks.dual_norm(**{**good, "closed_form": 2.0 + 1e-5})


def test_driver_checks():
    f = checks.gauge
    assert checks.summing_rows([[3, 1.5, 1.5, 0.0]]) == []
    assert checks.summing_rows([[3, 1.5 + 1e-8, 1.5, 0.0]])
    two = 2 * f(4) / f(8)
    assert checks.block_growth_rows([[1, 1.0, 1.0, 1.0], [2, two, 2.0, two / 2]], 4) == []
    assert checks.block_growth_rows([[2, two + 1e-8, 2.0, 0.0]], 4)
    assert checks.block_growth_rows([[3, 3.5, 3.0, 0.0]], 4)  # above the triangle bound
    assert checks.vn_rows([[2, 1 / f(4), 0.0]]) == []
    assert checks.vn_rows([[2, 1 / f(4) + 1e-8, 0.0]])
    assert checks.beta_row([1.0, 2.0, 1.5]) == [] and checks.beta_row([1.0, 2.0, 2.5])
    assert checks.distortion_row(4, 4, [16.0, 2.0, 8.0]) == []
    assert checks.distortion_row(4, 4, [16.0, 2.0, 8.000000000000002])
    assert checks.distortion_row(3, 5, [15.0, 3.0, 5.0]) == []
    assert checks.distortion_row(3, 5, [15.0, 3.1, 15 / 3.1])
    d1, r1 = 1 - math.sqrt(0.75), math.sqrt(2) - 1
    assert checks.moduli_row("l2", [1.0, d1, 1.0, r1]) == []
    assert checks.moduli_row("l2", [1.0, d1 - 1e-6, 1.0, r1])
    assert checks.moduli_row("l2", [1.0, d1, 1.0, r1 + 1e-6])
    assert checks.moduli_row("s:log2p1", [1.0, 0.0, 0.5, 0.6])
    member = [["squeeze", 0.0, True], ["convexity", 0.0, True], ["lower_estimate", 0.0, True]]
    linf = member[:2] + [["lower_estimate", 0.34, False]]
    assert checks.classx_rows(member, True) == [] and checks.classx_rows(linf, False) == []
    assert checks.classx_rows(linf, True) and checks.classx_rows(member, False)
    assert checks.lozanovskii_rows([[0, 3, 1.00005, 1.0, 5e-5]]) == []
    assert checks.lozanovskii_rows([[0, 3, 1.0002, 1.0, 0.0]])


def test_workload_check_rejects_a_perturbed_result():
    wl = workloads.build("dp_exact", 3, tiny=True)
    results = [op.run({}) for op in wl.ops]
    assert wl.check(wl.ops, results, {}) == []
    value, attained = results[-1]
    results[-1] = (value * (1 + 1e-9), attained)
    assert wl.check(wl.ops, results, {})
