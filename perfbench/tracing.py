"""Spans around the calls into each banachlab layer, and the per-layer metrics.

The tracer replaces module and class attributes with timing wrappers. It
never edits the package: every wrapper is installed on the names the
package looks up at call time, and `Tracer.uninstall` puts the originals
back.

* `engine` binds `s_norm` and `s_norm_weights` by name when it is
  imported, so the DP wrappers replace those names in `engine` as well
  as in `schlumprecht` and the package namespace.
* `engine` reaches `linprog` and `minimize` through the `scipy.optimize`
  module object, so wrapping those module attributes catches its calls.
* `duality` binds `_cutting_plane_dual` by name, like `engine` does.

Each span records its name, start, end, parent and the pass label
("cold" or "warm") current when it opened. Spans stay in memory until
`write` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

DRIVERS = (
    "summing",
    "block-growth",
    "vn",
    "beta",
    "projection",
    "distortion",
    "moduli",
    "classx",
)


# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [
    ("schlumprecht.dp_calls", "count", "lower"),
    ("schlumprecht.dp_s", "s", "lower"),
    ("schlumprecht.dp_max_n", "count", "lower"),
    ("schlumprecht.dp_us.n_le_8", "us", "lower"),
    ("schlumprecht.dp_us.n_9_32", "us", "lower"),
    ("schlumprecht.dp_us.n_33_64", "us", "lower"),
    ("schlumprecht.cert_s", "s", "lower"),
    ("engine.norm_calls", "count", "lower"),
    ("engine.norming_calls", "count", "lower"),
    ("engine.norm_cache_hit_ratio", "ratio", "higher"),
    ("engine.calderon_solves", "count", "lower"),
    ("engine.calderon_s", "s", "lower"),
    ("engine.calderon_self_s", "s", "lower"),
    ("engine.calderon_dp_per_solve.median", "count", "lower"),
    ("engine.calderon_dp_per_solve.max", "count", "lower"),
    ("engine.calderon_lp_per_solve.median", "count", "lower"),
    ("engine.calderon_lp_per_solve.max", "count", "lower"),
    ("engine.calderon_minimize_per_solve", "count", "lower"),
    ("engine.calderon_gap_max", "ratio", "lower"),
    ("engine.dual_calls", "count", "lower"),
    ("engine.dual_s", "s", "lower"),
    ("engine.dual_self_s", "s", "lower"),
    ("engine.dual_lp_per_call.cold", "count", "lower"),
    ("engine.dual_lp_per_call.warm", "count", "lower"),
    ("engine.dual_oracle_per_call", "count", "lower"),
    ("scipy.linprog_calls", "count", "lower"),
    ("scipy.linprog_s", "s", "lower"),
    ("scipy.linprog_us_per_call", "us", "lower"),
    ("scipy.linprog_rows_mean", "rows", "lower"),
    ("scipy.linprog_rows_max", "rows", "lower"),
    ("scipy.minimize_calls", "count", "lower"),
    ("scipy.minimize_self_s", "s", "lower"),
    ("duality.lozanovskii_s", "s", "lower"),
    ("duality.lozanovskii_lp_per_sample", "count", "lower"),
] + [(f"experiments.{d}_s", "s", "lower") for d in DRIVERS] + [
    ("reports.emit_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "child_s", "dp", "attrs")

    def __init__(self, name: str, parent: Optional["Span"], phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = self.child_s = 0.0
        self.dp = False  # a DP ran inside this span
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "cold"
        self._stack: List[Span] = []
        self._undo: List[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.phase)
            if before is not None:
                before(span, stack, args, kwargs)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
            if after is not None:
                after(span, result)
            return result

        return traced

    def _patch(self, owners, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same object as in {owners[0]!r}")
        wrapper = self._wrap(name, original, before, after)
        for owner in owners:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        import banachlab
        import scipy.optimize
        from banachlab import cli, duality, engine, reports, schlumprecht

        cap_default = schlumprecht.DEFAULT_DP_CAP

        def mark_dp(span: Span, stack: List[Span], n: int) -> None:
            span.name = "schlumprecht.dp"
            span.attrs["n"] = n
            for open_span in stack:
                open_span.dp = True

        def s_norm_before(span, stack, args, kwargs):
            n = len(args[0])
            cap = kwargs.get("cap", args[2] if len(args) > 2 else cap_default)
            if 1 <= n <= cap:
                mark_dp(span, stack, n)

        def weights_before(span, stack, args, kwargs):
            if len(args[0]) >= 2:
                mark_dp(span, stack, len(args[0]))

        def norm_before(span, stack, args, kwargs):
            span.attrs["closed"] = isinstance(args[0].impl, (banachlab.Lp, banachlab.YDistortion))

        def solve_after(span, sol):
            span.attrs["gap"] = (sol.value - sol.lower) / sol.value if sol.value else 0.0
            span.attrs["converged"] = bool(sol.converged)

        def linprog_before(span, stack, args, kwargs):
            a_ub = kwargs.get("A_ub")
            span.attrs["rows"] = 0 if a_ub is None else int(a_ub.shape[0])

        def lozanovskii_before(span, stack, args, kwargs):
            span.attrs["samples"] = int(args[1] if len(args) > 1 else kwargs["samples"])

        def driver_before(span, stack, args, kwargs):
            span.name = "experiments." + args[0]

        self._patch([schlumprecht, engine, banachlab], "s_norm", "schlumprecht.s_norm",
                    before=s_norm_before)
        self._patch([schlumprecht, engine], "s_norm_weights", "schlumprecht.s_norm_weights",
                    before=weights_before)
        pc = schlumprecht.PartitionCertificate
        self._patch([pc], "functional", "schlumprecht.cert")
        self._patch([pc], "evaluate", "schlumprecht.cert")
        ne = engine.NormEvaluator
        self._patch([ne], "norm", "engine.norm", before=norm_before)
        self._patch([ne], "norming", "engine.norming")
        self._patch([ne], "factorize", "engine.factorize")
        self._patch([engine], "_calderon_solve", "engine.calderon_solve", after=solve_after)
        self._patch([engine, duality], "_cutting_plane_dual", "engine.dual")
        self._patch([scipy.optimize], "linprog", "scipy.linprog", before=linprog_before)
        self._patch([scipy.optimize], "minimize", "scipy.minimize")
        self._patch([duality], "lozanovskii_check", "duality.lozanovskii",
                    before=lozanovskii_before)
        self._patch([cli], "run_experiment", "experiments", before=driver_before)
        self._patch([reports.ExperimentReport], "emit", "reports.emit")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path: str, summary: Dict[str, Any]) -> None:
        index = {id(s): k for k, s in enumerate(self.spans)}
        rows = [
            [s.name, index[id(s.parent)] if s.parent is not None else -1, s.phase,
             s.start, s.end, s.attrs]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"summary": summary,
                       "columns": ["name", "parent", "phase", "start", "end", "attrs"],
                       "spans": rows}, fh)


def _ancestor(span: Span, name: str) -> Optional[Span]:
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def _outer(spans: List[Span]) -> List[Span]:
    """The spans not nested inside another span of the same name."""
    return [s for s in spans if _ancestor(s, s.name) is None]


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def per_layer_metrics(spans: List[Span], rounds: int) -> Dict[str, float]:
    """Per-layer metrics; counts and times are per round of the operation list."""
    by: Dict[str, List[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def get(name: str) -> List[Span]:
        return by.get(name, [])

    def per_round(x: float) -> float:
        return x / rounds

    def counts_under(owner: str, child: str, direct: bool = False) -> Dict[int, int]:
        counts = {id(s): 0 for s in get(owner)}
        for s in get(child):
            a = s.parent if direct else _ancestor(s, owner)
            if a is not None and a.name == owner:
                counts[id(a)] += 1
        return counts

    m: Dict[str, float] = {}
    dp = get("schlumprecht.dp")
    m["schlumprecht.dp_calls"] = per_round(len(dp))
    m["schlumprecht.dp_s"] = per_round(sum(s.seconds for s in dp))
    m["schlumprecht.dp_max_n"] = max((s.attrs["n"] for s in dp), default=0)
    for label, lo, hi in (("n_le_8", 1, 8), ("n_9_32", 9, 32), ("n_33_64", 33, 64)):
        m[f"schlumprecht.dp_us.{label}"] = 1e6 * _mean(
            [s.seconds for s in dp if lo <= s.attrs["n"] <= hi])
    m["schlumprecht.cert_s"] = per_round(sum(s.seconds for s in _outer(get("schlumprecht.cert"))))

    norms = get("engine.norm")
    m["engine.norm_calls"] = per_round(len(norms))
    m["engine.norming_calls"] = per_round(len(get("engine.norming")))
    cached = [s for s in norms if not s.attrs["closed"]]
    m["engine.norm_cache_hit_ratio"] = (
        sum(1 for s in cached if not s.dp) / len(cached) if cached else 0.0)

    solves = get("engine.calderon_solve")
    m["engine.calderon_solves"] = per_round(len(solves))
    m["engine.calderon_s"] = per_round(sum(s.seconds for s in solves))
    m["engine.calderon_self_s"] = per_round(sum(s.self_s for s in solves))
    for metric, child in (("dp", "schlumprecht.dp"), ("lp", "scipy.linprog")):
        per_solve = list(counts_under("engine.calderon_solve", child).values())
        m[f"engine.calderon_{metric}_per_solve.median"] = (
            statistics.median(per_solve) if per_solve else 0.0)
        m[f"engine.calderon_{metric}_per_solve.max"] = max(per_solve, default=0)
    m["engine.calderon_minimize_per_solve"] = _mean(
        list(counts_under("engine.calderon_solve", "scipy.minimize").values()))
    m["engine.calderon_gap_max"] = max(
        (s.attrs["gap"] for s in solves if s.attrs["converged"]), default=0.0)

    duals = get("engine.dual")
    m["engine.dual_calls"] = per_round(len(duals))
    m["engine.dual_s"] = per_round(sum(s.seconds for s in duals))
    m["engine.dual_self_s"] = per_round(sum(s.self_s for s in duals))
    lp_per_dual = counts_under("engine.dual", "scipy.linprog")
    for phase in ("cold", "warm"):
        m[f"engine.dual_lp_per_call.{phase}"] = _mean(
            [lp_per_dual[id(s)] for s in duals if s.phase == phase])
    oracle = counts_under("engine.dual", "engine.norm", direct=True)
    for s, k in counts_under("engine.dual", "engine.norming", direct=True).items():
        oracle[s] += k
    m["engine.dual_oracle_per_call"] = _mean(list(oracle.values()))

    lps = get("scipy.linprog")
    m["scipy.linprog_calls"] = per_round(len(lps))
    m["scipy.linprog_s"] = per_round(sum(s.seconds for s in lps))
    m["scipy.linprog_us_per_call"] = 1e6 * _mean([s.seconds for s in lps])
    m["scipy.linprog_rows_mean"] = _mean([s.attrs["rows"] for s in lps])
    m["scipy.linprog_rows_max"] = max((s.attrs["rows"] for s in lps), default=0)
    mins = get("scipy.minimize")
    m["scipy.minimize_calls"] = per_round(len(mins))
    m["scipy.minimize_self_s"] = per_round(sum(s.self_s for s in mins))

    loz = get("duality.lozanovskii")
    m["duality.lozanovskii_s"] = per_round(sum(s.seconds for s in loz))
    samples = sum(s.attrs["samples"] for s in loz)
    lp_in_loz = sum(counts_under("duality.lozanovskii", "scipy.linprog").values())
    m["duality.lozanovskii_lp_per_sample"] = lp_in_loz / samples if samples else 0.0

    for driver in DRIVERS:
        m[f"experiments.{driver}_s"] = per_round(sum(s.seconds for s in get("experiments." + driver)))
    m["reports.emit_s"] = per_round(sum(s.seconds for s in get("reports.emit")))
    return m
