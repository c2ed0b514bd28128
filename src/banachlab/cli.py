"""Command-line front end.

Subcommands: norm, dual, calderon, gauge-check, and experiment with the
drivers {summing, block-growth, vn, beta, projection, distortion,
moduli, classx}.  Experiment configs are JSON; numeric fields are
validated before any computation starts.  Values print at 12
significant digits.

Environment: BANACHLAB_SEED sets the default seed (drivers split their
generator streams by sample index, so results never depend on the order
of samples).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from typing import Any, Dict

import click

from . import __version__, schlumprecht
from .descriptors import FunctionalFamily, Schlumprecht, parse_space
from .duality import dual_norm
from .engine import calderon_norm, get_evaluator
from .errors import BanachLabError, ValidationError
from .experiments import (
    BlockSequence,
    beta_estimate,
    classX_verify,
    l1_average,
    block_sum_growth,
    modulus_convexity_estimate,
    modulus_smoothness_estimate,
    projection_bound,
    unconditionality_ratio,
    vn_averages,
)
from .gauges import check_gauge_class, gauge_by_name
from .reports import ExperimentReport, format_number
from .vectors import SeqVector, parse_vector

EXPERIMENTS = (
    "summing",
    "block-growth",
    "vn",
    "beta",
    "projection",
    "distortion",
    "moduli",
    "classx",
)


def _default_seed() -> int:
    raw = os.environ.get("BANACHLAB_SEED", "0")
    try:
        value: Any = int(raw)
    except ValueError:
        value = raw  # _num rejects it
    return _int({"BANACHLAB_SEED": value}, "BANACHLAB_SEED", 0)


def _fmt(v: float) -> str:
    return format_number(float(v))


@click.group()
@click.version_option(__version__, prog_name="banachlab")
def main() -> None:
    """Sequence-space norm laboratory."""


def _schlumprecht_gauge(ev, error: str):
    """The gauge of the evaluator's Schlumprecht space; ValidationError otherwise."""
    if not isinstance(ev.impl, Schlumprecht):
        raise ValidationError(error)
    return ev.impl.gauge


def _space_with_gauge(space: str, gauge: str | None):
    if gauge and space == "s":
        space = f"s:{gauge}"
    return parse_space(space)


@main.command()
@click.option("--space", required=True, help="space grammar, e.g. s:log2p1 or l2")
@click.option("--gauge", default=None, help="gauge shorthand when --space is plain 's'")
@click.option("--vec", required=True, help="vector literal: '1,2,3' or '1:1,5:2.5'")
@click.option("--cert", is_flag=True, help="print the partition certificate tree")
@click.option("--tol", type=float, default=1e-6, help="relative tolerance of product norms")
def norm(space: str, gauge: str | None, vec: str, cert: bool, tol: float) -> None:
    """Evaluate a norm; with --cert also print the witnessing tree."""
    desc = _space_with_gauge(space, gauge)
    x = parse_vector(vec)
    ev = get_evaluator(desc, tol=tol)
    if cert:
        gauge_fn = _schlumprecht_gauge(ev, "--cert requires a Schlumprecht space")
        value, certificate = schlumprecht.s_norm(x, gauge_fn)
        click.echo(_fmt(value))
        click.echo(certificate.render())
    else:
        click.echo(_fmt(ev.norm(x)))


@main.command()
@click.option("--space", required=True)
@click.option("--vec", required=True)
@click.option("--maximizer", is_flag=True, help="print the attaining unit vector")
@click.option("--tol", type=float, default=1e-6)
def dual(space: str, vec: str, maximizer: bool, tol: float) -> None:
    """Dual-norm evaluation sup{<x,g> : ||x|| <= 1}."""
    desc = parse_space(space)
    g = parse_vector(vec)
    res = dual_norm(desc, g, tol=tol)
    click.echo(_fmt(res.value))
    if maximizer:
        click.echo(",".join(f"{i}:{format_number(v)}" for i, v in res.maximizer))


@main.command()
@click.option("--x", "x_space", required=True)
@click.option("--y", "y_space", required=True)
@click.option("--theta", type=float, required=True)
@click.option("--vec", required=True)
@click.option("--witness", is_flag=True, help="print the optimal factorization")
@click.option("--tol", type=float, default=1e-6)
def calderon(x_space: str, y_space: str, theta: float, vec: str, witness: bool, tol: float) -> None:
    """Calderon product norm with certified bracket."""
    z = parse_vector(vec)
    value, fac = calderon_norm(parse_space(x_space), parse_space(y_space), theta, z, tol=tol)
    click.echo(_fmt(value))
    if witness:
        click.echo("x = " + ",".join(f"{i}:{format_number(v)}" for i, v in fac.x))
        click.echo("y = " + ",".join(f"{i}:{format_number(v)}" for i, v in fac.y))
        click.echo(f"bracket = [{_fmt(fac.lower_bound)}, {_fmt(fac.achieved_value)}]")


@main.command("gauge-check")
@click.option("--gauge", required=True)
@click.option("--prop5-a", type=float, default=0.1, show_default=True)
def gauge_check(gauge: str, prop5_a: float) -> None:
    """Run the admissibility checks for a gauge."""
    f = gauge_by_name(gauge)
    report = check_gauge_class(f, prop5_a=prop5_a)
    click.echo(f"gauge {f.name}")
    click.echo(f"condition1 (f(1)=1, f(x)<x, monotone): {report.condition1_ok}")
    click.echo(f"condition2 (x/f(x) concave):           {report.condition2_ok}")
    click.echo(f"condition3 (submultiplicative):        {report.condition3_ok}")
    click.echo(f"decay hypothesis (a={prop5_a:g}):          {report.condition_prop5_ok}")
    click.echo(f"in class: {report.in_class}")
    if report.witness:
        click.echo(f"worst violation {_fmt(report.worst_violation)} at x = "
                   + ", ".join(_fmt(w) for w in report.witness[:5]))


# -- experiment dispatch -----------------------------------------------------


def _field(cfg: Dict[str, Any], key: str, default: Any) -> Any:
    if key not in cfg and default is None:
        raise ValidationError(f"config field {key!r} is missing")
    return cfg.get(key, default)


def _num(
    cfg: Dict[str, Any],
    key: str,
    lo: float | None = None,
    hi: float | None = None,
    default: float | None = None,
):
    v = _field(cfg, key, default)
    if isinstance(v, str) and v == "inf":
        v = math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:  # v != v: NaN
        raise ValidationError(f"config field {key!r} must be numeric, got {v!r}")
    if lo is not None and v < lo:
        raise ValidationError(f"config field {key!r} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ValidationError(f"config field {key!r} must be <= {hi}, got {v}")
    return v


def _int(cfg: Dict[str, Any], key: str, lo: float | None = None, default: int | None = None) -> int:
    v = _num(cfg, key, lo, default=default)
    if abs(v) == math.inf:
        raise ValidationError(f"config field {key!r} must be finite, got {v}")
    return int(v)


def _text(cfg: Dict[str, Any], key: str, default: str | None = None) -> str:
    v = _field(cfg, key, default)
    if not isinstance(v, str):
        raise ValidationError(f"config field {key!r} must be a string, got {v!r}")
    return v


def run_experiment(name: str, cfg: Dict[str, Any]) -> ExperimentReport:
    """Validate the config for one driver and produce its report."""
    seed = _int(cfg, "seed", 0) if "seed" in cfg else _default_seed()
    gauge = gauge_by_name(_text(cfg, "gauge", "log2p1"))
    t0 = time.perf_counter()

    if name == "summing":
        report = schlumprecht.summing_norm_table(_int(cfg, "n_max", 1), gauge)
    elif name == "block-growth":
        desc = parse_space(_text(cfg, "space"))
        p = _num(cfg, "p", 1.0)
        m = _int(cfg, "m", 1)
        count = _int(cfg, "count", 1)
        blocks = BlockSequence(tuple(l1_average(m, m * k, desc) for k in range(count)))
        report = block_sum_growth(desc, p, blocks)
    elif name == "vn":
        desc = parse_space(_text(cfg, "space"))
        p = _num(cfg, "p", 1.0)
        n_max = _int(cfg, "n_max", 1)
        basis = BlockSequence.basis(2 ** (n_max + 1))
        report = vn_averages(desc, p, basis, n_max)
    elif name == "beta":
        desc = parse_space(_text(cfg, "space"))
        lower, upper, best = beta_estimate(
            desc,
            _num(cfg, "p", 1.0),
            gauge,
            _int(cfg, "n", 1),
            budget=_int(cfg, "budget", default=50),
            seed=seed,
        )
        report = ExperimentReport(["lower", "upper", "best_found"])
        report.add_row(lower, upper, best)
    elif name == "projection":
        desc = parse_space(_text(cfg, "space"))
        count = _int(cfg, "count", 1)
        m = _int(cfg, "m", default=1)
        samples = _int(cfg, "samples", 1, default=100)
        if m == 1:
            w = g = BlockSequence.basis(count)
        else:
            w = BlockSequence(tuple(l1_average(m, m * k, desc) for k in range(count)))
            gauge_fn = _schlumprecht_gauge(
                get_evaluator(desc), "projection with m > 1 needs a Schlumprecht space"
            )
            g = BlockSequence(
                tuple(schlumprecht.s_norm(b, gauge_fn)[1].functional() for b in w)
            )
        norm_lower, m_bound = projection_bound(desc, w, g, samples, seed=seed)
        report = ExperimentReport(["projection_norm_lower", "dual_bound_M"])
        report.add_row(norm_lower, m_bound)
    elif name == "distortion":
        count = _int(cfg, "count", 2)
        r = _int(cfg, "r", 1)
        fam = FunctionalFamily((SeqVector.from_values([1.0] * count),), r)
        plus, minus, ratio = unconditionality_ratio(fam, BlockSequence.basis(count))
        report = ExperimentReport(["plus", "minus", "ratio"])
        report.add_row(plus, minus, ratio)
    elif name == "moduli":
        desc = parse_space(_text(cfg, "space"))
        samples = _int(cfg, "samples", 0, default=10_000)
        dim = _int(cfg, "dim", 1, default=4)
        eps = _num(cfg, "eps", 0.0, 2.0, default=1.0)
        tau = _num(cfg, "tau", 0.0, 1.0, default=1.0)
        delta = modulus_convexity_estimate(desc, eps, samples, dim=dim, seed=seed)
        rho = modulus_smoothness_estimate(desc, tau, samples, dim=dim, seed=seed)
        report = ExperimentReport(
            ["eps", "convexity_upper_estimate", "tau", "smoothness_lower_estimate"]
        )
        report.add_row(eps, delta, tau, rho)
    elif name == "classx":
        desc = parse_space(_text(cfg, "space"))
        p, r = _num(cfg, "p", 1.0), _num(cfg, "r", 1.0)
        if not p < r:  # the class S_{p,r}: p-convexity is vacuous at p = inf
            raise ValidationError(f"config field 'p' must be below 'r', got p={p}, r={r}")
        report = classX_verify(
            desc,
            p,
            r,
            gauge,
            _int(cfg, "samples", 1, default=500),
            seed=seed,
            tol=float(_num(cfg, "tolerance", 0.0, default=1e-8)),
        )
    else:
        raise ValidationError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")

    report.metadata.setdefault("experiment", name)
    report.metadata.setdefault("seed", seed)
    report.metadata["config"] = {k: v for k, v in cfg.items()}
    report.metadata["version"] = __version__
    report.metadata["wall_time_s"] = time.perf_counter() - t0
    return report


@main.command()
@click.argument("name", type=click.Choice(EXPERIMENTS))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def experiment(name: str, config_path: str) -> None:
    """Run a named experiment driver from a JSON config file."""
    with open(config_path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad config JSON: {exc}") from None
    report = run_experiment(name, cfg)
    fmt = cfg.get("format", "csv")
    out = cfg.get("output")
    if out:
        report.write(out, fmt)
        click.echo(f"wrote {out}")
    else:
        click.echo(report.emit(fmt), nl=False)


def entrypoint(argv=None) -> int:
    """Exit-code-aware wrapper used by both the console script and tests."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except click.exceptions.Abort:
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except BanachLabError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except IOError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return 5


if __name__ == "__main__":
    sys.exit(entrypoint())
