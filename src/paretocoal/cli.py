"""Command-line front end: tables, Monte Carlo runs, sweeps, CSV output.

Every run prints a provenance comment line (the seed of a subcommand that
draws, the flags read, version, numpy version, bit generator) followed by a
CSV table, and the same flags always produce byte-identical output. Each
subcommand is one computation and takes only the flags it reads, plus
--out, so only one that draws takes --seed; the flags given pick a mode
(`finite-mc --theta` the gamma family, `forward --replicas` the speed
summary). An argument @FILE is replaced by FILE's lines, one argument each.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from operator import attrgetter

import numpy as np

from . import __version__
from .finite_mc import PartitionModel, estimate_p_row
from .forward import (
    ForwardConfig,
    per_step_mean_parts,
    pressure,
    speed_estimate,
    trajectory,
)
from .rates import I_MAX_CAP, Params, build_rate_table, xi_transition_matrix
from .regression import fit_c_N_scaling
from .samplers import BIT_GENERATOR, RngStream, standardized_sum_stats
from .simulate import (
    family_params,
    functional_scaling_report,
    simulate_lambda,
    simulate_xi,
)


def _provenance(args: argparse.Namespace) -> str:
    reads = _HANDLERS[args.command][1].split()
    params = {k: v for k, v in vars(args).items() if k in reads and v is not None}
    seed = params.pop("seed", None)
    head = "# " if seed is None else f"# seed={seed}, "
    return (
        f"{head}params={json.dumps(params, sort_keys=True)}, "
        f"version={__version__}, numpy={np.__version__}, "
        f"bitgen={BIT_GENERATOR.__name__}"
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(float(v), ".12g")
    return "" if v is None else str(v)


def _csv(header: str, rows, comments=()) -> str:
    lines = [*comments, header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the CSV body (without provenance).


def _cmd_rates(args: argparse.Namespace) -> str:
    alpha = _require(args.alpha, "--alpha")
    beta = args.beta if args.beta is not None else 0.0
    i_max = args.i_max if args.i_max is not None else 20
    if alpha < 1.0:
        table = xi_transition_matrix(Params(alpha, beta), i_max)
    else:
        table = build_rate_table(Params(alpha, beta), i_max)
    return table.to_csv()


def _model_from(args: argparse.Namespace) -> PartitionModel:
    """--theta selects the gamma family, else --alpha the Pareto family."""
    N = _require(args.N, "--N")
    beta = args.beta if args.beta is not None else 0.0
    if args.theta is not None:
        _unread(args, "with --theta (the gamma family)", "alpha")
        return PartitionModel.gamma(args.theta, N, beta)
    return PartitionModel.pareto(_require(args.alpha, "--alpha"), N, beta)


def _cmd_finite_mc(args: argparse.Namespace) -> str:
    model = _model_from(args)
    i = args.i if args.i is not None else 2
    replicas = args.replicas if args.replicas is not None else 10_000
    rng = RngStream(args.seed)
    row = estimate_p_row(model, i, replicas, rng)
    rows = [(i, j, e.value, e.stderr, e.ess, e.replicas)
            for j, e in enumerate(row, start=1)]
    comments = []
    if row[0].degenerate:  # the row's columns share one set of weights
        comments.append(
            f"# warning: degenerate weights for row i={i}, ess={row[0].ess:.1f}"
        )
    return _csv("i,j,estimate,stderr,ess,replicas", rows, comments)


def _cmd_scaling_fit(args: argparse.Namespace) -> str:
    alpha = _require(args.alpha, "--alpha")
    beta = args.beta if args.beta is not None else 0.0
    grid = _require(args.N_grid, "--N-grid")
    replicas = args.replicas if args.replicas is not None else 10_000
    fit = fit_c_N_scaling(alpha, beta, grid, replicas, RngStream(args.seed))
    comments = [
        f"# fit: regime={fit.regime}, predictor={fit.predictor!r}, "
        f"slope={fit.slope:.12g}, slope_se={fit.slope_se:.12g}, "
        f"prefactor={fit.prefactor:.12g}, r_squared={fit.r_squared:.12g}"
    ]
    for key, val in sorted(fit.diagnostics.items()):
        comments.append(f"# diagnostic: {key}={val:.12g}")
    if fit.noisy:
        comments.append(
            "# warning: MC noise dominating (slope CI width exceeds |slope|)"
        )
    rows = [(p.N, p.c_hat, p.stderr) for p in fit.points]
    return _csv("N,c_hat,stderr", rows, comments)


def _cmd_simulate(args: argparse.Namespace) -> str:
    family = _require(args.family, "--family")
    if family in ("kingman", "bs"):
        _unread(args, f"by --family {family}", "alpha")
    if family == "kingman":
        _unread(args, "by --family kingman", "beta")
    beta = args.beta if args.beta is not None else 0.0
    rng = RngStream(args.seed)
    if args.trajectory:
        _unread(args, "with --trajectory", "N_grid", "replicas")
        n0 = _require(args.N, "--N")
        if family == "xi":
            if not 1 <= n0 <= I_MAX_CAP:
                raise ValueError(
                    f"--N must be in 1..{I_MAX_CAP} for the xi family, got {n0}"
                )
            matrix = xi_transition_matrix(
                Params(_require(args.alpha, "--alpha"), beta), n0
            )
            states, _ = simulate_xi(matrix, n0, rng)
        else:
            params = family_params(family, args.alpha, beta)
            states, _ = simulate_lambda(params, n0, rng)
        return _csv("time_or_step,blocks", ((s.when, s.blocks) for s in states))
    if family == "xi":
        raise ValueError("--family xi needs --trajectory")
    if args.N_grid:
        _unread(args, "with --N-grid", "N")
    sizes = args.N_grid or [_require(args.N, "--N")]
    replicas = args.replicas if args.replicas is not None else 1000
    rows = functional_scaling_report(
        family, sizes, replicas, rng, alpha=args.alpha, beta=beta
    )
    return _csv(
        "family,n0,functional,mean,stderr,reference,ratio",
        (dataclasses.astuple(r) for r in rows),
    )


def _cmd_forward(args: argparse.Namespace) -> str:
    config = ForwardConfig(
        N=_require(args.N, "--N"),
        alpha=_require(args.alpha, "--alpha"),
        generations=args.generations if args.generations is not None else 100,
    )
    rng = RngStream(args.seed)
    if args.replicas is None:
        fields = "k", "log_global", "log_holder_mean", "log_fittest"
        rows = map(attrgetter(*fields), trajectory(config, rng))
        return _csv(",".join(fields), rows)
    est = speed_estimate(config, args.replicas, rng)
    sel, growth = per_step_mean_parts(config, 10 * args.replicas, rng)
    rows = [
        ("speed", est.value, est.stderr, est.replicas),
        ("selection_part", sel, 0.0, 0),
        ("growth_part", growth.value, growth.stderr, growth.replicas),
        ("oracle_total", sel + growth.value, growth.stderr, growth.replicas),
    ]
    return _csv("quantity,value,stderr,replicas", rows)


def _cmd_pressure(args: argparse.Namespace) -> str:
    alpha, N = _require(args.alpha, "--alpha"), _require(args.N, "--N")
    pressure(alpha, N, -5.0)  # checks alpha and N before the grid uses alpha
    grid = np.linspace(-5.0, 0.95 * alpha, 60).tolist()
    return _csv("beta,pressure", ((b, pressure(alpha, N, b)) for b in grid))


def _cmd_gclt(args: argparse.Namespace) -> str:
    alpha = _require(args.alpha, "--alpha")
    N = _require(args.N, "--N")
    replicas = args.replicas if args.replicas is not None else 1000
    stats = standardized_sum_stats(alpha, N, replicas, RngStream(args.seed))
    c = stats.constants
    rows = [
        ("a_N", c.a_N),
        ("b_N", c.b_N),
        ("C_alpha", c.C_alpha),
        ("regime", c.regime_tag),
        ("mean", stats.mean),
        ("mean_stderr", stats.mean_stderr),
        ("variance", stats.variance),
        ("raw_median", stats.raw_median),
    ]
    rows += [(f"q{q}", v) for q, v in stats.quantiles.items()]
    return _csv("quantity,value", rows)


# Each subcommand's handler and the flags it reads; its parser takes these
# plus --out.
_HANDLERS = {
    "rates": (_cmd_rates, "alpha beta i_max"),
    "finite-mc": (_cmd_finite_mc, "alpha theta N beta i replicas seed"),
    "scaling-fit": (_cmd_scaling_fit, "alpha beta N_grid replicas seed"),
    "simulate": (
        _cmd_simulate, "family alpha beta N N_grid replicas trajectory seed"
    ),
    "forward": (_cmd_forward, "alpha N generations replicas seed"),
    "pressure": (_cmd_pressure, "alpha N"),
    "gclt": (_cmd_gclt, "alpha N replicas seed"),
}


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


# add_argument keywords of every flag a handler may read.
_FLAGS = {
    "family": {"choices": ["kingman", "bs", "beta", "xi"]},
    **{k: {"type": float} for k in ("alpha", "beta", "theta")},
    **{k: {"type": int} for k in ("N", "i", "i_max", "replicas", "generations")},
    "N_grid": {"type": _int_list, "help": "comma-separated N values"},
    "trajectory": {"action": "store_true"},
    "seed": {"type": int, "default": 0},
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _unread(args: argparse.Namespace, reason: str, *names: str) -> None:
    """Reject a flag that the handler reads but would ignore here."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"{_flag(name)} is not read {reason}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="paretocoal",
        description="Coalescents from normalized heavy-tailed sampling: "
        "exact tables, Monte Carlo estimators, and the forward "
        "selection model.",
        fromfile_prefix_chars="@",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _HANDLERS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for dest in reads.split():
            sp.add_argument(_flag(dest), **_FLAGS[dest])
        sp.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body = _HANDLERS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # estimator/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _provenance(args) + "\n" + body
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
