"""Command-line front end: tables, Monte Carlo runs, sweeps, CSV output.

Every run prints a provenance comment line (the seed of a subcommand that
draws, the flags given, version, numpy version, bit generator), one
`# warning:` line per distinct library warning, and a CSV table; the same
flags always produce byte-identical output. Each
subcommand is one computation whose flags, plus --out, are its handler's
keyword parameters: one without a default is required, and a default of
None marks a flag whose presence picks a mode (`finite-mc --theta` the gamma
family, `forward --replicas` the speed summary). An argument @FILE is
replaced by FILE's lines, one argument each.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import warnings
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


def _provenance(flags: dict) -> str:
    params = dict(flags)
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


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _unread(reason: str, **values) -> None:
    """Reject a flag that the handler reads but would ignore here."""
    for name, value in values.items():
        if value is not None:
            raise ValueError(f"{_flag(name)} is not read {reason}")


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the CSV body (without provenance).


def _cmd_rates(*, alpha: float, beta: float = 0.0, i_max: int = 20) -> str:
    build = xi_transition_matrix if alpha < 1.0 else build_rate_table
    return build(Params(alpha, beta), i_max).to_csv()


def _cmd_finite_mc(
    *, alpha: float | None = None, theta: float | None = None, N: int,
    beta: float = 0.0, i: int = 2, replicas: int = 10_000, seed: int = 0,
) -> str:
    if theta is not None:
        _unread("with --theta (the gamma family)", alpha=alpha)
        model = PartitionModel.gamma(theta, N, beta)
    else:
        model = PartitionModel.pareto(_require(alpha, "--alpha"), N, beta)
    row = estimate_p_row(model, i, replicas, RngStream(seed))
    rows = [(i, j, e.value, e.stderr, e.ess, e.replicas)
            for j, e in enumerate(row, start=1)]
    comments = [f"# warning: no replica hit j={j} of row i={i}"
                for j, e in enumerate(row, start=1) if e.value == 0.0]
    return _csv("i,j,estimate,stderr,ess,replicas", rows, comments)


def _cmd_scaling_fit(
    *, alpha: float, beta: float = 0.0, N_grid: list[int],
    replicas: int = 10_000, seed: int = 0,
) -> str:
    fit = fit_c_N_scaling(alpha, beta, N_grid, replicas, RngStream(seed))
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


def _cmd_simulate(
    *, family: str, alpha: float | None = None, beta: float | None = None,
    N: int | None = None, N_grid: list[int] | None = None,
    replicas: int | None = None, trajectory: bool = False, seed: int = 0,
) -> str:
    if family in ("kingman", "bs"):
        _unread(f"by --family {family}", alpha=alpha)
    if family == "kingman":
        _unread("by --family kingman", beta=beta)
    beta = beta if beta is not None else 0.0
    rng = RngStream(seed)
    if trajectory:
        _unread("with --trajectory", N_grid=N_grid, replicas=replicas)
        n0 = _require(N, "--N")
        if family == "xi":
            if not 1 <= n0 <= I_MAX_CAP:
                raise ValueError(
                    f"--N must be in 1..{I_MAX_CAP} for the xi family, got {n0}"
                )
            matrix = xi_transition_matrix(
                Params(_require(alpha, "--alpha"), beta), n0
            )
            blocks, _ = simulate_xi(matrix, n0, rng)
            times = range(len(blocks))
        else:
            params = family_params(family, alpha, beta)
            (times, blocks), _ = simulate_lambda(params, n0, rng)
        return _csv("time_or_step,blocks", zip(times, blocks))
    if family == "xi":
        raise ValueError("--family xi needs --trajectory")
    if N_grid is not None:
        _unread("with --N-grid", N=N)
    rows = functional_scaling_report(
        family, N_grid or [_require(N, "--N")],
        replicas if replicas is not None else 1000, rng, alpha=alpha, beta=beta,
    )
    return _csv(
        "family,n0,functional,mean,stderr,reference,ratio",
        (dataclasses.astuple(r) for r in rows),
    )


def _cmd_forward(
    *, alpha: float, N: int, generations: int = 100,
    replicas: int | None = None, seed: int = 0,
) -> str:
    config = ForwardConfig(N=N, alpha=alpha, generations=generations)
    rng = RngStream(seed)
    if replicas is None:
        fields = "k", "log_global", "log_holder_mean", "log_fittest"
        rows = map(attrgetter(*fields), trajectory(config, rng))
        return _csv(",".join(fields), rows)
    est = speed_estimate(config, replicas, rng)
    sel, growth = per_step_mean_parts(config, 10 * replicas, rng)
    rows = [
        ("speed", est.value, est.stderr, est.replicas),
        ("selection_part", sel, 0.0, 0),
        ("growth_part", growth.value, growth.stderr, growth.replicas),
        ("oracle_total", sel + growth.value, growth.stderr, growth.replicas),
    ]
    return _csv("quantity,value,stderr,replicas", rows)


def _cmd_pressure(*, alpha: float, N: int) -> str:
    pressure(alpha, N, -5.0)  # checks alpha and N before the grid uses alpha
    grid = np.linspace(-5.0, 0.95 * alpha, 60).tolist()
    return _csv("beta,pressure", ((b, pressure(alpha, N, b)) for b in grid))


def _cmd_gclt(
    *, alpha: float, N: int, replicas: int = 1000, seed: int = 0
) -> str:
    stats = standardized_sum_stats(alpha, N, replicas, RngStream(seed))
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


# Each subcommand's handler, whose parameters are the subcommand's flags.
_HANDLERS = {
    "rates": _cmd_rates,
    "finite-mc": _cmd_finite_mc,
    "scaling-fit": _cmd_scaling_fit,
    "simulate": _cmd_simulate,
    "forward": _cmd_forward,
    "pressure": _cmd_pressure,
    "gclt": _cmd_gclt,
}


def _int_list(text: str) -> list[int]:
    if not (values := [int(tok) for tok in text.split(",") if tok]):
        raise argparse.ArgumentTypeError("empty list")
    return values


# add_argument keywords of every handler parameter. An absent flag is not
# passed, so the handler's default applies, but --seed and --trajectory are.
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
    for name, handler in _HANDLERS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for dest, param in inspect.signature(handler).parameters.items():
            required = param.default is param.empty
            sp.add_argument(_flag(dest), required=required, **_FLAGS[dest])
        sp.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command, out = args.pop("command"), args.pop("out")
    flags = {k: v for k, v in args.items() if v is not None}
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            body = _HANDLERS[command](**flags)
        except Exception as exc:  # ValueError: invalid parameters, exit 2
            error = exc
    # Each distinct library warning, in order, as one comment line.
    notes = "".join(dict.fromkeys(f"# warning: {w.message}\n" for w in caught))
    if error is not None:
        print(f"{notes}error: {str(error) or type(error).__name__}", file=sys.stderr)
        return 2 if isinstance(error, ValueError) else 1
    text = _provenance(flags) + "\n" + notes + body
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
