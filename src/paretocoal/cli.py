"""Command-line front end: tables, Monte Carlo runs, sweeps, CSV output.

Every run prints a provenance comment line (seed, parameters, version,
numpy version, bit generator) followed by a CSV table, and a given
(config, seed) pair always produces byte-identical output. A JSON config
document can seed any run; explicit flags override fields from the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: the command plus every knob it may read; unused fields
    stay None."""

    command: str
    family: str | None = None
    alpha: float | None = None
    beta: float | None = None
    theta: float | None = None
    N: int | None = None
    N_grid: tuple[int, ...] | None = None
    i: int | None = None
    i_max: int | None = None
    replicas: int | None = None
    generations: int | None = None
    seed: int = 0
    trajectory: bool = False
    kind: str | None = None
    out: str | None = None


def _provenance(config: ExperimentConfig) -> str:
    params = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in dataclasses.asdict(config).items()
        if v is not None and k not in ("out", "seed", "command")
    }
    return (
        f"# seed={config.seed}, params={json.dumps(params, sort_keys=True)}, "
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


def _cmd_rates(cfg: ExperimentConfig) -> str:
    alpha = _require(cfg.alpha, "--alpha")
    beta = cfg.beta if cfg.beta is not None else 0.0
    i_max = cfg.i_max if cfg.i_max is not None else 20
    if alpha < 1.0:
        table = xi_transition_matrix(Params(alpha, beta), i_max)
    else:
        table = build_rate_table(Params(alpha, beta), i_max)
    return table.to_csv()


def _cmd_xi_matrix(cfg: ExperimentConfig) -> str:
    if not 0.0 <= _require(cfg.alpha, "--alpha") < 1.0:
        raise ValueError("xi-matrix requires 0 <= alpha < 1")
    return _cmd_rates(cfg)


def _model_from(cfg: ExperimentConfig) -> PartitionModel:
    family = cfg.family or ("gamma" if cfg.theta is not None else "pareto")
    N = _require(cfg.N, "--N")
    beta = cfg.beta if cfg.beta is not None else 0.0
    if family == "gamma":
        return PartitionModel.gamma(_require(cfg.theta, "--theta"), N, beta)
    return PartitionModel.pareto(_require(cfg.alpha, "--alpha"), N, beta)


def _cmd_finite_mc(cfg: ExperimentConfig) -> str:
    model = _model_from(cfg)
    i = cfg.i if cfg.i is not None else 2
    replicas = cfg.replicas if cfg.replicas is not None else 10_000
    rng = RngStream(cfg.seed)
    row = estimate_p_row(model, i, replicas, rng)
    comments = []
    rows = []
    for j, est in enumerate(row, start=1):
        rows.append((i, j, est.value, est.stderr, est.ess, est.replicas))
        if est.degenerate:
            comments.append(
                f"# warning: degenerate weights for (i={i}, j={j}), "
                f"ess={est.ess:.1f}"
            )
    return _csv("i,j,estimate,stderr,ess,replicas", rows, comments)


def _cmd_scaling_fit(cfg: ExperimentConfig) -> str:
    alpha = _require(cfg.alpha, "--alpha")
    beta = cfg.beta if cfg.beta is not None else 0.0
    grid = _require(cfg.N_grid, "--N-grid")
    replicas = cfg.replicas if cfg.replicas is not None else 10_000
    fit = fit_c_N_scaling(alpha, beta, list(grid), replicas, RngStream(cfg.seed))
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


def _cmd_simulate(cfg: ExperimentConfig) -> str:
    family = _require(cfg.family, "--family")
    beta = cfg.beta if cfg.beta is not None else 0.0
    rng = RngStream(cfg.seed)
    if cfg.trajectory:
        n0 = _require(cfg.N, "--N")
        if family == "xi":
            if not 1 <= n0 <= I_MAX_CAP:
                raise ValueError(
                    f"--N must be in 1..{I_MAX_CAP} for the xi family, got {n0}"
                )
            matrix = xi_transition_matrix(
                Params(_require(cfg.alpha, "--alpha"), beta), n0
            )
            states, _ = simulate_xi(matrix, n0, rng)
        else:
            params = family_params(family, cfg.alpha, beta)
            states, _ = simulate_lambda(params, n0, rng)
        return _csv("time_or_step,blocks", ((s.when, s.blocks) for s in states))
    sizes = list(cfg.N_grid) if cfg.N_grid else [_require(cfg.N, "--N")]
    replicas = cfg.replicas if cfg.replicas is not None else 1000
    rows = functional_scaling_report(
        family, sizes, replicas, rng, alpha=cfg.alpha, beta=beta
    )
    return _csv(
        "family,n0,functional,mean,stderr,reference,ratio",
        (dataclasses.astuple(r) for r in rows),
    )


def _cmd_forward(cfg: ExperimentConfig) -> str:
    config = ForwardConfig(
        N=_require(cfg.N, "--N"),
        alpha=_require(cfg.alpha, "--alpha"),
        generations=cfg.generations if cfg.generations is not None else 100,
    )
    rng = RngStream(cfg.seed)
    if (cfg.kind or "trajectory") == "trajectory":
        states = trajectory(config, rng)
        return _csv(
            "k,log_global,log_holder_mean,log_fittest",
            [
                (s.k, s.log_global, s.log_holder_mean, s.log_fittest)
                for s in states
            ],
        )
    if cfg.kind == "pressure":
        alpha = config.alpha
        grid = np.linspace(-5.0, 0.95 * alpha, 60)
        rows = [(float(b), pressure(alpha, config.N, float(b))) for b in grid]
        return _csv("beta,pressure", rows)
    if cfg.kind != "speed":
        raise ValueError("--kind must be 'trajectory', 'speed' or 'pressure'")
    replicas = cfg.replicas if cfg.replicas is not None else 20
    est = speed_estimate(config, replicas, rng)
    sel, growth = per_step_mean_parts(config, 10 * replicas, rng)
    rows = [
        ("speed", est.value, est.stderr, est.replicas),
        ("selection_part", sel, 0.0, 0),
        ("growth_part", growth.value, growth.stderr, growth.replicas),
        ("oracle_total", sel + growth.value, growth.stderr, growth.replicas),
    ]
    return _csv("quantity,value,stderr,replicas", rows)


def _cmd_gclt(cfg: ExperimentConfig) -> str:
    alpha = _require(cfg.alpha, "--alpha")
    N = _require(cfg.N, "--N")
    replicas = cfg.replicas if cfg.replicas is not None else 1000
    stats = standardized_sum_stats(alpha, N, replicas, RngStream(cfg.seed))
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


_HANDLERS = {
    "rates": _cmd_rates,
    "xi-matrix": _cmd_xi_matrix,
    "finite-mc": _cmd_finite_mc,
    "scaling-fit": _cmd_scaling_fit,
    "simulate": _cmd_simulate,
    "forward": _cmd_forward,
    "gclt": _cmd_gclt,
}


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="paretocoal",
        description="Coalescents from normalized heavy-tailed sampling: "
        "exact tables, Monte Carlo estimators, and the forward "
        "selection model.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--theta", type=float)
        sp.add_argument("--N", type=int)
        sp.add_argument(
            "--N-grid", dest="N_grid", help="comma-separated N values"
        )
        sp.add_argument("--i", type=int)
        sp.add_argument("--i-max", dest="i_max", type=int)
        sp.add_argument("--replicas", type=int)
        sp.add_argument("--generations", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--family")
        sp.add_argument("--trajectory", action="store_true", default=None)
        sp.add_argument("--kind", choices=["trajectory", "speed", "pressure"])
        sp.add_argument("--out")
    return p


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.loads(fh.read())
        base.pop("command", None)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("config", "command") and v is not None
    }
    if "N_grid" in overrides and isinstance(overrides["N_grid"], str):
        overrides["N_grid"] = tuple(
            int(tok) for tok in overrides["N_grid"].split(",") if tok
        )
    merged = {**base, **overrides}
    if merged.get("N_grid") is not None:
        merged["N_grid"] = tuple(merged["N_grid"])
    if merged.get("seed") is None:
        merged["seed"] = 0
    if merged.get("trajectory") is None:
        merged["trajectory"] = False
    return ExperimentConfig(command=args.command, **merged)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        body = _HANDLERS[cfg.command](cfg)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # estimator/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _provenance(cfg) + "\n" + body
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
