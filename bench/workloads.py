"""The three benchmark workloads: their jobs, checks and self-tests.

A round is one pass over a workload's jobs; every run repeats whole rounds.
Round r draws its RNG seeds from SeedSequence([seed, r]), so the benchmark
seed fixes every input the program receives. The one kept failing job
(`c_N_beta200`) uses a fixed seed, so it fails the same way on every seed.

Jobs call paretocoal through module attributes (`finite_mc.estimate_p_row`
and so on), so the wrappers `tracing.install` puts there are the ones run.
Checks compare outputs with `oracles`, which does not use paretocoal: 5
standard errors for Monte Carlo figures, 1e-10 relative for closed forms
and 1e-12 absolute for probabilities. Each workload's `self_tests` feeds
the same checks known-wrong answers, which they must reject.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from paretocoal import cli, finite_mc, forward, rates, regression, simulate
from paretocoal.finite_mc import PartitionModel
from paretocoal.forward import ForwardConfig
from paretocoal.rates import Params
from paretocoal.samplers import RngStream
from paretocoal.weighted import WeightedEstimate

MC_SE = 5.0
REL_TOL = 1e-10
PROB_TOL = 1e-12


@dataclass
class Job:
    """One timed call. `keep` turns its output, after the clock stops, into
    what the checks need, so that outputs kept for checking do not grow
    peak memory with the number of rounds."""

    name: str
    run: Callable[[], Any]
    keep: Callable[[Any], Any] = lambda out: out


def block_paths(trajectories) -> list[np.ndarray]:
    return [np.array([s.blocks for s in t.states]) for t in trajectories]


def round_seeds(seed: int, r: int, k: int) -> list[int]:
    state = np.random.SeedSequence([seed, r]).generate_state(k)
    return [int(s) for s in state]


def run_cli(argv: list[str]) -> str:
    """`paretocoal <argv>` in-process; returns stdout, raises on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"paretocoal {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def csv_rows(text: str) -> list[list[str]]:
    """Fields of each CSV line after the comment lines and the header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# Check vocabulary: each returns a list of failure messages (empty = pass).


def within_se(label, got, se, want):
    if abs(got - want) <= MC_SE * se:
        return []
    return [f"{label}: {got!r} vs {want!r}, se {se!r}"]


def within_rel(label, got, want):
    if abs(got - want) <= REL_TOL * abs(want):
        return []
    return [f"{label}: {got!r} vs {want!r} (relative tolerance {REL_TOL})"]


def within_abs(label, got, want):
    if abs(got - want) <= PROB_TOL:
        return []
    return [f"{label}: {got!r} vs {want!r} (absolute tolerance {PROB_TOL})"]


def occupancy(label, est, p):
    """An occupancy frequency against its exact law.

    The count it implies, k = value * ESS, must not lie in a binomial(ESS, p)
    tail smaller than a normal tail beyond 5 standard errors. When p * ESS is
    large this is the 5-se test with se = sqrt(p(1-p)/ESS), taken from the
    exact law rather than from the estimate; it stays valid for a class so
    rare that one hit is already many such se away.
    """
    from scipy.stats import binom, norm

    n, k = round(est.ess), round(est.value * est.ess)
    tail = min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))
    if tail >= norm.sf(MC_SE):
        return []
    return [f"{label}: {est.value!r} vs {p!r}, binomial tail {tail:.3g}"]


def rejected(label, failures):
    """A self-test passes when its check rejects the known-wrong input."""
    return [] if failures else [f"self-test {label}: known-wrong input accepted"]


# ---------------------------------------------------------------------------


class Workload:
    """Jobs per round, one `check_<job>` method per job, and self-tests."""

    name: str
    headline_job: str
    kept_failure: str | None = None

    def __init__(self, seed: int):
        self.seed = seed

    def kept_failed(self, out) -> bool:
        return False

    def layer_extras(self, outputs) -> dict:
        return {}

    def check(self, job: str, out, orc) -> list[str]:
        return getattr(self, f"check_{job}")(out, orc)


class PartitionMC(Workload):
    """Batched partition kernel: occupancy rows, c_N grid, IS weights."""

    name = "partition-mc"
    headline_job = "c_N_fit"
    kept_failure = "c_N_beta200"
    N_GRID = (100, 316, 1000, 3162, 10_000)
    ROW_REPLICAS = 20_000
    FIT_REPLICAS = 5_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pareto = PartitionModel.pareto(1.5, 1000)
        self.gamma = PartitionModel.gamma(1.0, 1000, beta=1.0)
        # alpha >= 2 with large beta: the constructor warns, as it should.
        self.skewed = PartitionModel.pareto(2.5, 50, beta=200.0)

    def jobs(self, r: int) -> list[Job]:
        s = round_seeds(self.seed, r, 3)
        return [
            Job("p_row_pareto", lambda: finite_mc.estimate_p_row(
                self.pareto, 4, self.ROW_REPLICAS, RngStream(s[0]))),
            Job("p_row_gamma", lambda: finite_mc.estimate_p_row(
                self.gamma, 4, self.ROW_REPLICAS, RngStream(s[1]))),
            Job("c_N_fit", lambda: regression.fit_c_N_scaling(
                1.5, 0.0, list(self.N_GRID), self.FIT_REPLICAS, RngStream(s[2]))),
            Job("c_N_beta200", lambda: finite_mc.estimate_c_N_conditional(
                self.skewed, 400_000, RngStream(2013))),
        ]

    def kept_failed(self, out) -> bool:
        """The size-biased c_N fails while its figures are not finite or
        its ESS is under 1% of replicas without `degenerate` set."""
        finite = all(math.isfinite(x) for x in (out.value, out.stderr, out.ess))
        return not finite or (out.ess < 0.01 * out.replicas and not out.degenerate)

    @staticmethod
    def headline(out):
        return out.slope, out.slope_se

    def layer_extras(self, outputs):
        est = outputs["p_row_gamma"][0]
        return {"weighted.ess_ratio": est.ess / est.replicas}

    def oracle(self):
        from oracles import bose_einstein, pareto_p_i1

        return {
            "gamma_row": [bose_einstein(1000, 4, j) for j in range(1, 5)],
            "pareto_p41": pareto_p_i1(1.5, 1000, 4),
            "c_N": {N: pareto_p_i1(1.5, N, 2) for N in self.N_GRID},
        }

    @staticmethod
    def _row_sum(label, row):
        return within_abs(f"{label} row sum", math.fsum(e.value for e in row), 1.0)

    def check_p_row_pareto(self, row, orc):
        return (self._row_sum("pareto", row)
                + occupancy("pareto P(4,1)", row[0], orc["pareto_p41"]))

    def check_p_row_gamma(self, row, orc):
        fails = self._row_sum("gamma", row)
        for j, (est, p) in enumerate(zip(row, orc["gamma_row"]), 1):
            fails += occupancy(f"gamma P(4,{j})", est, p)
        return fails

    def check_c_N_beta200(self, est, orc):
        return self._check_c_N_range(est.value, self.skewed.N)

    @staticmethod
    def _check_c_N_range(value, N):
        # sum S_n^2 lies in [1/N, 1] for every partition, so c_N does too.
        if 1.0 / N <= value <= 1.0:
            return []
        return [f"c_N {value!r} outside [1/N, 1] at N={N}"]

    @staticmethod
    def check_c_N_fit(fit, orc):
        from oracles import wls_line

        fails = []
        for p in fit.points:
            fails += within_se(f"c_N at N={p.N}", p.c_hat, p.stderr, orc["c_N"][p.N])
        N = np.array([p.N for p in fit.points], dtype=float)
        c = np.array([p.c_hat for p in fit.points])
        se_log = np.array([p.stderr for p in fit.points]) / c
        slope, intercept = wls_line(np.log(N), np.log(c), 1.0 / se_log**2)
        fails += within_rel("fit slope", fit.slope, slope)
        fails += within_rel("fit intercept", fit.intercept, intercept)
        return fails

    def self_tests(self, out, orc) -> list[str]:
        from oracles import bose_einstein

        fit = out["c_N_fit"]
        p0 = fit.points[0]
        shifted = dataclasses.replace(fit, slope=fit.slope * (1 + 1e-8))
        first, *rest = out["p_row_pareto"]
        off_row = [dataclasses.replace(first, value=first.value + 1e-11), *rest]
        large_N_law = WeightedEstimate(0.2, 0.0, self.ROW_REPLICAS, self.ROW_REPLICAS)
        return (
            # c_N = (1/N)(1+theta)/theta, the large-N gamma law, at N = 10
            rejected("gamma law", occupancy(
                "P(2,1), N=10", large_N_law, bose_einstein(10, 2, 1)))
            + rejected("c_N quadrature", within_se(
                "c_N", p0.c_hat, p0.stderr, orc["c_N"][self.N_GRID[1]]))
            + rejected("fit", self.check_c_N_fit(shifted, orc))
            + rejected("row sum", self._row_sum("pareto", off_row))
            + rejected("c_N range", self._check_c_N_range(1.5, 50))
        )


class LambdaCoalescent(Workload):
    """Beta(2 - alpha, alpha - beta) rate rows and the Lambda simulator."""

    name = "lambda-coalescent"
    headline_job = "report"
    ALPHA, BETA = 1.5, 0.3
    COMES_DOWN_M = 2000
    TABLE_I_MAX = 500
    TRAJECTORY_N0 = 5000
    REPORT_N0, REPORT_REPLICAS = 100, 2000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.plain = Params(self.ALPHA, 0.0)
        self.biased = Params(self.ALPHA, self.BETA)

    def jobs(self, r: int) -> list[Job]:
        s = round_seeds(self.seed, r, 2)
        argv = ["simulate", "--family", "beta", "--alpha", str(self.ALPHA),
                "--N", str(self.TRAJECTORY_N0), "--trajectory", "--seed", str(s[0])]
        return [
            Job("comes_down", lambda: rates.comes_down_diagnostic(
                self.plain, self.COMES_DOWN_M)),
            Job("rate_table", lambda: rates.build_rate_table(
                self.biased, self.TABLE_I_MAX)),
            Job("trajectory", lambda: run_cli(argv)),
            Job("report", lambda: simulate.functional_scaling_report(
                "beta", [self.REPORT_N0], self.REPORT_REPLICAS, RngStream(s[1]),
                alpha=self.ALPHA, beta=self.BETA)),
        ]

    @staticmethod
    def headline(out):
        row = next(r for r in out if r.functional == "total_length")
        return row.mean, row.stderr

    def oracle(self):
        from oracles import block_loss, first_step_functionals, lambda_row

        g = np.random.default_rng([self.seed, 1])
        cd_i = sorted({2, self.COMES_DOWN_M, *g.integers(2, self.COMES_DOWN_M + 1, 20).tolist()})
        tab_i = g.integers(2, self.TABLE_I_MAX + 1, 30).tolist()
        pit_b = g.integers(2, self.TABLE_I_MAX, 10).tolist()
        return {
            "inv_r": {i: 1.0 / block_loss(self.ALPHA, 0.0, i) for i in cd_i},
            "rows": {i: lambda_row(self.ALPHA, self.BETA, i)
                     for i in set(tab_i) | set(pit_b) | {b + 1 for b in pit_b}},
            "entries": [(i, int(g.integers(1, i))) for i in tab_i],
            "row_beta0": lambda_row(self.ALPHA, 0.0, self.TABLE_I_MAX),
            "pitman_b": pit_b,
            "functionals": first_step_functionals(self.ALPHA, self.BETA, self.REPORT_N0),
            "functionals_beta0": first_step_functionals(self.ALPHA, 0.0, self.REPORT_N0),
        }

    @staticmethod
    def check_comes_down(cum, orc):
        inc = np.diff(cum, prepend=0.0)
        fails = []
        for i, want in orc["inv_r"].items():
            fails += within_rel(f"1/r({i})", float(inc[i - 2]), want)
        return fails

    def check_rate_table(self, table, orc):
        fails = []
        for i, j in orc["entries"]:
            fails += within_rel(f"rate ({i},{j})", table.entry(i, j), orc["rows"][i][j - 1])
        return fails + self._pitman(
            lambda b, j: table.entry(b, j) / math.comb(b, b - j + 1), orc["pitman_b"])

    def check_trajectory(self, out, orc):
        return self._check_path(out, self.TRAJECTORY_N0)

    def check_report(self, rows, orc):
        return self._check_report(rows, orc["functionals"])

    @staticmethod
    def _pitman(per_tuple, bs):
        """lambda_(b,k) = lambda_(b+1,k) + lambda_(b+1,k+1) for one given
        k-tuple; an i -> j merger joins k = i - j + 1 blocks."""
        fails = []
        for b in bs:
            for k in range(2, b + 1):
                lhs = per_tuple(b, b - k + 1)
                rhs = per_tuple(b + 1, b + 2 - k) + per_tuple(b + 1, b + 1 - k)
                fails += within_rel(f"Pitman b={b}, k={k}", lhs, rhs)
                if fails:
                    return fails
        return fails

    @staticmethod
    def _check_path(text, n0):
        rows = csv_rows(text)
        t = [float(r[0]) for r in rows]
        n = [int(r[1]) for r in rows]
        ok = (n[0] == n0 and t[0] == 0.0 and n[-1] == 1
              and all(a > b for a, b in zip(n, n[1:]))
              and all(a < b for a, b in zip(t, t[1:])))
        return [] if ok else [f"trajectory from {n0}: not a falling path to 1 in rising time"]

    @staticmethod
    def _check_report(rows, want):
        fails = []
        for r in rows:
            if r.functional in want:
                fails += within_se(f"mean {r.functional}", r.mean, r.stderr, want[r.functional])
        return fails

    def self_tests(self, out, orc) -> list[str]:
        table = out["rate_table"]
        inc = np.diff(out["comes_down"], prepend=0.0)
        bad_path = "time_or_step,blocks\n0,5\n0.1,3\n0.2,3\n0.3,1\n"
        return (
            rejected("1/r(i)", within_rel("1/r", float(inc[1]), orc["inv_r"][2]))
            + rejected("rate at beta=0", within_rel(
                "rate", table.entry(self.TABLE_I_MAX, 2), orc["row_beta0"][1]))
            + rejected("Pitman binomial", self._pitman(table.entry, orc["pitman_b"]))
            + rejected("path", self._check_path(bad_path, 5))
            + rejected("functionals beta", self._check_report(
                out["report"], orc["functionals_beta0"]))
        )


class DiscreteForward(Workload):
    """Discrete-time generation loops: Xi chains, finite-N chains, forward model."""

    name = "discrete-forward"
    headline_job = "forward_trajectory"
    XI_I_MAX = 17
    STIRLING_I_MAX = 30
    CHAIN_N0, CHAIN_REPLICAS = 12, 2000
    GAMMA_N0, GAMMA_REPLICAS = 20, 500
    PARETO_REPLICAS = 2000
    FORWARD_N, FORWARD_ALPHA, FORWARD_G = 100, 1.0, 10_000
    SPEED_REPLICAS = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        self.xi = Params(0.5, 0.0)
        self.gamma = PartitionModel.gamma(1.0, 100)
        self.pareto = PartitionModel.pareto(0.5, 100)
        self.speed_config = ForwardConfig(N=10_000, alpha=1.5, generations=200)

    def jobs(self, r: int) -> list[Job]:
        s = round_seeds(self.seed, r, 5)
        chain_rngs = [RngStream(s[0], k) for k in range(self.CHAIN_REPLICAS)]
        gamma_rngs = [RngStream(s[1], k) for k in range(self.GAMMA_REPLICAS)]
        pareto_rngs = [RngStream(s[2], k) for k in range(self.PARETO_REPLICAS)]

        def xi_chain():
            m = rates.xi_transition_matrix(self.xi, self.CHAIN_N0)
            return [simulate.simulate_xi(m, self.CHAIN_N0, g)[1] for g in chain_rngs]

        def steps(functionals):
            return np.array([f.steps for f in functionals])

        return [
            Job("xi_matrix", lambda: run_cli(
                ["rates", "--alpha", "0.5", "--i-max", str(self.XI_I_MAX)])),
            Job("stirling", lambda: run_cli(
                ["rates", "--alpha", "0", "--beta", "-1", "--i-max", str(self.STIRLING_I_MAX)])),
            Job("xi_chain", xi_chain, steps),
            Job("discrete_gamma", lambda: [
                finite_mc.run_discrete_coalescent(self.gamma, self.GAMMA_N0, g)
                for g in gamma_rngs], block_paths),
            Job("discrete_pareto", lambda: [
                finite_mc.run_discrete_coalescent(self.pareto, self.GAMMA_N0, g)
                for g in pareto_rngs], block_paths),
            Job("forward_trajectory", lambda: run_cli(
                ["forward", "--alpha", str(self.FORWARD_ALPHA), "--N", str(self.FORWARD_N),
                 "--generations", str(self.FORWARD_G), "--seed", str(s[3])])),
            Job("speed", lambda: forward.speed_estimate(
                self.speed_config, self.SPEED_REPLICAS, RngStream(s[4]))),
        ]

    @staticmethod
    def headline(out):
        """Speed as the mean log increment of one G-generation trajectory;
        increments of distinct generations are independent."""
        rows = csv_rows(out)
        inc = np.diff([float(r[1]) for r in rows])
        return float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(inc.size))

    def oracle(self):
        from oracles import (absorption_steps, bose_einstein_matrix,
                             forward_drift, pd_block_counts)

        xi = pd_block_counts(0.5, 0.0, self.XI_I_MAX)
        return {
            "xi": xi,
            "xi_wrong": pd_block_counts(0.51, 0.0, self.XI_I_MAX),
            "stirling": pd_block_counts(0.0, 1.0, self.STIRLING_I_MAX),
            "xi_steps": absorption_steps(xi, self.CHAIN_N0),
            "gamma_steps": absorption_steps(bose_einstein_matrix(100, self.GAMMA_N0), self.GAMMA_N0),
            "gamma_steps_N50": absorption_steps(bose_einstein_matrix(50, self.GAMMA_N0), self.GAMMA_N0),
            "drift": forward_drift(self.FORWARD_ALPHA, self.FORWARD_N),
            "drift_speed": forward_drift(1.5, 10_000),
            "drift_2": forward_drift(1.0, 2),
            "drift_2_wrong": forward_drift(1.0, 2, psi_shift=0),
        }

    @staticmethod
    def _check_matrix(label, text, want):
        rows = csv_rows(text)
        fails = []
        for i, j, v in rows:
            fails += within_abs(f"{label} P({i},{j})", float(v), want[int(i), int(j)])
            if fails:
                break
        if len(rows) != sum(range(1, want.shape[0])):
            fails.append(f"{label}: {len(rows)} entries")
        return fails

    @staticmethod
    def _mean_steps(label, steps, want):
        steps = np.asarray(steps, dtype=float)
        se = steps.std(ddof=1) / math.sqrt(steps.size)
        return within_se(f"{label} mean steps", float(steps.mean()), se, want)

    @staticmethod
    def _check_chains(label, paths, n0):
        """Each block-count path starts at n0, never rises, ends at 1."""
        for n in paths:
            if not (n[0] == n0 and n[-1] == 1 and np.all(np.diff(n) <= 0)):
                return [f"{label}: a path from {n0} did not fall to 1"]
        return []

    def _check_forward(self, text, drift):
        N, alpha, G = self.FORWARD_N, self.FORWARD_ALPHA, self.FORWARD_G
        rows = csv_rows(text)
        k = [int(r[0]) for r in rows]
        lg = np.array([float(r[1]) for r in rows])
        lhm = np.array([float(r[2]) for r in rows])
        fails = [] if k == list(range(G + 1)) else ["forward: generations not 0..G"]
        speed, se = self.headline(text)
        fails += within_se("forward mean increment", speed, se, drift)
        gap = np.abs(lhm - (lg - math.log(N) / alpha)) / np.maximum(1.0, np.abs(lg))
        if not gap.max() <= REL_TOL:
            fails.append(f"forward: log_holder_mean off log_global - ln N/alpha by {gap.max():.3g}")
        return fails

    def check_xi_matrix(self, out, orc):
        return self._check_matrix("xi_matrix", out, orc["xi"])

    def check_stirling(self, out, orc):
        return self._check_matrix("stirling", out, orc["stirling"])

    def check_xi_chain(self, steps, orc):
        return self._mean_steps("xi chain", steps, orc["xi_steps"])

    def check_discrete_gamma(self, paths, orc):
        steps = [n.size - 1 for n in paths]
        return (self._mean_steps("gamma chain", steps, orc["gamma_steps"])
                + self._check_chains("gamma chain", paths, self.GAMMA_N0))

    def check_discrete_pareto(self, paths, orc):
        return self._check_chains("pareto chain", paths, self.GAMMA_N0)

    def check_forward_trajectory(self, out, orc):
        return self._check_forward(out, orc["drift"])

    @staticmethod
    def check_speed(est, orc):
        return within_se("speed", est.value, est.stderr, orc["drift_speed"])

    def self_tests(self, out, orc) -> list[str]:
        text = out["forward_trajectory"]
        rows = csv_rows(text)
        shifted = "\n".join(
            ["k,log_global,log_holder_mean,log_fittest"]
            + [f"{r[0]},{r[1]},{float(r[1]) - math.log(self.FORWARD_N + 1):.12g},{r[3]}"
               for r in rows])
        gamma_paths = out["discrete_gamma"]
        rising = np.insert(gamma_paths[0], 1, self.GAMMA_N0 + 1)
        return (
            rejected("PD recursion alpha+0.01", self._check_matrix(
                "xi_matrix", out["xi_matrix"], orc["xi_wrong"]))
            + rejected("gamma chain N=50", self._mean_steps(
                "gamma chain", [n.size - 1 for n in gamma_paths], orc["gamma_steps_N50"]))
            + rejected("chain path", self._check_chains("gamma chain", [rising], self.GAMMA_N0))
            + rejected("drift psi(N)", within_se(
                "drift N=2", orc["drift_2_wrong"], out["speed"].stderr, orc["drift_2"]))
            + rejected("holder identity", self._check_forward(shifted, orc["drift"]))
        )


WORKLOADS = {w.name: w for w in (PartitionMC, LambdaCoalescent, DiscreteForward)}
