"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Every test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts the same condition, so the suite doubles as a human-readable
checklist. Monte Carlo sizes follow the criteria where they are stated;
where they are not, replicas are sized so that 3 standard errors sit well
inside the tolerance being tested.

Criterion 1 checks the gamma(theta) partition's c_N against its exact
finite-N law (1+theta)/(N theta + 1) on the full grid, and against the
large-N formula (1/N)(1+theta)/theta at N = 1000 only, where the two laws
agree to well under a standard error. At N = 10 they differ by 5-37
standard errors, so the large-N formula is not a target there.
"""

import math

import numpy as np
import pytest

from oracles import (
    block_loss_rate_quad,
    gamma_partition_c_N_exact,
    lambda_rate_moment_form,
    lambda_rate_quad,
    mean_first_collision_quad,
    total_rate_quad,
)
from paretocoal.cli import main
from paretocoal.finite_mc import (
    PartitionModel,
    estimate_c_N,
    estimate_c_N_conditional,
    estimate_p_rows_nested,
)
from paretocoal.forward import (
    ForwardConfig,
    fittest_stats,
    increments,
    per_step_mean_parts,
    speed_estimate,
)
from paretocoal.rates import (
    Params,
    block_loss_rate,
    lambda_rate,
    lambda_row,
    mean_first_collision_size,
    stirling_case_matrix,
    total_rate,
    xi_transition_matrix,
)
from paretocoal.regression import fit_c_N_scaling
from paretocoal.samplers import RngStream, standardized_sum_stats
from paretocoal.simulate import kingman_functionals, simulate_lambda
from test_forward import forward_genealogy_c_N

pytestmark = pytest.mark.acceptance


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _median_se(samples: np.ndarray) -> float:
    n = samples.size
    q25, q75 = np.quantile(samples, [0.25, 0.75])
    f_med = 0.3989 / ((q75 - q25) / 1.349)
    return 1.0 / (2.0 * f_med * math.sqrt(n))


class TestCriterion01GammaOracle:
    def test_gamma_closed_form_grid(self):
        # Exact law on the whole grid; the large-N formula only at N = 1000,
        # where it sits within O(1/N^2) of the exact law.
        replicas, large_N = 100_000, 1000
        failures = []
        worst = {"exact": 0.0, "large-N": 0.0}
        for theta in (0.5, 1.0, 2.0):
            for N in (10, 100, large_N):
                model = PartitionModel.gamma(theta, N)
                rng = RngStream(101, int(theta * 2) * 10_000 + N)
                est = estimate_c_N(model, replicas, rng)
                targets = {"exact": gamma_partition_c_N_exact(theta, N)}
                if N == large_N:
                    targets["large-N"] = (1.0 / N) * (1.0 + theta) / theta
                for law, target in targets.items():
                    gap = abs(est.value - target)
                    dist = gap / est.stderr
                    worst[law] = max(worst[law], dist)
                    if gap >= 3 * est.stderr:
                        failures.append(
                            f"{law} theta={theta} N={N}: {est.value:.5f} vs "
                            f"{target:.5f} ({dist:.1f} se)"
                        )
        _verdict(
            1,
            not failures,
            "MC c_N equals (1+theta)/(N theta + 1) on the full grid "
            f"(worst {worst['exact']:.2f} se) and (1/N)(1+theta)/theta at "
            f"N={large_N} (worst {worst['large-N']:.2f} se)"
            + ("; off at " + "; ".join(failures) if failures else ""),
        )


class TestCriterion02XiLimitAgreement:
    def test_finite_N_rows_approach_exact_matrix(self):
        alpha, N, replicas = 0.5, 10_000, 100_000
        model = PartitionModel.pareto(alpha, N)
        rows = estimate_p_rows_nested(
            model, [1, 2, 3, 4, 5], replicas, RngStream(102)
        )
        exact = xi_transition_matrix(Params(alpha, 0.0), 5)
        worst = ("", 0.0)
        ok = True
        for i in (1, 2, 3, 4, 5):
            for j in range(1, i + 1):
                est = rows[i][j - 1]
                gap = abs(est.value - exact.entry(i, j))
                tol = max(3 * est.stderr, 0.01)
                if gap >= tol:
                    ok = False
                if gap > worst[1]:
                    worst = (f"(i={i},j={j})", gap)
        _verdict(
            2,
            ok,
            f"finite-N merger rows at N=1e4 match the exact matrix within "
            f"max(3se, 0.01); worst |gap| {worst[1]:.4f} at {worst[0]}",
        )


class TestCriterion03LimitConstant:
    @pytest.mark.parametrize(
        "alpha,beta,replicas",
        [(0.5, 0.0, 100_000), (0.5, -1.0, 100_000), (0.8, 0.4, 800_000)],
    )
    def test_c_N_near_its_limit(self, alpha, beta, replicas):
        N = 10_000
        model = PartitionModel.pareto(alpha, N, beta)
        est = estimate_c_N_conditional(
            model, replicas, RngStream(103, int(alpha * 10 + beta * 100))
        )
        target = (1.0 - alpha) / (1.0 - beta)
        gap = abs(est.value - target)
        _verdict(
            3,
            gap < 0.02,
            f"alpha={alpha} beta={beta}: c_hat={est.value:.4f} within 0.02 of "
            f"{target:.4f} (gap {gap:.4f}, se {est.stderr:.4f})",
        )


class TestCriterion04ScalingExponents:
    GRID = [100, 316, 1000, 3162, 10000]

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_power_regime_slope(self, alpha):
        fit = fit_c_N_scaling(alpha, 0.0, self.GRID, 100_000,
                              RngStream(104, int(alpha * 100)))
        gap = abs(fit.slope - (-(alpha - 1.0)))
        _verdict(
            4,
            gap < 0.07,
            f"alpha={alpha}: slope {fit.slope:.4f} within 0.07 of "
            f"{-(alpha - 1.0):.2f} (se {fit.slope_se:.4f})",
        )

    def test_kingman_regime_slope_and_prefactor(self):
        fit = fit_c_N_scaling(3.0, 0.0, self.GRID, 100_000, RngStream(104, 300))
        mu, rho = 1.5, 3.0
        target_pref = rho / mu**2
        slope_ok = abs(fit.slope - (-1.0)) < 0.05
        pref_ok = abs(fit.prefactor - target_pref) / target_pref < 0.15
        _verdict(
            4,
            slope_ok and pref_ok,
            f"alpha=3: slope {fit.slope:.4f} (tol 0.05), prefactor "
            f"{fit.prefactor:.4f} within 15% of {target_pref:.4f}",
        )

    def test_log_regime_level(self):
        N = 100_000
        est = estimate_c_N_conditional(
            PartitionModel.pareto(1.0, N), 15_000, RngStream(104, 100)
        )
        ratio = est.value * math.log(N)
        _verdict(
            4,
            0.7 < ratio < 1.3,
            f"alpha=1: c_hat*log N = {ratio:.3f} in [0.7, 1.3] at N=1e5",
        )

    def test_critical_regime_level(self):
        N = 100_000
        est = estimate_c_N_conditional(
            PartitionModel.pareto(2.0, N), 30_000, RngStream(104, 200)
        )
        ratio = est.value * N / math.log(N)
        _verdict(
            4,
            0.35 < ratio < 0.7,
            f"alpha=2: c_hat*N/log N = {ratio:.3f} in [0.35, 0.7] at N=1e5",
        )


class TestCriterion05RateAlgebra:
    PAIRS = [(1.0, 0.0), (1.0, -1.0), (1.25, 0.0), (1.5, 0.75), (1.5, -2.0), (1.75, 0.0)]

    def test_quadrature_and_identities(self):
        worst_quad = 0.0
        worst_ident = 0.0
        worst_moment = 0.0
        for a, b in self.PAIRS:
            p = Params(a, b)
            for i in range(2, 11):
                for j in range(1, i):
                    worst_quad = max(
                        worst_quad,
                        abs(lambda_rate(p, i, j) - lambda_rate_quad(a, b, i, j)),
                    )
                worst_quad = max(
                    worst_quad,
                    abs(total_rate(p, i) - total_rate_quad(a, b, i)),
                    abs(block_loss_rate(p, i) - block_loss_rate_quad(a, b, i)),
                    abs(
                        mean_first_collision_size(p, i)
                        - mean_first_collision_quad(a, b, i)
                    ),
                )
                row = lambda_row(p, i)
                jj = np.arange(1, i)
                lam = row.sum()
                r1 = float(((i - jj) * row).sum())
                r2 = float(i * lam - (jj * row).sum())
                worst_ident = max(
                    worst_ident,
                    abs(r1 - r2),
                    abs(r1 - lam * (mean_first_collision_size(p, i) - 1.0)),
                )
        for a in (1.0, 1.25, 1.5, 1.75):
            for b in (0.0, -1.0, 0.5 * a):
                p = Params(a, b)
                for i in range(2, 11):
                    for j in range(1, i):
                        worst_moment = max(
                            worst_moment,
                            abs(lambda_rate(p, i, j) - lambda_rate_moment_form(a, b, i, j)),
                        )
        xi_row_err = 0.0
        for a, b in [(0.5, 0.0), (0.7, 0.3)]:
            m = xi_transition_matrix(Params(a, b), 12)
            xi_row_err = max(
                xi_row_err,
                max(abs(m.row(i).sum() - 1.0) for i in range(2, 13)),
            )
        st_row_err = 0.0
        for b in (-0.5, -1.0, -2.0):
            m = stirling_case_matrix(b, 10)
            st_row_err = max(
                st_row_err,
                max(abs(m.row(i).sum() - 1.0) for i in range(1, 11)),
            )
        ok = (
            worst_quad <= 1e-8
            and worst_ident <= 1e-10
            and worst_moment <= 1e-9
            and xi_row_err <= 1e-10
            and st_row_err <= 1e-10
        )
        _verdict(
            5,
            ok,
            f"rate algebra exact: quad gap {worst_quad:.1e} (tol 1e-8), "
            f"loss-rate identities {worst_ident:.1e} (1e-10), moment form "
            f"{worst_moment:.1e} (1e-9), xi rows {xi_row_err:.1e}, "
            f"stirling rows {st_row_err:.1e} (1e-10)",
        )


class TestCriterion06KingmanFunctionals:
    def test_height_collisions_external_length(self):
        reps = 100_000
        h = kingman_functionals(20, reps, RngStream(106, 1))
        height = h["height"]
        se = height.std(ddof=1) / math.sqrt(reps)
        height_ok = abs(height.mean() - 1.9) < 3 * se
        collisions_ok = bool(np.all(h["collisions"] == 19))
        rng = RngStream(106, 2)
        for n0 in (5, 12, 20):
            for _ in range(30):
                _, fn = simulate_lambda(
                    Params(3.0, 0.0), n0, rng, record_trajectory=False
                )
                collisions_ok = collisions_ok and fn.collisions == n0 - 1
        ext = kingman_functionals(100, reps, RngStream(106, 3))["external_length"]
        ext_ok = abs(ext.mean() - 2.0) / 2.0 < 0.15
        _verdict(
            6,
            height_ok and collisions_ok and ext_ok,
            f"binary-merger tree: mean height {height.mean():.4f} "
            f"(target 1.9 +- {3 * se:.4f}), collisions always n0-1, "
            f"mean external length {ext.mean():.4f} within 15% of 2",
        )


class TestCriterion07LogFamilyTrends:
    def test_collision_count_trend(self):
        params = Params(1.0, 0.0)
        ratios = {}
        for n0, reps, salt in ((1000, 400, 1), (10_000, 250, 2)):
            rng = RngStream(107, salt)
            cs = np.empty(reps)
            for r in range(reps):
                _, fn = simulate_lambda(params, n0, rng, record_trajectory=False)
                cs[r] = fn.collisions
            ratios[n0] = cs.mean() / (n0 / math.log(n0))
        in_band = all(0.6 < v < 1.4 for v in ratios.values())
        toward_one = abs(ratios[10_000] - 1.0) < abs(ratios[1000] - 1.0)
        _verdict(
            7,
            in_band and toward_one,
            f"collision count over i/log i: {ratios[1000]:.3f} at 1e3, "
            f"{ratios[10_000]:.3f} at 1e4 (band [0.6, 1.4], drifting to 1)",
        )


class TestCriterion08StableSumLimits:
    def test_normal_regime(self):
        stats = standardized_sum_stats(3.0, 10_000, 10_000, RngStream(108, 1))
        mean_ok = abs(stats.mean) < 3 * stats.mean_stderr
        var_ok = abs(stats.variance - 1.0) < 0.05
        _verdict(
            8,
            mean_ok and var_ok,
            f"normal regime: mean {stats.mean:.4f} (3se {3 * stats.mean_stderr:.4f}), "
            f"variance {stats.variance:.4f} within 5% of 1",
        )

    def test_heavy_tail_median_scaling(self):
        a = standardized_sum_stats(0.5, 1000, 4000, RngStream(108, 2))
        b = standardized_sum_stats(0.5, 10_000, 4000, RngStream(108, 3))
        ratio = b.raw_median / a.raw_median
        _verdict(
            8,
            abs(ratio - 100.0) / 100.0 < 0.15,
            f"heavy tail: median(Sigma) ratio across a decade of N is "
            f"{ratio:.1f}, within 15% of 100",
        )


class TestCriterion09ForwardModel:
    @pytest.mark.parametrize("N,traj_reps,oracle_reps", [(100, 120, 100_000), (10_000, 40, 10_000)])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_speed_matches_split_oracle(self, N, traj_reps, oracle_reps, alpha):
        cfg = ForwardConfig(N=N, alpha=alpha, generations=200)
        est = speed_estimate(cfg, traj_reps, RngStream(109, N + int(alpha)))
        sel, growth = per_step_mean_parts(
            cfg, oracle_reps, RngStream(109, 100 * N + int(alpha))
        )
        oracle = sel + growth.value
        se = math.hypot(est.stderr, growth.stderr)
        _verdict(
            9,
            abs(est.value - oracle) < 3 * se,
            f"speed at N={N}, alpha={alpha}: {est.value:.4f} vs oracle "
            f"{oracle:.4f} (3se {3 * se:.4f})",
        )

    def test_speed_alpha_proportionality(self):
        e1 = speed_estimate(
            ForwardConfig(N=100, alpha=1.0, generations=200), 120, RngStream(109, 51)
        )
        e2 = speed_estimate(
            ForwardConfig(N=100, alpha=2.0, generations=200), 120, RngStream(109, 52)
        )
        se = math.hypot(0.5 * e1.stderr, e2.stderr)
        _verdict(
            9,
            abs(e2.value - 0.5 * e1.value) < 3 * se,
            f"alpha-proportionality: {e2.value:.4f} vs half of {e1.value:.4f} "
            f"(3se {3 * se:.4f})",
        )

    def test_replica_moment_identity(self):
        N, alpha, beta, k = 100, 1.0, 0.5, 3
        cfg = ForwardConfig(N=N, alpha=alpha, generations=k)
        rng = RngStream(109, 60)
        reps = 40_000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = math.exp(beta * increments(cfg, rng.substream(r)).sum())
        lhs, lhs_se = vals.mean(), vals.std(ddof=1) / math.sqrt(reps)
        aux = RngStream(109, 61)
        f1 = aux.gen.gamma(N + 1, size=100_000) ** (-beta / alpha)
        f2 = (1.0 / aux.uniform_open((100_000, N))).sum(axis=1) ** (beta / alpha)
        m1, m2 = f1.mean(), f2.mean()
        rhs = (m1 * m2) ** k
        rhs_se = rhs * k * math.hypot(
            f1.std(ddof=1) / math.sqrt(f1.size) / m1,
            f2.std(ddof=1) / math.sqrt(f2.size) / m2,
        )
        _verdict(
            9,
            abs(lhs - rhs) < 3 * math.hypot(lhs_se, rhs_se),
            f"k-step bias-moment factorization: {lhs:.4f} vs {rhs:.4f} "
            f"(3se {3 * math.hypot(lhs_se, rhs_se):.4f})",
        )

    def test_fittest_ratio_laws(self):
        cfg = ForwardConfig(N=100, alpha=2.0, generations=1)
        st = fittest_stats(cfg, 400_000, RngStream(109, 70))
        tau1 = RngStream(109, 70).gen.standard_exponential(400_000)
        med_se = _median_se(tau1 ** -0.5)
        med_ok = abs(st.median_ratio - math.log(2.0) ** -0.5) < 3 * med_se
        mean_ok = abs(st.mean_ratio - math.sqrt(math.pi)) < 3 * st.mean_stderr
        _verdict(
            9,
            med_ok and mean_ok,
            f"fittest/global ratio: median {st.median_ratio:.4f} "
            f"(target {math.log(2.0) ** -0.5:.4f}), mean {st.mean_ratio:.4f} "
            f"(target {math.sqrt(math.pi):.4f})",
        )


class TestCriterion10GenealogyCorrespondence:
    """The forward model's genealogy, read from its own selected fitnesses
    (one explicit generation per replica), against the segment model."""

    N = 2000
    REPS = 50_000

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_plain_sampling_is_alpha_free(self, alpha):
        est = forward_genealogy_c_N(
            alpha, self.N, "plain", self.REPS, RngStream(110, int(alpha * 10))
        )
        ref = estimate_c_N_conditional(
            PartitionModel.pareto(1.0, self.N), self.REPS, RngStream(110, 99)
        )
        se = math.hypot(est.stderr, ref.stderr)
        _verdict(
            10,
            abs(est.value - ref.value) < 3 * se,
            f"plain sampling at alpha={alpha}: c={est.value:.5f} vs "
            f"unit-tail segment model {ref.value:.5f} (3se {3 * se:.5f})",
        )

    def test_distorted_sampling_recovers_tail_index(self):
        est = forward_genealogy_c_N(
            1.5, self.N, "distorted", self.REPS, RngStream(110, 20)
        )
        ref = estimate_c_N_conditional(
            PartitionModel.pareto(1.5, self.N), self.REPS, RngStream(110, 98)
        )
        se = math.hypot(est.stderr, ref.stderr)
        _verdict(
            10,
            abs(est.value - ref.value) < 3 * se,
            f"distorted sampling at alpha=1.5: c={est.value:.5f} vs segment "
            f"model {ref.value:.5f} (3se {3 * se:.5f})",
        )


class TestCriterion11Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        runs = [
            ["finite-mc", "--alpha", "0.5", "--N", "1000", "--replicas",
             "20000", "--seed", "42"],
            ["scaling-fit", "--alpha", "3", "--N-grid", "100,316,1000,3162",
             "--replicas", "3000", "--seed", "42"],
            ["simulate", "--family", "kingman", "--N", "20", "--replicas",
             "2000", "--seed", "42"],
            ["gclt", "--alpha", "1", "--N", "1000", "--replicas", "2000",
             "--seed", "42"],
        ]
        ok = True
        for idx, args in enumerate(runs):
            a = tmp_path / f"a{idx}.csv"
            b = tmp_path / f"b{idx}.csv"
            assert main([*args, "--out", str(a)]) == 0
            assert main([*args, "--out", str(b)]) == 0
            ok = ok and a.read_bytes() == b.read_bytes()
        _verdict(11, ok, "re-running every CSV command with a fixed seed is byte-identical")
