import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    first_step_means,
    kingman_row,
    kingman_tagged_branch_exact,
    lambda_row_betaln,
)
from paretocoal.rates import Params, jump_rates
from paretocoal import finite_mc, samplers, simulate
from paretocoal.samplers import RngStream
from paretocoal.simulate import (
    functional_scaling_report,
    kingman_functionals,
    _merger_size,
    simulate_lambda,
    simulate_xi,
)
from paretocoal.rates import xi_transition_matrix

KINGMAN = Params(3.0, 0.0)


class TestSimulateLambda:
    def test_two_blocks_single_jump(self):
        heights = np.empty(4000)
        rng = RngStream(50)
        for r in range(heights.size):
            traj, fn = simulate_lambda(KINGMAN, 2, rng)
            assert fn.collisions == 1
            assert fn.total_length == pytest.approx(fn.external_length)
            assert fn.total_length == pytest.approx(2 * fn.height)
            heights[r] = fn.height
        se = heights.std(ddof=1) / math.sqrt(heights.size)
        assert abs(heights.mean() - 1.0) < 3 * se

    def test_binary_merger_collision_count_deterministic(self):
        rng = RngStream(51)
        for n0 in (2, 7, 20):
            for _ in range(20):
                _, fn = simulate_lambda(KINGMAN, n0, rng)
                assert fn.collisions == n0 - 1

    def test_mean_height_near_two(self):
        rng = RngStream(52)
        h = np.array(
            [simulate_lambda(KINGMAN, 20, rng)[1].height
             for _ in range(4000)]
        )
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - 1.9) < 3 * se

    def test_trajectory_shape(self):
        path, fn = simulate_lambda(Params(1.5, 0.0), 12, RngStream(53))
        times, blocks = path
        assert blocks[0] == 12 and blocks[-1] == 1
        assert all(b2 < b1 for b1, b2 in zip(blocks, blocks[1:]))
        assert times[0] == 0.0 and fn.collisions == len(times) - 1
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert fn.height == pytest.approx(times[-1])
        assert fn.external_length <= fn.total_length
        assert fn.height <= fn.total_length

    def test_one_step_distribution_matches_rates(self):
        params = Params(1.5, 0.0)
        i = 6
        reps = 30_000
        rng = RngStream(54)
        first_jump = np.empty(reps, dtype=int)
        for r in range(reps):
            (_, blocks), _ = simulate_lambda(params, i, rng)
            first_jump[r] = blocks[1]
        row = lambda_row_betaln(params.alpha, params.beta, i)
        probs = row / row.sum()
        for j in range(1, i):
            freq = (first_jump == j).mean()
            se = math.sqrt(probs[j - 1] * (1 - probs[j - 1]) / reps)
            assert abs(freq - probs[j - 1]) < 3.5 * se

    def test_tagged_branch_matches_recursion(self):
        # Two independent oracles for the mean tagged external branch:
        # the first-step recursion evaluated exactly, and its closed form
        # 2/i for the binary-merger family.
        rng = RngStream(55)
        for i in (4, 7, 10):
            exact = kingman_tagged_branch_exact(i)
            assert exact == pytest.approx(2.0 / i, rel=1e-12)
            vals = np.array(
                [simulate_lambda(KINGMAN, i, rng)[1]
                 .random_external_branch for _ in range(20_000)]
            )
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - exact) < 3 * se

    def test_requires_rates_table(self):
        with pytest.raises(ValueError, match="xi regime"):
            simulate_lambda(Params(0.5, 0.0), 3, RngStream(0))

    def test_n0_bounds(self):
        for n0 in (1, 0):
            with pytest.raises(ValueError, match="n0 >= 2"):
                simulate_lambda(KINGMAN, n0, RngStream(0))

    def test_event_guard(self, monkeypatch):
        # n0 - 1 bounds the events, so n0 is refused before any draw.
        monkeypatch.setattr(simulate, "_MAX_EVENTS", 1)
        rng = RngStream(56)
        with pytest.raises(ValueError, match="n0"):
            simulate_lambda(Params(1.5, 0.0), 30, rng)
        with pytest.raises(ValueError, match="n0"):
            kingman_functionals(30, 10, rng)
        assert rng._gen is None and rng._seq is None
        simulate_lambda(Params(1.5, 0.0), 2, rng)  # one event is allowed

    def test_scan_is_the_row_inverse_cdf(self):
        # The complemented uniform picks the same j as a search of the
        # cumulative betaln row would pick with u itself.
        us = np.random.default_rng(0).random(500)
        for params in (Params(1.5, 0.3), Params(1.0, 0.0), Params(1.9, -2.0)):
            total, binary = jump_rates(params, 60)
            a, ab = params.alpha, params.alpha - params.beta
            for i in (2, 3, 9, 60):
                cum = np.cumsum(lambda_row_betaln(params.alpha, params.beta, i))
                for u in us:
                    j = int(np.searchsorted(cum, u * cum[-1], side="right")) + 1
                    j = min(j, i - 1)
                    k = _merger_size(i, binary[i], (1.0 - u) * total[i], a, ab)
                    assert i - k + 1 == j

    @pytest.mark.parametrize(
        "params, seed",
        [(Params(1.5, 0.3), 67), (Params(1.0, 0.0), 68), (KINGMAN, 69)],
    )
    def test_functionals_match_first_step_means(self, params, seed):
        n0, reps = 50, 20_000
        if params.regime == "kingman":
            exact = first_step_means(kingman_row, n0)
        else:
            exact = first_step_means(
                lambda i: lambda_row_betaln(params.alpha, params.beta, i), n0
            )
        rng = RngStream(seed)
        fns = [
            simulate_lambda(params, n0, rng)[1]
            for _ in range(reps)
        ]
        for name, want in exact.items():
            vals = np.array([getattr(fn, name) for fn in fns], dtype=float)
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - want) < 4.5 * max(se, 1e-12), name

    def test_every_alpha_from_two_is_one_process(self):
        # alpha >= 2 runs the recursion at its alpha = 2 end whatever beta
        # is, so one seed gives one tree.
        runs = [
            simulate_lambda(p, 30, RngStream(72))
            for p in (Params(2.0, 0.0), Params(2.0, 29.0), Params(3.0, -3.0),
                      Params(50.0, 5.0))
        ]
        assert all(run == runs[0] for run in runs)

    def test_memory_stays_linear_in_n0(self):
        # No rate row per visited block count: from 10^5 blocks the
        # simulator holds O(n0) doubles, about 2 MB.
        rng = RngStream(70)
        tracemalloc.start()
        try:
            _, fn = simulate_lambda(Params(1.5, 0.0), 10**5, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fn.collisions > 0
        assert peak < 32 * 2**20


class TestKingmanBatch:
    def test_matches_generic_simulator(self):
        n0, reps = 10, 20_000
        batch = kingman_functionals(n0, reps, RngStream(57))
        rng = RngStream(58)
        gen = {k: np.empty(reps) for k in batch}
        for r in range(reps):
            _, fn = simulate_lambda(KINGMAN, n0, rng)
            gen["height"][r] = fn.height
            gen["total_length"][r] = fn.total_length
            gen["external_length"][r] = fn.external_length
            gen["collisions"][r] = fn.collisions
            gen["random_external_branch"][r] = fn.random_external_branch
        for key in batch:
            a, b = batch[key], gen[key]
            se = math.hypot(
                a.std(ddof=1) / math.sqrt(reps), b.std(ddof=1) / math.sqrt(reps)
            )
            assert abs(a.mean() - b.mean()) <= max(3 * se, 1e-12), key

    def test_collisions_constant(self):
        batch = kingman_functionals(15, 100, RngStream(59))
        assert np.all(batch["collisions"] == 14)

    def test_batches_bound_memory(self, monkeypatch):
        # All holding times at once would be 2000 x 199 doubles (3.2 MB);
        # blocks of about 2^12 draws leave the five output arrays (80 kB).
        monkeypatch.setattr(samplers, "_BLOCK_ELEMENTS", 1 << 12)
        tracemalloc.start()
        try:
            batch = kingman_functionals(200, 2000, RngStream(71))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.all(batch["collisions"] == 199)
        vals = batch["random_external_branch"]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.01) < 3 * se  # 2/200

    def test_tagged_mean(self):
        batch = kingman_functionals(8, 50_000, RngStream(60))
        vals = batch["random_external_branch"]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.25) < 3 * se  # 2/8


class TestSimulateXi:
    def test_absorbed_immediately(self):
        m = xi_transition_matrix(Params(0.5, 0.0), 5)
        traj, fn = simulate_xi(m, 1, RngStream(61))
        assert fn.steps == 0 and fn.collisions == 0
        assert len(traj) == 1

    def test_geometric_absorption_from_two(self):
        m = xi_transition_matrix(Params(0.5, 0.0), 3)
        rng = RngStream(62)
        steps = np.array([simulate_xi(m, 2, rng)[1].steps for _ in range(20_000)])
        se = steps.std(ddof=1) / math.sqrt(steps.size)
        assert abs(steps.mean() - 2.0) < 3 * se

    def test_non_increasing_blocks(self):
        m = xi_transition_matrix(Params(0.7, 0.0), 12)
        blocks, fn = simulate_xi(m, 12, RngStream(63))
        assert all(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:]))
        assert blocks[-1] == 1
        assert fn.steps == len(blocks) - 1
        falls = sum(b2 < b1 for b1, b2 in zip(blocks, blocks[1:]))
        assert fn.collisions == falls <= fn.steps

    def test_step_cap_raises(self, monkeypatch):
        # From 10 blocks at alpha = 0.999 absorption takes about 400 steps.
        monkeypatch.setattr(finite_mc, "_MAX_STEPS", 50)
        m = xi_transition_matrix(Params(0.999, 0.0), 10)
        with pytest.raises(RuntimeError, match="chain exceeded 50 steps"):
            simulate_xi(m, 10, RngStream(64))


class TestFunctionalReport:
    def test_kingman_report_values(self):
        rows = functional_scaling_report("kingman", [50], 3000, RngStream(64))
        by_name = {r.functional: r for r in rows}
        assert abs(by_name["external_length"].mean - 2.0) / 2.0 < 0.15
        assert 0.7 < by_name["total_length"].ratio < 1.3
        assert by_name["collisions"].mean == pytest.approx(49.0)
        assert by_name["height"].reference == pytest.approx(2.0 * (1 - 1 / 50))

    def test_kingman_tagged_branch_reference_is_exact_mean(self):
        # A random external branch of Kingman's coalescent from n0 blocks
        # has mean exactly 2/n0, so the ratio sits at 1 within noise.
        rows = functional_scaling_report("kingman", [50, 200], 3000, RngStream(67))
        for r in rows:
            if r.functional != "random_external_branch":
                continue
            assert r.reference == pytest.approx(2.0 / r.n0, rel=1e-15)
            assert r.reference == pytest.approx(kingman_tagged_branch_exact(r.n0))
            assert abs(r.ratio - 1.0) < 3 * r.stderr / r.reference

    def test_bs_report_runs(self):
        rows = functional_scaling_report("bs", [60, 120], 300, RngStream(65))
        ratios = {
            (r.n0, r.functional): r.ratio for r in rows if r.ratio is not None
        }
        assert (60, "collisions") in ratios
        assert all(np.isfinite(v) for v in ratios.values())

    def test_beta_family_needs_alpha(self):
        with pytest.raises(ValueError):
            functional_scaling_report("beta", [10], 10, RngStream(0))

    def test_beta_family_report(self):
        rows = functional_scaling_report(
            "beta", [40], 400, RngStream(66), alpha=1.5
        )
        by_name = {r.functional: r for r in rows}
        assert by_name["total_length"].reference == pytest.approx(40**0.5)
        assert by_name["height"].reference is None
        assert by_name["external_length"].mean <= by_name["total_length"].mean
