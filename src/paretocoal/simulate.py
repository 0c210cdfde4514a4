"""Simulation of the limiting coalescents and their tree functionals.

The continuous-time multiple-merger process is simulated at block-count
level from ratio recursions of its rates (holding time exponential in the
total rate, merger size drawn by an inverse-CDF scan); the discrete
simultaneous-merger chain is sampled row-wise from its exact transition
matrix. Alongside the block trajectory we accumulate tree height, total
and external branch length, collision count, and the length of one tagged
external branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_mc import BlockState
from .rates import Params, _beta_moments
from .samplers import RngStream
from .weighted import mean_estimate

_MAX_EVENTS = 10_000_000


@dataclass(frozen=True)
class TreeFunctionals:
    height: float
    total_length: float
    external_length: float
    collisions: int
    random_external_branch: float


@dataclass(frozen=True)
class DiscreteFunctionals:
    steps: int
    collisions: int


def _jump_rates(params: Params, n0: int) -> tuple[memoryview, memoryview]:
    """Total rates lambda_i and binary-merger rates lambda_(i,2), i <= n0.

    Index i holds block count i (entries 0 and 1 are unused); both come
    from partial sums of rates._beta_moments, so no rate row is built.
    Memoryviews index to plain floats without a per-entry object.
    """
    i = np.arange(n0 + 1, dtype=float)
    if params.regime in ("critical", "kingman"):
        pairs = memoryview(i * (i - 1.0) / 2.0)
        return pairs, pairs
    moments = _beta_moments(params, n0 - 2)
    total = np.ones(n0 + 1)
    total[3:] += np.cumsum(i[2:-1] * moments[1:])
    binary = np.zeros(n0 + 1)
    binary[2:] = i[2:] * (i[2:] - 1.0) / 2.0 * moments
    return memoryview(total), memoryview(binary)


def _merger_size(
    i: int, first: float, target: float, a: float, ab: float
) -> int:
    """Smallest k whose rates lambda_(i,2..k) sum to at least target.

    Scans k = 2, 3, .. with lambda_(i,k+1)/lambda_(i,k) =
    (i-k)(k-alpha) / ((k+1)(i-k-1+alpha-beta)), ab = alpha - beta; a
    rounding shortfall at the top stops at k = i.
    """
    k = 2
    term = first
    acc = first
    while acc < target and k < i:
        term *= (i - k) * (k - a) / ((k + 1) * (i - k - 1 + ab))
        acc += term
        k += 1
    return k


def simulate_lambda(
    params: Params,
    n0: int,
    rng: RngStream,
    max_events: int = _MAX_EVENTS,
    record_trajectory: bool = True,
) -> tuple[tuple[BlockState, ...], TreeFunctionals]:
    """One continuous-time trajectory from n0 blocks down to 1.

    params picks the beta(2-alpha, alpha-beta) multiple-merger rates
    (alpha in [1, 2)) or binary mergers (alpha >= 2). The merger size is
    drawn by inverse CDF from the ratio recursion of _merger_size, so the
    work per event is O(merger size) and no rate row is kept. Singleton
    blocks are tracked separately so external branch length is exact: the
    number of singletons joining each collision is hypergeometric among
    the blocks, which is the exchangeability-consistent allocation.
    """
    if params.regime == "xi":
        raise ValueError("simulate_lambda needs alpha >= 1 (xi regime given)")
    if n0 < 2:
        raise ValueError("n0 >= 2 required")
    total, binary = _jump_rates(params, n0)
    a, ab = params.alpha, params.alpha - params.beta
    gen = rng.gen
    i = n0
    singles = n0
    tagged_alive = True
    t = 0.0
    total_len = 0.0
    ext_len = 0.0
    tagged_len = 0.0
    collisions = 0
    states = [BlockState(0.0, n0)] if record_trajectory else None
    while i > 1:
        if collisions >= max_events:
            raise RuntimeError(f"trajectory exceeded {max_events} events")
        lam = total[i]
        hold = gen.standard_exponential() / lam
        t += hold
        total_len += i * hold
        ext_len += singles * hold
        if tagged_alive:
            tagged_len += hold
        # The complemented uniform scans from the binary end of the row;
        # with binary mergers only, binary[i] == lam stops the scan at k = 2.
        target = (1.0 - gen.random()) * lam
        k = _merger_size(i, binary[i], target, a, ab)
        m = int(gen.hypergeometric(singles, i - singles, k)) if singles else 0
        if tagged_alive and m and gen.random() * singles < m:
            tagged_alive = False
        singles -= m
        i -= k - 1
        collisions += 1
        if record_trajectory:
            states.append(BlockState(t, i))
    fn = TreeFunctionals(
        height=t,
        total_length=total_len,
        external_length=ext_len,
        collisions=collisions,
        random_external_branch=tagged_len,
    )
    return (tuple(states) if record_trajectory else (), fn)


def simulate_xi(
    matrix,
    n0: int,
    rng: RngStream,
    max_steps: int = _MAX_EVENTS,
) -> tuple[tuple[BlockState, ...], DiscreteFunctionals]:
    """Discrete chain from the exact transition matrix until absorption."""
    if matrix.kind != "probabilities":
        raise ValueError("simulate_xi needs a probabilities-kind table")
    if not 1 <= n0 <= matrix.i_max:
        raise ValueError(f"need 1 <= n0 <= i_max ({matrix.i_max})")
    gen = rng.gen
    cums: dict[int, np.ndarray] = {}
    i = n0
    steps = 0
    collisions = 0
    states = [BlockState(0.0, n0)]
    while i > 1:
        if steps >= max_steps:
            raise RuntimeError(f"chain exceeded {max_steps} steps")
        cum = cums.get(i)
        if cum is None:
            cum = np.cumsum(matrix.row(i))
            cums[i] = cum
        j = min(
            int(np.searchsorted(cum, gen.random() * cum[-1], side="right")) + 1,
            i,
        )
        steps += 1
        if j < i:
            collisions += 1
            i = j
        states.append(BlockState(float(steps), i))
    return tuple(states), DiscreteFunctionals(steps=steps, collisions=collisions)


def kingman_functionals(
    n0: int, replicas: int, rng: RngStream
) -> dict[str, np.ndarray]:
    """Vectorized batch of Kingman trajectories (binary mergers only).

    The block chain is deterministic (i -> i-1), so all replicas advance in
    lockstep and every functional reduces to array operations.
    """
    if n0 < 2:
        raise ValueError("n0 >= 2 required")
    gen = rng.gen
    ivals = np.arange(n0, 1, -1, dtype=float)
    lam = ivals * (ivals - 1.0) / 2.0
    T = gen.standard_exponential((replicas, n0 - 1)) / lam[None, :]
    height = T.sum(axis=1)
    total = T @ ivals
    singles = np.full(replicas, n0, dtype=float)
    alive = np.ones(replicas, dtype=bool)
    ext = np.zeros(replicas)
    tagged = np.zeros(replicas)
    for step, i in enumerate(ivals):
        t = T[:, step]
        ext += singles * t
        tagged += np.where(alive, t, 0.0)
        pairs = i * (i - 1.0) / 2.0
        p2 = singles * (singles - 1.0) / 2.0 / pairs
        p1 = singles * (i - singles) / pairs
        u = gen.random(replicas)
        m = np.where(u < p2, 2.0, np.where(u < p2 + p1, 1.0, 0.0))
        u2 = gen.random(replicas)
        dies = alive & (u2 * np.maximum(singles, 1.0) < m)
        alive &= ~dies
        singles -= m
    return {
        "height": height,
        "total_length": total,
        "external_length": ext,
        "collisions": np.full(replicas, n0 - 1, dtype=float),
        "random_external_branch": tagged,
    }


_FUNCTIONALS = (
    "height",
    "total_length",
    "external_length",
    "collisions",
    "random_external_branch",
)


def _asymptotic_reference(family: str, alpha: float | None, n0: int):
    logn = math.log(n0)
    if family == "kingman":
        return {
            "height": 2.0 * (1.0 - 1.0 / n0),
            "total_length": 2.0 * logn,
            "external_length": 2.0,
            "collisions": float(n0 - 1),
            "random_external_branch": 1.0 / n0,
        }
    if family == "bs":
        return {
            "height": math.log(logn),
            "total_length": n0 / logn,
            "external_length": None,
            "collisions": n0 / logn,
            "random_external_branch": 1.0 / logn,
        }
    # beta family, alpha in (1, 2): lengths scale like n0^(2 - alpha).
    return {
        "height": None,
        "total_length": n0 ** (2.0 - alpha),
        "external_length": n0 ** (2.0 - alpha),
        "collisions": None,
        "random_external_branch": n0 ** (1.0 - alpha),
    }


@dataclass(frozen=True)
class FunctionalReportRow:
    family: str
    n0: int
    functional: str
    mean: float
    stderr: float
    reference: float | None
    ratio: float | None


def functional_scaling_report(
    family: str,
    sizes: list[int],
    replicas: int,
    rng: RngStream,
    alpha: float | None = None,
    beta: float = 0.0,
) -> list[FunctionalReportRow]:
    """Empirical functional means against their leading-order growth laws.

    family is "kingman", "bs" (alpha = 1), or "beta" (needs alpha in (1,2)).
    The ratio column divides the empirical mean by the reference expression,
    so trend checks can require it to be stable or drift toward a constant.
    """
    if replicas < 2:
        raise ValueError(f"replicas >= 2 required, got {replicas}")
    if family == "beta":
        if alpha is None or not 1.0 < alpha < 2.0:
            raise ValueError("beta family requires alpha in (1, 2)")
        params = Params(alpha, beta)
    elif family == "bs":
        params = Params(1.0, beta)
    elif family != "kingman":
        raise ValueError(f"unknown family {family!r}")

    rows: list[FunctionalReportRow] = []
    for idx, n0 in enumerate(sorted(sizes)):
        stream = rng.substream(idx)
        if family == "kingman":
            samples = kingman_functionals(n0, replicas, stream)
        else:
            acc = {name: np.empty(replicas) for name in _FUNCTIONALS}
            for r in range(replicas):
                _, fn = simulate_lambda(
                    params, n0, stream, record_trajectory=False
                )
                for name in _FUNCTIONALS:
                    acc[name][r] = getattr(fn, name)
            samples = acc
        refs = _asymptotic_reference(family, alpha, n0)
        for name in _FUNCTIONALS:
            est = mean_estimate(samples[name])
            ref = refs[name]
            rows.append(
                FunctionalReportRow(
                    family=family,
                    n0=n0,
                    functional=name,
                    mean=est.value,
                    stderr=est.stderr,
                    reference=ref,
                    ratio=(est.value / ref) if ref else None,
                )
            )
    return rows
