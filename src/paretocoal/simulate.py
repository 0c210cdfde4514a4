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
from dataclasses import dataclass, fields

import numpy as np

from .finite_mc import absorb
from .rates import Params, beta_shape, jump_rates
from .samplers import RngStream, replica_blocks
from .weighted import mean_estimate

# Cap on the events of one Lambda or Kingman run. Each event merges at
# least two blocks, so n0 - 1 bounds the events and n0 is checked before
# anything is allocated.
_MAX_EVENTS = 10_000_000


def _check_n0(n0: int) -> None:
    if n0 < 2:
        raise ValueError("n0 >= 2 required")
    if n0 - 1 > _MAX_EVENTS:
        raise ValueError(f"n0 must be at most {_MAX_EVENTS + 1}, got {n0}")


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
    params: Params, n0: int, rng: RngStream
) -> tuple[tuple[list[float], list[int]], TreeFunctionals]:
    """One continuous-time trajectory from n0 blocks down to 1.

    Returns the times and block counts of its events, time 0 first, and
    its tree functionals.

    params picks the beta(2-alpha, alpha-beta) multiple-merger rates
    (alpha in [1, 2)) or binary mergers (alpha >= 2, the recursion's
    alpha = 2 end). The merger size is drawn by inverse CDF from the
    ratio recursion of _merger_size, with (a, b) from rates.beta_shape, so
    the work per event is O(merger size) and no rate row is kept. Singleton
    blocks are tracked separately so external branch length is exact: the
    number of singletons joining each collision is hypergeometric among
    the blocks, which is the exchangeability-consistent allocation.
    """
    _check_n0(n0)
    total, binary = jump_rates(params, n0)
    a, b = beta_shape(params)
    ab = a - b
    gen = rng.gen
    i = n0
    singles = n0
    tagged_alive = True
    t = 0.0
    total_len = 0.0
    ext_len = 0.0
    tagged_len = 0.0
    times, blocks = [t], [i]
    while i > 1:
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
        times.append(t)
        blocks.append(i)
    fn = TreeFunctionals(
        height=t,
        total_length=total_len,
        external_length=ext_len,
        collisions=len(blocks) - 1,
        random_external_branch=tagged_len,
    )
    return (times, blocks), fn


def simulate_xi(
    matrix, n0: int, rng: RngStream
) -> tuple[list[int], DiscreteFunctionals]:
    """Discrete chain from the exact transition matrix until absorption.

    Returns the block counts at steps 0, 1, .. and the step and collision
    counts; the chain runs through finite_mc.absorb and its step cap.
    """
    if matrix.kind != "probabilities":
        raise ValueError("simulate_xi needs a probabilities-kind table")
    if not 1 <= n0 <= matrix.i_max:
        raise ValueError(f"need 1 <= n0 <= i_max ({matrix.i_max})")
    gen = rng.gen
    cums: dict[int, np.ndarray] = {}
    def step(i: int) -> int:
        cum = cums.get(i)
        if cum is None:
            cum = cums[i] = np.cumsum(matrix.row(i))
        j = int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
        return min(j + 1, i)

    blocks = absorb(n0, step)
    collisions = sum(j < i for i, j in zip(blocks, blocks[1:]))
    return blocks, DiscreteFunctionals(len(blocks) - 1, collisions)


_FUNCTIONALS = tuple(f.name for f in fields(TreeFunctionals))


def kingman_functionals(
    n0: int, replicas: int, rng: RngStream
) -> dict[str, np.ndarray]:
    """Vectorized batch of Kingman trajectories (binary mergers only).

    The block chain is deterministic (i -> i-1), so all replicas advance in
    lockstep and every functional reduces to array operations. Replicas go
    through samplers.replica_blocks, about 2^20 holding times a block.
    """
    _check_n0(n0)
    if replicas < 1:
        raise ValueError("replicas >= 1 required")
    ivals = np.arange(n0, 1, -1, dtype=float)
    lam = ivals * (ivals - 1.0) / 2.0

    def block(size, child, _first):
        gen = child.gen
        T = gen.standard_exponential((size, n0 - 1))
        T /= lam  # in place: one block of holding times, not two
        singles = np.full(size, n0, dtype=float)
        alive = np.ones(size, dtype=bool)
        ext = np.zeros(size)
        tagged = np.zeros(size)
        for step, i in enumerate(ivals):
            t = T[:, step]
            ext += singles * t
            tagged += np.where(alive, t, 0.0)
            pairs = i * (i - 1.0) / 2.0
            p2 = singles * (singles - 1.0) / 2.0 / pairs
            p1 = singles * (i - singles) / pairs
            u = gen.random(size)
            m = np.where(u < p2, 2.0, np.where(u < p2 + p1, 1.0, 0.0))
            u2 = gen.random(size)
            dies = alive & (u2 * np.maximum(singles, 1.0) < m)
            alive &= ~dies
            singles -= m
        return T.sum(axis=1), T @ ivals, ext, tagged

    parts = zip(*replica_blocks(replicas, n0 - 1, rng, block))
    height, total, ext, tagged = map(np.concatenate, parts)
    collisions = np.full(replicas, n0 - 1.0)
    return dict(zip(_FUNCTIONALS, (height, total, ext, collisions, tagged)))


def family_params(family: str, alpha: float | None, beta: float) -> Params:
    """The Params of a continuous-time family name.

    "kingman" is alpha = 2, where the beta measure is the point mass at 0
    (any alpha >= 2 gives the same rates); "bs" is alpha = 1; "beta"
    needs alpha in (1, 2).
    """
    if family == "kingman":
        return Params(2.0, beta)
    if family == "bs":
        return Params(1.0, beta)
    if family == "beta":
        if alpha is None or not 1.0 < alpha < 2.0:
            raise ValueError(f"beta family requires alpha in (1, 2), got {alpha}")
        return Params(alpha, beta)
    raise ValueError(f"unknown family {family!r}")


def _asymptotic_reference(family: str, alpha: float | None, n0: int):
    logn = math.log(n0)
    if family == "kingman":
        return {
            "height": 2.0 * (1.0 - 1.0 / n0),
            "total_length": 2.0 * logn,
            "external_length": 2.0,
            "collisions": float(n0 - 1),
            "random_external_branch": 2.0 / n0,
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
    params = family_params(family, alpha, beta)

    rows: list[FunctionalReportRow] = []
    for n0, stream in zip(sorted(sizes), rng.spawn(len(sizes))):
        if family == "kingman":
            samples = kingman_functionals(n0, replicas, stream)
        else:
            acc = {name: np.empty(replicas) for name in _FUNCTIONALS}
            for r in range(replicas):
                _, fn = simulate_lambda(params, n0, stream)
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
