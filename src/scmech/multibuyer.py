"""Symmetric multi-buyer extension of the posted-price optimum.

One unit is sold to at most one buyer.  A buyer with a strictly lower type
than some opponent gets nothing; the unique highest type above the reserve
wins everything and pays the larger of the reserve and the second-highest
type.  Exact ties split the win probability (and the expected payment)
equally.  With types drawn i.i.d. this is the dominant-strategy optimal
auction for linear values, i.e. a second-price auction with reserve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import Bundle
from .errors import DomainError
from .measure import TypeDistribution, monopoly_price

_CHUNK = 1 << 18  # fixed sampling granularity: an estimate depends only on
                  # the seed and the sample count


@dataclass(frozen=True)
class MultiBuyerMechanism:
    n: int
    reserve: float
    dist: TypeDistribution

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one buyer")
        if not (self.dist.lo <= self.reserve <= self.dist.hi):
            raise DomainError(
                f"reserve {self.reserve} outside the type support "
                f"[{self.dist.lo}, {self.dist.hi}]"
            )


def from_distribution(n: int, dist: TypeDistribution) -> MultiBuyerMechanism:
    """Reserve at the monopoly price, the maximizer of
    ``theta * (1 - cdf(theta))``.  The ironed virtual value crosses zero
    there, so it is the optimal reserve for every i.i.d. distribution,
    regular or not."""
    return MultiBuyerMechanism(n, monopoly_price(dist), dist)


def allocate(mech: MultiBuyerMechanism, profile: Sequence[float]) -> list[Bundle]:
    """Per-buyer (payment, win probability) at one reported type profile."""
    types = [float(x) for x in profile]
    if len(types) != mech.n:
        raise DomainError(f"profile has {len(types)} types, mechanism has n={mech.n}")
    if not types:
        raise DomainError("profile must be nonempty")
    top = max(types)
    if top <= mech.reserve:
        return [Bundle(0.0, 0.0)] * mech.n
    winners = [i for i, x in enumerate(types) if x == top]
    second = max((x for i, x in enumerate(types) if i not in winners),
                 default=-math.inf)
    if len(winners) > 1:
        price = top  # tied winners are each other's second-highest
    else:
        price = max(mech.reserve, second)
    share = 1.0 / len(winners)
    out = [Bundle(0.0, 0.0)] * mech.n
    for i in winners:
        out[i] = Bundle(price * share, share)
    return out


def allocate_profiles(mech: MultiBuyerMechanism, profiles: np.ndarray):
    """Vectorized :func:`allocate` over a ``(samples, n)`` type matrix.

    Returns ``(t, q)`` matrices of the same shape.
    """
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != mech.n:
        raise DomainError(f"profiles must have shape (samples, {mech.n})")
    top = profiles.max(axis=1, keepdims=True)
    is_top = profiles == top
    n_top = is_top.sum(axis=1, keepdims=True)
    sells = top > mech.reserve
    if mech.n == 1:
        second = np.full_like(top, -np.inf)
    else:
        second = np.partition(profiles, -2, axis=1)[:, -2:-1]
    price = np.where(n_top > 1, top, np.maximum(mech.reserve, second))
    share = np.where(sells & is_top, 1.0 / n_top, 0.0)
    t = price * share
    q = share
    return np.where(sells, t, 0.0), np.where(sells, q, 0.0)


def simulate_revenue(mech: MultiBuyerMechanism, samples: int,
                     seed: int = 0) -> tuple[float, float]:
    """Monte Carlo expected total payment with its standard error.

    Types are drawn by inverse-CDF sampling in fixed-size chunks with
    seeds spawned from ``seed``, so the estimate depends only on the seed
    and the sample count.
    """
    if samples < 1:
        raise DomainError("samples must be at least 1")
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    done = 0
    for chunk_seed in seeds:
        count = min(_CHUNK, samples - done)
        rng = np.random.default_rng(chunk_seed)
        u = rng.random((count, mech.n))
        profiles = np.asarray(mech.dist.ppf(u))
        t, _ = allocate_profiles(mech, profiles)
        rev = t.sum(axis=1)
        total += float(rev.sum())
        total_sq += float((rev * rev).sum())
        done += count
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return mean, stderr
