"""Independent correctness references for the benchmark jobs.

Nothing here calls the scmech solver, verifier or revenue code: CDFs are
written out in closed form, revenues are summed from the step structure,
incentive compatibility is judged with the family's utility function, and
optimal revenues come from analysis or the benchmark's own dense grids.
"""

from __future__ import annotations

import functools

import numpy as np

TOL_REVENUE = 1e-3  # acceptance tolerance on optimal revenue (criteria 1, 2)
TOL_IC = 1e-7       # utility gain attributed to round-off

# Problems with this prefix are the documented red acceptance criterion 7:
# they count in wrong_ratio but are the only ones that leave `correct` true.
KNOWN_RED = "known-red criterion 7"


def dist_cdf(spec):
    """Closed-form CDF of a ("uniform", lo, hi) or ("beta", 2, 3) spec."""
    name, a, b = spec
    if name == "uniform":
        return lambda x: np.clip((np.asarray(x, float) - a) / (b - a), 0.0, 1.0)
    if (name, a, b) == ("beta", 2.0, 3.0):
        def cdf(x):  # integral of 12 x (1 - x)**2
            x = np.clip(np.asarray(x, float), 0.0, 1.0)
            return x * x * (6.0 - 8.0 * x + 3.0 * x * x)
        return cdf
    raise ValueError(f"no closed-form CDF for {spec}")


def support(spec):
    return (0.0, 1.0) if spec[0] == "beta" else (spec[1], spec[2])


def step_revenue(bundles, breakpoints, spec, mode="payment") -> float:
    """Expected revenue of a step mechanism, summed segment by segment."""
    lo, hi = support(spec)
    cdf = dist_cdf(spec)
    edges = np.clip([lo, *breakpoints, hi], lo, hi)
    mass = np.maximum(np.diff(cdf(edges)), 0.0)
    b = np.asarray(bundles, float)
    rev = b[:, 0] if mode == "payment" else b[:, 0] * b[:, 1]
    return float(np.dot(rev, mass))


@functools.lru_cache(maxsize=None)
def posted_price_optimum(spec, n=200_001):
    """max over a dense price grid of p * (1 - F(p)); returns (revenue, price)."""
    lo, hi = support(spec)
    p = np.linspace(lo, hi, n)
    rev = p * (1.0 - dist_cdf(spec)(p))
    i = int(np.argmax(rev))
    return float(rev[i]), float(p[i])


@functools.lru_cache(maxsize=None)
def risk_averse_three_bundle_optimum(lo=0.1, hi=1.0, n=801):
    """Best expected payment of a range {(0,0), z1, z2} for q*sqrt(r - t)
    under U[lo, hi], by a dense grid over the two switching types.

    With z1 entered at theta1 from (0,0), binding indifference gives
    t1 = theta1; z2 entered at theta2 gives
    t2 = theta2 - (q1/q2)**2 (theta2 - theta1).  Expected payment is
    increasing in q2, so q2 = 1, and it is concave in q1 with maximizer
    theta1 / (2 (1 - theta2)), clipped to [0, 1].
    """
    th = np.linspace(lo, hi, n)
    t1, t2 = np.meshgrid(th, th, indexing="ij")
    valid = t2 >= t1
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.clip(np.where(t2 < hi, t1 / (2.0 * (hi - t2)), 1.0), 0.0, 1.0)
    rev = (q1 * t1 * (t2 - t1) + (t2 - q1 * q1 * (t2 - t1)) * (hi - t2)) / (hi - lo)
    return float(np.max(np.where(valid, rev, -np.inf)))


def allocation(bundles, breakpoints, grid):
    """Bundle index allocated at each grid type: the tie at a breakpoint
    goes to the higher bundle."""
    return np.searchsorted(np.asarray(breakpoints, float),
                           np.asarray(grid, float), side="right")


def utility_ic_problems(domain, bundles, breakpoints, grid, ir=False):
    """Grid incentive (and optionally participation) check in utility units.

    For restricted families a deviation to an unaffordable bundle is outside
    the definition and is skipped, as in the paper.
    """
    fam = domain.family
    b = np.asarray(bundles, float)
    grid = np.asarray(grid, float)
    k = allocation(b, breakpoints, grid)
    offered = np.unique(k)
    t, q = b[offered, 0], b[offered, 1]
    problems = []
    for r, ki in zip(grid, k):
        own_t, own_q = b[ki]
        if domain.restricted and own_t > r + 1e-12:
            problems.append(f"type {r:.6g} allocated unaffordable payment {own_t:.6g}")
            continue
        own = float(fam.utility(r, own_t, own_q))
        u = np.asarray(fam.utility(r, t, q), float)
        if domain.restricted:
            u = u[t <= r + 1e-12]
        scale = max(1.0, abs(own))
        gain = float(np.max(u)) - own
        if gain > TOL_IC * scale:
            problems.append(f"IC: type {r:.6g} gains {gain:.3g} by misreporting")
        if ir and float(fam.utility(r, 0.0, 0.0)) - own > TOL_IC * scale:
            problems.append(f"IR: type {r:.6g} prefers to walk away")
        if len(problems) >= 3:
            break
    return problems


def close(name, value, ref, tol):
    if abs(value - ref) > tol:
        return [f"{name} {value!r} differs from {ref!r} by more than {tol:g}"]
    return []
