"""Shared test utilities: random feasible ranges, verification grids and the
closed-form oracle for the epsilon-truncation instance."""

import numpy as np
from scipy.special import polygamma

from scmech.domain import Bundle, ZERO_BUNDLE
from scmech.errors import DomainError, InfeasibleRangeError
from scmech.mechanism import from_range

# The families built by the separable-form factories; with power_q they are
# the single-crossing built-ins.
FACTORY_FAMILIES = ["quasilinear", "sqrt_quasilinear", "income_effect",
                    "payment_param", "two_param", "myerson", "risk_averse"]


def random_feasible_range(domain, rng, max_tries=400, t_hi=2.5):
    """Rejection-sample a strictly diagonal range supportable on ``domain``."""
    for _ in range(max_tries):
        k = int(rng.integers(2, 6))
        ts = np.sort(rng.uniform(0.05, t_hi, k))
        qs = np.sort(rng.uniform(0.02, 1.0, k))
        if np.any(np.diff(ts) < 5e-3) or np.any(np.diff(qs) < 5e-3):
            continue
        bundles = [Bundle(float(t), float(q)) for t, q in zip(ts, qs)]
        if domain.restricted:
            bundles = [ZERO_BUNDLE, *bundles]
        try:
            return from_range(domain, bundles)
        except (DomainError, InfeasibleRangeError):
            continue
    raise RuntimeError(f"no feasible range found for {domain.family.name}")


def same_bits(a, b):
    """Float arrays equal bit for bit, with NaNs (whose payload carries no
    meaning) matched by position."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def grid_around(mech, n=200):
    """Parameter grid spanning the mechanism's breakpoints."""
    domain = mech.domain
    bps = mech.breakpoints or (1.0,)
    lo = max(domain.lo + 1e-9, 0.5 * min(bps))
    hi = 1.3 * max(bps) + 0.1
    if np.isfinite(domain.hi):
        hi = min(hi, domain.hi - 1e-9)
    return np.linspace(lo, hi, n)


# Epsilon-truncation instance: sqrt_quasilinear on [0.2, 1], F uniform on
# [0.2, 1] (density 5/4), types r_n = 2/3 - 1/n (n >= 3) taking the best
# bundle on q = 3t, z_n = (3 r_n**2 / 4, 9 r_n**2 / 4), limit (1/3, 1).
# Adjacent indifference parameters are midpoints (r_a + r_b) / 2.

def truncation_cut_index(eps):
    """Index w of the last tail bundle ``epsilon_truncate`` keeps.

    It is the first w whose entering parameter (0.2 for w = 3, else the
    midpoint of r_{w-1} and r_w) leaves limit payment 1/3 times the
    remaining mass up to 2/3 below ``eps/2``.
    """
    w, entering = 3, 0.2
    while (1 / 3) * (2 / 3 - entering) / 0.8 >= eps / 2:
        w += 1
        entering = 2 / 3 - (1 / (w - 1) + 1 / w) / 2
    return w


def truncation_gap(w):
    """Exact E(countable) - E(truncation) when the tail is cut after z_w.

    Both mechanisms agree below the midpoint of r_w and r_{w+1}.  Past it
    the countable mechanism charges t_n = 1/3 - 1/n + 3/(4 n**2) on an
    interval of width 1/(n**2 - 1) for every n > w, a sum with the closed
    form below (psi_1 is the trigamma function).  The truncation charges
    t_w on width 1/(2 (w + 1)), then the limit payment 1/3 on width
    1/(2 w) up to 2/3.  The gap is -5/(32 w**3) + O(w**-4).
    """
    t_w = 1 / 3 - 1 / w + 3 / (4 * w * w)
    staircase = ((13 / 24) * (1 / w + 1 / (w + 1)) - 1 / (2 * w * (w + 1))
                 - 0.75 * float(polygamma(1, w + 1)))
    return 1.25 * (staircase - t_w / (2 * (w + 1)) - 1 / (6 * w))
