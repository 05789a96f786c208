"""Shared test utilities: random feasible ranges, verification grids, the
closed-form oracle for the epsilon-truncation instance, a registered
cubic family, the options the CLI parses, a point-by-point reference for
the grid checks, a loop over a step mechanism's range for its shape, and
a countable mechanism's allocation and staircase as linear walks of its
tail."""

import math
from functools import partial

import numpy as np
from scipy.special import polygamma

from scmech.domain import (FAMILIES, Bundle, Family, ZERO_BUNDLE, make_domain,
                           register_family)
from scmech.errors import (DomainError, InfeasibleRangeError,
                           TractabilityError)
from scmech.mechanism import from_range
from scmech.verify import Violation, VerificationReport, _sorted

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


def cubic_domain(closed_form=True):
    """A classical family registered through the extension point, with
    ``f_r(t, q) = t + r (1 - q**3)``; without ``closed_form`` it has no
    ``special``, so its indifference parameters are bisected."""
    name = "cubic_quantity_test" if closed_form else "cubic_bisected_test"
    if name not in FAMILIES:
        register_family(Family(
            name, "classical", 0.0, math.inf,
            utility=lambda r, t, q: r * q**3 - t,
            canonical=lambda r, t, q: t + r * (1.0 - q**3),
            curve_payment=lambda r, c, q: c - r * (1.0 - q**3),
            special=((lambda a, b: (b[0] - a[0]) / (b[1] ** 3 - a[1] ** 3))
                     if closed_form else None),
        ))
    return make_domain(name)


def cli_options(monkeypatch, argv):
    """The options ``scmech.cli.main(argv)`` hands its subcommand, less
    ``func`` and ``config``; the subcommand itself does not run."""
    from scmech import cli

    seen = []
    for name in vars(cli).copy():
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda ns: seen.append(ns) or 0)
    assert cli.main(list(argv)) == 0
    options = vars(seen[0])
    del options["func"], options["config"]
    return options


# -- the grid checks point by point ------------------------------------------
# A reference for scmech.verify: the grid checks as loops over grid points
# and rows, one canonical payment call per row, and the step mechanism's
# allocation as a scan of its breakpoints.


def reference_evaluate(mech, r):
    """The bundle after the leading breakpoints at or below ``r``."""
    r = mech.domain.check_param(r)
    k = 0
    for bp in mech.breakpoints:
        if bp <= r:
            k += 1
        else:
            break
    return mech.bundles[k]


def reference_countable_evaluate(cmech, rs):
    """``CountableMechanism.evaluate`` at each of the types ``rs`` as a
    linear walk from the tail's start: on to the next tail bundle while the
    switch out of this one lies at or below the type (below the limit), or
    above it (above the limit), stopping at a bundle the tail repeats.  A
    walk that meets a bundle or a switch that cannot be computed gives the
    limit bundle.  The bundles and switches are memoized across the types
    only to keep the walks cheap."""
    bundles, switches, out = {}, {}, []

    def bundle(tail, n):
        if (id(tail), n) not in bundles:
            bundles[id(tail), n] = tail.bundle(n)
        return bundles[id(tail), n]

    def switch(tail, below, n):
        if (below, n) not in switches:
            lower, upper = (n, n + 1) if below else (n + 1, n)
            switches[below, n] = cmech.domain.special_preference(
                bundle(tail, lower), bundle(tail, upper))
        return switches[below, n]

    for r in rs:
        r = cmech.domain.check_param(r)
        lo = -math.inf if cmech.limit_lo is None else cmech.limit_lo
        hi = math.inf if cmech.limit_hi is None else cmech.limit_hi
        if lo <= r <= hi:
            out.append(cmech.limit_bundle)
            continue
        below = r < lo
        tail = cmech.increasing if below else cmech.decreasing
        try:
            n = tail.start
            while (bundle(tail, n + 1) != bundle(tail, n)
                   and (switch(tail, below, n) <= r) == below):
                n += 1
            out.append(bundle(tail, n))
        except (DomainError, TractabilityError):
            out.append(cmech.limit_bundle)
    return out


def reference_staircase(cmech, below, lo, hi, done):
    """``CountableMechanism._staircase`` as a list of segments ``(a, b, z)``,
    read one bundle at a time through ``TailRule.bundle`` and each switch
    through ``special_preference``: from the outer end of the support
    ``[lo, hi]`` toward the limit edge, in ``s*r`` with ``s = 1`` below the
    limit and ``-1`` above it, each tail bundle on its interval up to the
    first for which ``done(s, z, a, b, end)`` holds, then the limit bundle
    on the rest, or a repeated bundle on the rest.  A bundle that cannot
    be computed, a malformed one, a switch that cannot be computed or one
    that falls by more than 1e-12 raises as the walk always has."""
    tail = cmech.increasing if below else cmech.decreasing
    s = 1.0 if below else -1.0

    def span(a, b):
        return (a, b) if s > 0 else (-b, -a)

    if tail is None:
        return []
    a = s * (lo if below else hi)
    end = s * (cmech.limit_lo if below else cmech.limit_hi)
    if a >= end:
        return []
    out, last, n = [], -math.inf, tail.start
    z = tail.bundle(n)
    while True:
        nxt = tail.bundle(n + 1)
        if nxt == z:
            return [*out, (*span(a, end), z)]
        lower, upper = (z, nxt) if s > 0 else (nxt, z)
        for name, k in (("payment", 0), ("quantity", 1)):
            if upper[k] < lower[k]:
                move = "falls below" if s > 0 else "rises above"
                raise DomainError(f"malformed tail at index {n + 1}: its "
                                  f"{name} {move} index {n}'s")
        try:
            switch = s * cmech.domain.special_preference(lower, upper)
        except DomainError as exc:
            raise TractabilityError(f"its switching parameter at tail index "
                                    f"{n} fails: {exc}") from exc
        if switch < last - 1e-12:
            raise TractabilityError(
                f"its switching parameters fall at tail index {n}")
        b = min(max(switch, a), end)
        out.append((*span(a, b), z))
        if done(s, z, a, b, end):
            return [*out, (*span(b, end), cmech.limit_bundle)]
        a, last, z, n = b, switch, nxt, n + 1


def reference_strategy_proof(domain, mech_fn, param_grid, tol=1e-7):
    grid = np.asarray(sorted(float(r) for r in param_grid))
    allocs = [mech_fn(r) for r in grid]
    ts = np.array([z[0] for z in allocs])
    qs = np.array([z[1] for z in allocs])
    violations = []
    for i, r in enumerate(grid):
        if domain.restricted and ts[i] > r + 1e-12:
            raise DomainError(
                f"mechanism allocates payment {ts[i]} above the bound of "
                f"preference {r}"
            )
        f_all = np.asarray(domain.canonical_payment_many(r, ts, qs), dtype=float)
        gains = f_all[i] - f_all
        gains[i] = 0.0
        if domain.restricted:
            gains[ts > r + 1e-12] = 0.0
        for j in np.nonzero(gains > tol)[0]:
            violations.append(Violation("IC", float(r), float(grid[j]),
                                        float(gains[j])))
    return VerificationReport(_sorted(violations), len(grid), tol)


def reference_individual_rationality(domain, mech_fn, param_grid, tol=1e-7):
    violations = []
    for r in sorted(float(r) for r in param_grid):
        f_alloc = domain.canonical_payment(r, mech_fn(r))
        f_zero = domain.canonical_payment(r, ZERO_BUNDLE)
        gain = f_alloc - f_zero
        if gain > tol:
            violations.append(Violation("IR", r, None, float(gain)))
    return VerificationReport(_sorted(violations), len(param_grid), tol)


def reference_shape(domain, mech, param_grid, indiff_tol=1e-9):
    """Monotonicity read off the grid, as ``check_shape`` once did: a fall
    between neighboring grid points' bundles.  It misses a fall between
    grid points, so ``check_shape`` fails wherever this finds a MONO."""
    grid = sorted(float(r) for r in param_grid)
    violations = []
    prev = None
    for r in grid:
        z = reference_evaluate(mech, r)
        if prev is not None:
            drop = max(prev[0] - z[0], prev[1] - z[1])
            if drop > 1e-12:
                violations.append(Violation("MONO", r, None, float(drop)))
        prev = z
    violations += _reference_indifference(domain, mech, indiff_tol)
    return VerificationReport(_sorted(violations), len(grid), indiff_tol)


def reference_step_shape(domain, mech, param_grid, indiff_tol=1e-9):
    """``check_shape``'s report: the grid's points are only evaluated, so
    that the first inadmissible one raises, and the shape is read off the
    range and the breakpoints, a loop over consecutive bundles, then one
    over consecutive breakpoints."""
    grid = sorted(float(r) for r in param_grid)
    for r in grid:
        reference_evaluate(mech, r)
    zs, bps = mech.bundles, mech.breakpoints
    violations = []
    for k, bp in enumerate(bps):
        drop = max(zs[k].t - zs[k + 1].t, zs[k].q - zs[k + 1].q)
        if drop > 1e-12:
            violations.append(Violation("MONO", bp, None, drop))
    for prev, bp in zip(bps, bps[1:]):
        if prev - bp > 1e-12:
            violations.append(Violation("MONO", bp, None, prev - bp))
    violations += _reference_indifference(domain, mech, indiff_tol)
    return VerificationReport(_sorted(violations), len(grid), indiff_tol)


def _reference_indifference(domain, mech, indiff_tol):
    violations = []
    for k, bp in enumerate(mech.breakpoints):
        lo_z, hi_z = mech.bundles[k], mech.bundles[k + 1]
        try:
            gap = abs(domain.canonical_payment(bp, lo_z)
                      - domain.canonical_payment(bp, hi_z))
        except DomainError:
            violations.append(Violation("CONT", float(bp), None, math.inf))
            continue
        if gap > indiff_tol:
            violations.append(Violation("CONT", float(bp), None, float(gap)))
    return violations


def reference_verify(domain, mech, param_grid, tol=1e-7):
    """Incentives, participation and, for a step mechanism, shape, each
    check on its own, merged as reports.  ``verify_mechanism`` gives this
    report for a rule that is not a step mechanism; a step mechanism it
    certifies on the grid's span, which fails wherever this fails."""
    step = hasattr(mech, "breakpoints")
    fn = partial(reference_evaluate, mech) if step else mech
    report = reference_strategy_proof(domain, fn, param_grid, tol)
    report = report.merged_with(
        reference_individual_rationality(domain, fn, param_grid, tol))
    if step:
        report = report.merged_with(reference_shape(domain, mech, param_grid))
    return report


def sup_b(dist, m, points=2001):
    """``sup B`` over at most ``m`` breakpoints, ``B(theta) = sum_k theta_k
    (F(theta_{k+1}) - F(theta_k))`` with ``F(theta_{m+1}) = 1``, the bound
    on a restricted family's revenue in payments: a reference DP over the
    CDF's knots and ``points`` even points of the support.

    ``best[i]`` is the most that breakpoints from ``grid[i]`` up earn; a
    breakpoint may repeat the one above it, which adds nothing, so each
    stage also allows fewer."""
    grid = np.unique(np.append(np.linspace(dist.lo, dist.hi, points),
                               dist.knots or ()))
    cdf = np.asarray(dist.cdf(grid), dtype=float)
    # gain[i, j]: theta_k = grid[i] below theta_{k+1} = grid[j], j >= i
    gain = np.where(np.arange(len(grid))[:, None] <= np.arange(len(grid)),
                    grid[:, None] * (cdf - cdf[:, None]), -np.inf)
    best = grid * (1.0 - cdf)
    for _ in range(m - 1):
        best = np.max(gain + best, axis=1)
    return float(best.max())
