"""Certification of mechanism properties and a brute-force optimum.

Verification is report-based: each check returns a
:class:`VerificationReport` whose ``violations`` list is empty exactly when
the property holds on the types it covers.  Checks describe a bad
mechanism rather than raise; a restricted-family mechanism that allocates
a bundle its type cannot afford raises :class:`DomainError`.

:func:`certify_step` certifies a step mechanism for every type of an
interval.  On a single-crossing domain a deviation that pays off for some
type of a bundle's interval pays off at one of its two ends, so the
incentive and participation checks run at the ends of each interval only,
against every bundle of the range; monotonicity and indifference at the
breakpoints are checked as well.  It builds its records with the grid
checks' helpers below.  :func:`~scmech.optimize.solve_finite` gates its
result on it.

The grid checks (:func:`verify_mechanism` and its parts) serve any rule,
callables included, at the points of a grid.  The incentive check tests
direct-revelation misreports only: for every ordered pair of grid
parameters, the allocation at the truthful report must be weakly better
(lower canonical payment) than the allocation at the misreport.  For
restricted-kind domains, misreports whose allocation is unaffordable under
the truthful preference are outside the definition and are skipped, in
both kinds of check.

The grid checks are array code.  A step mechanism is evaluated on the
whole grid at once (:meth:`FiniteMechanism.evaluate_many`), a callable
once per point, and :func:`verify_mechanism` evaluates the rule once for
all three checks.  The incentive check prices each grid point's type
against a table of the distinct bundles the rule allocates on the grid
(told apart by a step mechanism's lookup, or by a callable's bits), in
blocks of grid rows of at most ``PAIR_BLOCK`` payments or one row; a
row's gain against a bundle is its gain against every point that holds
it.  So its time and memory grow with grid × distinct bundles, not with
the grid's square, beyond the records of the pairs that fail.  Records
are listed by truthful parameter, then by deviant parameter, and an
inadmissible point raises the error that a loop over the sorted grid
would meet first.  A record is a :class:`Violation` named tuple built
in C, so a failing report of many pairs stays cheap to build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import Bundle, PreferenceDomain, ZERO_BUNDLE, is_diagonal
from .errors import (DomainError, InfeasibleRangeError, ScmechError,
                     TractabilityError)
from .measure import TypeDistribution, expected_revenue
from .mechanism import FiniteMechanism, from_range

# Incentive/IR gains below this are attributed to floating-point round-off.
TAU_IC = 1e-7
BRUTE_FORCE_GUARD = 10**7
# The incentive check sends at most this many payments of a grid type
# against a distinct bundle, or one grid row, to the canonical payment at
# once.
PAIR_BLOCK = 2**16


class Violation(NamedTuple):
    kind: str  # IC | IR | MONO | CONT
    truthful_r: float
    deviant_r: Optional[float]
    gain: float

    def to_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple
    grid_size: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def worst(self) -> Optional[Violation]:
        return max(self.violations, key=lambda v: v.gain, default=None)

    def merged_with(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(
            _sorted(self.violations + other.violations),
            max(self.grid_size, other.grid_size),
            max(self.tolerance, other.tolerance),
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_csv_rows(self) -> list[dict]:
        return [v.to_dict() for v in self.violations]


CSV_COLUMNS = ["kind", "truthful_r", "deviant_r", "gain"]


def _sorted(violations) -> tuple:
    return tuple(sorted(
        violations,
        key=lambda v: (v.truthful_r,
                       -math.inf if v.deviant_r is None else v.deviant_r,
                       v.kind),
    ))


def check_strategy_proof(domain: PreferenceDomain, mech_fn: Callable,
                         param_grid: Sequence[float],
                         tol: float = TAU_IC) -> VerificationReport:
    """Flag every grid pair where misreporting beats truth-telling."""
    grid = _sorted_grid(param_grid)
    _, ts, qs, index = _allocate(mech_fn, grid)
    return VerificationReport(
        tuple(_incentive_violations(domain, grid, ts, qs, index, tol)),
        len(grid), tol)


def check_individual_rationality(domain: PreferenceDomain, mech_fn: Callable,
                                 param_grid: Sequence[float],
                                 tol: float = TAU_IC) -> VerificationReport:
    """Flag grid points where the buyer would rather walk away."""
    grid = _sorted_grid(param_grid)
    allocs, ts, qs, _, rejected = _allocate_below(mech_fn, grid)
    # a loop over the grid checks each point's bundle before it asks the
    # rule for the next point's
    violations = _participation_violations(domain, grid[:len(ts)], allocs,
                                           ts, qs, tol)
    if rejected is not None:
        raise rejected
    return VerificationReport(tuple(violations), len(grid), tol)


def check_shape(domain: PreferenceDomain, mech: FiniteMechanism,
                param_grid: Sequence[float],
                indiff_tol: float = 1e-9) -> VerificationReport:
    """Monotonicity on the grid plus indifference at every breakpoint.

    Both properties hold for every strategy-proof mechanism; a mechanism
    passing the incentive grid check passes this one.
    """
    grid = _sorted_grid(param_grid)
    violations = _monotonicity_violations(grid, *mech.evaluate_many(grid))
    violations += _indifference_violations(domain, mech, indiff_tol)
    return VerificationReport(_sorted(violations), len(grid), indiff_tol)


def _sorted_grid(param_grid) -> np.ndarray:
    return np.asarray(sorted(float(r) for r in param_grid), dtype=float)


def _allocate(rule, grid) -> tuple:
    """``(allocations, ts, qs, index)`` of :func:`_allocate_below` on the
    whole grid; the first point the rule rejects raises its error."""
    allocs, ts, qs, index, rejected = _allocate_below(rule, grid)
    if rejected is not None:
        raise rejected
    return allocs, ts, qs, index


def _allocate_below(rule, grid) -> tuple:
    """``(allocations, ts, qs, index, rejected)``: the rule's bundles on
    the grid points below the first one it rejects, their payments and
    quantities as arrays, the index into its range of each point's bundle,
    and the error the rule raised at the point it rejects, or None.  A
    step mechanism is evaluated on the whole grid at once and gives no
    bundle list; where it rejects a point, its ``evaluate`` runs instead.
    Any other rule, callables included, is called point by point and gives
    no index."""
    if isinstance(rule, FiniteMechanism):
        try:
            index, bts, bqs = rule._lookup(grid)
            return None, bts[index], bqs[index], index, None
        except DomainError:
            pass
    fn = rule.evaluate if hasattr(rule, "evaluate") else rule
    allocs, rejected = [], None
    try:
        for r in grid:
            allocs.append(fn(r))
    except ScmechError as exc:  # raised once the points below it are checked
        rejected = exc
    return (allocs, np.array([z[0] for z in allocs]),
            np.array([z[1] for z in allocs]), None, rejected)


def _table(ts, qs, index) -> tuple:
    """``(index, bts, bqs)``: each grid point's row in a table of the
    distinct bundles the grid points hold, and the table's payments and
    quantities as floats.  Bundles are told apart by the step mechanism's
    ``index`` where it is given, else by the bits of ``(t, q)``, so that
    ``-0.0`` and ``0.0`` stay two bundles."""
    tf, qf = np.asarray(ts, dtype=float), np.asarray(qs, dtype=float)
    if index is None:
        seen = {}
        index = np.array([seen.setdefault(key, len(seen)) for key in zip(
            tf.view(np.int64).tolist(), qf.view(np.int64).tolist())],
            dtype=np.intp)
    _, first, index = np.unique(index, return_index=True, return_inverse=True)
    return index, tf[first], qf[first]


def _incentive_violations(domain, grid, ts, qs, index, tol) -> list:
    """IC records of every grid pair, in :func:`_sorted` order.  The
    canonical payments are those of each grid point's type against each
    bundle of the table (:func:`_table`, from :func:`_allocate`'s
    ``index``), in blocks of rows of at most ``PAIR_BLOCK`` payments, or
    one row.  A row's gain against a bundle is its gain against every grid
    point that holds the bundle."""
    over = ts > grid + 1e-12
    if domain.restricted and over.any():
        i = int(np.argmax(over))
        raise DomainError(
            f"mechanism allocates payment {ts[i]} above the bound of "
            f"preference {grid[i]}"
        )
    index, bts, bqs = _table(ts, qs, index)
    n, m = len(grid), len(bts)
    if m == n:
        # every grid point holds a bundle of its own (the affine rule):
        # the grid's bundles are the table, and a hit's column is its
        # deviant point.  A gather through the holders would add an array
        # of the block's hits per block, which made a perfbench certify
        # pass's peak RSS jump by 8 MB far more often
        index, bts, bqs = np.arange(n), ts, qs
    else:
        # the holders of bundle u, in grid order, are
        # holders[start[u]:start[u] + count[u]]
        holders = np.argsort(index, kind="stable")
        count = np.bincount(index, minlength=m)
        start = np.cumsum(count) - count
    step = max(1, PAIR_BLOCK // max(m, 1))
    truth, dev, gains = [], [], []
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        g = _gains(domain, grid[rows], index[rows], bts, bqs)
        i, j = np.nonzero(g > tol)
        gain = g[i, j]
        if m < n:
            # hit h stands for the pairs of row i[h] with the count[j[h]]
            # holders of its bundle
            c = count[j]
            i, gain = np.repeat(i, c), np.repeat(gain, c)
            j = holders[np.arange(len(i))
                        + np.repeat(start[j] - (np.cumsum(c) - c), c)]
        truth.append(rows[i])
        dev.append(j)
        gains.append(gain)
    if not truth:
        return []
    i, j, gain = map(np.concatenate, (truth, dev, gains))
    # _sorted's order: by truthful then deviant parameter, and on repeated
    # grid points by row then column, as the stable sort leaves them
    order = np.lexsort((j, i, grid[j], grid[i]))
    r = grid.tolist()  # the records share one float object per grid point
    return _records("IC", map(r.__getitem__, i[order].tolist()),
                    map(r.__getitem__, j[order].tolist()), gain[order].tolist())


def _records(kind, truth, deviant, gains) -> list:
    """:class:`Violation` records of one kind, built field by field in C:
    ``tuple.__new__`` skips the named tuple's constructor."""
    return list(map(tuple.__new__, itertools.repeat(Violation),
                    zip(itertools.repeat(kind), truth, deviant, gains)))


def _gains(domain, types, own, ts, qs) -> np.ndarray:
    """What each of ``types`` gains by taking each offered bundle
    ``(ts[j], qs[j])`` instead of its own bundle ``own[i]``: the difference
    of canonical payments, positive where the offered bundle is better.
    For a restricted family a bundle the type cannot afford gains 0."""
    with np.errstate(invalid="ignore"):  # inf - inf where a(r) is infinite
        f = np.asarray(domain.canonical_payment_many(types[:, None], ts, qs),
                       dtype=float)
        g = f[np.arange(len(types)), own][:, None] - f
    if domain.restricted:
        g[ts > types[:, None] + 1e-12] = 0.0
    return g


def _participation_violations(domain, grid, allocs, ts, qs, tol) -> list:
    """IR records in grid order.  The first point whose parameter, bundle,
    or (restricted) payment bound is inadmissible raises the error that
    :meth:`PreferenceDomain.canonical_payment` raises for it."""
    with np.errstate(invalid="ignore"):
        admissible = (np.isfinite(grid) & (domain.lo <= grid)
                      & (grid <= domain.hi) & np.isfinite(ts)
                      & np.isfinite(qs) & (ts >= 0.0) & (0.0 <= qs)
                      & (qs <= 1.0))
        if domain.restricted:
            admissible &= ts <= grid + 1e-12
        if not admissible.all():
            k = int(np.argmin(admissible))
            z = Bundle(ts[k], qs[k]) if allocs is None else allocs[k]
            domain.check_admissible(domain.check_param(grid[k]), z)
        gains = (domain.canonical_payment_many(grid, ts, qs)
                 - domain.canonical_payment_many(grid, 0.0, 0.0))
    k = np.nonzero(gains > tol)[0]
    return _records("IR", grid[k].tolist(), itertools.repeat(None),
                    gains[k].tolist())


def _monotonicity_violations(grid, ts, qs) -> list:
    """MONO records where a coordinate falls between neighboring points."""
    drop = np.maximum(ts[:-1] - ts[1:], qs[:-1] - qs[1:])
    k = np.nonzero(drop > 1e-12)[0]
    return _records("MONO", grid[k + 1].tolist(), itertools.repeat(None),
                    drop[k].tolist())


def _indifference_violations(domain, mech, indiff_tol) -> list:
    """CONT: each breakpoint is indifferent between the two bundles it
    separates, within ``indiff_tol`` in canonical payment; a bundle the
    breakpoint cannot afford counts as an infinite gap."""
    violations = []
    for k, bp in enumerate(mech.breakpoints):
        lo_z, hi_z = mech.bundles[k], mech.bundles[k + 1]
        try:
            f_lo = domain.canonical_payment(bp, lo_z)
            f_hi = domain.canonical_payment(bp, hi_z)
        except DomainError:
            violations.append(Violation("CONT", float(bp), None, math.inf))
            continue
        gap = abs(f_lo - f_hi)
        if gap > indiff_tol:
            violations.append(Violation("CONT", float(bp), None, float(gap)))
    return violations


def certify_step(domain: PreferenceDomain, mech: FiniteMechanism,
                 lo: float, hi: float,
                 tol: float = TAU_IC) -> VerificationReport:
    """Certify a step mechanism for every type in ``[lo, hi]``, exactly.

    * MONO: no coordinate falls from a bundle to the next (within
      ``1e-12``, as on the grid), and no breakpoint falls below the one
      before it (within ``1e-12``, as in :func:`from_range`).
    * CONT: each breakpoint is indifferent between its two bundles
      (within ``1e-9``, as :func:`check_shape` checks it).
    * IC and IR at the ends of each bundle's allocation interval, clipped
      to ``[lo, hi]``: deviations to the bundles at or above it in both
      coordinates at the right end, and to every other bundle and to
      ``(0, 0)`` at the left end.  On a single-crossing domain
      ``f_r(z_k) - f_r(z_j)`` rises through 0 at most once in ``r`` when
      ``z_j`` is the larger bundle and falls when it is the smaller, and
      one of two bundles that are not ordered is better for every type.
      So a type inside the interval that gains by a deviation has an end
      that gains too (README, "Certifying a step mechanism at its ends").
      Deviations go to every bundle of the range; an IC record's
      ``deviant_r`` is the parameter where the deviation's bundle starts.
      For a restricted family a deviation the truthful type cannot afford
      is skipped, as in :func:`check_strategy_proof`, and a bundle its
      lowest type cannot afford raises :class:`DomainError`, as in
      :func:`check_individual_rationality`.

    The report's ``grid_size`` is the number of distinct types checked.
    """
    lo, hi = domain.check_param(lo), domain.check_param(hi)
    if lo > hi:
        raise DomainError(f"empty type interval [{lo}, {hi}]")
    bps = np.array(mech.breakpoints, dtype=float)
    ts, qs = np.array(mech.bundles, dtype=float).T
    # a fall from each bundle to the next is recorded at the breakpoint
    # between them, and a fall of a breakpoint at the later one
    violations = _monotonicity_violations(np.append(domain.lo, bps), ts, qs)
    violations += _monotonicity_violations(bps, bps, bps)
    violations += _indifference_violations(domain, mech, 1e-9)

    # bundle k goes to the types from the largest of its first k
    # breakpoints (the domain's bottom for k = 0) up to breakpoint k
    starts = np.maximum(domain.lo, (domain.lo, *mech._steps))
    ends = np.append(bps, math.inf)
    left, right = np.maximum(starts, lo), np.minimum(ends, hi)
    held = np.nonzero((left < ends) & (left <= hi))[0]
    violations += _participation_violations(domain, left[held], None,
                                            ts[held], qs[held], tol)
    # each held bundle at its left end, then at its right end
    types, own = np.append(left[held], right[held]), np.tile(held, 2)
    gains = _gains(domain, types, own, ts, qs)
    above = (ts >= ts[own, None]) & (qs >= qs[own, None])
    bad = (gains > tol) & np.vstack([~above[:len(held)], above[len(held):]])
    i, j = np.nonzero(bad)
    violations += _records("IC", types[i].tolist(), starts[j].tolist(),
                           gains[i, j].tolist())
    # a type where two bundles meet can report the same deviation from both
    return VerificationReport(_sorted(dict.fromkeys(violations)),
                              len(np.unique(types)), tol)


def verify_mechanism(domain: PreferenceDomain, mech, param_grid,
                     tol: float = TAU_IC) -> VerificationReport:
    """Incentives, individual rationality, and (for step mechanisms) shape.

    The rule is evaluated once; the three checks share its allocations.
    """
    grid = _sorted_grid(param_grid)
    allocs, ts, qs, index = _allocate(mech, grid)
    violations = _incentive_violations(domain, grid, ts, qs, index, tol)
    violations += _participation_violations(domain, grid, allocs, ts, qs, tol)
    if isinstance(mech, FiniteMechanism):
        violations += _monotonicity_violations(grid, ts, qs)
        violations += _indifference_violations(domain, mech, 1e-9)
        tol = max(tol, 1e-9)  # a report names the largest of its tolerances
    return VerificationReport(_sorted(violations), len(grid), tol)


# -- brute-force optimal oracle ------------------------------------------------


def brute_force_optimal(domain: PreferenceDomain, dist: TypeDistribution,
                        t_grid: Sequence[float], q_grid: Sequence[float],
                        max_bundles: int,
                        mode: str = "payment") -> tuple[FiniteMechanism, float]:
    """Exhaustive search over grid-supported ranges anchored at ``(0, 0)``.

    Enumerates every strictly diagonal chain of up to ``max_bundles`` grid
    bundles starting at the origin, keeps the ones supportable as
    strategy-proof mechanisms, and returns the revenue maximizer.  Intended
    as an independent check on the continuous solver, so it shares no
    search machinery with it.
    """
    ts = sorted(set(float(t) for t in t_grid))
    qs = sorted(set(float(q) for q in q_grid))
    cands = [Bundle(t, q) for t in ts for q in qs if t > 0.0 and q > 0.0]
    cands.sort()
    n_extra = max_bundles - 1
    total = sum(math.comb(len(cands), k) for k in range(0, n_extra + 1))
    if total > BRUTE_FORCE_GUARD:
        raise TractabilityError(
            f"{total} candidate ranges exceed the guard of {BRUTE_FORCE_GUARD}"
        )

    best_mech = from_range(domain, [ZERO_BUNDLE])
    best_rev = 0.0
    for k in range(1, n_extra + 1):
        for combo in itertools.combinations(cands, k):
            chain = (ZERO_BUNDLE, *combo)
            if any(not is_diagonal(a, b) for a, b in zip(chain, chain[1:])):
                continue
            try:
                mech = from_range(domain, chain)
            except (DomainError, InfeasibleRangeError):
                continue
            rev = expected_revenue(domain, mech, dist, mode)
            if rev > best_rev + 1e-15:
                best_mech, best_rev = mech, rev
    return best_mech, best_rev
