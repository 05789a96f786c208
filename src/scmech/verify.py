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
against every bundle of the range; monotonicity and indifference are
read off the range and the breakpoints, as :func:`check_shape` reports
them.  It builds its records with the grid checks' helpers below.
:func:`~scmech.optimize.solve_finite` gates its result on it, and
:func:`verify_mechanism` certifies a step mechanism with it on the span of
the grid it is given.

The grid checks (:func:`check_strategy_proof`,
:func:`check_individual_rationality`, and :func:`verify_mechanism` for
every rule but a step mechanism) serve any rule, callables included, at
the points of a grid.  The incentive check tests direct-revelation
misreports only: for every ordered pair of grid parameters, the
allocation at the truthful report must be weakly better (lower canonical
payment) than the allocation at the misreport.  For
restricted-kind domains, misreports whose allocation is unaffordable under
the truthful preference are outside the definition and are skipped, in
both kinds of check.

The grid checks are array code.  A rule is called once per grid point (a
step mechanism through its ``evaluate``), and :func:`verify_mechanism`
calls it once for both checks.  The incentive check prices each grid
point's type against a table of the distinct bundles the rule allocates
on the grid (told apart by their bits), in blocks of grid rows of at most
``PAIR_BLOCK`` payments or one row; a row's gain against a bundle is its
gain against every point that holds it.  So its time and memory grow
with grid × distinct bundles, not with the grid's square, beyond the
records of the pairs that fail.  Records are listed by truthful
parameter, then by deviant parameter: on a grid with no repeated point
one stable argsort of the pairs' row-major indices gives that order,
and a grid that repeats a point (or holds a NaN) sorts on every key.  An
inadmissible point raises the error that a loop over the sorted grid
would meet first.  A record is a :class:`Violation` named tuple built in
C with the cyclic garbage collector paused.  The pause is process-wide,
and the collector is left enabled or disabled as it was found, also when
the build fails.  So a failing report of many pairs costs its records
and its arithmetic, not repeated collections over them.
"""

from __future__ import annotations

import gc
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import (Bundle, PreferenceDomain, TAU_INDIFF, ZERO_BUNDLE,
                     is_diagonal)
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
                         param_grid: Sequence[float]) -> VerificationReport:
    """Flag every grid pair where misreporting beats truth-telling by more
    than ``TAU_IC``."""
    grid = _sorted_grid(param_grid)
    _, ts, qs = _allocate(mech_fn, grid)
    return VerificationReport(
        tuple(_incentive_violations(domain, grid, ts, qs)), len(grid), TAU_IC)


def check_individual_rationality(
        domain: PreferenceDomain, mech_fn: Callable,
        param_grid: Sequence[float]) -> VerificationReport:
    """Flag grid points where the buyer would rather walk away, by more
    than ``TAU_IC``."""
    grid = _sorted_grid(param_grid)
    allocs, ts, qs, rejected = _allocate_below(mech_fn, grid)
    # a loop over the grid checks each point's bundle before it asks the
    # rule for the next point's
    violations = _participation_violations(domain, grid[:len(ts)], allocs,
                                           ts, qs)
    if rejected is not None:
        raise rejected
    return VerificationReport(tuple(violations), len(grid), TAU_IC)


def check_shape(domain: PreferenceDomain, mech: FiniteMechanism,
                param_grid: Sequence[float]) -> VerificationReport:
    """Monotonicity and indifference of a step mechanism, for every type:
    :func:`certify_step`'s MONO and CONT records, at ``TAU_INDIFF``.

    Both hold for every strategy-proof mechanism.  The grid only sets the
    report's ``grid_size``, and its first inadmissible point raises: the
    grid is sorted only when some point is inadmissible.
    """
    grid = np.asarray(param_grid, dtype=float)
    try:
        mech.evaluate_many(grid)
    except DomainError:  # raise at the first inadmissible point, sorted
        mech.evaluate_many(_sorted_grid(grid))
    violations = _shape_violations(domain, mech, TAU_INDIFF)
    return VerificationReport(_sorted(violations), len(grid), TAU_INDIFF)


def _sorted_grid(param_grid) -> np.ndarray:
    return np.asarray(sorted(float(r) for r in param_grid), dtype=float)


def _allocate(rule, grid) -> tuple:
    """``(allocations, ts, qs)`` of :func:`_allocate_below` on the whole
    grid; the first point the rule rejects raises its error."""
    allocs, ts, qs, rejected = _allocate_below(rule, grid)
    if rejected is not None:
        raise rejected
    return allocs, ts, qs


def _allocate_below(rule, grid) -> tuple:
    """``(allocations, ts, qs, rejected)``: the rule's bundles on the grid
    points below the first one it rejects, their payments and quantities
    as arrays, and the error the rule raised at the point it rejects, or
    None.  The rule is called point by point: a callable, or the
    ``evaluate`` of a rule object such as a step mechanism."""
    fn = rule.evaluate if hasattr(rule, "evaluate") else rule
    allocs, rejected = [], None
    try:
        for r in grid:
            allocs.append(fn(r))
    except ScmechError as exc:  # raised once the points below it are checked
        rejected = exc
    return (allocs, np.array([z[0] for z in allocs]),
            np.array([z[1] for z in allocs]), rejected)


def _table(ts, qs) -> tuple:
    """``(index, bts, bqs)``: each grid point's row in a table of the
    distinct bundles the grid points hold, and the table's payments and
    quantities as floats.  Bundles are told apart by the bits of
    ``(t, q)``, so that ``-0.0`` and ``0.0`` stay two bundles."""
    tf, qf = np.asarray(ts, dtype=float), np.asarray(qs, dtype=float)
    bits = np.stack([tf, qf], axis=1).view(np.int64)
    _, first, index = np.unique(bits, axis=0, return_index=True,
                                return_inverse=True)
    return index.reshape(-1), tf[first], qf[first]


def _incentive_violations(domain, grid, ts, qs) -> list:
    """IC records of every grid pair, in :func:`_sorted` order.  The
    canonical payments are those of each grid point's type against each
    bundle of the table (:func:`_table`), in blocks of rows of at most ``PAIR_BLOCK`` payments, or
    one row.  A row's gain against a bundle is its gain against every grid
    point that holds the bundle."""
    over = ts > grid + 1e-12
    if domain.restricted and over.any():
        i = int(np.argmax(over))
        raise DomainError(
            f"mechanism allocates payment {ts[i]} above the bound of "
            f"preference {grid[i]}"
        )
    index, bts, bqs = _table(ts, qs)
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
        i, j = np.nonzero(g > TAU_IC)
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
    # grid points by row then column, as the stable sort leaves them.  On
    # a grid that strictly increases that is row-major order, in which
    # the hits mostly arrive already, and timsort passes such a run once
    if np.all(grid[1:] > grid[:-1]):
        order = np.argsort(i * n + j, kind="stable")
    else:  # a repeated point, or a NaN that sorted() left in place
        order = np.lexsort((j, i, grid[j], grid[i]))
    # the records share one float object per grid point, gathered in C
    r = np.array(grid.tolist(), dtype=object)
    return _records("IC", r[i[order]].tolist(), r[j[order]].tolist(),
                    gain[order].tolist())


def _records(kind, truth, deviant, gains) -> list:
    """:class:`Violation` records of one kind, built field by field in C:
    ``tuple.__new__`` skips the named tuple's constructor.  The cyclic
    garbage collector is paused meanwhile and left as it was found: CPython
    never untracks a tuple subclass, so each collection would walk every
    record built so far, and these records, acyclic and immutable, give it
    nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(tuple.__new__, itertools.repeat(Violation),
                        zip(itertools.repeat(kind), truth, deviant, gains)))
    finally:
        if enabled:
            gc.enable()


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


def _participation_violations(domain, grid, allocs, ts, qs) -> list:
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
    k = np.nonzero(gains > TAU_IC)[0]
    return _records("IR", grid[k].tolist(), itertools.repeat(None),
                    gains[k].tolist())


def _shape_violations(domain, mech, indiff_tol) -> list:
    """MONO where a coordinate falls from a bundle to the next, at the
    breakpoint between them, or a breakpoint falls below the one before it,
    at the later one (within ``1e-12``, as in :func:`from_range`).  CONT
    where a breakpoint's two bundles differ by more than ``indiff_tol`` in
    canonical payment; a bundle it cannot afford is an infinite gap."""
    zs, bps = mech.bundles, mech.breakpoints
    drops = [(bp, max(a.t - b.t, a.q - b.q))
             for bp, a, b in zip(bps, zs, zs[1:])]
    drops += [(bp, a - bp) for a, bp in zip(bps, bps[1:])]
    violations = [Violation("MONO", bp, None, drop) for bp, drop in drops
                  if drop > 1e-12]
    for bp, lo_z, hi_z in zip(bps, zs, zs[1:]):
        try:
            gap = abs(domain.canonical_payment(bp, lo_z)
                      - domain.canonical_payment(bp, hi_z))
        except DomainError:
            gap = math.inf
        if gap > indiff_tol:
            violations.append(Violation("CONT", bp, None, gap))
    return violations


def certify_step(domain: PreferenceDomain, mech: FiniteMechanism,
                 lo: float, hi: float) -> VerificationReport:
    """Certify a step mechanism for every type in ``[lo, hi]``, exactly.

    * MONO and CONT, as :func:`check_shape` reports them at
      ``TAU_INDIFF``: no coordinate falls from a bundle to the next and
      no breakpoint falls below the one before it (within ``1e-12``), and
      each breakpoint is indifferent between its two bundles.
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

    The report's ``grid_size`` is the number of distinct types checked,
    and its ``tolerance`` the larger of ``TAU_IC`` and ``TAU_INDIFF``.
    """
    lo, hi = domain.check_param(lo), domain.check_param(hi)
    if lo > hi:
        raise DomainError(f"empty type interval [{lo}, {hi}]")
    bps = np.array(mech.breakpoints, dtype=float)
    ts, qs = np.array(mech.bundles, dtype=float).T
    violations = _shape_violations(domain, mech, TAU_INDIFF)

    # bundle k goes to the types from the largest of its first k
    # breakpoints (the domain's bottom for k = 0) up to breakpoint k
    starts = np.maximum(domain.lo, (domain.lo, *mech._steps))
    ends = np.append(bps, math.inf)
    left, right = np.maximum(starts, lo), np.minimum(ends, hi)
    held = np.nonzero((left < ends) & (left <= hi))[0]
    violations += _participation_violations(domain, left[held], None,
                                            ts[held], qs[held])
    # each held bundle at its left end, then at its right end
    types, own = np.append(left[held], right[held]), np.tile(held, 2)
    gains = _gains(domain, types, own, ts, qs)
    above = (ts >= ts[own, None]) & (qs >= qs[own, None])
    bad = (gains > TAU_IC) & np.vstack([~above[:len(held)], above[len(held):]])
    i, j = np.nonzero(bad)
    violations += _records("IC", types[i].tolist(), starts[j].tolist(),
                           gains[i, j].tolist())
    # a type where two bundles meet can report the same deviation from both,
    # and a report names the largest of its tolerances
    return VerificationReport(_sorted(dict.fromkeys(violations)),
                              len(np.unique(types)), max(TAU_IC, TAU_INDIFF))


def verify_mechanism(domain: PreferenceDomain, mech,
                     param_grid) -> VerificationReport:
    """Incentives, individual rationality, and (for step mechanisms) shape.

    A step mechanism is certified by :func:`certify_step` on the grid's
    span: the grid's first inadmissible point raises, the report keeps the
    grid's size, and an empty grid's holds :func:`check_shape`'s records
    alone.  Any other rule is evaluated once, for both grid checks.
    """
    grid = _sorted_grid(param_grid)
    if isinstance(mech, FiniteMechanism):
        mech.evaluate_many(grid)  # raises at the first inadmissible point
        report = (certify_step(domain, mech, grid[0], grid[-1])
                  if len(grid) else check_shape(domain, mech, grid))
        return VerificationReport(report.violations, len(grid),
                                  max(TAU_IC, TAU_INDIFF))
    allocs, ts, qs = _allocate(mech, grid)
    violations = _incentive_violations(domain, grid, ts, qs)
    violations += _participation_violations(domain, grid, allocs, ts, qs)
    return VerificationReport(_sorted(violations), len(grid), TAU_IC)


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
