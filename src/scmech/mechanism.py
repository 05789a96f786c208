"""Strategy-proof mechanisms over ordered bundle ranges.

A finite mechanism is a nondecreasing step function from order parameters
to bundles.  Given a strictly increasing diagonal range, the unique
strategy-proof rule switches from each bundle to the next exactly at the
*breakpoint*: the preference making the two adjacent bundles indifferent.
``from_range`` computes those breakpoints and rejects ranges whose induced
breakpoints are not ordered.

Countable ranges accumulating at finitely many limit bundles are handled by
``CountableMechanism``; ``epsilon_truncate`` cuts their tails into a finite
mechanism whose expected revenue differs by at most ``eps``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .domain import (Bundle, PreferenceDomain, TAU_INDIFF, check_bundle,
                     is_diagonal)
from .errors import DomainError, InfeasibleRangeError, TractabilityError

TAIL_INDEX_CAP = 10**6


@dataclass(frozen=True)
class FiniteMechanism:
    """Step mechanism: ``bundles[k]`` is allocated where the first ``k``
    breakpoints, and not the next one, lie at or below the reported
    parameter.

    At a breakpoint both neighbors are indifferent; the tie goes to the
    higher bundle (a measure-zero event under an atomless distribution).
    The constructor stores fields as given, so malformed step functions can
    be represented for diagnostics; use :func:`from_range` to build a
    validated strategy-proof mechanism.
    """

    domain: PreferenceDomain
    bundles: tuple
    breakpoints: tuple
    # running maximum of the breakpoints: the types at or above its entry k
    # are exactly those with the first k + 1 breakpoints at or below them
    _steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.breakpoints) != len(self.bundles) - 1:
            raise DomainError("need exactly one breakpoint between adjacent bundles")
        object.__setattr__(self, "bundles",
                           tuple(check_bundle(z) for z in self.bundles))
        breakpoints = tuple(float(r) for r in self.breakpoints)
        if not all(math.isfinite(r) for r in breakpoints):
            raise DomainError(f"breakpoints must be finite, got {breakpoints}")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "_steps", tuple(itertools.accumulate(
            breakpoints, max)))

    def evaluate(self, r: float) -> Bundle:
        r = self.domain.check_param(r)
        return self.bundles[bisect_right(self._steps, r)]

    def evaluate_many(self, rs) -> tuple:
        """Payments and quantities allocated to the types ``rs``, as two
        arrays; :meth:`evaluate` at each type, bit for bit.  The first type
        outside the domain interval, or not finite, raises its
        :class:`DomainError`."""
        rs = np.asarray(rs, dtype=float)
        dom = self.domain
        admissible = np.isfinite(rs) & (dom.lo <= rs) & (rs <= dom.hi)
        if not admissible.all():
            dom.check_param(rs.flat[np.argmin(admissible)])
        k = np.searchsorted(np.array(self._steps, dtype=float), rs,
                            side="right")
        ts, qs = np.array(self.bundles, dtype=float).T
        return ts[k], qs[k]

    def revenue_segments(self, dist) -> Iterator[tuple]:
        """Clamped parameter intervals on which each bundle is allocated, cut
        on the running maximum of the breakpoints as :meth:`evaluate` is."""
        edges = [dist.lo, *self._steps, dist.hi]
        for k, z in enumerate(self.bundles):
            lo = min(max(edges[k], dist.lo), dist.hi)
            hi = min(max(edges[k + 1], dist.lo), dist.hi)
            if hi > lo:
                yield lo, hi, z

    def is_well_formed(self, tol: float = TAU_INDIFF) -> bool:
        """Strictly diagonal range whose shape passes
        :func:`~scmech.verify.check_shape` at ``tol``: nondecreasing
        breakpoints, each indifferent between its two bundles."""
        from .verify import _shape_violations

        return (all(map(is_diagonal, self.bundles, self.bundles[1:]))
                and not _shape_violations(self.domain, self, tol))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_spec(),
            "bundles": [[z.t, z.q] for z in self.bundles],
            "breakpoints": list(self.breakpoints),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMechanism":
        domain = PreferenceDomain.from_spec(data["domain"])
        bundles = tuple(Bundle(float(t), float(q)) for t, q in data["bundles"])
        return cls(domain, bundles, tuple(float(r) for r in data["breakpoints"]))


def from_range(domain: PreferenceDomain, bundles: Sequence[Bundle]) -> FiniteMechanism:
    """Build the strategy-proof mechanism supported on a finite range.

    The range must be sorted and strictly diagonal.  Breakpoints are the
    pairwise indifference parameters of adjacent bundles; if they come out
    decreasing somewhere, no monotone mechanism with a continuous indirect
    preference has this range and the range is rejected.
    """
    zs = [check_bundle(z) for z in bundles]
    if not zs:
        raise DomainError("range must contain at least one bundle")
    for a, b in zip(zs, zs[1:]):
        if not is_diagonal(a, b):
            raise DomainError(
                f"range must be sorted and strictly diagonal; offending pair "
                f"{a}, {b}"
            )
    if domain.restricted and zs[0] != (0.0, 0.0) and domain.lo < zs[0].t:
        raise DomainError(
            "restricted-kind range must include (0, 0): preferences with "
            f"payment bound below {zs[0].t} cannot afford the bottom bundle"
        )
    breakpoints = [domain.special_preference(a, b) for a, b in zip(zs, zs[1:])]
    for k in range(1, len(breakpoints)):
        if breakpoints[k] < breakpoints[k - 1] - 1e-12:
            raise InfeasibleRangeError(
                "range unsupportable: breakpoints decrease on the triple "
                f"{zs[k - 1]}, {zs[k]}, {zs[k + 1]} "
                f"({breakpoints[k - 1]:.6g} then {breakpoints[k]:.6g})"
            )
    return FiniteMechanism(domain, tuple(zs), tuple(breakpoints))


# -- countable ranges ---------------------------------------------------------


@dataclass(frozen=True)
class AnchorLine:
    """Segment ``q = slope * t`` for ``t`` in ``[t_lo, t_hi]``."""

    slope: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if self.slope <= 0 or not 0 <= self.t_lo < self.t_hi:
            raise DomainError("anchor line needs positive slope and 0 <= t_lo < t_hi")
        if self.slope * self.t_hi > 1.0 + 1e-12:
            raise DomainError("anchor line leaves the bundle space (q > 1)")

    def bundle(self, t: float) -> Bundle:
        return Bundle(float(t), min(self.slope * float(t), 1.0))


@dataclass(frozen=True)
class ParamSequence:
    """Monotone parameter sequence with an explicit limit."""

    value: Callable
    limit: float
    start: int = 1

    def __call__(self, n: int) -> float:
        return float(self.value(n))


def harmonic_sequence(limit: float, coeff: float = 1.0, start: int = 3) -> ParamSequence:
    """``limit - coeff/n`` for ``n >= start``; increasing when coeff > 0."""
    if not start >= 1:
        raise DomainError(f"harmonic sequence needs start >= 1, got {start}")
    return ParamSequence(lambda n: limit - coeff / n, float(limit), start)


def constant_sequence(value: float) -> ParamSequence:
    return ParamSequence(lambda n: value, float(value), 1)


@dataclass
class TailRule:
    """Lazy bundle sequence indexed from ``start``; a countable mechanism's
    walk memoizes the bundles it reaches."""

    bundle_fn: Callable
    start: int

    def bundle(self, n: int) -> Bundle:
        if n - self.start > TAIL_INDEX_CAP:
            raise TractabilityError(f"tail index {n} beyond cap {TAIL_INDEX_CAP}")
        return check_bundle(self.bundle_fn(n))


def _span(s: float, a: float, b: float) -> tuple:
    """The parameter interval between walk coordinates ``a`` and ``b``.

    A tail walk runs in ``s*r``, with ``s = 1`` below the limit and ``-1``
    above it, so both tails ascend toward the limit bundle."""
    return (a, b) if s > 0 else (-b, -a)


_CLAMPED = "clamped"


class _Walk:
    """One tail's walk toward the limit bundle, in ``s*r`` (see
    :func:`_span`), grown on demand and memoized.

    ``switches[i]`` is the switch from ``bundles[i]`` to ``bundles[i + 1]``
    and ``steps[i]`` the running maximum of ``switches[:i + 1]``.  ``end``
    is None while the walk can grow, then ``_CLAMPED`` where the tail
    repeats its last bundle, or the error that stopped it: a
    :class:`DomainError` for a malformed bundle, one whose coordinate
    moves away from the limit past the bundle before it, and a
    :class:`TractabilityError` for a switch that cannot be computed or a
    bundle past ``TAIL_INDEX_CAP``.  On a side without a tail ``tail`` is
    None, and the walk is never grown."""

    def __init__(self, domain: PreferenceDomain, tail: Optional[TailRule],
                 s: float):
        self.domain, self.tail, self.s = domain, tail, s
        self.bundles, self.switches, self.steps, self.end = [], [], [], None

    def grow(self):
        """Walk one switch further, or end the walk."""
        n = self.tail.start + len(self.switches)
        try:
            if not self.bundles:
                self.bundles.append(self.tail.bundle(n))
            z, nxt = self.bundles[-1], self.tail.bundle(n + 1)
            if nxt == z:
                self.end = _CLAMPED
                return
            lower, upper = (z, nxt) if self.s > 0 else (nxt, z)
            for name, k in (("payment", 0), ("quantity", 1)):
                if upper[k] < lower[k]:
                    move = "falls below" if self.s > 0 else "rises above"
                    raise DomainError(f"malformed tail at index {n + 1}: its "
                                      f"{name} {move} index {n}'s")
            try:
                switch = self.s * self.domain.special_preference(lower, upper)
            except DomainError as exc:
                raise TractabilityError(f"its switching parameter at tail "
                                        f"index {n} fails: {exc}") from exc
        except (DomainError, TractabilityError) as exc:
            self.end = exc
            return
        self.bundles.append(nxt)
        self.switches.append(switch)
        self.steps.append(max(self.steps[-1], switch) if self.steps else switch)

    def reach(self, i: int) -> bool:
        """Grow the walk to its switch ``i``; False where it ends before."""
        while self.end is None and len(self.switches) <= i:
            self.grow()
        return i < len(self.switches)


@dataclass
class CountableMechanism:
    """Mechanism whose range accumulates at one limit bundle.

    ``increasing`` generates bundles rising to ``limit_bundle`` and is
    allocated below ``limit_lo``; ``decreasing`` generates bundles falling
    to it and is allocated above ``limit_hi``.  Either tail may be absent;
    ``limit_lo`` is given exactly when ``increasing`` is, and ``limit_hi``
    exactly when ``decreasing`` is.  Each given edge must be a parameter
    of the domain, and ``limit_lo <= limit_hi``.  Each tail is walked once
    (:class:`_Walk`), as far as the calls so far have needed.
    """

    domain: PreferenceDomain
    limit_bundle: Bundle
    increasing: Optional[TailRule] = None
    decreasing: Optional[TailRule] = None
    limit_lo: Optional[float] = None  # parameter where the limit bundle starts
    limit_hi: Optional[float] = None  # parameter where it ends
    _walks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.limit_bundle = check_bundle(self.limit_bundle)
        if (self.increasing is None) != (self.limit_lo is None):
            raise DomainError("limit_lo needs an increasing tail, and vice versa")
        if (self.decreasing is None) != (self.limit_hi is None):
            raise DomainError("limit_hi needs a decreasing tail, and vice versa")
        edges = [self.domain.check_param(r)
                 for r in (self.limit_lo, self.limit_hi) if r is not None]
        if edges != sorted(edges):
            raise DomainError(f"limit_lo must not exceed limit_hi: {edges}")
        self._walks = {True: _Walk(self.domain, self.increasing, 1.0),
                       False: _Walk(self.domain, self.decreasing, -1.0)}

    def inc_breakpoint(self, n: int) -> float:
        """Breakpoint entering increasing-tail bundle ``n`` from ``n - 1``."""
        walk, i = self._walks[True], n - 1 - self.increasing.start
        if i < 0 or not walk.reach(i):
            raise DomainError(f"no switch of the walk enters tail bundle {n}")
        return walk.switches[i]

    def evaluate(self, r: float) -> Bundle:
        """The bundle of type ``r``: the walk's bundle where the running
        maximum of its switches first passes ``r``, as in
        :meth:`FiniteMechanism.evaluate`, with a tie going to the higher
        bundle.  A clamped tail's repeated bundle holds up to the limit
        edge; a type past the end of a walk that ended in an error gets the
        limit bundle."""
        r = self.domain.check_param(r)
        below = self.limit_lo is not None and r < self.limit_lo
        if not below and (self.limit_hi is None or r <= self.limit_hi):
            return self.limit_bundle
        walk = self._walks[below]
        x, find = (r, bisect_right) if below else (-r, bisect_left)
        while (k := find(walk.steps, x)) == len(walk.steps) and walk.end is None:
            walk.grow()
        held = k < len(walk.steps) or walk.end is _CLAMPED
        return walk.bundles[k] if held else self.limit_bundle

    def revenue_segments(self, dist, tol: float = 1e-7) -> Iterator[tuple]:
        """Allocation intervals, tails summed until the residual mass times
        the residual payment gap is below ``tol``; a ``tol`` past a tail's
        resolution raises :class:`TractabilityError`."""

        def done(s, z, a, b, end):
            gap = s * (self.limit_bundle.t - z.t)
            return dist.mass(*_span(s, b, end)) * gap < tol

        lo = self.limit_lo if self.limit_lo is not None else dist.lo
        hi = self.limit_hi if self.limit_hi is not None else dist.hi
        yield from self._staircase(True, dist.lo, dist.hi, done)
        yield max(lo, dist.lo), min(hi, dist.hi), self.limit_bundle
        yield from reversed(list(self._staircase(False, dist.lo, dist.hi, done)))

    def _staircase(self, below: bool, lo: float, hi: float,
                   done: Callable) -> Iterator[tuple]:
        """A tail's walk read from the outer end of the support ``[lo, hi]``
        to the limit edge ``end``, in ``s*r`` (see :func:`_span`): each tail
        bundle ``z`` on its interval ``[a, b]`` up to the first for which
        ``done(s, z, a, b, end)`` holds, then the limit bundle on the rest,
        or a clamped tail's repeated last bundle.  A switch that falls by
        more than ``from_range``'s ``1e-12`` raises
        :class:`TractabilityError`, and so does the end of a walk that
        ended in one; a walk that ended at a malformed bundle raises its
        :class:`DomainError`.  A coordinate that only stalls leaves the
        switch to fail, a limit of resolution."""
        walk = self._walks[below]
        if walk.tail is None:
            return
        s = walk.s
        a = s * (lo if below else hi)
        end = s * (self.limit_lo if below else self.limit_hi)
        if a >= end:
            return  # the support stops short of this tail
        i, last = 0, -math.inf
        while walk.reach(i):
            z, switch = walk.bundles[i], walk.switches[i]
            if switch < last - 1e-12:
                raise TractabilityError(f"its switching parameters fall at "
                                        f"tail index {walk.tail.start + i}")
            b = min(max(switch, a), end)
            yield (*_span(s, a, b), z)
            if done(s, z, a, b, end):
                yield (*_span(s, b, end), self.limit_bundle)
                return
            a, i, last = b, i + 1, switch
        if walk.end is not _CLAMPED:
            raise walk.end.with_traceback(None)  # dropping its old frames
        yield (*_span(s, a, end), walk.bundles[i])


def _search_best_on_line(domain: PreferenceDomain, r: float, slope: float,
                         t_lo: float, t_hi: float) -> float:
    """Payment of the best bundle on ``q = slope * t`` by bounded search, for
    families without the closed form ``best_on_line``."""
    from scipy.optimize import minimize_scalar

    def objective(t):
        return float(domain.canonical_payment_many(r, t, min(slope * t, 1.0)))

    res = minimize_scalar(objective, bounds=(t_lo, t_hi), method="bounded",
                          options={"xatol": 1e-13})
    # endpoints can beat the interior probe on flat objectives
    return min((float(res.x), t_lo, t_hi), key=objective)


def countable_geometric(domain: PreferenceDomain, line: AnchorLine,
                        seq: ParamSequence) -> CountableMechanism:
    """Best-bundle-on-a-line construction of a countable mechanism.

    For each parameter in the sequence the allocated bundle maximizes the
    preference along the anchor line (equivalently, minimizes the canonical
    payment): the family's closed form ``best_on_line`` where it has one,
    otherwise a bounded search.  The bundles converge to the maximizer at
    the limit parameter, which becomes the mechanism's limit bundle; switching
    parameters between consecutive bundles are their indifference
    parameters, exactly as in the finite construction.
    """
    if not math.isfinite(seq.limit):
        raise DomainError("parameter sequence must converge to a finite limit")
    domain.check_param(seq.limit)
    probe = [seq(seq.start + i) for i in range(6)]
    diffs = [b - a for a, b in zip(probe, probe[1:])]
    increasing = all(d > 0 for d in diffs)
    decreasing = all(d < 0 for d in diffs)
    constant = all(d == 0 for d in diffs)
    if not (increasing or decreasing or constant):
        raise DomainError("parameter sequence must be monotone")
    gap0 = abs(seq.limit - probe[0])
    gap5 = abs(seq.limit - probe[-1])
    if not constant and gap5 >= gap0:
        raise DomainError("parameter sequence does not approach its limit")

    best_on_line = domain.family.best_on_line or partial(_search_best_on_line,
                                                         domain)

    def argbest(r: float) -> Bundle:
        return line.bundle(best_on_line(r, line.slope, line.t_lo, line.t_hi))

    limit_bundle = argbest(seq.limit)
    if constant:
        # degenerate: one bundle allocated everywhere
        return CountableMechanism(domain, limit_bundle=argbest(seq(seq.start)))
    tail = TailRule(lambda n: argbest(seq(n)), seq.start)
    z0 = tail.bundle(seq.start)
    z1 = tail.bundle(seq.start + 1)
    chain = (z0, z1, limit_bundle) if increasing else (limit_bundle, z1, z0)
    if not all(is_diagonal(a, b) for a, b in zip(chain, chain[1:])):
        raise DomainError(
            "best bundles along the line are not strictly monotone toward "
            "the limit; steepen the line or shorten the parameter range"
        )
    side = ({"increasing": tail, "limit_lo": seq.limit} if increasing
            else {"decreasing": tail, "limit_hi": seq.limit})
    return CountableMechanism(domain, limit_bundle, **side)


def epsilon_truncate(cmech: CountableMechanism, eps: float,
                     dist) -> FiniteMechanism:
    """Cut each infinite tail into finitely many bundles.

    Each tail is cut where the residual revenue mass (limit payment for the
    rising tail, the global payment bound for the falling tail, times the
    mass of the remaining parameter interval) drops below ``eps/2``; beyond
    the cut the limit bundle is allocated, starting at its indifference
    parameter with the last kept bundle.  The resulting finite mechanism's
    expected revenue differs from the countable one's by at most ``eps``:
    ``|E(countable) - E(truncation)| <= eps``, with no sign.  The truncation
    can earn more than the countable mechanism, because the forced switch
    to the limit bundle charges the limit payment on
    ``[bp(w, limit), limit_lo)``, where the countable staircase still
    charges less; that overcharge can outweigh the undercharge of the last
    kept bundle below it (see the README's epsilon-truncation section).
    The support of ``dist`` must lie in the domain interval.  A cut past
    the tail's floating-point resolution raises :class:`TractabilityError`.
    """
    from .measure import _check_support, revenue_upper_bound

    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    _check_support(cmech.domain, dist)

    def kept(below: bool) -> list:
        """Bundles of one tail up to its cut, outermost first.  The residual
        weight is the limit payment below the limit and the payment bound
        above it."""
        weight = (cmech.limit_bundle.t if below
                  else revenue_upper_bound(cmech.domain, dist))

        def done(s, z, a, b, end):
            return weight * dist.mass(*_span(s, a, end)) < eps / 2.0

        return [z for _, _, z in cmech._staircase(below, dist.lo, dist.hi, done)
                if z != cmech.limit_bundle]

    try:
        bundles = [*kept(True), cmech.limit_bundle, *reversed(kept(False))]
    except TractabilityError as exc:
        raise TractabilityError(
            f"eps={eps} is below the tail's numerical resolution: {exc}"
        ) from exc
    return from_range(cmech.domain, bundles)
