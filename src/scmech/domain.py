"""Preference domains with the single-crossing property.

A preference over payment/quantity bundles ``(t, q)`` is represented
ordinally through its *canonical payment* map ``f_r``: the payment ``t'``
such that the full bundle ``(t', 1)`` is indifferent to the queried bundle
under the preference with order parameter ``r``.  Lower canonical payment
means a better bundle, and ``f_r(t, 1) = t`` for every ``r``.

Each built-in family stores closed forms for

* ``canonical(r, t, q)``   - the canonical payment of a bundle,
* ``curve_payment(r, c, q)`` - the payment at quantity ``q`` on the
  indifference curve whose canonical payment is ``c`` (the inverse of
  ``canonical`` in ``t``),
* ``special(a, b)``        - the unique order parameter making two diagonal
  bundles indifferent, where a closed form exists, and
* ``best_on_line(r, slope, t_lo, t_hi)`` - the payment of the best bundle
  on the segment ``q = slope * t``, ``t_lo <= t <= t_hi``, where a closed
  form exists.

Seven of the nine built-in families are instances of two separable forms
and are built from their exponents rather than written out:

* classical, ``f_r(t, q) = phi^-1(phi(t) + a(r) * (1 - h(q)))`` with
  ``phi(t) = t**p``, ``h(q) = q**k``, ``p`` in {1, 2} and ``k`` in
  {1, 1/2} (:func:`_classical`: ``quasilinear``, ``sqrt_quasilinear``,
  ``income_effect``, ``payment_param``, ``two_param``);
* restricted classical, ``f_r(t, q) = r * (1 - w(q)) + w(q) * t`` with
  ``w(q) = q**k``, ``k`` in {1, 2} (:func:`_restricted`: ``myerson``,
  ``risk_averse``).

``power_q`` and ``power_q_raw`` are written out and have neither closed
form for the indifference parameter or the best bundle on a line.

Three of the factory families make the revenue program separate: with
``phi`` and ``a`` the identity (``quasilinear``, ``sqrt_quasilinear``,
revenue in payments) and with ``w(q) = q`` (``myerson``, revenue in
expected payments), binding indifference at the breakpoints telescopes the
revenue into ``sum_k theta_k (1 - F(theta_k)) * dh_k`` with
``sum_k dh_k <= 1``.  The factories record the revenue mode in which this
holds as ``Family.separable_mode``.

For the classical families with ``p = 2`` (``income_effect``,
``payment_param``, ``two_param``) the payment-mode program has an exact
inner solution: at fixed breakpoints the optimal quantities follow in
closed form from ``a`` and the inverse of ``h``, which the factory
records as ``Family.exact_quantities``.

The order parameter is chosen per family so that ``f_r(z)`` is strictly
increasing in ``r`` for every bundle with ``q < 1``; families whose natural
parameter runs the other way are stored under a reparametrization (see the
individual family notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, RichnessError

# Tolerances: indifference is decided in canonical-payment units, bisection
# runs on the order parameter.
TAU_INDIFF = 1e-9
BISECT_TOL = 1e-12

# Splice quantity of the spliced power family: the power piece q**d - t is
# single-crossing for d in [1/4, 1/3] only where d*ln(q) + 1 > 0, i.e.
# q > exp(-3); below the splice a linear piece takes over.
POWER_Q_SPLICE = math.exp(-3.0) + 0.01


class Bundle(NamedTuple):
    """A payment/quantity pair; ``q`` is a share or a win probability."""

    t: float
    q: float


ZERO_BUNDLE = Bundle(0.0, 0.0)


class Ordering(Enum):
    A_STRICT = "a-strictly"
    B_STRICT = "b-strictly"
    INDIFFERENT = "indifferent"


def check_bundle(z: Bundle) -> Bundle:
    t, q = float(z[0]), float(z[1])
    if not (math.isfinite(t) and math.isfinite(q)):
        raise DomainError(f"bundle has non-finite coordinates: {z}")
    if t < 0.0:
        raise DomainError(f"payment must be nonnegative, got t={t}")
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"quantity must lie in [0, 1], got q={q}")
    return Bundle(t, q)


def is_diagonal(a: Bundle, b: Bundle) -> bool:
    """Strict componentwise order ``a < b``."""
    return a[0] < b[0] and a[1] < b[1]


def _power_q_slope_label(delta):
    # Linear bijection [1/4, 1/3] -> [1/8, 1/2] labelling the linear pieces
    # below the splice quantity.
    return 0.125 + 4.5 * (delta - 0.25)


def _two_param_coeff(r):
    # Single chart across the two branches: coefficient of (1 - sqrt(q)) in
    # the squared-payment canonical form.  Continuous and increasing on
    # (0, 3), equal to 2 at the branch junction, and infinite at 3.
    if np.ndim(r) == 0:
        r = float(r)
        return r if r <= 2.0 else 2.0 / (3.0 - r) if r < 3.0 else math.inf
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(r <= 2.0, r, 2.0 / (3.0 - r))


def _two_param_coeff_inv(c):
    return c if c <= 2.0 else 3.0 - 2.0 / c


class ExactQuantities(NamedTuple):
    """Ingredients of a classical form with ``phi(t) = t**2``: the
    coefficient ``a`` and the inverse of the quantity transform ``h``,
    both vectorized."""

    a: Callable
    h_inv: Callable


@dataclass(frozen=True)
class Family:
    """Closed-form description of one preference family.

    ``kind`` is ``"classical"`` (monotone everywhere) or ``"restricted"``
    (monotone up to a payment bound ``t_R = r``, with every bundle on the
    bound indifferent to ``(0, 0)``).  The built-in families other than
    ``power_q`` and ``power_q_raw`` are instances of the separable forms
    built by :func:`_classical` and :func:`_restricted`; any family can be
    given directly.  ``special`` and ``best_on_line`` are optional closed
    forms; ``best_on_line``, ``separable_mode`` and ``exact_quantities``
    come last so that positional construction up to ``blurb`` keeps its
    meaning.  ``separable_mode`` is the revenue mode in which the revenue
    program separates into one posted price (see the module notes); the
    factories derive it, and ``None`` means the program does not separate.
    ``exact_quantities`` holds ``a`` and the inverse of ``h`` for a
    classical form with ``phi(t) = t**2``, whose payment-mode quantities
    the solver computes in closed form; :func:`_classical` derives it, and
    it is ``None`` for every other family.
    """

    name: str
    kind: str
    param_lo: float
    param_hi: float
    utility: Callable
    canonical: Callable
    curve_payment: Callable
    special: Optional[Callable] = None
    blurb: str = ""
    best_on_line: Optional[Callable] = None
    separable_mode: Optional[str] = None
    exact_quantities: Optional[ExactQuantities] = None

    @property
    def restricted(self) -> bool:
        return self.kind == "restricted"


def _identity(x):
    return x


def _square(x):
    return x * x


# Evaluated form of each exponent the factories take: x*x and np.sqrt are
# correctly rounded, which a general x**p need not be.
_POWERS = {1: _identity, 2: _square, 0.5: np.sqrt}


def _clamp(t, lo, hi):
    return min(max(t, lo), hi)


def _classical(name, utility, p, k, a=_identity, a_inv=_identity,
               param_hi=math.inf, blurb=""):
    """Family with canonical payment ``phi^-1(phi(t) + a(r) * (1 - h(q)))``.

    ``phi(t) = t**p`` is the payment transform and ``h(q) = q**k`` the
    quantity transform, with ``p >= k``; ``a`` is an increasing positive
    coefficient with inverse ``a_inv``.  The form is linear in ``phi(t)``,
    so the curve inverse, the indifference parameter of two bundles and
    the best bundle on a line follow in closed form.
    """
    phi, h = _POWERS[p], _POWERS[k]
    if phi is _identity:
        def canonical(r, t, q):
            return t + a(r) * (1.0 - h(q))

        def curve_payment(r, c, q):
            return c - a(r) * (1.0 - h(q))
    else:
        def gap(r, q):
            # a(r) * (1 - h(q)).  Where a(r) is infinite (two_param at
            # r = 3) payments weigh nothing: a bundle below q = 1 is worth
            # no payment at q = 1, and one at q = 1 is its own canonical
            # payment.
            ar, dh = a(r), 1.0 - h(q)
            if isinstance(ar, float) and ar < math.inf:
                return ar * dh
            with np.errstate(invalid="ignore"):
                return np.where(dh == 0.0, 0.0, ar * dh)

        def canonical(r, t, q):
            return np.sqrt(phi(t) + gap(r, q))

        def curve_payment(r, c, q):
            # A difference of squares, so that the round trip through
            # canonical is exact at t = 0; NaN where the curve leaves the
            # bundle space.
            s = np.sqrt(gap(r, q))
            with np.errstate(invalid="ignore"):
                return np.sqrt((c - s) * (c + s))

    def special(za, zb):
        return a_inv((phi(zb[0]) - phi(za[0])) / (h(zb[1]) - h(za[1])))

    # On q = slope*t the best bundle minimizes t**p - a(r) * (slope*t)**k,
    # convex in t: stationary at t**(p-k) = a(r) k slope**k / p when p > k;
    # when p = k it is t**p * (1 - a(r) slope**k), so an endpoint wins.
    if p == k:
        def best_on_line(r, slope, t_lo, t_hi):
            return t_lo if a(r) * slope**k < 1.0 else t_hi
    else:
        def best_on_line(r, slope, t_lo, t_hi):
            t = (a(r) * k * slope**k / p) ** (1.0 / (p - k))
            return _clamp(t, t_lo, t_hi)

    # with phi and a the identity, t_k - t_{k-1} = theta_k * dh_k
    separable = "payment" if p == 1 and a is _identity else None
    # with phi(t) = t**2, t_k**2 - t_{k-1}**2 = a(theta_k) * dh_k
    exact = ExactQuantities(a, _POWERS[1 / k]) if p == 2 else None
    return Family(name, "classical", 0.0, param_hi, utility, canonical,
                  curve_payment, special, blurb, best_on_line, separable,
                  exact)


def _restricted(name, utility, k, blurb=""):
    """Family with canonical payment ``r * (1 - w(q)) + w(q) * t``.

    ``w(q) = q**k`` is an increasing quantity weight with ``w(0) = 0`` and
    ``w(1) = 1``, so every bundle with payment ``r`` is indifferent to
    ``(0, 0)``.
    """
    w = _POWERS[k]

    def canonical(r, t, q):
        wq = w(q)
        return r * (1.0 - wq) + wq * t

    def curve_payment(r, c, q):
        # NaN at w(q) = 0, where every payment up to r is on the curve
        wq = np.asarray(w(q), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(wq > 0.0, r - (r - c) / np.where(wq > 0.0, wq, 1.0),
                           np.nan)
        return out if out.ndim else float(out)

    def special(za, zb):
        wa, wb = w(za[1]), w(zb[1])
        return (wb * zb[0] - wa * za[0]) / (wb - wa)

    def best_on_line(r, slope, t_lo, t_hi):
        # maximizes w(slope*t) * (r - t), unimodal in t >= 0
        return _clamp(k * r / (k + 1.0), t_lo, t_hi)

    # with w(q) = q, q_k t_k - q_{k-1} t_{k-1} = theta_k * dq_k
    separable = "expected_payment" if k == 1 else None
    return Family(name, "restricted", 0.0, math.inf, utility, canonical,
                  curve_payment, special, blurb, best_on_line, separable)


def _ql_utility(r, t, q):
    return r * q - t


def _sq_utility(r, t, q):
    return r * np.sqrt(q) - t


def _ie_utility(r, t, q):
    return r * np.sqrt(q) - t * t


def _pp_utility(r, t, q):
    # Natural form q - theta*t**2 with theta = 1/r; larger natural theta
    # cuts from below, so the stored parameter is its reciprocal.
    return q - t * t / r


def _tp_utility(r, t, q):
    if r <= 2.0:
        return r * np.sqrt(q) - t * t
    return 2.0 * np.sqrt(q) - (3.0 - r) * t * t


def _pq_utility(r, t, q):
    q = np.asarray(q, dtype=float)
    qs = POWER_Q_SPLICE
    hi = q**r - t
    lo = qs**r - _power_q_slope_label(r) * (qs - q) - t
    out = np.where(q >= qs, hi, lo)
    return out if out.ndim else float(out)


def _pq_canonical(r, t, q):
    q = np.asarray(q, dtype=float)
    qs = POWER_Q_SPLICE
    hi = t + 1.0 - q**r
    lo = t + _power_q_slope_label(r) * (qs - q) + 1.0 - qs**r
    out = np.where(q >= qs, hi, lo)
    return out if out.ndim else float(out)


def _pq_curve(r, c, q):
    q = np.asarray(q, dtype=float)
    qs = POWER_Q_SPLICE
    hi = c - 1.0 + q**r
    lo = c - 1.0 + qs**r - _power_q_slope_label(r) * (qs - q)
    out = np.where(q >= qs, hi, lo)
    return out if out.ndim else float(out)


def _pqr_utility(r, t, q):
    return q**r - t


def _pqr_canonical(r, t, q):
    return t + 1.0 - q**r


def _pqr_curve(r, c, q):
    return c - 1.0 + q**r


def _my_utility(r, t, q):
    return q * (r - t)


def _ra_utility(r, t, q):
    return q * np.sqrt(np.maximum(r - t, 0.0))


FAMILIES: dict[str, Family] = {}


def register_family(fam: Family) -> Family:
    """Extension point: add a preference family to the registry.

    The family supplies its utility, a canonical-payment map increasing in
    the order parameter, that map's inverse in the payment, and optionally
    a closed-form indifference parameter (without one, indifference
    parameters are found by bisection) and a closed-form best bundle on a
    line (without one, :func:`~scmech.mechanism.countable_geometric` finds
    it by bounded search).  Everything else (mechanism construction,
    verification, optimization) is family-agnostic.
    """
    if fam.name in FAMILIES:
        raise ValueError(f"family {fam.name!r} already registered")
    FAMILIES[fam.name] = fam
    return fam


register_family(_classical(
    "quasilinear", _ql_utility, 1, 1,
    blurb="r*q - t; linear indifference curves with slope 1/r",
))
register_family(_classical(
    "sqrt_quasilinear", _sq_utility, 1, 0.5,
    blurb="r*sqrt(q) - t; strictly convex indifference curves",
))
register_family(_classical(
    "income_effect", _ie_utility, 2, 0.5,
    blurb="r*sqrt(q) - t**2; payment increments shrink at higher payments",
))
register_family(_classical(
    "payment_param", _pp_utility, 2, 1,
    blurb="q - t**2/r; stored parameter is the reciprocal of the payment weight",
))
register_family(_classical(
    "two_param", _tp_utility, 2, 0.5,
    _two_param_coeff, _two_param_coeff_inv, param_hi=3.0,
    blurb="two-branch chart: r*sqrt(q)-t**2 on (0,2], 2*sqrt(q)-(3-r)*t**2 on [2,3)",
))
register_family(Family(
    "power_q", "classical", 0.25, 1.0 / 3.0,
    _pq_utility, _pq_canonical, _pq_curve, None,
    blurb="q**r - t above the splice quantity, linear label below it",
))
register_family(Family(
    "power_q_raw", "classical", 0.0, 1.0,
    _pqr_utility, _pqr_canonical, _pqr_curve, None,
    blurb="q**r - t on the full quantity range; not single-crossing",
))
register_family(_restricted(
    "myerson", _my_utility, 1,
    blurb="q*(r - t); win-probability model with expected payment q*t",
))
register_family(_restricted(
    "risk_averse", _ra_utility, 2,
    blurb="q*sqrt(r - t); payments above r are inadmissible",
))


@dataclass(frozen=True)
class PreferenceDomain:
    """A one-parameter slice of a preference family.

    ``lo``/``hi`` bound the admissible order parameters. ``hi`` may be
    ``inf`` for families that extend indefinitely.
    """

    family: Family
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty parameter interval [{self.lo}, {self.hi}]")
        if self.lo < self.family.param_lo - 1e-12 or self.hi > self.family.param_hi + 1e-12:
            raise DomainError(
                f"interval [{self.lo}, {self.hi}] outside the valid range "
                f"[{self.family.param_lo}, {self.family.param_hi}] of family "
                f"{self.family.name!r}"
            )

    @property
    def kind(self) -> str:
        return self.family.kind

    @property
    def restricted(self) -> bool:
        return self.family.restricted

    # -- admissibility ----------------------------------------------------

    def check_param(self, r: float) -> float:
        r = float(r)
        if not (self.lo <= r <= self.hi) or not math.isfinite(r):
            raise DomainError(
                f"parameter {r} outside interval [{self.lo}, {self.hi}]"
            )
        return r

    def payment_bound(self, r: float) -> Optional[float]:
        """Largest admissible payment under preference ``r``; ``None`` for
        classical families."""
        r = self.check_param(r)
        return r if self.restricted else None

    def check_admissible(self, r: float, z: Bundle) -> Bundle:
        z = check_bundle(z)
        if self.restricted and z.t > r + 1e-12:
            raise DomainError(
                f"bundle {z} has payment above the bound t_R={r} of this "
                f"restricted preference"
            )
        return z

    # -- core ordinal operations ------------------------------------------

    def canonical_payment(self, r: float, z: Bundle) -> float:
        """Payment ``t'`` with ``(t', 1)`` indifferent to ``z`` under ``r``."""
        r = self.check_param(r)
        z = self.check_admissible(r, z)
        return float(self.family.canonical(r, z.t, z.q))

    def canonical_payment_many(self, r: float, t, q):
        """Vectorized canonical payment; no admissibility checks."""
        return self.family.canonical(r, np.asarray(t, float), np.asarray(q, float))

    def curve_payment(self, r: float, c: float, q):
        """Payment at quantity ``q`` on the indifference curve with
        canonical payment ``c``.  NaN where the curve leaves the bundle
        space."""
        return self.family.curve_payment(r, c, np.asarray(q, float))

    def prefers(self, r: float, a: Bundle, b: Bundle,
                tol: float = TAU_INDIFF) -> Ordering:
        """Compare two bundles under preference ``r``.

        Lower canonical payment wins; differences within ``tol`` count as
        indifference.
        """
        fa = self.canonical_payment(r, a)
        fb = self.canonical_payment(r, b)
        if abs(fa - fb) <= tol:
            return Ordering.INDIFFERENT
        return Ordering.A_STRICT if fa < fb else Ordering.B_STRICT

    def special_preference(self, a: Bundle, b: Bundle) -> float:
        """The unique parameter making diagonal bundles ``a < b`` indifferent.

        Uses the family closed form when available, otherwise bisection on
        the canonical-payment difference, which changes sign exactly once
        on a single-crossing domain.
        """
        a, b = check_bundle(a), check_bundle(b)
        if not is_diagonal(a, b):
            raise DomainError(f"bundles must satisfy a < b componentwise: {a}, {b}")
        if self.restricted and math.isfinite(self.hi) and b.t >= self.hi:
            raise DomainError(
                f"payment {b.t} is not below the best payment bound {self.hi}"
            )
        if self.family.special is not None:
            r = float(self.family.special(a, b))
            if not (self.lo - 1e-12 <= r <= self.hi + 1e-12):
                raise RichnessError(
                    f"indifference parameter {r:.6g} for {a}, {b} lies outside "
                    f"[{self.lo}, {self.hi}]"
                )
            return min(max(r, self.lo), self.hi)
        return self._special_by_bisection(a, b)

    def _special_by_bisection(self, a: Bundle, b: Bundle) -> float:
        def gap(r):
            return (self.family.canonical(r, a.t, a.q)
                    - self.family.canonical(r, b.t, b.q))

        lo, hi = self.lo, self.hi
        if not math.isfinite(hi):
            # Expand geometrically until the sign flips; the gap is
            # increasing in r (higher parameters favor the larger bundle).
            hi = max(1.0, lo * 2.0)
            for _ in range(200):
                if gap(hi) > 0.0:
                    break
                hi *= 2.0
            else:
                raise RichnessError(f"no indifference parameter found for {a}, {b}")
        glo, ghi = gap(lo), gap(hi)
        if glo == 0.0:
            return lo
        if ghi == 0.0:
            return hi
        if glo * ghi > 0.0:
            raise RichnessError(
                f"no parameter in [{self.lo}, {self.hi}] makes {a} and {b} "
                f"indifferent"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= BISECT_TOL:
                return mid
            gm = gap(mid)
            if gm == 0.0:
                return mid
            if glo * gm < 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
        return 0.5 * (lo + hi)

    # -- serialization -----------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "family": self.family.name,
            "params": {"lo": self.lo, "hi": self.hi},
            "kind": self.kind,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "PreferenceDomain":
        from .errors import SpecParseError

        try:
            name = spec["family"]
        except (KeyError, TypeError):
            raise SpecParseError("domain spec needs a 'family' entry")
        if not isinstance(name, str) or name not in FAMILIES:
            raise SpecParseError(
                f"unknown family {name!r}; known: {sorted(FAMILIES)}"
            )
        fam = FAMILIES[name]
        params = spec.get("params", {}) or {}
        if not isinstance(params, dict):
            raise SpecParseError("domain spec 'params' must be an object")
        lo = params.get("lo", fam.param_lo)
        hi = params.get("hi", fam.param_hi)
        try:
            lo = fam.param_lo if lo is None else float(lo)
            hi = fam.param_hi if hi is None else float(hi)
        except (TypeError, ValueError) as exc:
            raise SpecParseError(
                f"domain bounds must be numbers: {exc}") from None
        dom = cls(fam, lo, hi)
        kind = spec.get("kind")
        if kind is not None and kind != dom.kind:
            raise SpecParseError(
                f"family {name!r} is {dom.kind}, spec says {kind!r}"
            )
        return dom


def make_domain(family: str, lo: Optional[float] = None,
                hi: Optional[float] = None) -> PreferenceDomain:
    """Convenience constructor by family name with default bounds."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    fam = FAMILIES[family]
    return PreferenceDomain(
        fam,
        fam.param_lo if lo is None else float(lo),
        fam.param_hi if hi is None else float(hi),
    )


# -- single-crossing validation --------------------------------------------


@dataclass(frozen=True)
class TangencyWitness:
    """Evidence that two preferences' indifference curves meet more than
    once, or touch tangentially."""

    r_lo: float
    r_hi: float
    anchor: Bundle
    location: Bundle
    kind: str  # "multiple-intersections" | "tangency"

    def to_dict(self) -> dict:
        return {
            "r_lo": self.r_lo,
            "r_hi": self.r_hi,
            "anchor": [self.anchor.t, self.anchor.q],
            "location": [self.location.t, self.location.q],
            "kind": self.kind,
        }


@dataclass(frozen=True)
class SingleCrossingReport:
    tangency_witnesses: tuple
    n_params: int
    n_anchors: int

    @property
    def ok(self) -> bool:
        return len(self.tangency_witnesses) == 0

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_params": self.n_params,
            "n_anchors": self.n_anchors,
            "tangency_witnesses": [w.to_dict() for w in self.tangency_witnesses],
        }


def _curve_slope(domain: PreferenceDomain, r: float, c: float, q: float) -> float:
    # dt/dq along the indifference curve, by central difference.
    h = 1e-6 * max(q, 1e-3)
    q_lo, q_hi = max(q - h, 1e-12), min(q + h, 1.0)
    t_lo = float(domain.curve_payment(r, c, q_lo))
    t_hi = float(domain.curve_payment(r, c, q_hi))
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)) or q_hi == q_lo:
        return math.nan
    return (t_hi - t_lo) / (q_hi - q_lo)


def validate_single_crossing(
    domain: PreferenceDomain,
    bundle_grid: Sequence[Bundle],
    param_grid: Sequence[float],
    q_grid: Optional[Sequence[float]] = None,
    touch_tol: float = 1e-7,
    slope_tol: float = 1e-6,
) -> SingleCrossingReport:
    """Search for single-crossing failures on a grid.

    For every parameter pair ``r' < r''`` and every anchor bundle, both
    indifference curves through the anchor are traced over the quantity
    grid.  A pair is reported when the curves meet at two or more grid
    locations, or when they touch tangentially (equal slopes without a
    transversal crossing) at the anchor.
    """
    anchors = [check_bundle(z) for z in bundle_grid]
    params = sorted(float(r) for r in param_grid)
    if not anchors or not params:
        raise DomainError("grids must be nonempty")
    if q_grid is None:
        q_grid = np.linspace(1e-4, 1.0, 201)
    q_grid = np.asarray(sorted(set(float(q) for q in q_grid)), dtype=float)

    witnesses: list[TangencyWitness] = []
    for i, r1 in enumerate(params):
        for r2 in params[i + 1:]:
            for anchor in anchors:
                w = _check_pair(domain, r1, r2, anchor, q_grid,
                                touch_tol, slope_tol)
                if w is not None:
                    witnesses.append(w)
    return SingleCrossingReport(tuple(witnesses), len(params), len(anchors))


def _check_pair(domain, r1, r2, anchor, q_grid, touch_tol, slope_tol):
    try:
        c1 = domain.canonical_payment(r1, anchor)
        c2 = domain.canonical_payment(r2, anchor)
    except DomainError:
        return None  # anchor inadmissible for this pair
    qs = np.unique(np.append(q_grid, anchor.q))
    with np.errstate(invalid="ignore"):
        t_on_1 = np.asarray(domain.curve_payment(r1, c1, qs), dtype=float)
        h = np.asarray(domain.canonical_payment_many(r2, t_on_1, qs),
                       dtype=float) - c2
    valid = np.isfinite(t_on_1) & (t_on_1 >= -1e-12) & np.isfinite(h)
    if domain.restricted:
        valid &= t_on_1 <= min(r1, r2) + 1e-12
    qs, h, t_on_1 = qs[valid], h[valid], t_on_1[valid]
    if qs.size < 3:
        return None

    scale = max(1.0, abs(c2))
    signs = np.where(np.abs(h) <= touch_tol * scale, 0, np.sign(h)).astype(int)

    # Compress into runs and count intersections: each zero-run is one
    # contact; each sign flip between adjacent nonzero runs is one crossing.
    runs: list[tuple[int, int]] = []  # (sign, representative index)
    for idx, s in enumerate(signs):
        if not runs or runs[-1][0] != s:
            runs.append((s, idx))
    contacts = []  # (index, tangent?)
    prev_nonzero = None
    for j, (s, idx) in enumerate(runs):
        if s == 0:
            nxt = runs[j + 1][0] if j + 1 < len(runs) else None
            tangent = (prev_nonzero is not None and nxt is not None
                       and prev_nonzero == nxt)
            contacts.append((idx, tangent))
        else:
            if prev_nonzero is not None and prev_nonzero != s:
                # transversal crossing between grid points, unless a zero
                # run in between already recorded the contact
                if runs[j - 1][0] != 0:
                    contacts.append((idx, False))
            prev_nonzero = s

    if len(contacts) >= 2:
        idx = contacts[1][0]
        loc = Bundle(float(t_on_1[idx]), float(qs[idx]))
        return TangencyWitness(r1, r2, anchor, loc, "multiple-intersections")
    if len(contacts) == 1 and contacts[0][1]:
        idx = contacts[0][0]
        loc = Bundle(float(t_on_1[idx]), float(qs[idx]))
        return TangencyWitness(r1, r2, anchor, loc, "tangency")

    # Slope tangency exactly at the anchor, even if the grid never sees a
    # second contact.
    s1 = _curve_slope(domain, r1, c1, anchor.q)
    s2 = _curve_slope(domain, r2, c2, anchor.q)
    if (math.isfinite(s1) and math.isfinite(s2)
            and abs(s1 - s2) <= slope_tol * max(1.0, abs(s1))):
        return TangencyWitness(r1, r2, anchor, anchor, "tangency")
    return None
