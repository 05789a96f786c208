"""Preference domains with the single-crossing property.

A preference over payment/quantity bundles ``(t, q)`` is represented
ordinally through its *canonical payment* map ``f_r``: the payment ``t'``
such that the full bundle ``(t', 1)`` is indifferent to the queried bundle
under the preference with order parameter ``r``.  Lower canonical payment
means a better bundle, and ``f_r(t, 1) = t`` for every ``r``.

Each built-in family stores closed forms for

* ``canonical(r, t, q)``   - the canonical payment of a bundle,
* ``bind(r, t, q, q2)``  - the payment at quantity ``q2`` indifferent to
  ``(t, q)``, one binding step,
* ``curve_payment(r, c, q)`` - the payment at quantity ``q`` on the
  indifference curve whose canonical payment is ``c`` (the inverse of
  ``canonical`` in ``t``),
* ``special(a, b)``        - the unique order parameter making two diagonal
  bundles indifferent, where a closed form exists, and
* ``best_on_line(r, slope, t_lo, t_hi)`` - the payment of the best bundle
  on the segment ``q = slope * t``, ``t_lo <= t <= t_hi``, where a closed
  form exists.

The built-in forms of the last two, and the canonical payment of a form
without ``special``, take arrays as they take floats, elementwise, with
the bits each float gets alone (``_ARRAY_FORMS``).

The nine built-in families are instances of three forms and are built
from their ingredients rather than written out:

* classical, ``f_r(t, q) = phi^-1(phi(t) + a(r) * (1 - h(q)))`` with
  ``phi(t) = t**p``, ``h(q) = q**k``, ``p`` in {1, 2} and ``k`` in
  {1, 1/2} (:func:`_classical`: ``quasilinear``, ``sqrt_quasilinear``,
  ``income_effect``, ``payment_param``, ``two_param``);
* restricted classical, ``f_r(t, q) = r * (1 - w(q)) + w(q) * t`` with
  ``w(q) = q**k``, ``k`` in {1, 2} (:func:`_restricted`: ``myerson``,
  ``risk_averse``);
* linear in the payment, ``f_r(t, q) = t + K(r, q)`` with ``K`` the
  canonical payment of ``(0, q)`` (:func:`_linear`: ``power_q``, with
  ``K = 1 - q**r`` spliced to a linear piece at small ``q``, and
  ``power_q_raw``, with ``K = 1 - q**r``).

The last form has neither closed form for the indifference parameter or
the best bundle on a line.

Three of the factory families make the revenue program separate: with
``phi`` and ``a`` the identity (``quasilinear``, ``sqrt_quasilinear``,
revenue in payments) and with ``w(q) = q`` (``myerson``, revenue in
expected payments), binding indifference at the breakpoints telescopes the
revenue into ``sum_k theta_k (1 - F(theta_k)) * dh_k`` with
``sum_k dh_k <= 1``; expected payments are at most payments, so the first
two post one price in both modes.  The factories record the modes in which
a posted price is optimal as ``Family.posted_price_modes``.

For the classical families with ``p = 2`` (``income_effect``,
``payment_param``, ``two_param``) the payment-mode program has an exact
inner solution: at fixed breakpoints the optimal quantities follow in
closed form from ``a`` and the inverse of ``h``, which the factory
records as ``Family.exact_quantities``.  So has ``risk_averse``
(``w(q) = q**2``) in expected payments, where the revenue at fixed
breakpoints is concave in the quantities.  The factories record these
modes as ``Family.exact_quantity_modes``.

The order parameter is chosen per family so that ``f_r(z)`` is strictly
increasing in ``r`` for every bundle with ``q < 1``; families whose natural
parameter runs the other way are stored under a reparametrization (see the
individual family notes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, RichnessError

# Tolerances: indifference is decided in canonical-payment units, bisection
# runs on the order parameter.
TAU_INDIFF = 1e-9
BISECT_TOL = 1e-12
# The single-crossing validator's: two indifference curves touch where their
# payment gap is at most TOUCH_TOL of the canonical payment (or of 1), and
# their slopes at the anchor are equal within SLOPE_TOL, relatively.
TOUCH_TOL, SLOPE_TOL = 1e-7, 1e-6

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


def _bisect_special(family, za, zb, lo, hi):
    """Indifference parameters in ``[lo, hi]`` of the diagonal pairs
    ``za < zb``, each a pair ``(t, q)`` of floats or of arrays, by
    bisection on the canonical payments: their difference
    ``f_r(za) - f_r(zb)`` rises through 0 once in ``r``, and a root outside
    ``[lo, hi]`` converges to the nearer end.  One pair of floats takes
    the same steps on floats, without the array overhead."""
    steps = math.ceil(math.log2((hi - lo) / BISECT_TOL))
    if np.ndim(za[0]) == 0:
        a, b = float(lo), float(hi)
        for _ in range(steps):
            mid = 0.5 * (a + b)
            if family.canonical(mid, *za) < family.canonical(mid, *zb):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)
    a = np.full(np.shape(za[0]), float(lo))
    b = np.full(np.shape(za[0]), float(hi))
    for _ in range(steps):
        mid = 0.5 * (a + b)
        below = family.canonical(mid, *za) < family.canonical(mid, *zb)
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    return 0.5 * (a + b)


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
    # infinite from 3 on, as for a float, so that a grid of parameters
    # beyond the interval weighs them as each one alone
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(r <= 2.0, r,
                        np.where(r < 3.0, 2.0 / (3.0 - r), math.inf))


def _two_param_coeff_inv(c):
    if np.ndim(c) == 0:
        c = float(c)
        return c if c <= 2.0 else 3.0 - 2.0 / c
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(c <= 2.0, c, 3.0 - 2.0 / c)


def _two_param_inv_coeff_slope(r):
    # d(1/a)/dr on the chart: 1/a is 1/r up to 2, then (3 - r)/2
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(r <= 2.0, -1.0 / (r * r), -0.5)


class ExactQuantities(NamedTuple):
    """Ingredients of a classical form with ``phi(t) = t**2``: the
    coefficient ``a``, the inverse of the quantity transform ``h`` and the
    slope of ``1/a``, all vectorized, and the parameters where ``a`` has a
    kink."""

    a: Callable
    h_inv: Callable
    inv_a_slope: Callable
    kinks: tuple


@dataclass(frozen=True)
class Family:
    """Closed-form description of one preference family.

    ``kind`` is ``"classical"`` (monotone everywhere) or ``"restricted"``
    (monotone up to a payment bound ``t_R = r``, with every bundle on the
    bound indifferent to ``(0, 0)``).  The built-in families are instances
    of the forms built by :func:`_classical`, :func:`_restricted` and
    :func:`_linear`; any family can be given directly.  ``special``,
    ``best_on_line`` and ``bind`` are optional closed forms (see the
    module notes); a countable mechanism's walk calls a given family's
    ``special`` on two bundles of floats and its ``best_on_line`` on a
    float parameter, one at a time, and the built-in forms on a block of
    its tail at once.  The fields from
    ``best_on_line`` on come last so that positional construction up to
    ``blurb`` keeps its meaning.  Without ``bind`` a binding step is the
    round trip through ``canonical`` and ``curve_payment``.
    ``posted_price_modes`` are the revenue modes in which one posted price
    is optimal (see the module notes); the factories derive them, and an
    empty tuple means a posted price is optimal in neither.
    ``exact_quantities`` holds ``a`` and the inverse of ``h`` for a
    classical form with ``phi(t) = t**2``, whose payment-mode quantities
    the solver computes in closed form; :func:`_classical` derives it, and
    it is ``None`` for every other family.  ``exact_quantity_modes`` are
    the revenue modes in which the solver computes the quantities at fixed
    breakpoints exactly and searches only the breakpoints: payments for
    such a classical form, expected payments for a restricted form with
    ``w(q) = q**2``; the factories derive them.  ``canonical`` broadcasts
    an array ``r`` against arrays ``t`` and ``q`` (see
    :func:`register_family`).
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
    posted_price_modes: tuple[str, ...] = ()
    exact_quantities: Optional[ExactQuantities] = None
    bind: Optional[Callable] = None
    exact_quantity_modes: tuple[str, ...] = ()

    @property
    def restricted(self) -> bool:
        return self.kind == "restricted"


def _identity(x):
    return x


def _square(x):
    return x * x


def _inverse_slope(r):
    # d(1/r)/dr, -inf at 0
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return -1.0 / (r * r)


# Evaluated form of each exponent the factories take: x*x and np.sqrt are
# correctly rounded, which a general x**p need not be.
_POWERS = {1: _identity, 2: _square, 0.5: np.sqrt}


def _where(cond, a, b):
    """``a if cond else b``, for a float or elementwise for arrays."""
    out = np.where(cond, a, b)
    return out if out.ndim else float(out)


# The closed forms the factories below build, which take arrays as they
# take floats, with each float's bits: a countable mechanism's walk calls
# them once per block of its tail, and any other family's one pair or one
# parameter at a time (PreferenceDomain.special_preferences,
# mechanism._best_bundle_tail).
_ARRAY_FORMS: set = set()


def _clamp(t, lo, hi):
    # min(max(t, lo), hi) by Python's rules, for a float or elementwise: a
    # tie or a NaN keeps t, where np.maximum(-0.0, 0.0) gives 0.0
    t = _where(lo > t, lo, t)
    return _where(hi < t, hi, t)


def _pow(x, e):
    """``x ** e`` by the C library's ``pow``, as Python takes a float, for a
    float or elementwise for an array: numpy's array power rounds some
    powers an ulp apart from it (1 in 3,000 at ``e = 2``, 1 in 20 at
    ``e = 2/3``)."""
    if np.ndim(x) == 0:
        return x ** e
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(e)), float, x.size)


def _classical(name, utility, p, k, a=_identity, a_inv=_identity,
               param_hi=math.inf, blurb="", inv_a_slope=_inverse_slope,
               a_kinks=()):
    """Family with canonical payment ``phi^-1(phi(t) + a(r) * (1 - h(q)))``.

    ``phi(t) = t**p`` is the payment transform and ``h(q) = q**k`` the
    quantity transform, with ``p >= k``; ``a`` is an increasing positive
    coefficient with inverse ``a_inv``, ``inv_a_slope`` the slope of
    ``1/a`` and ``a_kinks`` the parameters where ``a`` has a kink.  The
    form is linear in ``phi(t)``,
    so the binding step ``phi^-1(phi(t) + a(r) * (h(q2) - h(q)))`` (to
    ``q2 = 1`` it is ``f_r``), the curve inverse, the indifference
    parameter of two bundles and the best bundle on a line follow in
    closed form.
    """
    phi, phi_inv, h = _POWERS[p], _POWERS[1 / p], _POWERS[k]

    def gap(r, q, q2):
        # a(r) * (h(q2) - h(q)).  Where a(r) is infinite (two_param at
        # r = 3) payments weigh nothing: a quantity step is worth an
        # infinite payment, and no step is worth none.
        ar, dh = a(r), h(q2) - h(q)
        if isinstance(ar, float) and ar < math.inf:
            return ar * dh
        with np.errstate(invalid="ignore"):
            return np.where(dh == 0.0, 0.0, ar * dh)

    def bind(r, t, q, q2):
        return phi_inv(phi(t) + gap(r, q, q2))

    def canonical(r, t, q):
        return bind(r, t, q, 1.0)

    if phi is _identity:
        def curve_payment(r, c, q):
            return bind(r, c, 1.0, q)
    else:
        def curve_payment(r, c, q):
            # A difference of squares, so that the round trip through
            # canonical is exact at t = 0; NaN where the curve leaves the
            # bundle space.
            s = np.sqrt(gap(r, q, 1.0))
            with np.errstate(invalid="ignore"):
                return np.sqrt((c - s) * (c + s))

    def special(za, zb):
        return a_inv((phi(zb[0]) - phi(za[0])) / (h(zb[1]) - h(za[1])))

    # On q = slope*t the best bundle minimizes t**p - a(r) * (slope*t)**k,
    # convex in t: stationary at t**(p-k) = a(r) k slope**k / p when p > k;
    # when p = k it is t**p * (1 - a(r) slope**k), so an endpoint wins.
    if p == k:
        def best_on_line(r, slope, t_lo, t_hi):
            return _where(a(r) * slope**k < 1.0, t_lo, t_hi)
    else:
        def best_on_line(r, slope, t_lo, t_hi):
            t = _pow(a(r) * k * slope**k / p, 1.0 / (p - k))
            return _clamp(t, t_lo, t_hi)

    _ARRAY_FORMS.update((special, best_on_line))
    # with phi and a the identity, t_k - t_{k-1} = theta_k * dh_k
    posted = (("payment", "expected_payment") if p == 1 and a is _identity
              else ())
    # with phi(t) = t**2, t_k**2 - t_{k-1}**2 = a(theta_k) * dh_k
    exact = (ExactQuantities(a, _POWERS[1 / k], inv_a_slope, a_kinks)
             if p == 2 else None)
    return Family(name, "classical", 0.0, param_hi, utility, canonical,
                  curve_payment, special, blurb, best_on_line, posted,
                  exact, bind, ("payment",) if p == 2 else ())


def _restricted(name, utility, k, blurb=""):
    """Family with canonical payment ``r * (1 - w(q)) + w(q) * t``.

    ``w(q) = q**k`` is an increasing quantity weight with ``w(0) = 0`` and
    ``w(1) = 1``, so every bundle with payment ``r`` is indifferent to
    ``(0, 0)``.  The binding step ``(w(q) t + r (w(q2) - w(q))) / w(q2)``
    (to ``q2 = 1`` it is ``f_r``) sums nonnegative terms for ``q2 >= q``.
    """
    w = _POWERS[k]

    def bind(r, t, q, q2):
        wq = w(q)
        if isinstance(wq, float) and wq == 0.0:
            # from a zero weight the step is r itself, which r * w(q2) /
            # w(q2) can miss by an ulp, and by more below the normal floats
            return r
        return (wq * t + r * (w(q2) - wq)) / w(q2)

    def canonical(r, t, q):
        return bind(r, t, q, 1.0)

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

    _ARRAY_FORMS.update((special, best_on_line))
    # with w(q) = q, q_k t_k - q_{k-1} t_{k-1} = theta_k * dq_k; with
    # w(q) = q**2, t_k q_k = theta_k q_k - sum_{j<k} dtheta_j q_j**2 / q_k
    posted = ("expected_payment",) if k == 1 else ()
    return Family(name, "restricted", 0.0, math.inf, utility, canonical,
                  curve_payment, special, blurb, best_on_line, posted,
                  None, bind, ("expected_payment",) if k == 2 else ())


def _linear(name, term, param_lo, param_hi, blurb=""):
    """Family with canonical payment ``t + K(r, q)``, linear in the payment.

    ``K = term`` is the canonical payment of ``(0, q)``, with
    ``K(r, 1) = 0``.  The utility is ``1 - K(r, q) - t``, the curve inverse
    ``c - K(r, q)`` and the binding step ``t + K(r, q) - K(r, q2)``, which
    rounds as the round trip through the two does.  Neither the
    indifference parameter nor the best bundle on a line has a closed form
    here.
    """
    def utility(r, t, q):
        return 1.0 - term(r, q) - t

    def canonical(r, t, q):
        return t + term(r, q)

    def curve_payment(r, c, q):
        return c - term(r, q)

    def bind(r, t, q, q2):
        return t + term(r, q) - term(r, q2)

    _ARRAY_FORMS.add(canonical)
    return Family(name, "classical", param_lo, param_hi, utility, canonical,
                  curve_payment, None, blurb, bind=bind)


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


# 1 - q**r through numpy's array loop, also for a float parameter: the C
# library's pow rounds some powers an ulp apart from it, so a grid of
# parameters would see other canonical payments than each one.
def _power_term(r, q):
    return 1.0 - np.power(q, r)


def _spliced_power_term(r, q):
    # the power term from the splice quantity on, and below it the line of
    # slope _power_q_slope_label(r) that meets it there
    qs = POWER_Q_SPLICE
    if isinstance(r, float) and isinstance(q, float):
        # one bundle: its own piece only, by the same operations
        return float(_power_term(r, q) if q >= qs else
                     _power_q_slope_label(r) * (qs - q) + 1.0
                     - np.power(qs, r))
    q = np.asarray(q, dtype=float)
    out = np.where(q >= qs, _power_term(r, q),
                   _power_q_slope_label(r) * (qs - q) + 1.0 - np.power(qs, r))
    return out if out.ndim else float(out)


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

    ``canonical`` must broadcast: an array ``r`` of shape ``(n, 1)`` against
    arrays ``t`` and ``q`` of shape ``(m,)`` gives the ``(n, m)`` canonical
    payments, and an array ``r`` against arrays ``t``, ``q`` of its own
    shape gives them pointwise.  The grid checks and
    :func:`~scmech.verify.certify_step` evaluate it that way, many types
    at once.  Their reports match scalar evaluation bit for bit when
    ``canonical`` rounds an array parameter as it rounds a float one;
    a power (``**``) need not, since numpy's array loops and the C
    library's ``pow`` may differ in the last bit.
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
    inv_a_slope=_two_param_inv_coeff_slope, a_kinks=(2.0,),
))
register_family(_linear(
    "power_q", _spliced_power_term, 0.25, 1.0 / 3.0,
    blurb="q**r - t above the splice quantity, linear label below it",
))
register_family(_linear(
    "power_q_raw", _power_term, 0.0, 1.0,
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

    def special_preferences(self, a: Bundle, b: Bundle):
        """:meth:`special_preference` of the pairs ``a[i]``, ``b[i]``, each
        side a bundle of two float arrays that pass :func:`check_bundle`:
        each pair's bits where it returns, and NaN where it raises.  A
        built-in closed form takes all pairs in one call, and a built-in
        canonical payment on a bounded interval is bisected for all pairs
        at once; any other family is called one pair at a time, as
        :meth:`special_preference` calls it."""
        fam, lo, hi = self.family, self.lo, self.hi
        if not (fam.special in _ARRAY_FORMS or fam.special is None
                and fam.canonical in _ARRAY_FORMS and math.isfinite(hi)):
            return np.array(list(map(self._special_or_nan,
                                     map(Bundle, a.t.tolist(), a.q.tolist()),
                                     map(Bundle, b.t.tolist(), b.q.tolist()))),
                            dtype=float)
        ok = (a.t < b.t) & (a.q < b.q)
        if self.restricted and math.isfinite(hi):
            ok &= b.t < hi
        with np.errstate(all="ignore"):
            if fam.special is not None:
                r = fam.special(a, b)
                ok &= (lo - 1e-12 <= r) & (r <= hi + 1e-12)
                return np.where(ok, _clamp(r, lo, hi), np.nan)
            ok &= ~(fam.canonical(lo, *a) - fam.canonical(lo, *b) > 1e-12)
            ok &= ~(fam.canonical(hi, *a) - fam.canonical(hi, *b) < -1e-12)
            r = np.full(ok.shape, np.nan)
            r[ok] = _bisect_special(fam, (a.t[ok], a.q[ok]), (b.t[ok], b.q[ok]),
                                    lo, hi)
        return r

    def _special_or_nan(self, a: Bundle, b: Bundle) -> float:
        # whatever it raises, a walk raises again where it reaches the pair
        try:
            return self.special_preference(a, b)
        except Exception:
            return math.nan

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
        # a root within round-off of an end is that end, as in the closed form
        if gap(lo) > 1e-12 or gap(hi) < -1e-12:
            raise RichnessError(
                f"no parameter in [{self.lo}, {self.hi}] makes {a} and {b} "
                f"indifferent"
            )
        return float(_bisect_special(self.family, a, b, lo, hi))

    # -- serialization -----------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "family": self.family.name,
            "params": {"lo": self.lo, "hi": self.hi},
            "kind": self.kind,
        }

    @classmethod
    def from_spec(cls, spec: dict, bounds=None) -> "PreferenceDomain":
        """Domain from ``{"family", "params": {"lo", "hi"}, "kind"}``, with
        no other key; a bound left out or null is ``bounds``'s, ``(lo, hi)``, else the
        family's.  An interval the family does not admit is a
        ``DomainError``, any other bad spec a ``SpecParseError``."""
        from .errors import SpecParseError

        try:
            name = spec["family"]
        except (KeyError, TypeError):
            raise SpecParseError("domain spec needs a 'family' entry")
        if not isinstance(name, str) or name not in FAMILIES:
            raise SpecParseError(
                f"unknown family {name!r}; known: {sorted(FAMILIES)}")
        fam = FAMILIES[name]
        params = spec.get("params", {}) or {}
        if not (set(spec) <= {"family", "params", "kind"}
                and isinstance(params, dict) and set(params) <= {"lo", "hi"}):
            raise SpecParseError("domain spec takes family, params {lo, hi} "
                                 f"and kind, got {spec!r}")
        lo, hi = params.get("lo"), params.get("hi")
        lo_0, hi_0 = bounds or (fam.param_lo, fam.param_hi)
        try:
            lo = lo_0 if lo is None else float(lo)
            hi = hi_0 if hi is None else float(hi)
        except (TypeError, ValueError) as exc:
            raise SpecParseError(f"domain bounds must be numbers: {exc}") from None
        dom = cls(fam, lo, hi)
        kind = spec.get("kind")
        if kind is not None and kind != dom.kind:
            raise SpecParseError(
                f"family {name!r} is {dom.kind}, spec says {kind!r}"
            )
        return dom


def make_domain(family: str, lo: Optional[float] = None,
                hi: Optional[float] = None) -> PreferenceDomain:
    """Domain by family name; a bound left out is the family's."""
    return PreferenceDomain.from_spec({"family": family,
                                       "params": {"lo": lo, "hi": hi}})


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
) -> SingleCrossingReport:
    """Search for single-crossing failures on a grid.

    For every parameter pair ``r' < r''`` and every anchor bundle, both
    indifference curves through the anchor are traced over the quantity
    grid.  A pair is reported when the curves meet at two or more grid
    locations, or when they touch tangentially (equal slopes without a
    transversal crossing) at the anchor.  The curves meet where their
    gap is within ``TOUCH_TOL``, and their slopes are equal within
    ``SLOPE_TOL``.  A parameter outside the domain,
    or a ``q_grid`` of fewer than 2 distinct quantities (one grid quantity
    and the anchor's are too few to tell two meetings apart), raises
    :class:`DomainError`; an anchor a restricted type cannot afford is
    skipped for the pairs holding that type.
    """
    anchors = [check_bundle(z) for z in bundle_grid]
    params = sorted(domain.check_param(r) for r in param_grid)
    if not anchors or not params:
        raise DomainError("grids must be nonempty")
    if q_grid is None:
        q_grid = np.linspace(1e-4, 1.0, 201)
    q_grid = np.asarray(sorted(set(float(q) for q in q_grid)), dtype=float)
    if q_grid.size < 2:
        raise DomainError(f"q_grid needs at least 2 distinct quantities: {q_grid}")

    witnesses: list[TangencyWitness] = []
    for i, r1 in enumerate(params):
        for r2 in params[i + 1:]:
            for anchor in anchors:
                w = _check_pair(domain, r1, r2, anchor, q_grid)
                if w is not None:
                    witnesses.append(w)
    return SingleCrossingReport(tuple(witnesses), len(params), len(anchors))


def _check_pair(domain, r1, r2, anchor, q_grid):
    try:
        c1 = domain.canonical_payment(r1, anchor)
        c2 = domain.canonical_payment(r2, anchor)
    except DomainError:
        return None  # a restricted type cannot afford the anchor
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
    signs = np.where(np.abs(h) <= TOUCH_TOL * scale, 0, np.sign(h)).astype(int)

    # Count contacts on the runs of equal sign: a zero run is one contact,
    # tangent when the runs on both sides have the same sign, and two
    # adjacent nonzero runs (so of opposite signs) are one crossing.
    starts = np.flatnonzero(np.diff(signs, prepend=2))
    runs = signs[starts]
    before, after = np.append(0, runs[:-1]), np.append(runs[1:], 0)
    hits = starts[(runs == 0) | (before * runs != 0)]
    multiple = hits.size >= 2
    # a tangent zero run is a contact: alone, it is the only one
    if multiple or np.any((runs == 0) & (before * after > 0)):
        idx = hits[1 if multiple else 0]
        loc = Bundle(float(t_on_1[idx]), float(qs[idx]))
        return TangencyWitness(
            r1, r2, anchor, loc,
            "multiple-intersections" if multiple else "tangency")

    # Slope tangency exactly at the anchor, even if the grid never sees a
    # second contact.
    s1 = _curve_slope(domain, r1, c1, anchor.q)
    s2 = _curve_slope(domain, r2, c2, anchor.q)
    if (math.isfinite(s1) and math.isfinite(s2)
            and abs(s1 - s2) <= SLOPE_TOL * max(1.0, abs(s1))):
        return TangencyWitness(r1, r2, anchor, anchor, "tangency")
    return None
