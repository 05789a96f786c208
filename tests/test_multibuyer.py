import numpy as np
import pytest

from scmech import measure
from scmech.domain import Bundle
from scmech.errors import DomainError
from scmech.multibuyer import (MultiBuyerMechanism, allocate,
                               allocate_profiles, from_distribution,
                               simulate_revenue)

U01 = measure.uniform(0.0, 1.0)
TWO = MultiBuyerMechanism(2, 0.5, U01)


def test_reserve_from_virtual_valuation():
    mech = from_distribution(2, U01)
    assert mech.reserve == pytest.approx(0.5, abs=1e-9)


def test_reserve_is_the_monopoly_price():
    # exact on piecewise-linear CDFs, and optimal without a regular F: on
    # this bimodal table theta * (1 - F) peaks at the kink 0.8
    assert from_distribution(2, U01).reserve == 0.5
    bimodal = measure.from_table([[0, 0], [0.25, 0.05], [0.35, 0.6],
                                  [0.8, 0.65], [1, 1]])
    assert from_distribution(3, bimodal).reserve == 0.8


def test_unique_winner_pays_second_highest_above_reserve():
    out = allocate(TWO, (0.8, 0.6))
    assert out[0] == Bundle(0.6, 1.0)
    assert out[1] == Bundle(0.0, 0.0)


def test_winner_pays_reserve_when_second_is_below():
    out = allocate(TWO, (0.8, 0.2))
    assert out[0] == Bundle(0.5, 1.0)


def test_no_sale_below_reserve():
    assert allocate(TWO, (0.4, 0.3)) == [Bundle(0, 0), Bundle(0, 0)]
    assert allocate(TWO, (0.5, 0.5)) == [Bundle(0, 0), Bundle(0, 0)]


def test_exact_tie_splits_equally():
    out = allocate(TWO, (0.7, 0.7))
    assert out[0] == Bundle(pytest.approx(0.35), 0.5)
    assert out[1] == Bundle(pytest.approx(0.35), 0.5)
    assert out[0].t + out[1].t == pytest.approx(0.7)


def test_single_buyer_reduces_to_posted_price():
    one = MultiBuyerMechanism(1, 0.5, U01)
    for theta in np.linspace(0.0, 1.0, 21):
        (z,) = allocate(one, (theta,))
        want = Bundle(0.5, 1.0) if theta > 0.5 else Bundle(0.0, 0.0)
        assert z == want


def test_profile_length_validated():
    with pytest.raises(DomainError):
        allocate(TWO, (0.5,))


def test_vectorized_allocation_matches_scalar():
    rng = np.random.default_rng(3)
    profiles = rng.uniform(0.0, 1.0, size=(500, 2))
    t, q = allocate_profiles(TWO, profiles)
    for i in range(profiles.shape[0]):
        out = allocate(TWO, profiles[i])
        assert t[i, 0] == pytest.approx(out[0].t)
        assert q[i, 1] == pytest.approx(out[1].q)


def test_feasibility_and_lower_efficiency_on_samples():
    rng = np.random.default_rng(11)
    profiles = rng.uniform(0.0, 1.0, size=(20000, 3))
    mech = MultiBuyerMechanism(3, 0.5, U01)
    t, q = allocate_profiles(mech, profiles)
    assert (q.sum(axis=1) <= 1.0 + 1e-12).all()
    winners = q > 0
    tops = profiles.max(axis=1, keepdims=True)
    assert (profiles[winners.nonzero()] == tops[winners.any(axis=1)].ravel()).all()


def test_simulation_matches_analytic_two_buyer_value():
    est, se = simulate_revenue(TWO, 300_000, seed=42)
    assert abs(est - 5 / 12) <= 4 * se


def test_simulation_matches_single_buyer_closed_form():
    one = MultiBuyerMechanism(1, 0.5, U01)
    est, se = simulate_revenue(one, 200_000, seed=1)
    assert abs(est - 0.25) <= 4 * se


def test_reserve_at_top_never_sells():
    mech = MultiBuyerMechanism(2, 1.0, U01)
    est, se = simulate_revenue(mech, 10_000, seed=0)
    assert est == 0.0 and se == 0.0


def test_simulation_deterministic_given_seed():
    a = simulate_revenue(TWO, 50_000, seed=9)
    b = simulate_revenue(TWO, 50_000, seed=9)
    assert a == b


def test_truthful_reporting_is_dominant_on_grid():
    grid = np.linspace(0.0, 1.0, 21)
    for theta in grid:
        for opp in (0.2, 0.55, 0.9):
            truthful = allocate(TWO, (theta, opp))[0]
            u_truth = theta * truthful.q - truthful.t
            for report in grid:
                z = allocate(TWO, (report, opp))[0]
                assert theta * z.q - z.t <= u_truth + 1e-12
