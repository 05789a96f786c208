import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from helpers import random_feasible_range  # noqa: E402
from scmech.domain import make_domain  # noqa: E402

RANDOM_RANGE_FAMILIES = ("quasilinear", "income_effect", "payment_param",
                         "two_param", "risk_averse")


@pytest.fixture(scope="session")
def random_mechanisms():
    """The 100 random supportable ranges per family of acceptance criteria
    4 and 5, which the verification tests also certify exactly."""
    out = {}
    for i, name in enumerate(RANDOM_RANGE_FAMILIES):
        rng = np.random.default_rng(1000 + i)
        dom = make_domain(name)
        out[name] = [random_feasible_range(dom, rng) for _ in range(100)]
    return out
