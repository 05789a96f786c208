"""Strategy-proof selling mechanisms on single-crossing preference domains."""

from .domain import (Bundle, Family, FAMILIES, Ordering, PreferenceDomain,
                     ZERO_BUNDLE, make_domain, register_family,
                     validate_single_crossing)
from .errors import (DomainError, InfeasibleRangeError, RichnessError,
                     ScmechError, SpecParseError, TractabilityError)
from .measure import (TypeDistribution, beta, expected_revenue, from_table,
                      hazard, has_increasing_hazard, inverse_virtual,
                      monopoly_price, revenue_upper_bound,
                      truncated_exponential, uniform, virtual_valuation)
from .mechanism import (AnchorLine, CountableMechanism, FiniteMechanism,
                        ParamSequence, constant_sequence, countable_geometric,
                        epsilon_truncate, from_range, harmonic_sequence)
from .multibuyer import (MultiBuyerMechanism, allocate, allocate_profiles,
                         from_distribution, simulate_revenue)
from .optimize import (OptimizeOptions, Solution, payments_from_breakpoints,
                       solve_finite, stationarity_residuals)
from .verify import (VerificationReport, Violation, brute_force_optimal,
                     check_individual_rationality, check_shape,
                     check_strategy_proof, verify_mechanism)

__version__ = "0.1.0"
