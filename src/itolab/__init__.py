"""Desk-scale verification lab for Poisson stochastic integral moment
inequalities, vector-valued Rosenthal inequalities, and random matrix norm
bounds, built on exact finite-space enumeration with Monte Carlo fallback."""

from .lq import ExponentPair, FiniteMeasureSpace, InvalidInputError, LqElement, point_space
from .prob import (BudgetExceededError, FiniteProbabilitySpace, RandomLqVariable,
                   TruncatedPoisson, centered_poisson_moment, exact_moment,
                   independent_product, philox, product_space, truncated_poisson)
from .seqnorms import LqSequence, RegimeSpec, composite_norm, norm_D, norm_S, regime_select
from .poisson import GridPartition, verify_poisson_moment_bounds
from .integrator import (SimpleAdaptedProcess, build_exact_model, deterministic_process,
                         integrate_exact, process_norm, running_max_moment)
from .report import CheckReport
from .checks import (ConstantTable, check_decoupling, check_doob,
                     check_hoffmann_jorgensen, check_ito_isomorphism,
                     check_kahane, check_khintchine, check_pq_ge2_equivalence,
                     check_rosenthal_lq, check_rosenthal_positive,
                     check_rosenthal_scalar, check_symmetrization,
                     check_type_cotype)
from .randmat import (EntryLaw, MatrixEnsemble, bound_entry_matrix, bound_latala,
                      bound_matrix_sum, gaussian_law, rademacher_law,
                      seginer_ensemble, two_atom_law)

__version__ = "0.1.0"
