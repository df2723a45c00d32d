"""First-passage times of one-dimensional mean-reverting diffusions.

Decay rates from the coefficient-ratio recursion with hyperbolic Aitken
acceleration, exact parabolic-cylinder rates for the OU model, cumulants,
a globally valid short/long-time density approximation, and independent
PDE / lattice / Monte Carlo oracles for validation.
"""

__version__ = "0.1.0"

from .errors import FptError, InputError, NumericsError
from .forcefield import (ForceField, InvariantMeasure, builtin,
                         measure_from_drift, load_field)
from .oupcf import (pcf, rightmost_zero, hermite_leftmost_zero, ou_mean_regime,
                    OU_MEAN_REGIMES)
from .hseries import (HGrid, HTable, catalan_numbers, build_table, integrate_h,
                      CumulantSet, cumulants)
from .decay import (DecayEstimate, ratio_sequence, aitken_A1, estimate_lambda,
                    lambda_asymptotic, lambda_exact)
from .density import (DensityModel, theta_fisher, nu_coefficient, build_model,
                      calibrate_rho, eval_density, log_density)
from .oracle import (SolutionGrid, TreeResult, McResult, solve_pde, solve_tree,
                     simulate, kolmogorov_distance, l1_distance)
