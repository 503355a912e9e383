"""Partial rough paths for rough volatility: lift, integrate, solve, check.

The package builds the two-level iterated-integral lift of a rough
volatility driver, integrates coefficient functions against it with
compensated Riemann sums, steps the resulting equation for the asset
state, evaluates the short-horizon variational rate function, and ships
Monte Carlo consistency checks plus a reproducible batch CLI.
"""

from .analysis import (ChenDefectReport, HolderReport, chen_defect_report,
                       component_holder_norms, dilate, distance_ab,
                       holder_norm, homogeneous_norm)
from .binio import read_prp, read_rp, write_prp, write_rp
from .black_scholes import call_price, implied_vol
from .config import RunConfig, load_config, parse_config_text
from .core import (Grid, IndexConfig, PartialRoughPath, build_index_sets,
                   lift_sampled_paths, reconstruct_level1, reconstruct_level2)
from .exceptions import (ConfigurationError, ConvergenceWarning, DomainError,
                         IndexSetError, InsufficientDataError, NumericalError,
                         SolverError)
from .integrate import (BoundConstants, ConvergenceTrace, RoughPath,
                        compensated_sum_level1, compensated_sum_level2,
                        distance_alpha, estimate_deriv_bound, integral,
                        integrate, lipschitz_ratio, theoretical_bounds)
from .lift import (BrownianBundle, KernelSpec, build_lift,
                   build_lift_quadrature, riemann_liouville, simulate_brownian,
                   volterra_convolve)
from .mc import (ito_consistency_check, ldp_tail_check, moment_scaling_check,
                 price_and_implied_vol, rde_convergence_check, simulate_state)
from .rate import (RateProblem, RateSolution, minimize_rate, optimality_report,
                   rate_objective, smile_curve)
from .rde import (RdeProblem, SigmaConstant, SigmaFunction, SigmaLinear,
                  SigmaSmooth, solve_model, solve_rde, solve_rde_batch)
from .volfn import ConstantVol, ExponentialVol, VolFunction

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
