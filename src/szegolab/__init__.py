"""szegolab: a desk-scale laboratory for large-box trace expansions of
disordered and periodic lattice operators.

Finite Hermitian realizations of operator ensembles on boxes, exact
corner-decomposition identities, Monte Carlo estimation of the expansion
coefficients A_m both from closed formulas and from side-length sweeps,
independent functional-calculus routes, and empirical certification of the
kernel-decay hypotheses the expansion rests on.
"""

from .coefficients import (chi_hat_region, coefficient_sweep,
                           decomposition_identity_probe, inclusion_exclusion_check,
                           telescoping_check)
from .decay import (DecayFitReport, KernelBoxStats, SpectralWindow, certify_a1,
                    combes_thomas_probe, fit_kernel_decay, kernel_box_stats,
                    trace_difference_probe)
from .errors import ConfigError, DegenerateFitError, ModelError, NumericError, SzegolabError
from .harness import (FitReport, fit_expansion, log_enhancement_probe,
                      sweep_and_fit, szego_1d_suite)
from .lattices import (EnsembleSpec, HermitianOperator, LatticeBox, Symbol1D,
                       build_operator, site_uniforms,
                       symbol_fourier_coefficients, toeplitz_matrix)
from .mc import StatSummary, column_moments
from .regions import Region, boundary_distance, parse_region
from .spectral import (QuadratureGrid, QuasiAnalyticExtension, ScalarFunction,
                       hs_apply, hs_discrepancy, hs_extension, matrix_function,
                       resolvent)

__version__ = "0.1.0"
