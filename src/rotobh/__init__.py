"""Rotating-ring Bose-Hubbard mean-field model and rotation sensing.

Layout:

  core           ring geometry, Peierls phase, effective hopping
  landau         Landau coefficients, order parameter, prefactor kappa,
                 lobe index and closed-form boundaries
  phase_diagram  lobe tips, classification, grid sweeps
  oracle         truncated-Fock variational check of all of the above
  sensing        delta profile, surrogate fit, Lambert-W resolution
  cli / io       deterministic data emission for figure reproduction
"""

__version__ = "1.0.0"

from .core import (ATOMIC_MASS, HBAR, ModelParams, RingFrame,
                   effective_hopping, peierls_phase, scale_factor)
from .errors import (ConfigError, ConvergenceError, DegenerateGapError,
                     DomainError, FitQualityWarning, InvalidExpansionError,
                     OutOfRangeError, OutOfReachError, RotobhError,
                     TruncationWarning)
from .landau import (LandauCoefficients, a2, a4, a4_bracket,
                     chi_susceptibility, energy_gap, kappa,
                     landau_coefficients, lobe_interval, local_energy,
                     order_parameter_landau)
from .oracle import (MeanFieldProblem, OracleResult, a_expectation,
                     boundary_numeric, build_hamiltonian, ground_energy,
                     minimize_order_parameter)
from .phase_diagram import (BoundaryPoint, PhaseGrid, SweepSpec,
                            boundary_curve, boundary_hopping, classify,
                            critical_costheta, lobe_index, lobe_tip, sweep)
from .sensing import (DELTA_GLOBAL_MAX, THETA_EXACT_CROSSOVER,
                      InversionResult, SensingProfile, delta_change,
                      delta_exact, delta_max, fit_a, fit_form,
                      invert_rotation_change, peak_offset, resolution,
                      theta_crossover)

__all__ = [name for name in dir() if not name.startswith("_")]
