"""Rotating-ring Bose-Hubbard mean-field model and rotation sensing.

Layout:

  core           the three maps (m, R, N) -> gamma, (gamma, Omega) -> theta
                 and (t, theta) -> D, through which rotation enters
  landau         Landau coefficients, order parameter, prefactor kappa,
                 lobe index and closed-form boundaries
  phase_diagram  lobe tips, classification, grid sweeps
  oracle         truncated-Fock variational check of all of the above
  sensing        delta profile, surrogate fit, Lambert-W resolution
  cli / io       deterministic data emission for figure reproduction
"""

__version__ = "1.0.0"
