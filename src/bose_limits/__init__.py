"""Finite-volume thermodynamics of the ideal Bose gas and its zero-mode sources.

Subpackages by concern:

* `lattice_ideal`: periodic-box mode lattice, ideal-gas pressures and
  critical densities (finite volume and limit), Bose-function series.
* `source_model`: linear symmetry-breaking source, solved exactly by the
  zero-mode displacement.
* `nonlinear_model`: square-root source on the zero mode, its concave
  exponent family and Laplace-principle series pressure.
* `equivalence`: pressure-gap ladders, rate fits, analytic condensate
  densities, condensate comparisons.
* `fockdiag`: exact diagonalization of diagonal models on truncated Fock
  spaces, Gibbs expectations, variational pressure bounds.
* `cli`: the `bose-limits` command; not imported here, so that
  `python -m bose_limits.cli` runs it as a fresh module.
"""

from . import equivalence, fockdiag, lattice_ideal, nonlinear_model, source_model
from .errors import (BoseLimitsError, DomainError, NonConvergenceError,
                     ResourceGuardError, StepSizeError)

__all__ = [
    "equivalence",
    "fockdiag",
    "lattice_ideal",
    "nonlinear_model",
    "source_model",
    "BoseLimitsError",
    "DomainError",
    "NonConvergenceError",
    "ResourceGuardError",
    "StepSizeError",
]

__version__ = "0.1.0"
