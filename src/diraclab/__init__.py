"""Numerical laboratory for magnetic Dirac operators at their threshold energies.

The library constructs explicit magnetic vector potentials with known zero
modes, lifts those modes to +-m eigenfunctions of the full Dirac operator
through its supersymmetric block structure, discretizes everything on a
Fourier grid (periodic real fields; periodic or antiperiodic spinors), and
probes the discrete spectrum: kernel detection, gap scans, Weyl quasi-modes,
asymptotic limits and decay-exponent certification.

Conventions (natural units, hbar = c = 1):
- D = (1/i) grad, so sigma.D acts as multiplication by sigma.k in Fourier space.
- H = alpha.(D - A) + m beta on 4-spinors; T = sigma.(D - A) on 2-spinors.
- <x> = sqrt(1 + |x|^2) throughout.
"""

from diraclab.algebra import dirac_alpha, dirac_beta, pauli, sigma_dot, sigma_mul
from diraclab.grid import (
    Field,
    Grid3D,
    OperatorHandle,
    apply,
    gauge_transform,
    gauged_mode,
    residual_norm,
    sample_field,
    sample_potential,
    susy_square_check,
)
from diraclab.modes import (
    LossYauMode,
    asymptotic_convergence,
    asymptotic_limit_quadrature,
    mode_l2_norm,
)
from diraclab.potentials import (
    AMN,
    Gauged,
    LossYau,
    Sampled,
    Scaled,
    default_classification,
)
from diraclab.probe import (
    build_weyl_quasimode,
    coupling_scan,
    decay_fit,
    eigs_near,
    gap_scan,
)

__all__ = [
    "pauli", "sigma_mul", "sigma_dot", "dirac_alpha", "dirac_beta",
    "Grid3D", "Field", "OperatorHandle",
    "sample_field", "sample_potential", "apply", "residual_norm",
    "susy_square_check", "gauge_transform", "gauged_mode",
    "LossYauMode", "asymptotic_limit_quadrature", "asymptotic_convergence", "mode_l2_norm",
    "LossYau", "Scaled", "Gauged", "AMN", "Sampled",
    "default_classification",
    "eigs_near", "gap_scan", "build_weyl_quasimode",
    "decay_fit", "coupling_scan",
    "__version__",
]

__version__ = "0.1.0"
