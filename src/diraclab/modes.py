"""Closed-form zero modes and their large-r asymptotic limit.

The reference mode is phi(x) = <x>^-3 (I + i sigma.x) phi0 with |phi(x)| =
<x>^-2 exactly. Paired with the matching potential it satisfies
sigma.(D - A) phi = 0 pointwise, which this module checks with the
hand-differentiated gradient (machine precision, no grid involved).

A zero mode lifts to a pair of threshold eigenfunctions of the 4x4 operator:
(phi, 0) at +m and (0, phi) at -m, the field independent of the mass. The
lift adds only zero components, so every number here is computed on phi
itself; the numerical lift is eigs_near's h_a path. The large-r limit
u(omega) = lim r^2 phi(r omega), whose lifts are (u, 0) and (0, u), is
recovered two ways: in closed form, u(omega) = i (sigma.omega) phi0, and by
the limit integral

    u(omega) = (i/4pi) integral { (omega.A(y)) I + i sigma.(omega x A(y)) } phi(y) dy,

evaluated by product quadrature over a truncated ball with a power-law
radial-tail correction. The integral only needs the three moment vectors
integral A_m phi dy, so one quadrature pass serves every direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from diraclab.algebra import sigma_mul
from diraclab.grid import report_dict
from diraclab.potentials import PotentialSpec, _fit_loglog, _Phi0, default_classification
from diraclab.quadrature import radial_panels, sphere_directions_26, sphere_product_rule

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

__all__ = [
    "ZeroModeSpec",
    "LossYauMode",
    "AsymptoticReport",
    "HypothesisViolation",
    "AccuracyError",
    "sigma_d_analytic",
    "t_residual_analytic",
    "asymptotic_limit_quadrature",
    "asymptotic_convergence",
    "mode_l2_norm",
]


class HypothesisViolation(RuntimeError):
    """The potential fails the decay hypothesis the asymptotic limit needs."""


class AccuracyError(RuntimeError):
    """The quadrature error estimate exceeds the requested tolerance."""


class ZeroModeSpec:
    """Base class for zero-mode descriptions; evaluators map (..., 3) -> (..., 2).

    A spec gives all three in closed form: the mode, its gradient (which
    certifies it pointwise) and its far-field limit (which the quadrature is
    checked against)."""

    def eval(self, points) -> ArrayC:
        raise NotImplementedError

    def gradient(self, points) -> ArrayC:
        """Analytic spatial gradient, shape (..., 3, 2)."""
        raise NotImplementedError

    def closed_form_limit(self, omegas) -> ArrayC:
        """u(omega) = lim r^2 phi(r omega) in closed form."""
        raise NotImplementedError


@dataclass(frozen=True)
class LossYauMode(_Phi0, ZeroModeSpec):
    """phi(x) = <x>^-3 (I + i sigma.x) phi0 for a unit reference spinor phi0."""

    def _sigma_phi0(self, v: ArrayR) -> ArrayC:
        """(sigma.v) phi0 for vectors v (..., 3), shape (..., 2), C-ordered."""
        phi0 = self.phi0_spinor().reshape((2,) + (1,) * (v.ndim - 1))
        return np.ascontiguousarray(np.moveaxis(sigma_mul(*np.moveaxis(v, -1, 0), phi0), 0, -1))

    def eval(self, points) -> ArrayC:
        pts = np.asarray(points, dtype=np.float64)
        jb2 = 1.0 + np.sum(pts**2, axis=-1)
        core = self.phi0_spinor() + 1j * self._sigma_phi0(pts)
        return jb2[..., None] ** -1.5 * core

    def gradient(self, points) -> ArrayC:
        # d_j phi = -3 x_j <x>^-5 (I + i sigma.x) phi0 + i <x>^-3 sigma_j phi0
        pts = np.asarray(points, dtype=np.float64)
        jb2 = 1.0 + np.sum(pts**2, axis=-1)
        core = self.phi0_spinor() + 1j * self._sigma_phi0(pts)
        sig_phi0 = self._sigma_phi0(np.eye(3))  # row j: sigma_j phi0
        grad = (
            -3.0 * pts[..., :, None] * jb2[..., None, None] ** -2.5 * core[..., None, :]
            + 1j * jb2[..., None, None] ** -1.5 * sig_phi0
        )
        return grad

    def closed_form_limit(self, omegas) -> ArrayC:
        return 1j * self._sigma_phi0(np.asarray(omegas, dtype=np.float64))


def sigma_d_analytic(spec: ZeroModeSpec, points) -> ArrayC:
    """sigma.D phi = -i sum_j sigma_j d_j phi with D = (1/i) grad, from the
    analytic gradient."""
    grad = np.moveaxis(spec.gradient(points), (-2, -1), (0, 1))  # [j, component]
    sig_grad = sum(sigma_mul(*e, d_phi) for e, d_phi in zip(np.eye(3), grad))
    return -1j * np.moveaxis(sig_grad, 0, -1)


def t_residual_analytic(spec: ZeroModeSpec, pot: PotentialSpec, points) -> ArrayR:
    """Pointwise |sigma.(D - A) phi| from analytic derivatives; grid-free oracle."""
    pts = np.asarray(points, dtype=np.float64)
    A = np.moveaxis(pot.eval(pts), -1, 0)
    phi = np.moveaxis(spec.eval(pts), -1, 0)
    res = sigma_d_analytic(spec, pts) - np.moveaxis(sigma_mul(*A, phi), 0, -1)
    return np.linalg.norm(res, axis=-1)


# ----------------------------------------------------------------------------
# Asymptotic limit by quadrature


# The product rule behind the limit integral and the L2 norm: geometric
# Gauss-Legendre panels in r on (R_MIN, R_MAX) times the sphere rule in omega.
# The ball is truncated at R_MAX and the radial tail is added back from a
# power-law fit of the shell integrand over the outer panels; QUAD_TOL bounds
# the accepted error estimate.
R_MIN = 1e-3
R_MAX = 2000.0
PANELS = 36
NODES_PER_PANEL = 8
N_THETA = 12
N_PHI = 24
QUAD_TOL = 1e-3


def _shell_sums(
    spec: ZeroModeSpec, pot: Optional[PotentialSpec]
) -> tuple[ArrayR, ArrayR, ArrayC]:
    """Radial nodes, weights, and shell integrands S(r) = r^2 * sphere-avg.

    With a potential the shells are the moment integrands (shape (nr, 3, 2));
    without one they are the scalar |phi|^2 shells (shape (nr,)).
    """
    r, w = radial_panels(R_MIN, R_MAX, PANELS, NODES_PER_PANEL)
    dirs, dw = sphere_product_rule(N_THETA, N_PHI)
    pts = r[:, None, None] * dirs[None, :, :]
    phi = spec.eval(pts)  # (nr, ns, 2)
    if pot is None:
        dens = np.sum(np.abs(phi) ** 2, axis=-1)
        shells = r**2 * (dens @ dw)
    else:
        A = pot.eval(pts)  # (nr, ns, 3)
        moments = np.einsum("rsm,rsa,s->rma", A.astype(np.complex128), phi, dw)
        shells = r[:, None, None] ** 2 * moments
    return r, w, shells


def _integrate_with_tail(r: ArrayR, w: ArrayR, shells):
    """Integral of the shells over (R_MIN, inf): core sum + power-law tail.

    Returns (value, error_estimate). The power p is fit over the outermost
    three panels and the tail S(edge) edge / (p-1) is attached at the panel
    edge so it never overlaps the core sum; the error estimate re-runs the
    construction truncated at 7/8 of the panels and takes the difference.
    """
    amp = np.abs(shells) if shells.ndim == 1 else np.linalg.norm(shells, axis=(1, 2))
    edges = np.geomspace(R_MIN, R_MAX, PANELS + 1)
    npp = NODES_PER_PANEL

    def truncated_value(panel_count: int):
        idx = panel_count * npp
        sub = slice(max(0, idx - 3 * npp), idx)
        p = _fit_loglog(r[sub], np.maximum(amp[sub], 1e-300))[0]
        if not np.isfinite(p) or p <= 1.05:
            raise AccuracyError(
                f"radial shell integrand decays like r^-{p:.2f}; tail does not converge"
            )
        edge = edges[panel_count]
        tail = shells[idx - 1] * (edge / r[idx - 1]) ** -p * (edge / (p - 1.0))
        return np.tensordot(w[:idx], shells[:idx], axes=(0, 0)) + tail

    full = truncated_value(PANELS)
    alt = truncated_value((7 * PANELS) // 8)
    err = float(np.max(np.abs(full - alt)))
    return full, err


def _check_su(pot: PotentialSpec) -> None:
    report = default_classification(pot)
    if not report.in_SU:
        raise HypothesisViolation(
            f"potential decays like <x>^-{report.rho_fit:.2f}; the asymptotic limit "
            "needs a power bound with exponent > 1"
        )


def _moment_integrals(spec: ZeroModeSpec, pot: PotentialSpec) -> tuple[ArrayC, float]:
    """I[m] = integral A_m(y) phi(y) dy as a (3, 2) block, with error estimate."""
    r, w, shells = _shell_sums(spec, pot)
    if np.max(np.linalg.norm(shells, axis=(1, 2))) < 1e-300:
        return np.zeros((3, 2), dtype=np.complex128), 0.0
    _check_su(pot)
    moments, err = _integrate_with_tail(r, w, shells)
    if err > QUAD_TOL * 4.0 * np.pi:
        raise AccuracyError(
            f"moment-integral error estimate {err:.2e} exceeds tolerance"
        )
    return moments, err


def _u_from_moments(moments: ArrayC, omegas: ArrayR) -> ArrayC:
    # omega.I + i sigma.(omega x I) = (sigma.omega)(sigma.I), sigma.I = sum_m sigma_m I_m
    sig_moments = sum(sigma_mul(*e, m) for e, m in zip(np.eye(3), moments))
    return (1j / (4.0 * np.pi)) * sigma_mul(*omegas.T, sig_moments[:, None]).T


def asymptotic_limit_quadrature(
    spec: ZeroModeSpec, pot: PotentialSpec, omega
) -> tuple[ArrayC, float]:
    """u(omega) from the limit integral, with an error estimate.

    The rule is the module's fixed one: PANELS x NODES_PER_PANEL radial nodes
    on (R_MIN, R_MAX) plus the fitted tail, times N_THETA x N_PHI directions.

    Returns (u, err) where err bounds the estimated quadrature error on u.
    Raises HypothesisViolation when the potential lacks the required decay and
    AccuracyError when the radial tail refuses to converge within tolerance.
    A numerically zero potential short-circuits to ((0, 0), 0).
    """
    om = np.asarray(omega, dtype=np.float64)
    single = om.ndim == 1
    om = np.atleast_2d(om)
    if not np.all(np.isfinite(om)):
        raise ValueError("omega must be finite")
    if om.shape[-1] != 3 or np.any(np.abs(np.linalg.norm(om, axis=-1) - 1.0) > 1e-9):
        raise ValueError("omega must be a unit 3-vector")
    moments, err_m = _moment_integrals(spec, pot)
    u = _u_from_moments(moments, om)
    err = err_m / (2.0 * np.pi)  # |omega| = 1 and the Pauli matrices have unit norm
    return (u[0], err) if single else (u, err)


@dataclass(frozen=True)
class AsymptoticReport:
    """Asymptotic-limit comparison: quadrature u, closed form, decay table.

    convergence_table rows are (r, sup_omega |r^2 phi(r omega) - u_closed(omega)|).
    sup_deviation is sup_omega |u_quadrature - u_closed|.
    """

    omega_samples: ArrayR
    u_quadrature: ArrayC
    u_closed: ArrayC
    sup_deviation: float
    convergence_table: tuple
    quad_error: float

    to_dict = report_dict


def asymptotic_convergence(
    spec: ZeroModeSpec, pot: PotentialSpec, radii
) -> AsymptoticReport:
    """Tabulate sup_omega |r^2 phi(r omega) - u(omega)| over increasing positive
    radii, omega over the 26 lattice directions (sphere_directions_26).

    u is the closed form, and sup_deviation compares the quadrature value with
    it. The lifts (phi, 0) and (0, phi) give the same table, since their zero
    components add exact zeros.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    if radii.ndim != 1 or len(radii) < 1 or np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise ValueError("radii must be strictly increasing and positive")
    om = sphere_directions_26()

    u_quad, err = asymptotic_limit_quadrature(spec, pot, om)
    u_closed = spec.closed_form_limit(om)

    pts = radii[:, None, None] * om[None, :, :]
    phi = spec.eval(pts)  # (nr, no, 2)
    dev = np.linalg.norm(radii[:, None, None] ** 2 * phi - u_closed[None, :, :], axis=-1)
    table = tuple((float(r), float(d)) for r, d in zip(radii, dev.max(axis=1)))

    return AsymptoticReport(
        omega_samples=om,
        u_quadrature=u_quad,
        u_closed=u_closed,
        sup_deviation=float(np.max(np.linalg.norm(u_quad - u_closed, axis=-1))),
        convergence_table=table,
        quad_error=err,
    )


def mode_l2_norm(spec: ZeroModeSpec) -> float:
    """L2 norm of the mode over R^3 by the module's fixed radial and sphere
    rule, with the fitted tail; QUAD_TOL bounds the relative error estimate."""
    r, w, shells = _shell_sums(spec, None)
    if np.max(shells) < 1e-300:
        return 0.0
    total, err = _integrate_with_tail(r, w, shells)
    norm2 = float(np.real(total))
    if norm2 < 0 or err > QUAD_TOL * max(norm2, 1.0):
        raise AccuracyError(f"norm quadrature failed to converge (estimate {err:.2e})")
    return float(np.sqrt(norm2))
