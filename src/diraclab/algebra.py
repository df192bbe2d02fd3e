"""Exact Pauli / Dirac matrix algebra and the pointwise sigma-vector product.

All matrices are dense complex128 ndarrays whose entries are 0, +-1 or +-i,
hence exactly representable; composed products are checked elsewhere against
tolerance 1e-12. The module-level constants are frozen (writeable=False) and
the factory functions hand out fresh copies, so nothing here can be mutated
by accident.

Index convention: Pauli and alpha matrices are addressed 1..3, matching the
usual sigma_1, sigma_2, sigma_3 labeling.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

__all__ = [
    "pauli",
    "sigma_mul",
    "sigma_mul_ladder",
    "sigma_dot",
    "dirac_alpha",
    "dirac_beta",
]


def _frozen(a: list) -> ArrayC:
    m = np.array(a, dtype=np.complex128)
    m.flags.writeable = False
    return m


_SIGMA = (
    _frozen([[0, 1], [1, 0]]),
    _frozen([[0, -1j], [1j, 0]]),
    _frozen([[1, 0], [0, -1]]),
)

_I2 = _frozen([[1, 0], [0, 1]])

# alpha_j = [[0, sigma_j], [sigma_j, 0]], beta = diag(I2, -I2)
_ALPHA = tuple(
    _frozen(np.block([[np.zeros((2, 2)), s], [s, np.zeros((2, 2))]]).tolist())
    for s in _SIGMA
)
_BETA = _frozen(np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]).tolist())


def pauli(j: int) -> ArrayC:
    """Pauli matrix sigma_j, j in {1, 2, 3}.

    Returns a fresh writeable copy; the values are Hermitian, unitary and
    traceless with entries in {0, +-1, +-i}.
    """
    if j not in (1, 2, 3):
        raise IndexError(f"Pauli index must be 1, 2 or 3, got {j}")
    return _SIGMA[j - 1].copy()


def sigma_mul(vx, vy, vz, phi, out=None) -> ArrayC:
    """(sigma.v) phi over the leading spinor axis of phi, v = (vx, vy, vz).

    phi[0] and phi[1] are the spinor components; vx, vy, vz broadcast against
    them: scalars, point coordinates or potential components. The supercharge
    kernel (grid.Supercharge) calls sigma_mul_ladder, ladders formed once.
    The result is complex, of shape (2,) + the broadcast shape, and goes
    into out when given (out must not overlap phi).
    """
    return sigma_mul_ladder(vx + 1j * vy, vx - 1j * vy, vz, phi, out)


def sigma_mul_ladder(vp, vm, vz, phi, out=None) -> ArrayC:
    """(sigma.v) phi from vp = vx + i vy, vm = vx - i vy and vz.

    This is the one place the contraction is written. Each component is
    built in its own slot with one temporary: out[0] = vz a + vm b,
    out[1] = vp a - vz b. Shapes and out as in sigma_mul.
    """
    a, b = phi[0], phi[1]
    if out is None:
        shape = np.broadcast_shapes(np.shape(vp), np.shape(vm), np.shape(vz), a.shape)
        out = np.empty((2,) + shape, dtype=np.result_type(vp, vm, vz, phi, 1j))
    up, down = out[0, ...], out[1, ...]  # views, also when 0-d
    np.multiply(vz, b, out=up)  # scratch until down is done
    np.multiply(vp, a, out=down)
    down -= up
    np.multiply(vz, a, out=up)
    up += vm * b
    return out


def sigma_dot(v) -> ArrayC:
    """Contraction sigma.v = sum_j v_j sigma_j for a real 3-vector v.

    Hermitian for real v, and (sigma.v)^2 = |v|^2 I2 by the anti-commutation
    relations.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("sigma_dot requires finite components")
    # I2 indexed [component, basis spinor]: the images are the columns
    return sigma_mul(v[0], v[1], v[2], _I2)


def dirac_alpha(j: int) -> ArrayC:
    """Dirac matrix alpha_j = [[0, sigma_j], [sigma_j, 0]], j in {1, 2, 3}."""
    if j not in (1, 2, 3):
        raise IndexError(f"alpha index must be 1, 2 or 3, got {j}")
    return _ALPHA[j - 1].copy()


def dirac_beta() -> ArrayC:
    """Dirac matrix beta = diag(I2, -I2)."""
    return _BETA.copy()
