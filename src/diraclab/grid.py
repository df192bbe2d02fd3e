"""Periodic-box Fourier-spectral discretization of the Dirac operators.

Grid layout: the cube [-L, L)^3 sampled at n points per axis (n a power of
two), nodes x_i = -L + h*i with h = 2L/n, so the origin is a grid node. The
dual lattice is k = (pi/L) * {-n/2, ..., n/2 - 1} per axis in fftshift-free
order, i.e. the Nyquist row sits at index n/2 and carries the label -n/2.

The spinor operators keep the full dual lattice, Nyquist included: sigma.k is
a Hermitian multiplier for every real k, and dropping the Nyquist rows would
hand sigma.D a 16-dimensional spurious kernel (every plane wave whose nonzero
components are all Nyquist). Real-field calculus (gradients, divergence, curl
of gauge data) uses the Nyquist-zeroed lattice instead: a real field's Nyquist
coefficient has no odd-symmetric partner, so zero is the only derivative
assignment that keeps the output real.

Spin structure: spinor fields carry one of the two boundary conditions a flat
torus admits for them. spin="periodic" (the default) continues f(x + 2L e_j) =
f(x); the constant spinors then form an exact 2-dim kernel of sigma.D that has
no counterpart on R^3 (the torus constant-spinor artifact). spin="antiperiodic"
continues f(x + 2L e_j) = -f(x): such a field is e^{is.x} g(x) with g periodic
and s = pi/(2L) (1, 1, 1), so the spinor dual lattice is shifted to
k = (pi/L)(Z + 1/2)^3. It is symmetric (no Nyquist row), sigma.D has no kernel
(smallest |eigenvalue| sqrt(3) pi/(2L)), and the spinor transforms are wrapped
in the phases e^{-is.x} (before) and e^{is.x} (after). Real fields (potentials,
gauge functions) stay periodic whatever the spin structure.

Operator layout is standard pseudo-spectral: sigma.D acts by multiplication
with sigma.k in Fourier space, sigma.A pointwise in physical space; their sum
is exact per application (no splitting error). The discrete L2 norm carries
the cell volume: ||f|| = h^(3/2) * Euclidean norm of the samples, so norms
approximate their continuum counterparts.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.fft as sfft
from numpy.typing import NDArray

from diraclab.algebra import sigma_mul

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

__all__ = [
    "Grid3D",
    "Field",
    "OperatorHandle",
    "GridMismatchError",
    "GaugeError",
    "sample_field",
    "sample_potential",
    "apply",
    "residual_norm",
    "susy_square_check",
    "gauge_transform",
    "gauged_mode",
    "helmholtz_project",
    "spectral_scalar_gradient",
    "interp_trilinear",
    "SPIN_STRUCTURES",
    "spinor_fftn",
    "spinor_ifftn",
    "write_field",
    "read_field",
]

_MAGIC = b"DTL1"


class GridMismatchError(ValueError):
    """Fields or operators built over different grids were combined."""


class GaugeError(RuntimeError):
    """Gauge construction failed to reach its divergence tolerance."""


def _fftn(a: ArrayC) -> ArrayC:
    return sfft.fftn(a, axes=(0, 1, 2), workers=-1)


def _ifftn(a: ArrayC) -> ArrayC:
    return sfft.ifftn(a, axes=(0, 1, 2), workers=-1)


SPIN_STRUCTURES = ("periodic", "antiperiodic")


@dataclass(frozen=True)
class Grid3D:
    """Cubic grid: n points per axis on [-L, L)^3.

    spin selects the boundary condition of spinor fields, "periodic" or
    "antiperiodic" (see the module docstring); real fields are periodic. A
    grid on which one 4-spinor field (n^3 * 4 * 16 bytes) would not fit in
    physical memory is refused.
    """

    n: int
    L: float
    spin: str = "periodic"

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValueError(f"box half-width must be positive, got {self.L}")
        if self.spin not in SPIN_STRUCTURES:
            raise ValueError(f"spin must be one of {SPIN_STRUCTURES}, got {self.spin!r}")
        need = self.n**3 * 4 * 16
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(f"n={self.n} is too large: one 4-spinor field needs "
                             f"{need / 2**30:.1f} GiB, physical memory is {have / 2**30:.1f} GiB")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def antiperiodic(self) -> bool:
        return self.spin == "antiperiodic"

    @cached_property
    def axis(self) -> ArrayR:
        return -self.L + self.h * np.arange(self.n)

    @cached_property
    def k_axis_periodic(self) -> ArrayR:
        """Periodic dual frequencies in fft order; Nyquist labeled -n/2."""
        return 2.0 * np.pi * sfft.fftfreq(self.n, d=self.h)

    @cached_property
    def k_axis(self) -> ArrayR:
        """Spinor dual frequencies in fft order: the periodic lattice, shifted
        by pi/(2L) on antiperiodic grids."""
        if self.antiperiodic:
            return self.k_axis_periodic + np.pi / (2.0 * self.L)
        return self.k_axis_periodic

    @cached_property
    def k_axis_real(self) -> ArrayR:
        """Dual frequencies for real-field differentiation: Nyquist zeroed."""
        k = self.k_axis_periodic.copy()
        k[self.n // 2] = 0.0
        return k

    @cached_property
    def spin_phase(self) -> ArrayC:
        """e^{is.x} at the nodes, shape (n, n, n); s = pi/(2L) (1, 1, 1).

        Multiplying a periodic field by it gives an antiperiodic one; only
        antiperiodic grids use it.
        """
        p = np.exp(1j * (np.pi / (2.0 * self.L)) * self.axis)
        return p[:, None, None] * p[None, :, None] * p[None, None, :]

    @cached_property
    def nodes(self) -> ArrayR:
        """All grid nodes, shape (n, n, n, 3)."""
        X, Y, Z = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        return np.stack([X, Y, Z], axis=-1)

    @cached_property
    def k_mesh(self) -> tuple[ArrayR, ArrayR, ArrayR]:
        """Spinor-operator frequencies per axis (full lattice), shape (n, n, n)."""
        return tuple(np.meshgrid(self.k_axis, self.k_axis, self.k_axis, indexing="ij"))

    @cached_property
    def k2_mesh(self) -> ArrayR:
        kx, ky, kz = self.k_mesh
        return kx**2 + ky**2 + kz**2

    @cached_property
    def k_mesh_real(self) -> tuple[ArrayR, ArrayR, ArrayR]:
        """Real-field derivative frequencies per axis (Nyquist zeroed)."""
        return tuple(np.meshgrid(self.k_axis_real, self.k_axis_real, self.k_axis_real, indexing="ij"))


@dataclass
class Field:
    """2- or 4-spinor field sampled on a grid; values indexed [ix, iy, iz,
    component]. The rank is values.shape[-1]; of a 4-spinor, components 0:2
    are the upper block and 2:4 the lower."""

    grid: Grid3D
    values: ArrayC

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n
        if self.values.shape not in ((n, n, n, 2), (n, n, n, 4)):
            raise ValueError(f"field values must have shape {(n, n, n)} + (2,) or (4,), "
                             f"got {self.values.shape}")

    @property
    def rank(self) -> int:
        return self.values.shape[-1]

    def norm(self) -> float:
        return float(self.grid.h**1.5 * np.linalg.norm(self.values))

    def inner(self, other: "Field") -> complex:
        _same_grid(self, other)
        return complex(self.grid.h**3 * np.vdot(self.values, other.values))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def _same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def sample_field(evaluator: Callable[[ArrayR], np.ndarray], grid: Grid3D) -> Field:
    """Sample a pointwise spinor evaluator at the grid nodes.

    The evaluator takes points of shape (..., 3) and returns (..., 2) or
    (..., 4) complex values; the field rank follows the trailing dimension.
    """
    vals = np.asarray(evaluator(grid.nodes), dtype=np.complex128)
    if vals.shape[:-1] != (grid.n,) * 3 or vals.shape[-1] not in (2, 4):
        raise ValueError(f"evaluator returned shape {vals.shape}")
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise ValueError("non-finite sample encountered")
    return Field(grid, vals)


def sample_potential(pot, grid: Grid3D) -> ArrayR:
    """Sample a vector potential (object with .eval or an array) onto the grid.

    Returns a real array of shape (n, n, n, 3). Potentials are real-valued by
    construction; a complex-valued evaluator is rejected.
    """
    if isinstance(pot, np.ndarray):
        a = np.asarray(pot, dtype=np.float64)
        if a.shape != (grid.n, grid.n, grid.n, 3):
            raise ValueError(f"potential samples must have shape {(grid.n,)*3 + (3,)}")
        return a
    vals = np.asarray(pot.eval(grid.nodes))
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-12:
            raise ValueError("vector potential must be real-valued")
        vals = vals.real
    vals = vals.astype(np.float64, copy=False)
    if vals.shape != (grid.n, grid.n, grid.n, 3):
        raise ValueError(f"potential evaluator returned shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite potential sample encountered")
    return vals


# ----------------------------------------------------------------------------
# Operators


@dataclass
class OperatorHandle:
    """Discretized operator: kind in {sigma_d, t_a, h_a, h_squared}.

    t_a / h_a / h_squared need a potential; h_a / h_squared need a mass
    (mass 0 is accepted as the degenerate edge of the square identity, though
    threshold semantics only make sense for mass > 0).
    """

    kind: str
    grid: Grid3D
    potential: Optional[object] = None
    mass: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("sigma_d", "t_a", "h_a", "h_squared"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("t_a", "h_a", "h_squared") and self.potential is None:
            raise ValueError(f"{self.kind} requires a potential")
        if self.kind in ("h_a", "h_squared"):
            if self.mass is None or self.mass < 0 or not np.isfinite(self.mass):
                raise ValueError(f"{self.kind} requires a finite mass >= 0")
        self._A: Optional[ArrayR] = None

    @property
    def rank(self) -> int:
        return 2 if self.kind in ("sigma_d", "t_a") else 4

    def sampled_potential(self) -> ArrayR:
        if self._A is None:
            self._A = sample_potential(self.potential, self.grid)
        return self._A


def _pad_batch(coeff, block_ndim: int):
    """Right-pad (n,n,n) coefficient arrays so they broadcast over batch axes."""
    return coeff.reshape(coeff.shape + (1,) * (block_ndim - coeff.ndim))


def spinor_fftn(grid: Grid3D, values: ArrayC) -> ArrayC:
    """Spinor values (n, n, n, ...) to coefficients on the grid's spinor lattice.

    On antiperiodic grids the field is untwisted by e^{-is.x} first, so that
    coefficient index m carries the wavenumber k_axis[m].
    """
    if grid.antiperiodic:
        values = values * _pad_batch(grid.spin_phase.conj(), values.ndim)
    return _fftn(values)


def spinor_ifftn(grid: Grid3D, vhat: ArrayC) -> ArrayC:
    """Inverse of spinor_fftn."""
    out = _ifftn(vhat)
    if grid.antiperiodic:
        out *= _pad_batch(grid.spin_phase, out.ndim)
    return out


def _apply_sigma_d(grid: Grid3D, values: ArrayC) -> ArrayC:
    """sigma.D on each 2-spinor block of a (n,n,n,2 or 4) array."""
    vhat = spinor_fftn(grid, values)
    kx, ky, kz = (_pad_batch(k, vhat.ndim - 1) for k in grid.k_mesh)
    out = np.empty_like(vhat)
    for c in range(0, values.shape[-1], 2):
        sigma_mul(kx, ky, kz, vhat[..., c : c + 2], out=out[..., c : c + 2])
    return spinor_ifftn(grid, out)


def _apply_t(grid: Grid3D, A: ArrayR, values: ArrayC) -> ArrayC:
    out = _apply_sigma_d(grid, values)
    ax, ay, az = (_pad_batch(A[..., j], values.ndim - 1) for j in range(3))
    for c in range(0, values.shape[-1], 2):
        out[..., c : c + 2] -= sigma_mul(ax, ay, az, values[..., c : c + 2])
    return out


def _apply_h(grid: Grid3D, A: ArrayR, mass: float, values: ArrayC) -> ArrayC:
    # H = [[m, T], [T, -m]] in 2x2 block form over (upper, lower).
    t = _apply_t(grid, A, values)
    out = np.empty_like(values)
    out[..., 0:2] = mass * values[..., 0:2] + t[..., 2:4]
    out[..., 2:4] = t[..., 0:2] - mass * values[..., 2:4]
    return out


def apply_values(op: OperatorHandle, values: ArrayC) -> ArrayC:
    """Apply an operator to raw (n, n, n, ..., rank) values.

    Fast path without Field wrapping; extra axes between the grid axes and
    the component axis are treated as a batch (one transform pass covers the
    whole block, which is what the iterative eigensolver leans on).
    """
    if op.kind == "sigma_d":
        return _apply_sigma_d(op.grid, values)
    if op.kind == "t_a":
        return _apply_t(op.grid, op.sampled_potential(), values)
    if op.kind == "h_a":
        return _apply_h(op.grid, op.sampled_potential(), op.mass, values)
    # h_squared
    A, m = op.sampled_potential(), op.mass
    return _apply_h(op.grid, A, m, _apply_h(op.grid, A, m, values))


def apply(op: OperatorHandle, f: Field) -> Field:
    """Apply the discretized operator to a field of matching grid and rank."""
    if f.grid != op.grid:
        raise GridMismatchError("field grid does not match operator grid")
    if f.rank != op.rank:
        raise ValueError(f"operator {op.kind} expects rank {op.rank}, got rank {f.rank}")
    out = apply_values(op, f.values)
    return Field(f.grid, out)


def residual_norm(op: OperatorHandle, f: Field, lam: float) -> float:
    """Relative eigen-residual ||(Op - lambda) f|| / ||f|| in the discrete L2 norm."""
    nf = float(np.linalg.norm(f.values))
    if nf == 0.0:
        raise ValueError("residual of the zero field is undefined")
    r = apply_values(op, f.values) - lam * f.values
    return float(np.linalg.norm(r) / nf)


def susy_square_check(
    grid: Grid3D,
    pot,
    mass: float,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Max relative deviation of H^2 from blockwise T^2 + m^2 on random fields.

    The identity is exact at the discrete level (H^2 applies T twice per block
    and the mass terms cancel), so the returned number is floating-point noise.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    A = sample_potential(pot, grid)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal((grid.n,) * 3 + (4,)) + 1j * rng.standard_normal((grid.n,) * 3 + (4,))
        hh = _apply_h(grid, A, mass, _apply_h(grid, A, mass, v))
        tt = _apply_t(grid, A, _apply_t(grid, A, v))
        dev = hh - tt - mass**2 * v
        worst = max(worst, float(np.linalg.norm(dev) / np.linalg.norm(v)))
    return worst


# ----------------------------------------------------------------------------
# Gauge pipeline


def spectral_scalar_gradient(grid: Grid3D, values: ArrayR) -> ArrayR:
    """Gradient of a real scalar grid field via Fourier differentiation."""
    vhat = sfft.fftn(np.asarray(values, dtype=np.float64), workers=-1)
    kx, ky, kz = grid.k_mesh_real
    out = np.empty((grid.n,) * 3 + (3,))
    out[..., 0] = sfft.ifftn(1j * kx * vhat, workers=-1).real
    out[..., 1] = sfft.ifftn(1j * ky * vhat, workers=-1).real
    out[..., 2] = sfft.ifftn(1j * kz * vhat, workers=-1).real
    return out


def spectral_divergence(grid: Grid3D, A: ArrayR) -> ArrayR:
    """Divergence of a real vector grid field via Fourier differentiation."""
    kx, ky, kz = grid.k_mesh_real
    ahat = sfft.fftn(np.asarray(A, dtype=np.float64), axes=(0, 1, 2), workers=-1)
    div_hat = 1j * (kx * ahat[..., 0] + ky * ahat[..., 1] + kz * ahat[..., 2])
    return sfft.ifftn(div_hat, workers=-1).real


def spectral_curl(grid: Grid3D, A: ArrayR) -> ArrayR:
    """Curl of a real vector grid field via Fourier differentiation."""
    kx, ky, kz = grid.k_mesh_real
    ahat = sfft.fftn(np.asarray(A, dtype=np.float64), axes=(0, 1, 2), workers=-1)
    out = np.empty_like(np.asarray(A, dtype=np.float64))
    out[..., 0] = sfft.ifftn(1j * (ky * ahat[..., 2] - kz * ahat[..., 1]), workers=-1).real
    out[..., 1] = sfft.ifftn(1j * (kz * ahat[..., 0] - kx * ahat[..., 2]), workers=-1).real
    out[..., 2] = sfft.ifftn(1j * (kx * ahat[..., 1] - ky * ahat[..., 0]), workers=-1).real
    return out


def helmholtz_project(grid: Grid3D, A: ArrayR) -> tuple[ArrayR, ArrayR]:
    """Solve -Laplace(chi) = div A spectrally; return (A + grad chi, chi).

    chi_hat = i k.A_hat / |k|^2 with the k = 0 mode set to zero (chi is only
    defined up to a constant; zero mean fixes it). Wherever the derivative
    lattice degenerates (pure-Nyquist points have k_eff = 0) the divergence is
    invisible to the grid derivative, so chi is set to zero there as well.
    The result is the transverse part of A: its grid divergence vanishes
    identically and its curl equals curl A.
    """
    A = np.asarray(A, dtype=np.float64)
    kx, ky, kz = grid.k_mesh_real
    k2 = kx**2 + ky**2 + kz**2
    ahat = sfft.fftn(A, axes=(0, 1, 2), workers=-1)
    div_hat = 1j * (kx * ahat[..., 0] + ky * ahat[..., 1] + kz * ahat[..., 2])
    # -Laplace(chi) = div A reads k^2 chi_hat = div_hat fiberwise
    chi_hat = np.where(k2 > 0.0, div_hat / np.where(k2 > 0.0, k2, 1.0), 0.0)
    chi = sfft.ifftn(chi_hat, workers=-1).real
    grad = np.empty_like(A)
    grad[..., 0] = sfft.ifftn(1j * kx * chi_hat, workers=-1).real
    grad[..., 1] = sfft.ifftn(1j * ky * chi_hat, workers=-1).real
    grad[..., 2] = sfft.ifftn(1j * kz * chi_hat, workers=-1).real
    return A + grad, chi


def gauge_transform(pot, grid: Grid3D, div_tol: float = 1e-8):
    """Gauge a potential to its divergence-free representative on the grid.

    Returns (gauged_spec, chi_handle) where gauged_spec evaluates as
    A(x) + grad chi(x) and chi_handle carries the grid-sampled gauge function.
    Raises GaugeError if the projected divergence fails the tolerance (cannot
    happen for finite samples; kept as a hard guarantee).
    """
    from diraclab.potentials import Gauged, ScalarFieldHandle

    A = sample_potential(pot, grid)
    A_t, chi = helmholtz_project(grid, A)
    div_rel = float(np.linalg.norm(spectral_divergence(grid, A_t)) / max(np.linalg.norm(A_t), 1e-300))
    if div_rel > div_tol:
        raise GaugeError(f"projected divergence {div_rel:.3e} exceeds tolerance {div_tol:.1e}")
    handle = ScalarFieldHandle(grid=grid, values=chi)
    return Gauged(inner=pot, chi=handle), handle


def gauged_mode(mode: Field, chi) -> Field:
    """Multiply a spinor field pointwise by e^{i chi(x)}.

    chi is a ScalarFieldHandle (or bare real array) over the same grid; the
    pointwise norm is preserved exactly.
    """
    values = chi.values if hasattr(chi, "values") else np.asarray(chi, dtype=np.float64)
    chi_grid = getattr(chi, "grid", mode.grid)
    if chi_grid != mode.grid:
        raise GridMismatchError("gauge function grid does not match mode grid")
    if values.shape != (mode.grid.n,) * 3:
        raise ValueError(f"gauge function has shape {values.shape}")
    phase = np.exp(1j * values)
    return Field(mode.grid, mode.values * phase[..., None])


# ----------------------------------------------------------------------------
# Interpolation and file formats


def interp_trilinear(grid: Grid3D, values: np.ndarray, points: ArrayR) -> np.ndarray:
    """Trilinear interpolation of per-node data at arbitrary points in the box.

    values has shape (n, n, n) or (n, n, n, C). Points must lie in [-L, L);
    the +1 neighbor wraps periodically, consistent with the field model.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar_in = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 3:
        raise ValueError("points must have trailing dimension 3")
    if np.any(pts < -grid.L) or np.any(pts >= grid.L):
        raise ValueError("interpolation point outside the box [-L, L)")
    vals = np.asarray(values)
    squeeze_comp = vals.ndim == 3
    if squeeze_comp:
        vals = vals[..., None]
    f = (pts + grid.L) / grid.h
    i0 = np.floor(f).astype(np.int64)
    w = f - i0
    i0 %= grid.n
    i1 = (i0 + 1) % grid.n
    out = np.zeros(pts.shape[:-1] + (vals.shape[-1],), dtype=vals.dtype)
    for bx, ix, wx in ((0, i0[..., 0], 1.0 - w[..., 0]), (1, i1[..., 0], w[..., 0])):
        for by, iy, wy in ((0, i0[..., 1], 1.0 - w[..., 1]), (1, i1[..., 1], w[..., 1])):
            for bz, iz, wz in ((0, i0[..., 2], 1.0 - w[..., 2]), (1, i1[..., 2], w[..., 2])):
                out += (wx * wy * wz)[..., None] * vals[ix, iy, iz, :]
    if squeeze_comp:
        out = out[..., 0]
    if scalar_in:
        out = out[0]
    return out


def _write_dtl1(path, grid: Grid3D, values: np.ndarray) -> None:
    """Write per-node values (n, n, n, C) as DTL1: magic, then C, n, L as
    little-endian float64, then the values as complex float64 re/im pairs,
    x index fastest (components contiguous within a node). Real values are
    stored with a zero imaginary part."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<3d", float(values.shape[-1]), float(grid.n), float(grid.L)))
        # (x,y,z,c) -> (z,y,x,c) so the C-order ravel runs x fastest across nodes
        flat = np.ascontiguousarray(values.transpose(2, 1, 0, 3)).astype("<c16")
        fh.write(flat.tobytes())


def _read_dtl1(path, counts: tuple, real: bool = False) -> tuple[Grid3D, np.ndarray]:
    """Read a DTL1 file whose component count is one of counts; returns the
    (periodic) grid and the values (n, n, n, C). With real=True a nonzero
    imaginary part is refused and the real part comes back C-contiguous."""
    with open(path, "rb") as fh:
        head = fh.read(28)
        if len(head) < 28 or head[:4] != _MAGIC:
            raise ValueError(f"{path}: not a {_MAGIC.decode()} file (starts {head[:4]!r}); "
                             "truncated and headerless files are refused")
        count_f, n_f, L = struct.unpack("<3d", head[4:])
        if count_f not in counts or not (np.isfinite(n_f) and n_f == int(n_f)):
            raise ValueError(f"{path}: bad header: {count_f:g} components "
                             f"(expected one of {counts}), n = {n_f:g}")
        count, n = int(count_f), int(n_f)
        grid = Grid3D(n=n, L=L)
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != n**3 * count:
        raise ValueError(f"expected {n**3 * count} values, found {data.size}")
    vals = data.reshape(n, n, n, count).transpose(2, 1, 0, 3).astype(np.complex128)
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise ValueError("non-finite value in field file")
    if real:
        if np.any(vals.imag != 0.0):
            raise ValueError(f"{path}: real field with a nonzero imaginary part")
        vals = np.ascontiguousarray(vals.real)
    return grid, vals


def write_field(path, field: Field) -> None:
    """Write a spinor field as DTL1 (component count = rank).

    The header has no spin-structure entry and reads back as periodic, so a
    field on an antiperiodic grid is refused rather than silently relabeled.
    """
    if field.grid.antiperiodic:
        raise ValueError("DTL1 files store periodic-grid fields only; "
                         "this field lives on an antiperiodic grid")
    _write_dtl1(path, field.grid, field.values)


def read_field(path) -> Field:
    """Read a field written by write_field."""
    return Field(*_read_dtl1(path, (2, 4)))
