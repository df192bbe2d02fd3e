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
(smallest |eigenvalue| sqrt(3) pi/(2L)), and the transforms from and to grid
values (spinor_fftn/spinor_ifftn) are wrapped in the phases e^{-is.x}
(before) and e^{is.x} (after). Around the pointwise sigma.A they cancel, so
T on coefficients reads no phase. Real fields (potentials, gauge functions)
stay periodic whatever the spin structure.

Operator layout is standard pseudo-spectral: sigma.D acts by multiplication
with sigma.k in Fourier space, sigma.A pointwise in physical space; their sum
is exact per application (no splitting error). One kernel, Supercharge,
applies T on grid values and on the eigensolver's unitary coefficients, at
one in-place FFT pair each; k_x +- i k_y come from the 1-D frequency axes,
(n, n, 1) arrays, so no frequency mesh is stored. apply_values copies the
(n, n, n, ..., rank) input once into a (..., rank, n, n, n) block; for
H = [[m, T], [T, -m]] the T-image of each 2-spinor half is written straight
into the other half's slot and the mass terms are added in place. The result
is an (n, n, n, ..., rank) view of the block. Real fields (potentials, gauge
functions) are differentiated with real-input transforms (rfftn/irfftn), half
the work of complex ones. The discrete L2 norm carries the cell volume:
||f|| = h^(3/2) * Euclidean norm of the samples, so norms approximate their
continuum counterparts.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.fft as sfft
from numpy.typing import NDArray

from diraclab.algebra import sigma_mul_ladder

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

__all__ = [
    "Grid3D",
    "Field",
    "OperatorHandle",
    "Supercharge",
    "GridMismatchError",
    "sample_field",
    "sample_potential",
    "apply",
    "residual_norm",
    "susy_square_check",
    "gauge_transform",
    "gauged_mode",
    "spectral_scalar_gradient",
    "interp_trilinear",
    "SPIN_STRUCTURES",
    "spinor_fftn",
    "spinor_ifftn",
    "write_field",
    "read_field",
    "report_dict",
    "OMITTED",
    "NULLABLE",
]

_MAGIC = b"DTL1"


class GridMismatchError(ValueError):
    """Fields or operators built over different grids were combined."""


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
    def spin_untwist(self) -> ArrayC:
        """e^{-is.x} at the nodes, the conjugate of spin_phase: times an
        antiperiodic field, its periodic factor; only antiperiodic grids
        build it."""
        return self.spin_phase.conj()

    @property
    def nodes(self) -> ArrayR:
        """All grid nodes, shape (n, n, n, 3), built on each access: the mesh
        (50 MB at n=128) is not held for the grid's lifetime."""
        X, Y, Z = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        return np.stack([X, Y, Z], axis=-1)

    @cached_property
    def k_axes(self) -> tuple[ArrayR, ArrayR, ArrayR]:
        """Spinor dual frequencies shaped (n, 1, 1), (1, n, 1), (1, 1, n): they
        broadcast to the full lattice over the last three axes of a block."""
        k = self.k_axis
        return k[:, None, None], k[None, :, None], k[None, None, :]

    @cached_property
    def k2_mesh(self) -> ArrayR:
        """|k|^2 on the spinor lattice, shape (n, n, n)."""
        kx, ky, kz = self.k_axes
        return kx**2 + ky**2 + kz**2

    @cached_property
    def k_axes_real(self) -> tuple[ArrayR, ArrayR, ArrayR]:
        """Real-field derivative frequencies (Nyquist zeroed) shaped for an
        rfftn half spectrum: (n, 1, 1), (1, n, 1), (1, 1, n // 2 + 1)."""
        k = self.k_axis_real
        return k[:, None, None], k[None, :, None], k[None, None, : self.n // 2 + 1]


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
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite sample encountered")
    return Field(grid, vals)


def _require_spec(pot) -> None:
    from diraclab.potentials import PotentialSpec

    if not isinstance(pot, PotentialSpec):
        raise TypeError(f"a potential must be a PotentialSpec, got {type(pot).__name__} "
                        "(grid samples travel as Sampled(grid, values))")


def sample_potential(pot, grid: Grid3D) -> ArrayR:
    """Sample a PotentialSpec at the grid nodes (anything else raises
    TypeError). The spec samples itself: a Scaled, Sampled or Gauged potential
    on its own grid neither re-evaluates nor interpolates. Call it once per
    potential and grid; the samples travel on as Sampled(grid, A), which hands
    them back without a copy.

    Returns a real array of shape (n, n, n, 3) whose components are each
    C-contiguous (a view of a (3, n, n, n) block), the layout the operator
    kernel and the spectral calculus read. Complex-valued or non-finite
    samples are rejected; the read-only values of a Sampled on its own nodes,
    checked when it was built, are not checked again (7.6 ms at n=128).
    """
    from diraclab.potentials import Sampled

    _require_spec(pot)
    vals = np.asarray(pot.sample(grid))
    checked = isinstance(pot, Sampled) and vals is pot.values
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-12:
            raise ValueError("vector potential must be real-valued")
        vals = vals.real
    vals = vals.astype(np.float64, copy=False)
    if vals.shape != (grid.n, grid.n, grid.n, 3):
        raise ValueError(f"potential evaluator returned shape {vals.shape}")
    if not checked and not np.all(np.isfinite(vals)):
        raise ValueError("non-finite potential sample encountered")
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(vals, -1, 0)), 0, -1)


# ----------------------------------------------------------------------------
# Operators


@dataclass(frozen=True)
class OperatorHandle:
    """Discretized operator: the supercharge T = sigma.(D - A) (kind t_a,
    rank 2) or H = [[m, T], [T, -m]] (kind h_a, rank 4, needs a finite
    mass >= 0; mass 0 is the degenerate edge of the square identity). With
    no potential, or one whose samples are all zero, T is sigma.D. Frozen:
    A is sampled once.
    """

    kind: str
    grid: Grid3D
    potential: Optional[object] = None
    mass: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("t_a", "h_a"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.potential is not None:
            _require_spec(self.potential)
        if self.kind == "h_a" and (self.mass is None or not 0 <= self.mass < np.inf):
            raise ValueError("h_a requires a finite mass >= 0")

    @property
    def rank(self) -> int:
        return 2 if self.kind == "t_a" else 4

    def sampled_potential(self) -> Optional[ArrayR]:
        """A of T = sigma.(D - A), sampled once; None when the operator is
        free: no potential, or samples that are all zero."""
        return self._A

    @cached_property
    def _A(self) -> Optional[ArrayR]:
        A = None if self.potential is None else sample_potential(self.potential, self.grid)
        return A if A is not None and A.any() else None

    def supercharge(self, dtype=np.complex128) -> "Supercharge":
        """This operator's T in precision dtype, a new kernel per call."""
        return Supercharge(self.grid, self.sampled_potential(), dtype)


def _fftn(block: ArrayC) -> ArrayC:
    """Unitary FFT over the last three axes, in place."""
    return sfft.fftn(block, axes=(-3, -2, -1), norm="ortho", overwrite_x=True, workers=-1)


def _ifftn(block: ArrayC) -> ArrayC:
    """Inverse of _fftn, in place."""
    return sfft.ifftn(block, axes=(-3, -2, -1), norm="ortho", overwrite_x=True, workers=-1)


def spinor_fftn(grid: Grid3D, block: ArrayC) -> ArrayC:
    """Unitary (norm="ortho") coefficients of a component-leading spinor block
    (..., n, n, n) of grid values on the grid's spinor lattice, in place: on
    antiperiodic grids the values are untwisted by e^{-is.x} first, so that
    coefficient index m carries the wavenumber k_axis[m]. A complex64 block
    stays complex64: the complex128 phase products are rounded in place."""
    if grid.antiperiodic:
        block *= grid.spin_untwist
    return _fftn(block)


def spinor_ifftn(grid: Grid3D, block: ArrayC) -> ArrayC:
    """Inverse of spinor_fftn, in place on the component-leading block."""
    out = _ifftn(block)
    if grid.antiperiodic:
        out *= grid.spin_phase
    return out


def _sigma(ladder: tuple, phi: ArrayC, out: Optional[ArrayC] = None) -> ArrayC:
    """(sigma.v) phi over axis -4 of a block (..., 2, n, n, n), v given by
    its ladder (v_x + i v_y, v_x - i v_y, v_z); in out when given."""
    spins = sigma_mul_ladder(*ladder, np.moveaxis(phi, -4, 0),
                             None if out is None else np.moveaxis(out, -4, 0))
    return np.moveaxis(spins, 0, -4)


class Supercharge:
    """T = sigma.(D - A), or sigma.D when A is None, on (..., 2, n, n, n)
    blocks in precision dtype: T^ x = sigma.k x - F[sigma.A F^-1 x] on
    coefficients (no transform for sigma.D), T v = F^-1[sigma.k F v] -
    sigma.A v on grid values; F is spinor_fftn on values and _fftn, with no
    spin phase, on coefficients. The ladders v_x +- i v_y, v_z of k and A
    (two complex n^3 arrays, 8 MB at n=64) are formed once in dtype."""

    def __init__(self, grid: Grid3D, A: Optional[ArrayR] = None, dtype=np.complex128):
        real = np.finfo(dtype).dtype
        self.grid, self.dtype = grid, np.dtype(dtype)
        kx, ky, kz = (k.astype(real, copy=False) for k in grid.k_axes)
        self.k = (kx + 1j * ky, kx - 1j * ky, kz)
        self.a = None
        if A is not None:
            ax, ay, az = (A[..., c].astype(real, copy=False) for c in range(3))
            self.a = (ax + 1j * ay, ax - 1j * ay, az)

    def coefficients(self, x: ArrayC, out: ArrayC, scratch: ArrayC) -> ArrayC:
        """T^ x into out, a block shaped like x (or the array returned);
        scratch, shaped alike, is overwritten."""
        if self.a is None:
            return _sigma(self.k, x, out)
        np.copyto(scratch, x)
        u = _ifftn(scratch)
        _sigma(self.a, u, out)
        out = _fftn(out)
        _sigma(self.k, x, u)
        return np.subtract(u, out, out=out)

    def values(self, v: ArrayC, out: Optional[ArrayC] = None) -> ArrayC:
        """T v into out (or a new block), or the array returned; v is copied
        once, in the working precision."""
        vhat = spinor_fftn(self.grid, np.array(v, dtype=self.dtype, order="C"))
        if out is None:
            out = np.empty_like(vhat)
        _sigma(self.k, vhat, out)
        del vhat
        out = spinor_ifftn(self.grid, out)
        if self.a is not None:
            out -= _sigma(self.a, v)
        return out


def _dirac(T: Supercharge, v: ArrayC, mass: float) -> ArrayC:
    """H = [[m, T], [T, -m]] on a block (..., 4, n, n, n) of grid values, as
    a new block."""
    halves = v.shape[:-4] + (2, 2) + v.shape[-3:]
    swapped = np.flip(np.empty(halves, T.dtype), axis=-5)
    out = np.flip(T.values(v.reshape(halves), swapped), axis=-5).reshape(v.shape)
    out[..., 0:2, :, :, :] += mass * v[..., 0:2, :, :, :]
    out[..., 2:4, :, :, :] -= mass * v[..., 2:4, :, :, :]
    return out


def apply_values(op: OperatorHandle, values: ArrayC) -> ArrayC:
    """Apply an operator to raw (n, n, n, ..., rank) values.

    Fast path without Field wrapping; extra axes between the grid axes and
    the component axis are a batch, covered by one FFT pair per apply of
    T. The result has the shape of values and is a view of a new block (see
    the module docstring).
    """
    if np.shape(values)[-1] != op.rank:
        raise ValueError(f"operator {op.kind} expects rank {op.rank}, "
                         f"got rank {np.shape(values)[-1]}")
    T = op.supercharge()
    v = np.moveaxis(values, (0, 1, 2), (-3, -2, -1))
    out = T.values(v) if op.rank == 2 else _dirac(T, v, op.mass)
    return np.moveaxis(out, (-3, -2, -1), (0, 1, 2))


def apply(op: OperatorHandle, f: Field) -> Field:
    """Apply the discretized operator to a field of matching grid and rank."""
    if f.grid != op.grid:
        raise GridMismatchError("field grid does not match operator grid")
    out = apply_values(op, f.values)
    return Field(f.grid, out)


def residual_norm(op: OperatorHandle, f: Field, lam: float) -> float:
    """Relative eigen-residual ||(Op - lambda) f|| / ||f|| in the discrete L2 norm."""
    nf = float(np.linalg.norm(f.values))
    if nf == 0.0:
        raise ValueError("residual of the zero field is undefined")
    r = apply_values(op, f.values)
    r -= lam * f.values
    return float(np.linalg.norm(r) / nf)


def susy_square_check(op: OperatorHandle) -> float:
    """Max relative deviation of H^2 from blockwise T^2 + m^2 on 20 random
    fields drawn from default_rng(0), through the one kernel of op (kind h_a).

    The identity is exact at the discrete level (H^2 applies T twice per block
    and the mass terms cancel), so the returned number is floating-point noise.
    """
    if op.kind != "h_a":
        raise ValueError("the square identity needs an h_a operator")
    T, mass, shape = op.supercharge(), op.mass, (op.grid.n,) * 3 + (4,)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = np.moveaxis(v, -1, 0)
        hh = _dirac(T, _dirac(T, w, mass), mass)
        tt = T.values(T.values(w.reshape((2, 2) + w.shape[1:]))).reshape(w.shape)
        dev = hh - tt - mass**2 * w
        worst = max(worst, float(np.linalg.norm(dev) / np.linalg.norm(v)))
    return worst


# ----------------------------------------------------------------------------
# Gauge pipeline


def _rfftn(values: ArrayR) -> ArrayC:
    return sfft.rfftn(values, workers=-1)


def _irfftn(grid: Grid3D, half: ArrayC) -> ArrayR:
    return sfft.irfftn(half, s=(grid.n,) * 3, workers=-1)


def _vector_field(grid: Grid3D, halves) -> ArrayR:
    """Real (n, n, n, 3) field, components C-contiguous, from three half
    spectra (taken one at a time from the iterable)."""
    out = np.empty((3,) + (grid.n,) * 3)
    for j, half in enumerate(halves):
        out[j] = _irfftn(grid, half)
    return np.moveaxis(out, 0, -1)


def _half_spectra(A: ArrayR) -> list[ArrayC]:
    """The three half spectra of a real (n, n, n, 3) field."""
    A = np.asarray(A, dtype=np.float64)
    return [_rfftn(A[..., j]) for j in range(3)]


def _divergence_half(grid: Grid3D, a_hat: list[ArrayC]) -> ArrayC:
    """Half spectrum of the divergence of a field given by its half spectra."""
    k = grid.k_axes_real
    div = k[0] * a_hat[0]
    div += k[1] * a_hat[1]
    div += k[2] * a_hat[2]
    div *= 1j
    return div


def _curl_halves(grid: Grid3D, a_hat: list[ArrayC]):
    """The curl's three half spectra, one at a time, from the field's."""
    k = grid.k_axes_real
    for c in range(3):
        half = k[c - 2] * a_hat[c - 1]
        half -= k[c - 1] * a_hat[c - 2]
        half *= 1j
        yield half
        del half  # build the next without it


def spectral_scalar_gradient(grid: Grid3D, values: ArrayR) -> ArrayR:
    """Gradient of a real scalar grid field via Fourier differentiation."""
    vhat = _rfftn(np.asarray(values, dtype=np.float64))
    return _vector_field(grid, (1j * k * vhat for k in grid.k_axes_real))


def spectral_divergence(grid: Grid3D, A: ArrayR) -> ArrayR:
    """Divergence of a real vector grid field via Fourier differentiation."""
    return _irfftn(grid, _divergence_half(grid, _half_spectra(A)))


def spectral_curl(grid: Grid3D, A: ArrayR) -> ArrayR:
    """Curl of a real vector grid field via Fourier differentiation."""
    a_hat = _half_spectra(A)
    return _vector_field(grid, _curl_halves(grid, a_hat))


def _half_norm(grid: Grid3D, halves) -> float:
    """Norm of the samples irfftn makes of the half spectra, by Parseval:
    sqrt(sum_k w_k |h(k)|^2 / n^3), w_k = 2 for 0 < k_z < n/2. irfftn reads
    the k_z = 0 and n/2 planes through their Hermitian part
    (h(k) + conj h(-k))/2, so they count by it; on a round-off-sized
    spectrum (div A_t) the rest is not small."""
    square = 0.0
    for h in halves:
        square += 2.0 * np.vdot(h, h).real
        for plane in (h[..., 0], h[..., -1]):
            sym = 0.5 * (plane + np.roll(plane[::-1, ::-1], 1, axis=(0, 1)).conj())
            square += np.vdot(sym, sym).real - 2.0 * np.vdot(plane, plane).real
        # a generator of halves builds the next spectrum while these live
        del h, plane, sym
    return float(np.sqrt(square / grid.n**3))


def _transverse_part(grid: Grid3D, a_hat: list[ArrayC]) -> tuple[ArrayR, ArrayR]:
    """(A_t, chi) of gauge_transform from the half spectra of A, with 4
    inverse transforms: each component of A_t from A_hat + i k chi_hat, in
    one reused buffer (grad chi is never formed alone), then chi from
    chi_hat, built in place of the divergence."""
    k = grid.k_axes_real
    k2 = k[0]**2 + k[1]**2 + k[2]**2
    # -Laplace(chi) = div A reads k^2 chi_hat = div_hat fiberwise
    chi_hat = _divergence_half(grid, a_hat)
    chi_hat /= np.where(k2 > 0.0, k2, 1.0)
    chi_hat[k2 == 0.0] = 0.0
    del k2
    spectrum = np.empty_like(chi_hat)
    A_t = _vector_field(grid, (np.add(a, np.multiply(1j * kj, chi_hat, out=spectrum),
                                      out=spectrum) for a, kj in zip(a_hat, k)))
    del spectrum
    return A_t, _irfftn(grid, chi_hat)


def gauge_transform(pot, grid: Grid3D):
    """Gauge a potential to its divergence-free representative on the grid:
    the Helmholtz projection A_t = A + grad chi, -Laplace(chi) = div A, with
    chi of zero mean and zero where k_eff = 0 (pure-Nyquist points, where the
    grid derivative sees no divergence), so div A_t = 0 and curl A_t = curl A.

    Returns (gauged, divergence_relative, curl_deviation). gauged is a
    potentials.Gauged: A_t at the grid nodes, which sampling it on this grid
    hands back without a copy, and chi (gauged.chi). The two numbers are
    measured on A_t: ||div A_t|| / ||A_t|| and ||curl(A_t - A)|| / ||curl A||,
    as spectral_divergence and spectral_curl give them up to round-off. Both
    are returned, not judged: the caller holds the tolerance (the `gauge`
    command's --tol-div and --tol-curl).

    One pass over half spectra, 10 real transforms: pot is sampled once and
    transformed (3 rfftn); A_t, then chi, come from that spectrum
    (_transverse_part, 4 irfftn); A_t is transformed once (3 rfftn) for the
    spectra of div A_t and, less that of A (written over it), of the curl
    change. The norms come by Parseval (_half_norm). Each spectrum is built
    in place and freed at its last use: at n=128 `gauge` peaks at 152.5 MB
    traced, 162 MB of RSS above the imported library.
    """
    from diraclab.potentials import Gauged

    a_hat = _half_spectra(sample_potential(pot, grid))
    A_t, chi = _transverse_part(grid, a_hat)
    curl_norm = _half_norm(grid, _curl_halves(grid, a_hat))
    k = grid.k_axes_real
    div_hat = np.zeros_like(a_hat[0])
    for j in range(3):
        t_hat = _rfftn(A_t[..., j])
        np.subtract(t_hat, a_hat[j], out=a_hat[j])
        div_hat += np.multiply(k[j], t_hat, out=t_hat)
        del t_hat
    div_hat *= 1j  # not norm-neutral: _half_norm reads Hermitian parts
    div_rel = _half_norm(grid, [div_hat]) / max(float(np.linalg.norm(A_t)), 1e-300)
    del div_hat
    curl_dev = _half_norm(grid, _curl_halves(grid, a_hat)) / max(curl_norm, 1e-300)
    del a_hat  # free the half spectra before Gauged checks A_t and chi finite
    return Gauged(grid, A_t, chi), div_rel, curl_dev


def gauged_mode(mode: Field, gauged) -> Field:
    """Multiply a spinor field pointwise by e^{i chi(x)}, chi the gauge
    function of gauged (a potentials.Gauged over the same grid as mode);
    the pointwise norm is preserved exactly.
    """
    if gauged.grid != mode.grid:
        raise GridMismatchError("gauge function grid does not match mode grid")
    phase = np.exp(1j * gauged.chi)
    return Field(mode.grid, mode.values * phase[..., None])


# ----------------------------------------------------------------------------
# Interpolation and file formats (DTL1 fields, JSON reports)


def interp_trilinear(grid: Grid3D, values: np.ndarray, points: ArrayR) -> np.ndarray:
    """Trilinear interpolation of per-node data at arbitrary points in the box.

    values has shape (n, n, n, C); the result has shape points.shape[:-1] +
    (C,), or (C,) for one point of shape (3,). Points must lie in [-L, L);
    the +1 neighbor wraps periodically, so values must be periodic (real
    fields, or spin_untwist times an antiperiodic field).
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar_in = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 3:
        raise ValueError("points must have trailing dimension 3")
    if not np.all((pts >= -grid.L) & (pts < grid.L)):
        raise ValueError("interpolation point outside the box [-L, L)")
    vals = np.asarray(values)
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
    if scalar_in:
        out = out[0]
    return out


def _write_dtl1(path, grid: Grid3D, values: np.ndarray, marked: bool = False) -> None:
    """Write per-node values (n, n, n, C) as DTL1: magic, then C, n, L as
    little-endian float64, then the values as complex float64 re/im pairs,
    x index fastest (components contiguous within a node). Real values are
    stored with a zero imaginary part. A marked file stores -C."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        count = values.shape[-1]
        fh.write(struct.pack("<3d", -count if marked else count, grid.n, grid.L))
        # (x,y,z,c) -> (z,y,x,c) so the C-order ravel runs x fastest across nodes
        flat = np.ascontiguousarray(values.transpose(2, 1, 0, 3)).astype("<c16")
        fh.write(flat.tobytes())


def _read_dtl1(path, counts: tuple, real: bool = False) -> tuple[Grid3D, np.ndarray]:
    """Read a DTL1 file whose header count is one of counts; returns the
    grid, antiperiodic if the count is negative (marked), and the values
    (n, n, n, |count|). With real=True a nonzero imaginary part is refused
    and the real part comes back C-contiguous."""
    with open(path, "rb") as fh:
        head = fh.read(28)
        if len(head) < 28 or head[:4] != _MAGIC:
            raise ValueError(f"{path}: not a {_MAGIC.decode()} file (starts {head[:4]!r}); "
                             "truncated and headerless files are refused")
        count_f, n_f, L = struct.unpack("<3d", head[4:])
        if count_f not in counts or not (np.isfinite(n_f) and n_f == int(n_f)):
            raise ValueError(f"{path}: bad header: {count_f:g} components "
                             f"(expected one of {counts}), n = {n_f:g}")
        count, n = abs(int(count_f)), int(n_f)
        grid = Grid3D(n=n, L=L, spin="antiperiodic" if count_f < 0 else "periodic")
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
    """Write a spinor field as DTL1, component count = rank, marked on an
    antiperiodic grid."""
    _write_dtl1(path, field.grid, field.values, field.grid.antiperiodic)


def read_field(path) -> Field:
    """Read a field written by write_field, with its spin structure."""
    return Field(*_read_dtl1(path, (2, 4, -2, -4)))


# dataclass field metadata read by report_dict
OMITTED = {"report": "omitted"}  # not written
NULLABLE = {"report": "nullable"}  # a NaN or inf is written as null


def _json_value(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    return report_dict(v) if is_dataclass(v) else v


def report_dict(report) -> dict:
    """A report's JSON form, bound as to_dict by every report dataclass.

    Each field goes under its own name: tuples and arrays as lists, complex
    entries as [re, im], a nested report as its dict, a Grid3D as grid_n and
    box_l. An OMITTED field is left out, and a NULLABLE one that is not finite
    is None; any other NaN or inf stays, for strict JSON to refuse.
    """
    out = {}
    for f in fields(report):
        v = getattr(report, f.name)
        mark = f.metadata.get("report")
        if mark == "omitted":
            continue
        if isinstance(v, Grid3D):
            out["grid_n"], out["box_l"] = v.n, v.L
        else:
            out[f.name] = None if mark == "nullable" and not np.isfinite(v) else _json_value(v)
    return out
