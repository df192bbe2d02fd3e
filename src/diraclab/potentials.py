"""Magnetic vector potentials with known zero modes, and decay classification.

The central object is the closed-form potential

    A(x) = 3 <x>^-4 { (1 - |x|^2) w0 + 2 (w0.x) x + 2 w0 x x }

(<x> = sqrt(1+|x|^2), w0 the unit Bloch vector of a fixed unit spinor phi0,
the last term a cross product). Its pointwise norm is exactly 3 <x>^-2, which
drives every oracle here. Variants wrap it: scaling by a coupling t, the
level-0 member A = c <x>^-2 w(x) of the Adam-Muratori-Nash family (c = 3
coincides with the closed form above), and grid samples, raw (Sampled) or
gauged divergence-free with their gauge function chi (Gauged, made by
grid.gauge_transform).

Decay classes certified by sampling:
- weighted power bound  |A(x)| <= C <x>^-rho with rho > 1,
- cubic integrability   integral |A|^3 < infinity,
- o(1/|x|) smallness.
Classification is evidence on samples, not proof; reports say which.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from diraclab.grid import (
    Grid3D,
    _read_dtl1,
    _write_dtl1,
    interp_trilinear,
)

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

__all__ = [
    "PotentialSpec",
    "LossYau",
    "Scaled",
    "Gauged",
    "AMN",
    "Sampled",
    "DecayClassReport",
    "ClassificationUndetermined",
    "UnsupportedVariant",
    "w0_of",
    "default_classification",
    "potential_from_json",
    "write_sampled_potential",
]


class ClassificationUndetermined(RuntimeError):
    """The sample set carries no usable signal (e.g. identically zero A)."""


class UnsupportedVariant(ValueError):
    """Requested a potential variant, or an amn level, that is not built."""


def w0_of(phi0) -> ArrayR:
    """Unit Bloch vector w0 = (phi0, sigma_j phi0)_j of a unit 2-spinor."""
    phi0 = np.asarray(phi0, dtype=np.complex128).reshape(2)
    nrm = np.linalg.norm(phi0)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"phi0 must be a unit spinor, |phi0| = {nrm}")
    return _bloch_field(phi0)


def _same_nodes(a: Grid3D, b: Grid3D) -> bool:
    """Whether two grids share their nodes (the spin structure does not move
    them; real fields are periodic on both)."""
    return a.n == b.n and a.L == b.L


class PotentialSpec:
    """Base class for declarative vector-potential descriptions.

    Subclasses implement eval(points) -> real values of shape (..., 3) and are
    immutable after construction. sample(grid) gives the values at the grid
    nodes; variants built on grid data override it so that they neither
    re-evaluate nor interpolate on their own grid.
    """

    def eval(self, points) -> ArrayR:
        raise NotImplementedError

    def sample(self, grid: Grid3D) -> ArrayR:
        """Values at the nodes of grid, shape (n, n, n, 3)."""
        return self.eval(grid.nodes)

    def norm_at(self, points) -> ArrayR:
        """|A(x)| pointwise; shape (...)."""
        return np.linalg.norm(self.eval(points), axis=-1)


_SLAB_POINTS = 2**14


def _loss_yau_values(w0: ArrayR, points: ArrayR) -> ArrayR:
    """A at points (..., 3), built component by component into a contiguous
    (3, ...) block and returned as its (..., 3) view: sample_potential takes
    that layout without a copy. The arithmetic is term for term that of the
    bracket formula (w.x by tensordot on the points, the cross product as
    np.cross forms it), so the values are bit-identical to it.

    Points of three or more axes are filled in slabs of whole rows of their
    first axis, about _SLAB_POINTS points each (one x-plane of an n=128
    grid), so the temporaries are slab-sized: at the nodes of an n=128 grid
    the peak is the node mesh and the result (50 MB each) plus about 1 MB,
    where whole-array temporaries took 190 MB above the result. A list of
    points (N, 3) is one slab, as is any set whose rows hold one point.
    """
    pts = np.asarray(points, dtype=np.float64)
    out = np.empty((3,) + pts.shape[:-1])
    slabs = [(pts, out)]
    per_row = int(np.prod(pts.shape[1:-1])) if pts.ndim > 2 else 1
    if per_row > 1:  # a one-point slab would take np.dot's vector path, other bits
        rows = max(1, _SLAB_POINTS // per_row)
        slabs = ((pts[i:i + rows], out[:, i:i + rows]) for i in range(0, len(pts), rows))
    for p, o in slabs:
        r2 = np.sum(p**2, axis=-1)
        wdx2 = 2.0 * np.tensordot(p, w0, axes=([-1], [0]))
        scale = 3.0 * (1.0 + r2) ** -2
        one_m_r2 = 1.0 - r2
        for c in range(3):
            j, k = (c + 1) % 3, (c + 2) % 3
            term = o[c, ...]  # a view, also for a single point
            np.multiply(one_m_r2, w0[c], out=term)
            term += wdx2 * p[..., c]
            term += 2.0 * (w0[j] * p[..., k] - w0[k] * p[..., j])
            term *= scale
    return np.moveaxis(out, 0, -1)


@dataclass(frozen=True)
class _Phi0:
    """The unit reference spinor phi0 that LossYau and its zero mode share."""

    phi0: tuple = ((1.0, 0.0), (0.0, 0.0))  # ((re, im), (re, im))

    def __post_init__(self) -> None:
        phi = self.phi0_spinor()
        if abs(np.linalg.norm(phi) - 1.0) > 1e-12:
            raise ValueError("phi0 must have unit norm")

    def phi0_spinor(self) -> ArrayC:
        (a_re, a_im), (b_re, b_im) = self.phi0
        return np.array([a_re + 1j * a_im, b_re + 1j * b_im])


@dataclass(frozen=True)
class LossYau(_Phi0, PotentialSpec):
    """The closed-form potential with zero mode <x>^-3 (I + i sigma.x) phi0."""

    def w0(self) -> ArrayR:
        return w0_of(self.phi0_spinor())

    def eval(self, points) -> ArrayR:
        return _loss_yau_values(self.w0(), points)


@dataclass(frozen=True)
class Scaled(PotentialSpec):
    """Coupling-scaled potential t * A_inner."""

    t: float
    inner: PotentialSpec

    def __post_init__(self) -> None:
        if not np.isfinite(self.t):
            raise ValueError("scaling must be finite")

    def eval(self, points) -> ArrayR:
        return self.t * self.inner.eval(points)

    def sample(self, grid: Grid3D) -> ArrayR:
        return self.t * self.inner.sample(grid)


def _bloch_field(psi: ArrayC) -> ArrayR:
    """Pointwise unit Bloch vector (psi . sigma psi) / |psi|^2."""
    a, b = psi[..., 0], psi[..., 1]
    n2 = (np.abs(a) ** 2 + np.abs(b) ** 2)
    cross = np.conj(a) * b
    w = np.stack([2.0 * cross.real, 2.0 * cross.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=-1)
    return w / n2[..., None]


@dataclass(frozen=True)
class AMN(PotentialSpec):
    """Member of the family A = c_ell <x>^-2 w_psi(x) at level 0.

    Its ansatz psi is the closed-form zero mode with phi0 = (1, 0), and
    c_0 = 3 reproduces LossYau exactly. No other level is built: the
    degenerate Adam-Muratori-Nash modes psi_LY z1^a z2^b are scalar multiples
    of psi_LY with the same Bloch vector, so they give no new field.
    """

    ell: int
    c_ell: float

    def __post_init__(self) -> None:
        if self.ell != 0:
            raise UnsupportedVariant(f"only level 0 of the amn family is built, got ell={self.ell}")

    def eval(self, points) -> ArrayR:
        from diraclab.modes import LossYauMode

        pts = np.asarray(points, dtype=np.float64)
        w = _bloch_field(LossYauMode().eval(pts))
        jb2 = 1.0 + np.sum(pts**2, axis=-1)
        return self.c_ell / jb2[..., None] * w


@dataclass(frozen=True)
class Sampled(PotentialSpec):
    """Potential given by grid samples, trilinearly interpolated in the box.

    values is a read-only view of the samples, checked finite once here, so
    sample_potential hands them back on their own nodes without a second
    check. The array passed in is not copied: writing to it afterwards
    changes values past that check.
    """

    grid: Grid3D
    values: ArrayR  # (n, n, n, 3) real

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).view()
        if v.shape != (self.grid.n,) * 3 + (3,):
            raise ValueError(f"sampled potential has shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite potential sample")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def eval(self, points) -> ArrayR:
        return interp_trilinear(self.grid, self.values, points)

    def sample(self, grid: Grid3D) -> ArrayR:
        """The stored values on their own grid, else interpolated."""
        return self.values if _same_nodes(grid, self.grid) else self.eval(grid.nodes)


@dataclass(frozen=True)
class Gauged(Sampled):
    """Samples A_t = A + grad chi of a gauged potential, with the real gauge
    function chi (n, n, n) on the same nodes, as grid.gauge_transform forms
    them. A zero mode psi of A gives the zero mode e^{i chi} psi of A_t
    (grid.gauged_mode). chi is checked like values and kept read-only.
    """

    chi: ArrayR

    def __post_init__(self) -> None:
        super().__post_init__()
        chi = np.asarray(self.chi, dtype=np.float64).view()
        if chi.shape != (self.grid.n,) * 3:
            raise ValueError(f"gauge function has shape {chi.shape}")
        if not np.all(np.isfinite(chi)):
            raise ValueError("non-finite gauge function sample")
        chi.flags.writeable = False
        object.__setattr__(self, "chi", chi)

    eval = Sampled.eval  # bench/spans.py traces eval in each class's own namespace


# ----------------------------------------------------------------------------
# Decay classification


@dataclass(frozen=True)
class DecayClassReport:
    """Sampled decay-class evidence for a potential.

    rho_fit is the least-squares exponent of log|A| vs log r; in_SU demands
    rho_fit >= 1.05 (margin against fit noise at the rho > 1 boundary), in_E
    demands rho_fit > 1 (continuity is assumed from the variant), and in_BE
    demands geometric decay of the radial-shell increments of the |A|^3
    integral (Richardson-style tail convergence). cubic_integral is the
    estimated integral of |A|^3 (head + Simpson + power-law tail).
    """

    rho_fit: float
    sup_weighted_norm: float
    in_SU: bool
    in_BE: bool
    cubic_integral: float
    in_E: bool
    sample_count: int
    tail_exponent: float
    cubic_tail_estimate: float

    def to_dict(self) -> dict:
        return {
            "rho_fit": self.rho_fit,
            "sup_weighted_norm": self.sup_weighted_norm,
            "in_SU": self.in_SU,
            "in_BE": self.in_BE,
            "cubic_integral": self.cubic_integral,
            "in_E": self.in_E,
            "sample_count": self.sample_count,
            "tail_exponent": self.tail_exponent,
            # inf for a tail exponent <= 1, which JSON cannot hold
            "cubic_tail_estimate": (self.cubic_tail_estimate
                                    if np.isfinite(self.cubic_tail_estimate) else None),
        }


def _fit_loglog(r: ArrayR, amp: ArrayR) -> tuple[float, float]:
    """Slope and stderr of log(amp) vs log(r); returns (-slope, stderr)."""
    lx, ly = np.log(r), np.log(amp)
    n = len(lx)
    vx = lx - lx.mean()
    slope = float(np.dot(vx, ly - ly.mean()) / np.dot(vx, vx))
    if n > 2:
        resid = ly - ly.mean() - slope * vx
        stderr = float(np.sqrt(np.dot(resid, resid) / ((n - 2) * np.dot(vx, vx))))
    else:
        stderr = 0.0
    return -slope, stderr


def default_classification(spec: PotentialSpec) -> DecayClassReport:
    """Classify a potential's decay from samples |A(r omega)|.

    r runs over 240 geometric radii on [0.05, 2000] and omega over the 26
    lattice directions (sphere_directions_26). rho_fit fits the
    direction-averaged |A| over all radii, tail_exponent over the last decade.
    The cubic integral uses Simpson over the radii, a constant-|A| head below
    the smallest radius and a power-law tail beyond the largest. in_BE also
    asks each |A|^3 shell increment over four geometric splits of [500, 2000]
    to stay below 0.9 times the one before. Raises ClassificationUndetermined
    when A is numerically zero on all samples.
    """
    from diraclab.quadrature import simpson, sphere_directions_26

    radii = np.geomspace(0.05, 2000.0, 240)
    pts = radii[:, None, None] * sphere_directions_26()[None, :, :]  # (nr, nd, 3)
    amp = spec.norm_at(pts)  # (nr, nd)
    if np.max(amp) < 1e-300:
        raise ClassificationUndetermined("potential is numerically zero on all samples")

    mean_amp = amp.mean(axis=1)
    rho_fit, _ = _fit_loglog(radii, np.maximum(mean_amp, 1e-300))

    jb = np.sqrt(1.0 + radii**2)
    sup_weighted = float(np.max(jb[:, None] ** rho_fit * amp))

    tail_mask = radii >= radii[-1] / 10.0
    tail_exp, _ = _fit_loglog(radii[tail_mask], np.maximum(mean_amp[tail_mask], 1e-300))

    # radial-shell integrand of |A|^3: 4 pi r^2 mean_omega |A|^3
    shell = 4.0 * np.pi * radii**2 * (amp**3).mean(axis=1)
    cubic_core = simpson(shell, radii)
    # head: constant |A| extrapolation below the first radius
    cubic_head = float(4.0 * np.pi * (amp[0] ** 3).mean() * radii[0] ** 3 / 3.0)
    # tail: |A| ~ C r^-tail_exp beyond the last radius, integrable iff 3*tail_exp > 3
    if tail_exp > 1.0 + 1e-9:
        cubic_tail = float(shell[-1] * radii[-1] / (3.0 * tail_exp - 3.0))
    else:
        cubic_tail = np.inf

    # Richardson-style convergence: increments over a dyadic split of the
    # sampled tail must decay geometrically
    splits = np.geomspace(radii[-1] / 4.0, radii[-1], 5)
    incs = []
    for a, b in zip(splits[:-1], splits[1:]):
        m = (radii >= a) & (radii <= b)
        incs.append(np.trapezoid(shell[m], radii[m]) / (b - a))
    in_be = np.isfinite(cubic_tail) and all(
        later < 0.9 * earlier + 1e-300 for earlier, later in zip(incs[:-1], incs[1:])
    )

    cubic_total = cubic_core + cubic_head + (cubic_tail if np.isfinite(cubic_tail) else 0.0)

    return DecayClassReport(
        rho_fit=float(rho_fit),
        sup_weighted_norm=sup_weighted,
        in_SU=bool(rho_fit >= 1.05),
        in_BE=bool(in_be),
        cubic_integral=float(cubic_total),
        in_E=bool(rho_fit > 1.0),
        sample_count=int(amp.size),
        tail_exponent=float(tail_exp),
        cubic_tail_estimate=float(cubic_tail if np.isfinite(cubic_tail) else np.inf),
    )


# ----------------------------------------------------------------------------
# Serialization


def brief(value) -> str:
    """repr(value) for an error message, cut to 60 characters plus its length."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _read_companion(entry: dict, base_dir: Optional[Path]) -> tuple[Grid3D, ArrayR]:
    """Grid and real values (n, n, n, 3) of a sampled potential's companion
    file. The entry's grid_n and box_l, when given, must match the file's
    header.
    """
    fname = entry.get("file")
    if not fname or not isinstance(fname, str):
        raise ValueError(f"sampled potential needs a companion file name, got {brief(fname)}")
    path = Path(fname)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    grid, values = _read_dtl1(path, (3,), real=True)
    for key, have in (("grid_n", grid.n), ("box_l", grid.L)):
        if entry.get(key) is not None and entry[key] != have:
            raise ValueError(f"sampled potential: {key} = {brief(entry[key])} does not match "
                             f"{have!r} in the header of {path}")
    return grid, values


def _number(value, what: str) -> float:
    """A finite JSON number (bool is not one) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {brief(value)}")
    if not (abs(value) <= np.finfo(np.float64).max):  # NaN, infinities, huge ints
        raise ValueError(f"{what} must be a finite number, got {brief(value)}")
    return float(value)


def _phi0(value) -> tuple:
    """((re, im), (re, im)) from a JSON [[re, im], [re, im]]."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(c, (list, tuple)) and len(c) == 2 for c in value)):
        raise ValueError(f"phi0 must be [[re, im], [re, im]], got {brief(value)}")
    return tuple(tuple(_number(x, "phi0 entry") for x in c) for c in value)


# Longest chain of inner entries a potential may hold; sampling one about a
# thousand deep exhausts the interpreter's stack.
MAX_DEPTH = 32


def potential_from_json(obj: dict, base_dir: Optional[Path] = None) -> PotentialSpec:
    """Rebuild a PotentialSpec from its parsed JSON object; the caller parses
    JSON text, and a string is refused like any non-object. The sampled
    variant resolves its companion DTL1 file relative to base_dir; a
    grid_n or box_l that disagrees with the file is refused. An entry of the
    wrong JSON type anywhere, or entries nested more than MAX_DEPTH deep,
    raise ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a potential must be a JSON object, got {brief(obj)}")
    depth, entry = 0, obj
    while isinstance(entry, dict):
        depth, entry = depth + 1, entry.get("inner")
    if depth > MAX_DEPTH:
        raise ValueError(f"potential entries nest {depth} deep, over {MAX_DEPTH}")
    variant = obj.get("variant")
    if variant == "loss_yau":
        return LossYau(phi0=_phi0(obj.get("phi0", [[1.0, 0.0], [0.0, 0.0]])))
    if variant == "scaled":
        return Scaled(t=_number(obj.get("t"), "t"),
                      inner=potential_from_json(obj.get("inner"), base_dir))
    if variant == "amn":
        ell = obj.get("ell")
        if isinstance(ell, bool) or not isinstance(ell, int):
            raise ValueError(f"ell must be an integer, got {brief(ell)}")
        return AMN(ell=ell, c_ell=_number(obj.get("c_ell"), "c_ell"))
    if variant == "sampled":
        return Sampled(*_read_companion(obj, base_dir))
    raise UnsupportedVariant(f"unknown potential variant {brief(variant)}")


def write_sampled_potential(path, spec: Sampled) -> None:
    """Companion DTL1 file of a sampled potential: three real components."""
    _write_dtl1(path, spec.grid, spec.values)

