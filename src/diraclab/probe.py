"""Iterative spectral probes for the discretized operators.

Eigenpairs near a target are found by block LOBPCG on the squared shifted
supercharge (T - tau)^2, which is Hermitian positive semidefinite and turns
"nearest tau" into "smallest". The block solver is the soft-locking LOBPCG
of diraclab.blocksolver (`lobpcg`): only the `count` wanted pairs decide
convergence and cost operator applies until they converge, and the extra
guard columns only accelerate. The preconditioner inverts the exact
free-field Fourier symbol of the squared shift (plus a small regularizer), so
the plane-wave bulk collapses in a handful of iterations and only the
potential-induced states need work. Eigenvalues of the operator itself are
recovered by Rayleigh-Ritz on the wanted columns; every report carries the
per-pair residuals, the seed, the kernel-counting threshold actually used,
and a note when a solve ran out of iterations. RESID_TOL is the one
residual gate: a report is converged when no pair's residual exceeds it.

The block solver runs on unitary (norm="ortho") spinor Fourier coefficients,
not on grid values; LOBPCG is invariant under that change of basis. Each
column is one contiguous (2, n, n, n) coefficient block, so the preconditioner
is a pointwise 2x2 multiply with no transform, and one apply of (T - tau)^2
is two FFT pairs with no spin phase and no layout copy.
Measured at n=64, L=20 on a 2-core VM (one column, min of 9): the
preconditioner 1.0 ms against 37.5 ms for the grid-value FFT pair it
replaced, the squared shift 56 against 73 ms. T is the grid's kernel,
grid.Supercharge, on coefficients. Warm starts enter eigs_near as a list of
fields, which the start block takes out one at a time, copying each into its
coefficient column and transforming those columns in place (random columns
and constant spinors are drawn as coefficients). Rayleigh-Ritz of T stays on
coefficients, and only the returned pairs go to grid values, once, into the
one block of the report's fields, where one apply_values measures residuals.

Precision is a phase of each supercharge solve, not an option. On grids with
n >= SINGLE_N (64) the solve first iterates in complex64, which halves the
bytes that bound every FFT, sigma multiply and block product, until the
wanted residuals reach SINGLE_TOL (2e-6), or until the worst of them has set
no new minimum for SINGLE_STALL (10) iterations, the guard for a complex64
round-off floor above SINGLE_TOL. The complex64 Ritz block then restarts a
complex128 solve to LOBPCG_TOL, MAXITER counting both phases. Smaller grids
run the complex128 phase alone. Reports give the complex64 iterations next
to the total, and a note when the first phase ended at its guard.

Only the supercharge T (kind t_a) is ever solved; a free one, with no
potential or a zero one, is sigma.D, applied with no transform on
coefficients. H (kind h_a) is lifted, not solved: the grid identity
H^2 = T^2 + m^2 is exact, so every H_A eigenpair is
(+-sqrt(m^2 + eps^2), (a v, b v)) over the supercharge pairs T v = eps v.
Its residuals are still measured by applying H directly.

Periodic spinors carry one structural artifact worth naming: constant
spinors span the k = 0 fiber, so sigma.D has a 2-dim exact kernel (and the
free 4x4 operator has exact eigenvalues +-m) that does not correspond to
anything normalizable on R^3. A nonzero torus mean of A lifts this pair only
to about +-|mean A|, where it hybridizes with the zero-mode branch. On
periodic grids reports carry each pair's constant fraction, and kernel counts
and coupling scans deflate mostly constant pairs when the potential is
nonzero, logging every exclusion in the report's notes. Every start block, warm
or cold, seeds the constant spinors for targets nearer 0 than the first free
shell (|tau| < pi / (2L)), and only there. Antiperiodic grids
(Grid3D(..., spin="antiperiodic")) have no k = 0 fiber, hence no artifact:
there nothing is deflated and no constant spinors are seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from diraclab.algebra import sigma_mul
from diraclab.blocksolver import SolverError, lobpcg
from diraclab.grid import (
    NULLABLE,
    OMITTED,
    Field,
    Grid3D,
    GridMismatchError,
    OperatorHandle,
    Supercharge,
    apply_values,
    fft_1d,
    interp_trilinear,
    report_dict,
    sample_potential,
    spinor_fftn,
    spinor_ifftn,
)
from diraclab.potentials import PotentialSpec, Sampled, Scaled
from diraclab.quadrature import fit_loglog, radial_samples

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

__all__ = [
    "EigenReport",
    "GapScanReport",
    "WeylQuasimode",
    "DecayFit",
    "CouplingScanReport",
    "SolverError",
    "eigs_near",
    "lobpcg",
    "kernel_threshold",
    "gap_scan",
    "build_weyl_quasimode",
    "decay_fit",
    "coupling_scan",
]

# Verdict margin for decay exponents: separates exponent 1 from 2 with
# symmetric margins at desk-scale fit windows.
VERDICT_DELTA = 0.25

# LOBPCG tolerance on the squared-shift residual of the wanted columns, and
# its iteration cap per supercharge solve (both phases together).
LOBPCG_TOL = 1e-8
MAXITER = 400
# A report is converged when no returned pair's residual exceeds RESID_TOL.
RESID_TOL = 1e-6

# Supercharge solves on grids with n >= SINGLE_N first iterate in complex64,
# until the wanted residuals reach SINGLE_TOL or the worst of them has set no
# new minimum for SINGLE_STALL iterations, then finish in complex128 to
# LOBPCG_TOL (see _solve_near). The complex64 floors measured at n=64 are
# about 2e-7 (periodic, L=20), 2.6e-7 and 1.7e-6 (antiperiodic, L=20 and
# 10); 2e-6 is the least SINGLE_TOL tried that stalls on none of the three
# (antiperiodic L=10 takes 24 + 11 iterations at it, 18 + 12 at 1e-5).
SINGLE_N = 64
SINGLE_TOL = 2e-6
SINGLE_STALL = 10

# Pairs with a larger constant fraction are on the torus constant branch.
CONSTANT_BRANCH_FRACTION = 0.5


def kernel_threshold(grid: Grid3D) -> float:
    """Near-zero cutoff for kernel counting.

    Budget = box-truncation term (the r^-2 mode tails see the boundary at
    distance L) plus the spectral-truncation term for analytic fields,
    exp(-k_max). At n=64, L=20 this evaluates to 5.7e-3.
    """
    k_max = np.pi * grid.n / (2.0 * grid.L)
    return 0.1 / grid.L + 0.1 * np.exp(-k_max)


@dataclass(frozen=True)
class EigenReport:
    """Eigenpairs nearest a target, with enough context to reproduce them:
    fields, the eigenvectors on the solve's grid (views of one block), and
    per pair the norm fraction in the constant spinors (None on antiperiodic
    grids, which have none). iterations counts both precision phases of every
    supercharge solve, complex64_iterations the complex64 ones among them.
    The JSON form (to_dict) leaves the fields out."""

    target: float
    eigenvalues: tuple
    residuals: tuple
    constant_fractions: tuple
    kernel_dim_estimate: int
    iterations: int
    complex64_iterations: int
    converged: bool
    threshold: float
    seed: int
    kind: str
    grid: Grid3D
    mass: Optional[float]
    notes: tuple
    fields: tuple = field(metadata=OMITTED)

    to_dict = report_dict


# The supercharge solves run on unitary spinor Fourier coefficients. A column
# is one contiguous (2, n, n, n) block, so a Fortran (N, nb) block of columns
# is the C-ordered (nb, 2, n, n, n) array it is in memory.


def _coefficient_view(block: np.ndarray, n: int) -> ArrayC:
    """Solver columns, (N,) or Fortran-ordered (N, nb), as the (nb, 2, n, n, n)
    coefficient block they are in memory (a copy only for other layouts)."""
    b = np.atleast_2d(block.T)
    return b.reshape(b.shape[0], 2, n, n, n)


def _solver_columns(coef: ArrayC, like: np.ndarray) -> np.ndarray:
    """A (nb, 2, n, n, n) coefficient block as columns shaped like `like`."""
    return coef.reshape(-1) if like.ndim == 1 else coef.reshape(coef.shape[0], -1).T


def _grid_fields(grid: Grid3D, coef: np.ndarray) -> ArrayC:
    """Coefficient columns (N, c) as the grid values (c, n, n, n, 2) of c
    fields, in one copy; the inverse transform runs in place on coef."""
    values = spinor_ifftn(grid, _coefficient_view(coef, grid.n))
    return np.ascontiguousarray(values.transpose(0, 2, 3, 4, 1))


class _FreeSymbolPreconditioner:
    """Exact fiberwise inverse of (sigma.k - tau)^2 + delta on coefficient
    columns of the given complex dtype, applied by `@`.

    The free squared shift S0(k) = (sigma.k - tau)^2 is diagonalized by the
    eigenprojections of sigma.k, so (S0 + delta)^{-1} has the closed form

        ((|k|^2+tau^2+delta) I + 2 tau sigma.k)
        / (((|k|-tau)^2+delta) ((|k|+tau)^2+delta))

    SPD by construction (every fiber eigenvalue is 1/((s-tau)^2+delta) > 0),
    which LOBPCG requires, and large exactly on the near-singular fibers. On
    the solver's Fourier coefficients it is a pointwise 2x2 multiply (at
    tau = 0 a real scaling) and needs no transform. The symbol and the
    frequency axes are rounded to the working precision once (sigma.k is the
    supercharge kernel of sigma.D), so a complex64 apply reads no complex128
    array; at tau = 0 (the zero-mode solves) only the diagonal is built. (A
    class made per call would sit in a reference cycle, keeping the symbol
    alive until the next GC.)
    """

    def __init__(self, grid: Grid3D, tau: float, delta: float, dtype=np.complex128):
        real = np.finfo(dtype).dtype
        k2 = grid.k2_mesh
        kn = np.sqrt(k2)
        den = ((kn - tau) ** 2 + delta) * ((kn + tau) ** 2 + delta)
        self.diag = ((k2 + tau**2 + delta) / den).astype(real, copy=False)
        self.grid, self.tau = grid, tau
        self.shape, self.dtype = (2 * grid.n**3,) * 2, np.dtype(dtype)
        if tau != 0.0:
            self.off = (2.0 * tau / den).astype(real, copy=False)
            self.sigma_k = Supercharge(grid, None, dtype)

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        x = _coefficient_view(block, self.grid.n)
        if self.tau == 0.0:
            out = x * self.diag
        else:
            out = self.sigma_k.coefficients(x, np.empty_like(x), None)
            out *= self.off
            out += self.diag * x
        return _solver_columns(out, block)


class _ShiftedSquare:
    """(T - tau)^2 on the solver's coefficient columns, for one solve, in the
    working precision dtype (complex128 or complex64), applied by `@`.

    One apply of the square costs two applies of the operator's supercharge
    kernel, two FFT pairs over the block (none for a free operator), and no
    layout copy; the tau passes are skipped at tau = 0. The kernel and two
    work blocks as wide as the last block applied (a wider start block is
    not kept) live as long as this object, the solve; only the result is
    allocated per apply. `t` applies T itself, for the Rayleigh-Ritz of T.
    """

    def __init__(self, op: OperatorHandle, tau: float, dtype=np.complex128):
        self.T, self.tau = op.supercharge(dtype), float(tau)
        self.shape, self.dtype = (2 * op.grid.n**3,) * 2, self.T.dtype
        self.work = np.empty((2, 0, 2) + (op.grid.n,) * 3, dtype=self.T.dtype)

    def _work(self, x: ArrayC) -> ArrayC:
        """The two work blocks, resized to x's shape."""
        if self.work.shape[1:] != x.shape:
            self.work = None  # the old blocks go before the new ones come
            self.work = np.empty((2,) + x.shape, dtype=self.T.dtype)
        return self.work

    def t(self, block: np.ndarray) -> np.ndarray:
        """T on coefficient columns, shaped like block."""
        x = _coefficient_view(block, self.T.grid.n)
        return _solver_columns(self.T.coefficients(x, np.empty_like(x), self._work(x)[1]), block)

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        x = _coefficient_view(block, self.T.grid.n)
        z, u = self._work(x)
        z = self.T.coefficients(x, z, u)
        if self.tau:
            z -= np.multiply(x, self.tau, out=u)
        out = self.T.coefficients(z, np.empty_like(x), u)
        if self.tau:
            out -= np.multiply(z, self.tau, out=u)
        return _solver_columns(out, block)


def _constant_fraction(values: ArrayC) -> float:
    """Norm fraction of (n, n, n, rank) field values lying in the constant
    spinors."""
    means = values.mean(axis=(0, 1, 2))
    nodes = values.size // values.shape[-1]
    return float(nodes * np.sum(np.abs(means) ** 2) / np.sum(np.abs(values) ** 2))


def _constant_branch(op: OperatorHandle, fractions) -> list:
    """Per pair, whether it is on the torus constant branch: a constant
    fraction above CONSTANT_BRANCH_FRACTION under a nonzero potential."""
    if op.grid.antiperiodic or op.sampled_potential() is None:
        return [False] * len(fractions)
    return [frac > CONSTANT_BRANCH_FRACTION for frac in fractions]


def _resolve_delta(op: OperatorHandle) -> float:
    """Default regularizer: three times the potential's mean square.

    That is the scale of the squared operator on the smooth states the free
    symbol cannot see, so the preconditioner neither drowns them (delta too
    large) nor blows them up into the band (delta too small). Measured on the
    reference potential, the iteration count is flat within a factor ~3 of
    this choice and degrades sharply an order of magnitude away from it.
    """
    A = op.sampled_potential()
    if A is None:
        return 1e-4
    return max(1e-4, 3.0 * float(np.mean(np.sum(np.abs(A) ** 2, axis=-1))))


def _lowpass_columns(grid: Grid3D, target: float, count: int, rng) -> ArrayC:
    """Coefficients (count, 2, n, n, n) of random 2-spinor fields band-limited
    to the target's resonant shell |k| = |target| plus margin, or to the
    smallest ball whose wave vectors span them and the two constants."""
    n = grid.n
    kcut = abs(target) + 6.0 * np.pi / grid.L
    band = grid.k2_mesh <= kcut**2
    need = min((count + 3) // 2, n**3)  # two coefficients per wave vector
    if np.count_nonzero(band) < need:
        band = grid.k2_mesh <= np.partition(grid.k2_mesh, need - 1, axis=None)[need - 1]
    co = (rng.normal(size=(n, n, n, count, 2))
          + 1j * rng.normal(size=(n, n, n, count, 2)))
    block = np.ascontiguousarray(co.transpose(3, 4, 0, 1, 2))
    # the masked draws are the fields' coefficients under the backward
    # normalization (ifftn divides by n^3); n^(-3/2) makes them unitary ones
    block *= np.where(band, n**-1.5, 0.0)
    return block


def _start_block(grid: Grid3D, target: float, nb: int, warm: list, rng,
                 dtype=np.complex128) -> np.ndarray:
    """The solver's start block, Fortran (N, >= nb) coefficient columns of
    the given complex dtype.

    The warm fields, (n, n, n, 2) values, come first: each is taken out of
    `warm`, which ends empty, and copied straight into its column, and those
    columns are transformed in place, so no grid-value copy outlives the
    block. Next, on periodic grids with |target| < pi / (2L), nearer 0 than
    the first free shell at pi / L, come the exact constant spinors, each the
    single unitary coefficient n^(3/2) at k = 0; elsewhere they are exact
    free eigenvectors far from the target, which a soft-locking solve would
    accept as converged wanted pairs. Band-limited random fields fill the
    block up to nb columns. A warm start is never truncated, the block widens
    to hold every field and both constants; a cold start keeps at least one
    random column.

    The states an eigensolve near a physical target can return are smooth
    (they live at wavenumbers around the resonant shell), so white noise
    mostly seeds components the iteration must then grind away. Restricting
    the random part below the resonant shell plus a few lattice steps, and
    including the k = 0 fiber exactly, cuts iteration counts several-fold.
    """
    n, nw = grid.n, len(warm)
    nc = 0
    if not grid.antiperiodic and abs(target) < np.pi / (2.0 * grid.L):
        nc = 2 if nw else min(2, nb - 1)
    nb = max(nb, nw + nc)
    X = np.empty((nb, 2, n, n, n), dtype=dtype)
    for i in range(nw):
        X[i] = np.moveaxis(warm.pop(0), -1, 0)
    spinor_fftn(grid, X[:nw])
    X[nw:nw + nc] = 0.0
    for s in range(nc):
        X[nw + s, s, 0, 0, 0] = n**1.5
    X[nw + nc:] = _lowpass_columns(grid, target, nb - nw - nc, rng)
    return X.reshape(nb, -1).T


def _rayleigh_ritz(t, Q: np.ndarray) -> tuple[ArrayR, np.ndarray]:
    """Ritz values and vectors of the supercharge, applied by t to coefficient
    columns, on the span of the orthonormal columns Q."""
    small = Q.conj().T @ t(Q)
    small = (small + small.conj().T) / 2.0
    mu, W = np.linalg.eigh(small)
    return mu, Q @ W


def _nearest(values: ArrayR, target: float, count: int) -> np.ndarray:
    """Indices of the `count` values nearest target, in ascending value order."""
    order = np.argsort(np.abs(values - target), kind="stable")[:count]
    return order[np.argsort(values[order], kind="stable")]


def _orthonormal_span(X: np.ndarray) -> np.ndarray:
    """Rank-revealing orthonormal basis of the span of X's (normalized) columns.

    Singular directions below 1e-3 of the largest are dropped: two converged
    copies of one eigenvector differ only by their solve errors, far below
    that cut, while distinct eigenvectors stay close to orthogonal.
    """
    norms = np.linalg.norm(X, axis=0)
    U, s, _ = np.linalg.svd(X / np.where(norms > 0.0, norms, 1.0), full_matrices=False)
    return U[:, s > 1e-3 * s[0]]


class _Solve(NamedTuple):
    """One supercharge solve: the Ritz values (ascending) and coefficient
    columns (N, count) of its wanted pairs, its iterations (complex64 ones
    included, and counted apart), a note when the wanted pairs were left
    above LOBPCG_TOL (else None), and a note when the complex64 phase handed
    off at its stall guard (else None)."""

    eps: ArrayR
    vectors: np.ndarray
    iterations: int
    complex64_iterations: int
    exhausted: Optional[str]
    handoff: Optional[str]


def _solve_near(op: OperatorHandle, target: float, count: int, warm: list, seed: int,
                extra: Optional[int]) -> _Solve:
    """Soft-locking LOBPCG on (T - target)^2, T the operator's supercharge,
    then Rayleigh-Ritz of T on the `count` wanted columns. warm holds the
    solve's warm fields, (n, n, n, 2) values, which _start_block takes out;
    seed and extra are eigs_near's.

    Precision is a phase of the solve, as the module docstring sets out: on
    grids with n >= SINGLE_N, lobpcg runs in complex64 (start block,
    operator, preconditioner and basis) before its Ritz block restarts a
    complex128 lobpcg. Every complex64 object is gone before the complex128
    blocks are allocated, and the block passes between the phases unnamed. At
    n=64, L=20 on a 2-core VM (medians of 5 processes) the periodic
    verify-zero-mode solve took 34 complex64 iterations (1.7 s) and 13
    complex128 ones (1.3 s), against 53 complex128 iterations in 4.2 s; the
    antiperiodic one took 20 + 10 iterations, 1.6 s against 29 in 2.1 s.
    Smaller grids run the complex128 phase alone: at n=32 the complex64
    phase gained nothing, and at n=16 its first use of the complex64 FFT
    and BLAS code cost about 1 MB of peak memory.

    Only the wanted columns go into that Rayleigh-Ritz: a guard column can
    mix eigenvalues on both sides of the target, whose T-Rayleigh quotient
    then reads near the target while its squared-shift value is not small.
    """
    grid = op.grid
    extra = extra if extra is not None else max(2, count)
    nb = min(count + extra, grid.n**3 * 2)
    delta = _resolve_delta(op)
    single = grid.n >= SINGLE_N

    def run(square: _ShiftedSquare, tol: float, maxiter: int, stall=None):
        # the block is popped into the call, so lobpcg frees it once it is in
        # the solver's basis
        prec = _FreeSymbolPreconditioner(grid, target, delta, square.dtype)
        try:
            return lobpcg(square, start.pop(), M=prec, tol=tol,
                          maxiter=maxiter, nwanted=count, stall=stall)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"lobpcg failed on {op.kind}: {exc}") from exc

    start = [_start_block(grid, target, nb, warm, np.random.default_rng(seed),
                          np.complex64 if single else np.complex128)]
    single_its, handoff = 0, None
    if single:
        _, vecs, single_its, resid = run(_ShiftedSquare(op, target, np.complex64),
                                         SINGLE_TOL, MAXITER, SINGLE_STALL)
        start.append(vecs)
        del vecs
        if np.any(resid > SINGLE_TOL):
            guard = "maxiter" if single_its >= MAXITER else "its stall guard"
            handoff = (f"{op.kind} solve near {target:.6g}: complex64 phase handed off at "
                       f"{guard} after {single_its} iterations, worst residual "
                       f"{float(np.max(resid)):.3e} above {SINGLE_TOL:.1e}")
    square = _ShiftedSquare(op, target)
    _, vecs, iterations, resid = run(square, LOBPCG_TOL, MAXITER - single_its)
    iterations += single_its
    if not np.all(np.isfinite(vecs)):
        raise SolverError("lobpcg returned non-finite vectors")
    note = None
    if np.any(resid > LOBPCG_TOL):
        note = (f"{op.kind} solve near {target:.6g}: wanted residuals above tol "
                f"{LOBPCG_TOL:.1e} after {iterations} iterations (maxiter "
                f"{MAXITER}), worst {float(np.max(resid)):.3e}")
    mu, V = _rayleigh_ritz(square.t, vecs[:, :count])
    return _Solve(mu, V, iterations, single_its, note, handoff)


def _threshold_pair(lambda0: float, mass: float, nu0: float) -> tuple[float, float]:
    # [[m, nu0], [nu0, -m]] (a, b)^T = lambda0 (a, b)^T
    if lambda0 >= 0:
        a, b = lambda0 + mass, nu0
    else:
        a, b = nu0, lambda0 - mass
    norm = float(np.hypot(a, b))
    if norm == 0.0:  # lambda0 = mass = 0: any unit pair satisfies the relation
        return 1.0, 0.0
    return a / norm, b / norm


def _warm_values(grid: Grid3D, rank: int, field: Field) -> np.ndarray:
    """A warm-start Field's (n, n, n, 2) supercharge values, as a view: the
    values of a 2-spinor field, the larger half of a 4-spinor one (for an
    exact lift (a v, b v) a multiple of v itself)."""
    if not isinstance(field, Field):
        raise TypeError(f"a warm start must be a Field, got {type(field).__name__}")
    if field.grid != grid:
        raise GridMismatchError(f"warm-start field on {field.grid}, operator on {grid}")
    if field.rank != rank:
        raise ValueError(f"warm-start field of rank {field.rank} for a rank-{rank} operator")
    if rank == 2:
        return field.values
    upper, lower = field.values[..., :2], field.values[..., 2:]
    return upper if np.linalg.norm(upper) >= np.linalg.norm(lower) else lower


def _lift(op: OperatorHandle, eps: ArrayR) -> list:
    """Candidate eigenpairs (value, a, b, i) of op over the supercharge
    values eps: eps itself for T, its exact lifts +-sqrt(m^2 + eps^2) for H."""
    if op.rank == 2:
        return [(float(e), 1.0, 0.0, i) for i, e in enumerate(eps)]
    cand = []
    for i, e in enumerate(eps):
        lam = float(np.sqrt(op.mass**2 + e**2))
        a, b = _threshold_pair(lam, op.mass, float(e))
        cand += [(lam, a, b, i), (-lam, -b, a, i)]
    return cand


def _covered_distance(op: OperatorHandle, target: float, shifts, radii) -> float:
    """Distance from target within which every lift is a candidate.

    A converged solve near s holds every supercharge eigenvalue eps with
    |eps - s| < r, r its farthest value. The lift's distance to the target is
    monotone in eps on every interval that avoids 0 and the shifts, so over
    the eps the solves may have missed it is smallest at an end of their
    joint window.
    """
    spans = [(s - r, s + r) for s, r in zip(shifts, radii)]
    ends = [e for lo, hi in spans for e in (lo, hi)
            if not any(l < e < h for l, h in spans)]
    return min(abs(c[0] - target) for c in _lift(op, np.array(ends)))


def eigs_near(
    op: OperatorHandle,
    target: float,
    count: int,
    warm: Optional[list] = None,
    seed: int = 0,
    extra: Optional[int] = None,
) -> EigenReport:
    """The `count` eigenvalues of the discretized operator nearest `target`.

    t_a is solved directly; h_a is lifted, not solved (see the module
    docstring). Its target maps to the supercharge scale
    nu = sqrt(max(tau^2 - m^2, 0)), and T is solved near 0 when nu = 0, else
    near +nu and -nu, merged by one rank-revealing Rayleigh-Ritz of T on the
    joint span. The lifts nearest the target are returned with residuals of
    H itself, and iterations sums over the supercharge solves. A solve ranks
    by |eps - s|, which orders the lifts differently when nu > 0, so the
    solves are widened (doubling the pairs per solve, at most to
    16 * count) until no eigenvalue nearer the target than the returned ones
    can lie outside their windows; an answer left uncertified reports
    converged=False.

    warm is a list of Fields of the operator's grid and rank to start from,
    a 4-spinor one reduced to its larger 2-spinor half; anything else raises
    TypeError. eigs_near empties the list, and each solve's start block
    takes the fields out as it copies them into coefficient columns, so a
    field no one else holds is freed before the solver runs. On periodic
    grids near 0 the two constant spinors follow the fields (see
    _start_block); the block holds all of them, at least count + extra
    columns.

    seed draws the random columns; extra guard columns per solve (None:
    max(2, pairs)) only accelerate.

    The report holds the eigenvectors as Fields and each pair's constant
    fraction. Deterministic under a fixed seed. converged needs every
    residual <= RESID_TOL; non-convergence is reported through
    converged=False with the partial results left in place, never raised.
    """
    grid = op.grid
    n, rank = grid.n, op.rank
    if not 1 <= count <= 2 * n**3:
        raise ValueError(f"count must be in [1, 2 n^3 = {2 * n**3}], got {count}")
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    fields = [_warm_values(grid, rank, f) for f in warm or ()]
    if warm:
        warm.clear()

    notes: list[str] = []
    shifts = (target,)
    if rank == 4:
        nu = float(np.sqrt(max(target**2 - op.mass**2, 0.0)))
        shifts = (nu, -nu) if nu > 0.0 else (0.0,)
    starts = [list(fields) for _ in shifts]
    del fields

    # Each solve ranks by |eps - s|, the target by the lift's distance; the
    # two disagree when nu > 0, so widen the solves until the nearest lifts
    # all lie where no supercharge eigenvalue can have been missed. A solve
    # that ran out of iterations certifies nothing, and its residuals say so;
    # the widening stops at 16 * count pairs, or sooner on fine grids: at
    # 2^20 / n^3 pairs a block of 2 * width columns holds 64 MB.
    iterations, single_its, width = 0, 0, count
    while True:
        solves = [_solve_near(op, s, width, w, seed, extra) for s, w in zip(shifts, starts)]
        iterations += sum(sv.iterations for sv in solves)
        single_its += sum(sv.complex64_iterations for sv in solves)
        notes += [sv.handoff for sv in solves if sv.handoff]
        if len(solves) == 1:
            eps, V = solves[0].eps, solves[0].vectors
        else:
            joint = np.hstack([sv.vectors for sv in solves])
            eps, V = _rayleigh_ritz(_ShiftedSquare(op, 0.0).t, _orthonormal_span(joint))
        cand = _lift(op, eps)
        values = np.array([c[0] for c in cand])
        order = _nearest(values, target, count)
        reach = float(np.max(np.abs(values[order] - target)))
        radii = [float(np.max(np.abs(sv.eps - s))) for sv, s in zip(solves, shifts)]
        certified = reach <= _covered_distance(op, target, shifts, radii) + 1e-9
        exhausted = [sv.exhausted for sv in solves if sv.exhausted]
        if certified or exhausted or width >= min(16 * count, max(count, 2**20 // n**3)):
            break
        width *= 2
        # each solve restarts from its vectors, as fields
        starts = [list(_grid_fields(grid, sv.vectors)) for sv in solves]
    notes += exhausted
    if rank == 4:
        notes.append(f"{op.kind} pairs lifted from t_a solves near "
                     f"{', '.join(f'{s:.6g}' for s in shifts)} (nearest {width} each): "
                     "+-sqrt(m^2 + eps^2), vectors (a v, b v)")
    picked = [cand[j] for j in order]
    lam = values[order]
    # the picked supercharge vectors, transformed to grid values once
    block = _grid_fields(grid, V[:, [i for _, _, _, i in picked]])
    del solves, V
    if rank == 4:
        a, b = (np.array([c[k] for c in picked])[:, None, None, None, None] for k in (1, 2))
        block = np.concatenate([a * block, b * block], axis=-1)

    R = apply_values(op, np.moveaxis(block, 0, 3))
    R -= lam[None, None, None, :, None] * np.moveaxis(block, 0, 3)
    residuals = [float(np.linalg.norm(R[..., i, :]) / np.linalg.norm(block[i]))
                 for i in range(len(order))]
    fractions = tuple(None if grid.antiperiodic else _constant_fraction(v) for v in block)

    thr = kernel_threshold(grid)
    kernel = 0
    for l, (_, _, _, i), frac, const in zip(lam, picked, fractions,
                                            _constant_branch(op, fractions)):
        if abs(eps[i]) > thr:
            continue
        if const:
            notes.append(f"excluded eigenvalue {l:.3e} from kernel count: "
                         f"constant-subspace overlap {frac:.2f} (torus artifact)")
            continue
        kernel += 1

    converged = bool(np.all(np.array(residuals) <= RESID_TOL))
    if not converged:
        notes.append(f"residuals above {RESID_TOL:.1e} after {iterations} iterations")
    if not certified:
        converged = False
        notes.append(f"nearest pairs not certified: an eigenvalue within {reach:.3e} "
                     f"of the target may be missing")
    return EigenReport(
        target=float(target),
        eigenvalues=tuple(float(l) for l in lam),
        residuals=tuple(residuals),
        constant_fractions=fractions,
        kernel_dim_estimate=kernel,
        iterations=int(iterations),
        complex64_iterations=int(single_its),
        converged=converged,
        threshold=thr,
        seed=seed,
        kind=op.kind,
        grid=grid,
        mass=op.mass,
        notes=tuple(notes),
        fields=tuple(Field(grid, v) for v in block),
    )


# ----------------------------------------------------------------------------
# Gap scan


@dataclass(frozen=True)
class GapScanReport:
    """Spectral-gap certification: (lambda, proxy) rows with proxy >= 1 - tol
    meaning the nearest eigenvalue keeps the full theoretical distance
    min(|lambda - m|, |lambda + m|), and the edge solve's report."""

    mass: float
    rows: tuple  # ((lambda, proxy), ...)
    nearest_eigenvalues: tuple
    seed: int
    eigensolve: EigenReport  # the edge solve

    @property
    def converged(self) -> bool:
        return self.eigensolve.converged

    to_dict = report_dict


def gap_scan(
    pot: PotentialSpec,
    mass: float,
    grid: Grid3D,
    lambdas: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> GapScanReport:
    """Certify the absence of spectrum inside the gap (-m, m).

    Samples lambda at `lambdas`, by default (-m/2, 0, m/2), the ends and
    middle of the gap's middle half; a list must stay at least m/20 away
    from +-m, where the proxy's normalization degenerates (the theory pins
    +-m as spectrum anyway). For each lambda the proxy is
    dist(lambda, nearest eigenvalue) / min(|lambda-m|, |lambda+m|); values
    near 1 certify that no discrete eigenvalue intrudes into the gap.

    By chiral symmetry the spectrum nearest the gap is the pair +-edge, with
    edge the H_A eigenvalue nearest +m; eigs_near lifts it from one
    supercharge solve near 0, which covers every lambda.
    """
    if mass <= 0 or not np.isfinite(mass):
        raise ValueError("gap scan needs mass > 0")
    if lambdas is None:
        lambdas = (-mass / 2.0, 0.0, mass / 2.0)
    points = np.asarray(lambdas, dtype=np.float64)
    if points.ndim != 1 or len(points) == 0:
        raise ValueError("lambdas must be a non-empty 1d list")
    if not np.all(np.isfinite(points)):
        raise ValueError("lambdas must be finite")
    if np.any(np.abs(points) > 0.95 * mass):
        raise ValueError("gap samples must stay away from the +-m endpoints")

    op = OperatorHandle(kind="h_a", grid=grid, potential=pot, mass=mass)
    rep = eigs_near(op, mass, 1, seed=seed)
    edge = rep.eigenvalues[0]
    rows = []
    nearest = []
    for lam in points:
        mu = edge if abs(lam - edge) <= abs(lam + edge) else -edge
        bound = min(abs(lam - mass), abs(lam + mass))
        rows.append((float(lam), float(abs(mu - lam) / bound)))
        nearest.append(mu)
    return GapScanReport(mass=float(mass), rows=tuple(rows),
                         nearest_eigenvalues=tuple(nearest), seed=seed, eigensolve=rep)


# ----------------------------------------------------------------------------
# Weyl quasi-modes


@dataclass(frozen=True)
class WeylQuasimode:
    """Quasi-eigenfunction f = (a psi, b psi) at lambda0 with |lambda0| >= m.

    psi is the sigma.k eigenspinor chi of the dual-lattice wave vector nearest
    nu0 = sqrt(lambda0^2 - m^2), localized by a smooth periodic envelope whose
    width grows with n_index; (a, b) solves the 2x2 threshold relation. The
    quasi-mode is kept as what it is, a product: the spinor c = (a chi, b chi)
    and one 1-D factor per axis, f = c (x) f_x(x) f_y(y) f_z(z). `field`
    assembles the n^3 4-spinor samples on each access (134 MB at n=128);
    nothing else needs them. The JSON form (to_dict) leaves out the spinor
    and the factors.
    """

    lambda0: float
    nu0: float
    a: float
    b: float
    grid: Grid3D
    spinor: ArrayC = field(metadata=OMITTED)  # c = (a chi, b chi)
    factors: tuple = field(metadata=OMITTED)  # (f_x, f_y, f_z), each of shape (n,)
    residual: float
    k_vector: tuple
    envelope_width: Optional[float]
    notes: tuple

    @property
    def field(self) -> Field:
        fx, fy, fz = self.factors
        psi = fx[:, None, None, None] * fy[None, :, None, None] * fz[None, None, :, None]
        return Field(grid=self.grid, values=psi * self.spinor)

    to_dict = report_dict


def _nearest_lattice_k(grid: Grid3D, nu0: float) -> ArrayR:
    """Dual-lattice vector pi/L z minimizing ||k| - nu0|, ties broken
    lexicographically; z is half-integer on antiperiodic grids.

    The Nyquist rows are excluded: the label -n/2 has no +n/2 partner, so a
    wave packet modulated onto it cannot be re-centered cleanly.
    """
    base = np.pi / grid.L
    zmax = min(grid.n // 2 - 1, int(np.ceil(nu0 / base)) + 2)
    axis = np.arange(-zmax - 0.5 * grid.antiperiodic, zmax + 1)
    z = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    norms = base * np.linalg.norm(z, axis=1)
    mism = np.abs(norms - nu0)
    best = np.lexsort((z[:, 2], z[:, 1], z[:, 0], mism))
    return base * z[best[0]]


def _plus_spinor(k: ArrayR) -> ArrayC:
    """Unit eigenspinor of sigma.k with eigenvalue +|k| (any spinor for k=0):
    a column of I + sigma.k_hat, the first unless k_hat = -e3 zeroes it."""
    nk = np.linalg.norm(k)
    if nk == 0.0:
        return np.array([1.0, 0.0], dtype=np.complex128)
    plus = np.eye(2) + sigma_mul(*(k / nk), np.eye(2))
    col = plus[:, 0] if np.linalg.norm(plus[:, 0]) >= 1e-8 else plus[:, 1]
    return col / np.linalg.norm(col)


def _weyl_residuals(op: OperatorHandle, lambda0: float, a: float, b: float,
                    chi: ArrayC, factor_sets) -> list:
    """||(op - lambda0) f|| / ||f|| for each f = (a chi, b chi) psi of the
    sweep, psi a product of 1-D factors, with no 3-D transform.

    D_j psi is psi with f_j replaced by its 1-D spectral derivative, and
    T(chi psi) = sum_j (sigma_j chi) D_j psi - (sigma.A chi) psi. The
    residual [(m - lambda0) a chi psi + b T; a T - (m + lambda0) b chi psi]
    is formed pointwise, a few x-slabs at a time, and its squares summed
    (cross terms would cancel catastrophically on an exact quasi-mode);
    each slab forms sigma.A chi once for the sweep (none if op is free).
    """
    grid, A = op.grid, op.sampled_potential()
    k = grid.k_axis
    tw = np.exp(0.5j * np.pi / grid.L * grid.axis) if grid.antiperiodic else 1.0
    sx, sy, sz = (sigma_mul(*e, chi) for e in np.eye(3))  # sigma_j chi
    parts = []
    for fx, fy, fz in factor_sets:
        dx, dy, dz = (tw * fft_1d(k * fft_1d(f / tw), inverse=True) for f in (fx, fy, fz))
        q = [sy[c] * dy[:, None] * fz + sz[c] * fy[:, None] * dz for c in range(2)]
        parts.append((fx[:, None, None], dx[:, None, None], fy[:, None] * fz, q))
    up, lo = (op.mass - lambda0) * a, -(op.mass + lambda0) * b
    rows = max(1, 2**17 // grid.n**2)  # slabs of 2 MB per complex array
    totals = np.zeros(len(parts))
    for i in range(0, grid.n, rows):
        s = slice(i, i + rows)
        a_chi = (0.0, 0.0) if A is None else sigma_mul(
            A[s, ..., 0], A[s, ..., 1], A[s, ..., 2], chi[:, None, None, None])
        for m, (fx, dx, p, q) in enumerate(parts):
            psi = fx[s] * p
            for c in range(2):
                t = sx[c] * dx[s] * p + fx[s] * q[c]
                t -= a_chi[c] * psi
                cpsi = chi[c] * psi
                for r in (up * cpsi + b * t, a * t + lo * cpsi):
                    totals[m] += np.vdot(r, r).real
    norms = [(a * a + b * b) * np.vdot(chi, chi).real * np.vdot(fx, fx).real
             * np.vdot(fy, fy).real * np.vdot(fz, fz).real for fx, fy, fz in factor_sets]
    return np.sqrt(totals / norms).tolist()


def build_weyl_quasimode(op: OperatorHandle, lambda0: float,
                         n_indices: Sequence[int]) -> list[WeylQuasimode]:
    """Quasi-modes of H_A = op (kind h_a) at lambda0, one per envelope index
    in n_indices: all of |lambda| >= m is spectrum.

    For a free op and lambda0 on the exact lattice dispersion the
    construction is an exact eigenfunction (no envelope, residual at
    round-off). Otherwise the wave packet is centered on the corner of the
    box, far from the potential's bulk, and its residual decreases as n_index
    widens the envelope. The wave vector, spinor and (a, b) depend on lambda0
    and m only: the sweep shares them and takes every residual in one pass
    over op's samples of A (_weyl_residuals), within 5e-14 of the 3-D apply
    of op.
    """
    grid, mass = op.grid, op.mass
    if op.kind != "h_a":
        raise ValueError("Weyl quasi-modes need an h_a operator")
    if not np.isfinite(lambda0):
        raise ValueError(f"lambda0 must be finite, got {lambda0}")
    if abs(lambda0) < mass:
        raise ValueError(f"need |lambda0| >= mass, got {lambda0} with mass {mass}")
    if not n_indices or min(n_indices) < 1:
        raise ValueError("each n_index must be >= 1")

    nu0 = float(np.sqrt(max(lambda0**2 - mass**2, 0.0)))
    k = _nearest_lattice_k(grid, nu0)
    chi = _plus_spinor(k)
    a, b = _threshold_pair(lambda0, mass, nu0)
    free = op.sampled_potential() is None

    plane = [np.exp(1j * kj * grid.axis) for kj in k]
    # smooth periodic bump centered on the corner (-L,-L,-L), the point
    # farthest from the potential's bulk at the origin:
    # exp(-|s|^2 / (2 width^2)) with s_j = (2L/pi) sin(pi u_j / (2L))
    u = grid.axis + grid.L  # distance from corner along one axis, in [0, 2L)
    s = (2.0 * grid.L / np.pi) * np.sin(np.pi * u / (2.0 * grid.L))
    widths = [None if free else 1.0 + 1.5 * n_index for n_index in n_indices]
    factor_sets = [plane if w is None else [p * np.exp(-(s**2) / (2.0 * w**2)) for p in plane]
                   for w in widths]
    notes = ("zero potential: plane wave used without envelope",) if free else ()
    residuals = _weyl_residuals(op, lambda0, a, b, chi, factor_sets)
    return [WeylQuasimode(
        lambda0=float(lambda0), nu0=nu0, a=a, b=b, grid=grid,
        spinor=np.concatenate([a * chi, b * chi]), factors=tuple(factors), residual=res,
        k_vector=tuple(float(c) for c in k), envelope_width=width, notes=notes,
    ) for factors, res, width in zip(factor_sets, residuals, widths)]


# ----------------------------------------------------------------------------
# Decay-exponent certification


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay exponent of log mean_omega |f(r omega)| vs log r.

    verdict: mode_tail for exponent >= 2 - 0.25 (the <x>^-2 decay of a zero
    mode is an upper bound: L^2 modes built on the Loss-Yau one decay like
    r^-3, r^-4, ...), resonance_tail within 0.25 of 1, else undetermined.
    """

    # the undetermined fit's NaN exponent and stderr are written as null
    exponent: float = field(metadata=NULLABLE)
    exponent_stderr: float = field(metadata=NULLABLE)
    window: tuple
    verdict: str
    sample_count: int
    table: tuple  # ((r, amplitude), ...)

    to_dict = report_dict


def decay_fit(mode, radii) -> DecayFit:
    """Fit the radial decay exponent of a mode over a window of radii.

    The amplitude at each radius is the mean spinor norm over the 26 lattice
    directions (quadrature.radial_samples, here of at least 6 radii). mode is
    a callable evaluator points (..., 3) -> spinor values or a Field, whose
    periodic factor (e^{-is.x} f, of norm |f|, on antiperiodic grids) is
    interpolated trilinearly inside the box. A field below the noise floor
    across the window yields verdict "undetermined" rather than an error.
    """
    if isinstance(mode, Field):
        g, f = mode.grid, mode.values
        f = f * g.spin_untwist[..., None] if g.antiperiodic else f

        def mode(pts):
            if (reach := np.max(np.abs(pts))) >= g.L:  # the last radius, on an axis
                raise ValueError(f"window reaches r={reach}, outside the box of half-width {g.L}")
            return interp_trilinear(g, f, pts)
    elif not callable(mode):
        raise TypeError("mode must be a Field or a callable evaluator")
    radii, vals = radial_samples(mode, radii, least=6)
    vals = np.asarray(vals, dtype=np.complex128)

    amp = np.linalg.norm(vals, axis=-1).mean(axis=1)
    window = (float(radii[0]), float(radii[-1]))
    table = tuple((float(r), float(a)) for r, a in zip(radii, amp))
    if np.max(amp) < 1e-13 * max(1.0, float(np.max(np.abs(vals)))):
        return DecayFit(
            exponent=float("nan"), exponent_stderr=float("nan"), window=window,
            verdict="undetermined", sample_count=int(vals.size), table=table,
        )

    expo, stderr = fit_loglog(radii, amp)
    if expo >= 2.0 - VERDICT_DELTA:
        verdict = "mode_tail"
    elif abs(expo - 1.0) <= VERDICT_DELTA:
        verdict = "resonance_tail"
    else:
        verdict = "undetermined"
    return DecayFit(
        exponent=float(expo), exponent_stderr=float(stderr), window=window,
        verdict=verdict, sample_count=int(vals.size), table=table,
    )


# ----------------------------------------------------------------------------
# Coupling scan


@dataclass(frozen=True)
class CouplingScanReport:
    """|lambda_min(T_{tA})| over a list of couplings t.

    rows hold (t, lambda_min) with lambda_min the smallest |eigenvalue|. On
    periodic grids the torus constant branch is deflated first (kept raw
    under a zero potential, where constants are the honest answer and are
    reported as the documented artifact); antiperiodic grids have no such
    branch. converged holds, per row, whether that row's eigensolve met its
    residual tolerance.
    """

    rows: tuple
    converged: tuple  # per-row bool, aligned with rows
    eigenvalues: tuple  # per-t tuple of the eigenvalues examined
    notes: tuple
    seed: int

    to_dict = report_dict


def coupling_scan(
    base: PotentialSpec,
    t_values: Sequence[float],
    grid: Grid3D,
    seed: int = 0,
) -> CouplingScanReport:
    """Scan the coupling t, reporting |lambda_min| of T_{tA} at each value.

    base is sampled once, and each row's potential scales those samples.
    Each row's solve starts from the previous row's fields (the first row
    cold); the report goes before the next solve, which empties the list of
    fields it is given, so no row's vectors live through the next solve.
    """
    ts = np.asarray(t_values, dtype=np.float64)
    if ts.ndim != 1 or len(ts) < 3 or not np.all(np.isfinite(ts)):
        raise ValueError("need >= 3 finite coupling values")
    rows = []
    converged = []
    all_eigs = []
    notes: list[str] = []
    warm: list = []
    base = Sampled(grid, sample_potential(base, grid))
    for t in ts:
        op = OperatorHandle(kind="t_a", grid=grid, potential=Scaled(t=float(t), inner=base))
        rep = eigs_near(op, 0.0, 3, warm, seed=seed)
        lam = np.array(rep.eigenvalues)
        keep = [i for i, const in enumerate(_constant_branch(op, rep.constant_fractions))
                if not const]
        if not grid.antiperiodic and op.sampled_potential() is None:
            notes.append(
                f"t={t:g}: reported minimum is the torus constant-spinor kernel, "
                "a discretization artifact absent on R^3"
            )
        elif not keep:
            keep = list(range(len(lam)))
            notes.append(f"t={t:g}: all candidates constant-dominated; raw minimum kept")
        elif len(keep) < len(lam):
            notes.append(
                f"t={t:g}: deflated {len(lam) - len(keep)} constant-branch "
                "eigenpair(s) from the minimum"
            )
        rows.append((float(t), float(np.min(np.abs(lam[keep])))))
        converged.append(rep.converged)
        all_eigs.append(tuple(float(l) for l in lam))
        warm = list(rep.fields)
        del rep
    return CouplingScanReport(rows=tuple(rows), converged=tuple(converged),
                              eigenvalues=tuple(all_eigs), notes=tuple(notes),
                              seed=seed)
