"""The block eigensolver: soft-locking LOBPCG on a Hermitian positive
semidefinite operator applied through `@`, in the operator's precision.

eigs_near (diraclab.probe) runs it on the squared shifted supercharge, in
complex64 and then complex128 on fine grids. Nothing here knows the grid or
the operator: the tests run it on dense matrices with a known spectrum.

Every product over the basis runs on numpy's BLAS, as do the small eigh
problems: vdot for the Gram matrices and norms, matmul for the in-place
recombinations. The solver uses no second BLAS, so its products run on one
thread pool.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.typing import NDArray

ArrayR = NDArray[np.float64]

__all__ = ["SolverError", "lobpcg"]


class SolverError(RuntimeError):
    """The iterative solver failed outright (not mere non-convergence)."""


# Rows per partial sum of _gram: long enough that the Python loop over
# blocks costs little, short enough that complex64 round-off stays small.
_GRAM_ROWS = 16384


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b for Fortran-ordered blocks, in complex128.

    One numpy vdot per column pair and block of _GRAM_ROWS rows: the
    columns are contiguous, so nothing is copied, and BLAS conjugates a.
    The block sums add up in complex128, which keeps a complex64 Gram
    matrix near the round-off of one block: on unit columns of
    N = 524,288 (n=64) one cdotc over the whole column errs by 3e-6, a
    cgemm by 6e-7, and the block sums by 4e-8. (With whole-column dots the
    complex64 phase of the n=64 verify-zero-mode solve stalled at a
    residual of 1.4e-4 instead of reaching 1e-5.) At n=64, 5 x 1 columns
    take 1.7-2.1 ms in complex128 and 1.5-1.6 ms in complex64, against
    5.0-5.6 and 4.8-6.5 ms through scipy's gemm with trans_a=2 (min of 20,
    2-core VM).

    Every block the solver builds passes through a Gram matrix, so this is
    where non-finite operator or preconditioner output is caught.
    """
    G = np.zeros((a.shape[1], b.shape[1]), dtype=np.complex128)
    for r0 in range(0, a.shape[0], _GRAM_ROWS):
        rows_a, rows_b = a[r0:r0 + _GRAM_ROWS], b[r0:r0 + _GRAM_ROWS]
        for j, bj in enumerate(rows_b.T):
            for i, ai in enumerate(rows_a.T):
                G[i, j] += np.vdot(ai, bj)
    if not np.all(np.isfinite(G)):
        raise SolverError("non-finite values in the operator or preconditioner output")
    return G


def _svqb(G: np.ndarray) -> tuple[np.ndarray, float]:
    """T with T^H G T = I on the well-conditioned part of the Gram matrix G,
    and the condition number of that part.

    Rank-revealing: after scaling G to unit diagonal, directions with
    eigenvalue below 1e-10 of the largest are dropped, so T has as many
    columns as the block has independent directions (possibly none).
    """
    d = np.sqrt(np.maximum(np.real(np.diag(G)), 0.0))
    d = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
    lam, U = np.linalg.eigh(d[:, None] * G * d[None, :])
    keep = lam > max(1e-10 * lam[-1], 0.0)
    cond = lam[-1] / lam[keep][0] if np.any(keep) else 1.0
    return np.asfortranarray(d[:, None] * U[:, keep] / np.sqrt(lam[keep])), cond


# Rows per block of _recombine: a block of a 12-column basis is 768 KB, so
# each product is written and read back in cache.
_ROWS = 4096


def _recombine(V: np.ndarray, lo: int, hi: int, coef: np.ndarray, at: int = 0) -> None:
    """V[:, at:at + r] = V[:, lo:hi] @ coef in place, for coef of shape
    (hi - lo, r), a block of rows at a time; the source and destination
    columns may overlap.

    numpy's matmul hands each strided row block to BLAS with its leading
    dimension, so nothing is copied in. The product goes into one reused
    (_ROWS, r) buffer while the block is in cache and is copied straight
    back, so no (N, r) temporary is formed. At n=64 a 5 -> 4 column
    recombination takes 8.6-9.1 ms in complex128 and 4.6-5.3 ms in
    complex64, against 12-37 and 6.2-7.6 ms through scipy's f2py gemm,
    which copied every strided block in (min of 20, 2-core VM).
    """
    coef = coef.astype(V.dtype, copy=False)
    r = coef.shape[1]
    buf = np.empty((min(_ROWS, V.shape[0]), r), dtype=V.dtype, order="F")
    for r0 in range(0, V.shape[0], _ROWS):
        rows = V[r0:r0 + _ROWS]
        out = buf[:rows.shape[0]]
        np.matmul(rows[:, lo:hi], coef, out=out)
        rows[:, at:at + r] = out


def _column_norms(R: np.ndarray) -> ArrayR:
    """Euclidean norms of the columns of R, without a temporary of R's size."""
    return np.sqrt([np.vdot(r, r).real for r in R.T])


def _orthonormalize(S: np.ndarray, lo: int, hi: int) -> int:
    """Make columns lo:hi of S orthonormal and orthogonal to columns :lo,
    which must be orthonormal already; returns how many independent columns
    are left, packed from lo.

    A pass forms one Gram matrix [C; G_W] = S[:, :hi]^H W of the new columns
    W = S[:, lo:hi], and normalizes the projection W - X C of W off
    X = S[:, :lo] (classical Gram-Schmidt) by SVQB, whose T is found from
    the projected Gram matrix G_W - C^H C in the small space. Both steps
    then go in one recombination over the basis,
    S[:, lo:lo + r] = S[:, :hi] @ [-C T; T], one pass where a projection
    followed by a recombination made two. The projection loses
    orthogonality in proportion to the fraction of W it removes, SVQB in
    proportion to the condition of the projected Gram matrix; a second pass
    runs only when either factor exceeds 1e4, which bounds the loss of
    orthonormality near 1e-12.
    """
    for _ in range(3):
        G = _gram(S[:, :hi], S[:, lo:hi])
        C, Gw = G[:lo], G[lo:]
        shrink = 1.0
        if lo:
            before = np.real(np.diag(Gw))
            Gw = Gw - C.conj().T @ C
            after = np.real(np.diag(Gw))
            shrink = float(np.max(before / np.maximum(after, np.finfo(float).tiny)))
        T, cond = _svqb(Gw)
        r = T.shape[1]
        if r:
            _recombine(S, 0, hi, np.vstack([-C @ T, T]), at=lo)
        hi = lo + r
        if not r or (shrink <= 1e4 and cond <= 1e4):
            break
    return hi - lo


def lobpcg(A, X: np.ndarray, M=None, tol: float = 1e-8, maxiter: int = 20,
           nwanted: Optional[int] = None, stall: Optional[int] = None):
    """Soft-locking block LOBPCG for the smallest eigenpairs of a Hermitian
    positive semidefinite A (Knyazev 2001; the robust basis handling of
    Duersch, Shao, Yang & Gu 2018).

    A and the preconditioner M are applied only through `@`, to Fortran-
    ordered (N, k) blocks, and A's `dtype` is read; nothing else of them is
    used. Any object with `__matmul__` and `dtype` serves (a dense matrix in
    the tests; eigs_near's squared shift and preconditioner also carry the
    (N, N) `shape` the benchmark's tracer reads, so scipy.sparse is never
    loaded). Only the first `nwanted` Ritz pairs of the block
    (all of them by default) decide convergence: the loop ends once each has
    an absolute residual norm ||A x - theta x|| <= tol. The active set is
    the wanted columns still above tol; only they get search directions
    W = M R and P, so A and M are applied to them alone. Converged wanted
    columns and the guard columns beyond `nwanted` stay in the
    Rayleigh-Ritz basis, where the guards take up the next eigendirections
    and so accelerate the wanted ones without holding up the exit. Guards
    get no directions of their own: on the reference potential that cost
    operator applies without saving iterations (n=32, count=3, 6 guards, on
    a 2-core VM: 53 iterations in 15.7 s with active guards, 51 in 5.0 s
    without).

    The basis [X, P, W] lives in one preallocated buffer and is kept
    orthonormal: W = M R is projected off X and P and normalized by SVQB,
    dropping dependent directions, in one recombination over the basis,
    and P is formed in the small space
    already orthogonal to the new X. A X and A P are carried by linear
    combination, so each iteration applies A only to W, and Rayleigh-Ritz
    needs one Gram matrix, S^H A W: the [X, P] block of S^H A S is carried
    in the small space too. The combinations are formed in place, a block
    of rows at a time, so the only (N, k) blocks are the basis, its
    A-image and what A and M return. eigs_near runs this on Fourier
    coefficients (LOBPCG is invariant under a unitary change of basis); in
    its n=64 warm-started solve (3 columns, 1 wanted, 2-core VM) a
    complex128 iteration spends about 78 ms in A, 2 ms in M and 39 ms in
    this dense algebra, a complex64 one 44, 1 and 23 ms. (With the basis
    products on scipy's BLAS the dense algebra took 54-60 and 39-68 ms.)

    The working precision is A's dtype, complex128 or complex64 (a real A
    works in complex128): the basis and its A-image are held in it, and
    numpy's vdot and matmul run every product over them in that precision.
    X may be of another dtype; it is rounded into the basis. The
    Gram matrices come back in complex128, and the small Rayleigh-Ritz and
    SVQB problems are solved in complex128 in either precision: solved in
    complex64, their backward error eps32 * ||G|| alone would hold the
    residuals near 1e-6 at n=64. A is applied to the start block in slices
    of at most `nwanted` columns, one column at a time for a single wanted
    pair, as to each iteration's W: no apply, and no work block an apply
    keeps, is wider than the wanted set. (The start block in one apply set
    the peak memory of the n=64 single-pair solves; one column at a time
    for every solve cost the n=16 solves a transform call per column.)

    stall, when given, ends the loop once the worst wanted residual has set
    no new minimum for that many iterations: a complex64 solve whose
    residuals have reached its round-off floor stops there, above tol.

    Returns (theta, vectors, iterations, residuals): the block's Ritz values
    in ascending order, its orthonormal Ritz vectors (N, nb), Fortran-
    ordered, the number of iterations (each one A apply to W and one M apply
    to the active residuals), and the residual norms of the `nwanted`
    wanted pairs.
    """
    N, nb = X.shape
    k = nb if nwanted is None else nwanted
    dtype = np.result_type(A.dtype, np.complex64)
    real = np.finfo(dtype).dtype
    # [X, P, W]: P and W have a column per active wanted pair at most
    S = np.empty((N, nb + 2 * k), dtype=dtype, order="F")
    AS = np.empty_like(S)

    S[:, :nb] = X
    del X  # frees a block the caller passed unnamed (CPython 3.11 and later)
    nx = _orthonormalize(S, 0, nb)
    if nx < k:
        raise SolverError(f"start block has rank {nx}, fewer than the {k} wanted pairs")
    for j in range(0, nx, k):
        AS[:, j:min(j + k, nx)] = A @ S[:, j:min(j + k, nx)]
    lo, m = 0, nx  # the columns lo:m of S are new to the Rayleigh-Ritz basis
    H = np.zeros((0, 0))  # S[:, :lo]^H A S[:, :lo], known in the small space
    iterations, active = 0, np.arange(0)
    best, since = np.inf, 0  # the least worst residual, and iterations since it
    while True:
        # Rayleigh-Ritz on span [X, P, W]: only the new columns need a Gram
        B = _gram(S[:, :m], AS[:, lo:m])
        G = np.empty((m, m), dtype=np.complex128)
        G[:lo, :lo] = H
        G[:, lo:] = B
        G[lo:, :lo] = B[:lo].conj().T
        G = (G + G.conj().T) / 2.0
        theta, Z = np.linalg.eigh(G)
        theta, C = theta[:nx], Z[:, :nx]
        # new P: the active Ritz directions without their X part, made
        # orthonormal to the new X in the small space
        Cp = C[:, active]
        if len(active):
            Cp[:nx] = 0.0
            Cp -= C @ (C.conj().T @ Cp)
            Cp = Cp @ _svqb(Cp.conj().T @ Cp)[0]
        coef = np.asfortranarray(np.hstack([C, Cp]))
        lo = coef.shape[1]
        _recombine(S, 0, m, coef)
        _recombine(AS, 0, m, coef)
        H = coef.conj().T @ G @ coef

        # residuals of the wanted pairs, written where W goes
        R = S[:, lo:lo + k]
        np.multiply(S[:, :k], theta[:k].astype(real, copy=False), out=R)
        np.subtract(AS[:, :k], R, out=R)
        resid = _column_norms(R)
        worst = float(np.max(resid))
        best, since = (worst, 0) if worst < best else (best, since + 1)
        if np.all(resid <= tol) or iterations >= maxiter or (stall and since >= stall):
            break
        active = np.flatnonzero(resid > tol)
        W = R if len(active) == k else R[:, active]
        S[:, lo:lo + len(active)] = W if M is None else M @ W
        m = lo + _orthonormalize(S, lo, lo + len(active))
        if m == lo:  # no direction left that the basis does not hold
            break
        AS[:, lo:m] = A @ S[:, lo:m]
        iterations += 1
    return theta, S[:, :nx].copy(order="F"), iterations, resid
