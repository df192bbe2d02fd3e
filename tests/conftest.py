"""Shared fixtures for the heavy eigensolves.

The reference-box solves (L=20) are the expensive part of the acceptance
suite, and several checks look at the same spectral cluster from different
angles, so each solve runs once per session. Everything else builds cheap
derived objects from these.
"""

import numpy as np
import pytest

from diraclab.grid import Field, Grid3D, OperatorHandle, sample_field
from diraclab.modes import LossYauMode
from diraclab.potentials import LossYau
from diraclab.probe import eigs_near


@pytest.fixture(scope="session")
def lossyau():
    return LossYau()


@pytest.fixture(scope="session")
def grid32():
    return Grid3D(32, 20.0)


@pytest.fixture(scope="session")
def cluster32(lossyau, grid32):
    """Near-kernel cluster of the supercharge on the n=32, L=20 box with
    periodic spinors.

    Three members: one constant-dominated pair partner of the torus mean
    field (the constant-spinor artifact of the periodic spin structure), two
    hybrids carrying most of the zero-mode content.
    """
    op = OperatorHandle(kind="t_a", grid=grid32, potential=lossyau)
    rep = eigs_near(op, 0.0, 3, seed=7, extra=0)
    assert rep.converged, rep.residuals
    return rep


def lifted_block(rep, grid, mass, sign, members):
    """Exact 4-spinor eigenvector guesses built from supercharge pairs, a list
    of 4-spinor warm-start Fields.

    For T v = eps v the full operator acts on span{(v,0),(0,v)} as the 2x2
    matrix [[m, eps],[eps, -m]]; its eigenvectors lift v to the +-sqrt(m^2 +
    eps^2) eigenspaces exactly, which is what makes the warm starts converge
    in a handful of iterations.
    """
    cols = []
    for i in members:
        v = rep.fields[i].values.reshape(-1, 2)
        eps = rep.eigenvalues[i]
        small = np.array([[mass, eps], [eps, -mass]])
        _, U = np.linalg.eigh(small)  # columns ordered -lam, +lam
        a, b = U[:, 1] if sign > 0 else U[:, 0]
        col = np.concatenate([a * v, b * v], axis=-1).reshape((grid.n,) * 3 + (4,))
        cols.append(Field(grid, col / np.linalg.norm(col)))
    return cols


@pytest.fixture(scope="session")
def dirac_pair32(lossyau, grid32, cluster32):
    """Full-operator eigensolves at targets +-m (m=1) on the reference box."""
    op = OperatorHandle(kind="h_a", grid=grid32, potential=lossyau, mass=1.0)
    out = {}
    for sign in (+1, -1):
        warm = lifted_block(cluster32, grid32, 1.0, sign, range(3))
        rep = eigs_near(op, float(sign), 3, warm, seed=7, extra=0)
        assert rep.converged, rep.residuals
        out[sign] = rep
    return out


def mode_overlap(rep, grid, index=0):
    """|<phi, v>| / (|phi| |v|) between a Ritz vector and the sampled
    analytic Loss-Yau mode phi."""
    phi = sample_field(LossYauMode().eval, grid).values.reshape(-1)
    v = rep.fields[index].values.reshape(-1)
    return float(abs(np.vdot(phi, v)) / (np.linalg.norm(phi) * np.linalg.norm(v)))


@pytest.fixture(scope="session")
def lam_min_refined(lossyau):
    """|lambda_min| of the supercharge at n=64, L=20 on antiperiodic spinors,
    warm-started from the sampled analytic mode alone.

    Antiperiodic spinors admit no constants, so the smallest eigenvalue
    belongs to the zero-mode branch; the overlap check pins that.
    """
    grid = Grid3D(64, 20.0, spin="antiperiodic")
    op = OperatorHandle(kind="t_a", grid=grid, potential=lossyau)
    mode = sample_field(LossYauMode().eval, grid)
    rep = eigs_near(op, 0.0, 1, [mode], seed=7, extra=0)
    assert rep.converged, rep.residuals
    overlap = mode_overlap(rep, grid)
    assert overlap >= 0.99, f"eigenvector overlaps the analytic mode by only {overlap:.4f}"
    return float(min(abs(e) for e in rep.eigenvalues))


@pytest.fixture(scope="session")
def lam_min_half_box(lossyau):
    """|lambda_min| of the supercharge at n=32, L=10 (same lattice density),
    antiperiodic spinors, cold start."""
    grid = Grid3D(32, 10.0, spin="antiperiodic")
    op = OperatorHandle(kind="t_a", grid=grid, potential=lossyau)
    rep = eigs_near(op, 0.0, 1, seed=7)
    assert rep.converged, rep.residuals
    return float(min(abs(e) for e in rep.eigenvalues))
