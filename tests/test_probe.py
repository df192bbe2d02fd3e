"""Eigensolver, scans, quasi-modes, and decay fits on small grids.

The free operator gives exact references on the dual lattice: constants span
the kernel of sigma.D, plane-wave shells sit at exactly degenerate +-|k|, and
the squared operator's floor is m^2. Everything here runs in seconds.
"""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from diraclab.grid import (
    Field,
    Grid3D,
    GridMismatchError,
    OperatorHandle,
    apply_values,
    residual_norm,
    sample_field,
)
from diraclab.modes import LossYauMode
from diraclab.potentials import LossYau, Scaled
from diraclab.probe import (
    SolverError,
    build_weyl_quasimode,
    coupling_scan,
    decay_fit,
    eigs_near,
    gap_scan,
    kernel_threshold,
    lobpcg,
)

FREE = Scaled(t=0.0, inner=LossYau())


def h_a(pot, mass, g):
    """H_A = [[m, T], [T, -m]] of pot on g, the operator Weyl quasi-modes take."""
    return OperatorHandle(kind="h_a", grid=g, potential=pot, mass=mass)


def test_kernel_threshold_formula():
    g = Grid3D(n=64, L=20.0)
    want = 0.1 / 20.0 + 0.1 * np.exp(-np.pi * 64 / 40.0)
    assert kernel_threshold(g) == pytest.approx(want, rel=1e-12)
    # box term dominates at practical sizes
    assert kernel_threshold(Grid3D(n=64, L=10.0)) > kernel_threshold(g)


def test_free_kernel_is_two_constants():
    g = Grid3D(n=16, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
    rep = eigs_near(op, 0.0, 2)
    assert np.allclose(rep.eigenvalues, 0.0, atol=1e-10)
    assert max(rep.residuals) <= 1e-8
    assert rep.kernel_dim_estimate == 2
    assert rep.converged


def test_free_shell_eigenvalues_exact():
    g = Grid3D(n=16, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
    k1 = 2 * np.pi / 10.0
    rep = eigs_near(op, float(k1), 2)
    assert rep.converged, rep.residuals
    assert np.allclose(rep.eigenvalues, k1, rtol=0, atol=1e-9)
    assert rep.kernel_dim_estimate == 0


def test_free_eigenvalue_between_shells():
    # target 0.762 lies between the shells k1 = 0.628 and sqrt(2) k1 = 0.889,
    # nearer the second; constant spinors, exact free eigenvectors at 0, are
    # far from it and must not be seeded as converged pairs
    g = Grid3D(n=16, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
    rep = eigs_near(op, 0.762, 1)
    assert rep.converged, rep.residuals
    assert abs(rep.eigenvalues[0] - np.sqrt(2.0) * np.pi / 5.0) <= 1e-9, rep.eigenvalues


def test_h_a_threshold_is_lift_of_supercharge():
    # a cold full-operator query at +m equals the lift sqrt(m^2 + eps^2) of
    # the supercharge eigenvalue nearest 0, with its residual taken from H
    g = Grid3D(n=16, L=20.0)
    t_rep = eigs_near(OperatorHandle(kind="t_a", grid=g, potential=LossYau()), 0.0, 3)
    assert t_rep.converged
    eps = min(abs(e) for e in t_rep.eigenvalues)
    op = OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=1.0)
    rep = eigs_near(op, 1.0, 1)
    assert rep.converged, rep.residuals
    assert abs(rep.eigenvalues[0] - np.sqrt(1.0 + eps**2)) <= 1e-9
    f = rep.fields[0]
    assert residual_norm(op, f, rep.eigenvalues[0]) <= 1e-6
    assert any("lifted" in note for note in rep.notes)


def test_h_a_above_threshold_reports_each_pair_once():
    # |tau| > m: supercharge solves at +nu and -nu, merged. On the free grid
    # the first shell sits at tau = sqrt(1 + k1^2), lifted from sigma.k = +k1
    # and -k1 (six wave vectors each, so count=6 fills one cluster per
    # solve). Just above tau = 1 both solves find the same two constants
    # (lifted to 1), which must be counted once, so the next two pairs come
    # from the shell.
    g = Grid3D(n=16, L=5.0)
    op = OperatorHandle(kind="h_a", grid=g, potential=FREE, mass=1.0)
    k1 = 2 * np.pi / 10.0
    shell = float(np.sqrt(1.0 + k1**2))
    for tau, want in ((shell, [shell] * 6), (float(np.sqrt(1.0 + 1e-6)), [1.0, 1.0, shell, shell])):
        rep = eigs_near(op, tau, len(want))
        assert rep.converged, rep.residuals
        assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-9, rep.eigenvalues
        V = np.stack([f.values.ravel() for f in rep.fields], axis=1)
        assert np.max(np.abs(V.conj().T @ V - np.eye(len(want)))) <= 1e-9


def test_above_threshold_lift_ranks_by_distance_to_target():
    # Free grid, m = 1, target tau = 1.2573 (nu = 0.762). In eps the
    # sqrt(2) k1 = 0.889 shell is nearer nu than k1 = 0.628 (0.127 against
    # 0.134), but its lift 1.3378 is farther from tau than sqrt(1 + k1^2) =
    # 1.1810 (0.0805 against 0.0763).
    g = Grid3D(n=16, L=5.0)
    k1 = 2 * np.pi / 10.0
    op = OperatorHandle(kind="h_a", grid=g, potential=FREE, mass=1.0)
    rep = eigs_near(op, 1.2573, 1)
    assert rep.converged, rep.residuals
    assert abs(rep.eigenvalues[0] - np.sqrt(1.0 + k1**2)) <= 1e-9, rep.eigenvalues


@pytest.mark.parametrize("spin", ["periodic", "antiperiodic"])
def test_zero_potential_is_the_free_operator(spin):
    # one rule decides freeness: no potential and a zero one both sample to
    # None, so both run sigma.k with no transform and give the same numbers
    g = Grid3D(n=16, L=5.0, spin=spin)
    ops = [OperatorHandle(kind="t_a", grid=g, potential=pot) for pot in (None, FREE)]
    assert [op.sampled_potential() for op in ops] == [None, None]
    v = np.random.default_rng(9).normal(size=(16, 16, 16, 3, 2)) + 0j
    assert np.array_equal(*(apply_values(op, v) for op in ops))
    for tau in (0.0, 0.7, 1.3):
        a, b = (eigs_near(op, tau, 2, seed=3) for op in ops)
        assert a.eigenvalues == b.eigenvalues and a.residuals == b.residuals, tau
        assert a.iterations == b.iterations, tau


def test_eigs_near_validation():
    g = Grid3D(n=8, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
    with pytest.raises(ValueError):
        eigs_near(op, 0.0, 0)
    f = sample_field(LossYauMode().eval, g)
    f4 = Field(g, np.concatenate([f.values, f.values], axis=-1))
    with pytest.raises(ValueError):  # a rank the operator does not act on
        eigs_near(op, 0.0, 1, warm=[f4])
    for raw in (np.zeros((7, 2), dtype=complex), f.values):
        with pytest.raises(TypeError):  # warm starts are Fields only
            eigs_near(op, 0.0, 1, warm=[raw])
    with pytest.raises(GridMismatchError):
        eigs_near(op, 0.0, 1, warm=[sample_field(LossYauMode().eval, Grid3D(n=8, L=7.0))])


def _start(grid, target, nb, warm):
    from diraclab.probe import _start_block

    return _start_block(grid, target, nb, warm, np.random.default_rng(0))


def test_start_block_puts_the_fields_first_then_the_constants():
    # periodic, near 0: the field as its coefficients, then one constant
    # spinor per component; a block of nb = 1 widens to hold all three
    g = Grid3D(n=8, L=5.0)
    f = sample_field(LossYauMode().eval, g)
    warm = [f.values]
    X = _start(g, 0.0, 1, warm)
    assert warm == [] and X.shape == (8**3 * 2, 3)
    want = _coefficients(g, f.values[None])[:, 0]
    assert np.linalg.norm(X[:, 0] - want) <= 1e-14 * np.linalg.norm(want)
    from diraclab.probe import _grid_fields

    constants = np.moveaxis(_grid_fields(g, X[:, 1:].copy(order="F")), 0, -1)
    np.testing.assert_allclose(constants, np.broadcast_to(np.eye(2), constants.shape),
                               rtol=0, atol=1e-14)
    # constants are not antiperiodic fields; on periodic grids they are seeded
    # only nearer 0 than the first free shell, |target| < pi / (2L)
    ga = Grid3D(n=8, L=5.0, spin="antiperiodic")
    assert _start(ga, 0.0, 1, [sample_field(LossYauMode().eval, ga).values]).shape[1] == 1
    assert _start(g, np.pi / 10.0, 1, [f.values]).shape[1] == 1
    assert _start(g, -0.99 * np.pi / 10.0, 1, [f.values]).shape[1] == 3
    # cold: the block keeps its width (test_single_vector_cold_start pins the
    # random column that a one-column block keeps)
    assert _start(g, 0.0, 3, []).shape[1] == 3


@pytest.mark.parametrize("spin", ["periodic", "antiperiodic"])
def test_start_block_has_full_rank_up_to_the_grid_dimension(spin):
    # at n=8, L=20 the shell's band |k| <= 6 pi / L holds 505 (periodic) or
    # 504 (antiperiodic) of the 512 wave vectors, two coefficients each: a
    # wider block widens the band, and a narrower one keeps it (its random
    # columns vanish outside the shell)
    g = Grid3D(n=8, L=20.0, spin=spin)
    for nb in (1011, 1024):
        assert np.linalg.matrix_rank(_start(g, 0.0, nb, [])) == nb
    outside = np.broadcast_to(g.k2_mesh > (6.0 * np.pi / g.L) ** 2, (2, 8, 8, 8)).ravel()
    assert not _start(g, 0.0, 1000, [])[outside].any()


def test_eigs_near_takes_the_warm_fields(monkeypatch):
    # three fields with count 1 and extra 0 give three columns plus the two
    # constants; eigs_near empties the list, and a field no one else holds is
    # freed before the solver runs
    from diraclab import probe

    seen = {}
    original = probe.lobpcg

    def spy(A, X, *args, **kwargs):
        seen.update(cols=X.shape[1], alive=[r() is not None for r in refs])
        return original(A, X, *args, **kwargs)

    monkeypatch.setattr(probe, "lobpcg", spy)
    g = Grid3D(n=8, L=5.0)
    rng = np.random.default_rng(1)
    warm = [Field(g, rng.normal(size=(8, 8, 8, 2))) for _ in range(3)]
    refs = [weakref.ref(f.values) for f in warm]
    op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
    rep = eigs_near(op, 0.0, 1, warm, extra=0)
    assert warm == [] and len(rep.eigenvalues) == 1
    assert seen == {"cols": 5, "alive": [False] * 3}


def test_rank4_warm_start_uses_the_larger_half():
    from diraclab.probe import _warm_values

    g = Grid3D(n=8, L=5.0)
    f = sample_field(LossYauMode().eval, g)
    f4 = Field(g, np.concatenate([0.1 * f.values, f.values], axis=-1))
    half = _warm_values(g, 4, f4)
    assert np.array_equal(half, f.values) and np.shares_memory(half, f4.values)
    h = OperatorHandle(kind="h_a", grid=g, potential=FREE, mass=0.5)
    f4 = Field(g, np.concatenate([f.values, np.zeros_like(f.values)], axis=-1))
    rep = eigs_near(h, 0.5, 2, [f4], extra=3)
    assert rep.converged and np.allclose(rep.eigenvalues, 0.5, atol=1e-10)


def test_single_vector_cold_start():
    # one block column leaves no room for constants; the start is purely random
    for spin in ("periodic", "antiperiodic"):
        g = Grid3D(n=8, L=5.0, spin=spin)
        op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
        rep = eigs_near(op, 0.0, 1, extra=0)
        assert len(rep.eigenvalues) == 1 and rep.iterations >= 1
    # periodic: one vector inside the constant kernel
    g = Grid3D(n=8, L=5.0)
    rep = eigs_near(OperatorHandle(kind="t_a", grid=g, potential=FREE), 0.0, 1, extra=0)
    assert rep.converged and abs(rep.eigenvalues[0]) <= 1e-10


def test_eigen_report_round_trip():
    g = Grid3D(n=8, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
    rep = eigs_near(op, 0.0, 1)
    d = rep.to_dict()
    assert d["kind"] == "t_a" and d["grid_n"] == 8 and d["target"] == 0.0
    v = rep.fields[0]
    assert v.values.shape == (8, 8, 8, 2)
    # ritz vectors come out unit in flat coordinates; the field norm carries h^3
    assert v.norm() == pytest.approx(g.h ** 1.5, rel=1e-6)


def test_report_fields_live_on_the_solve_grid():
    # an antiperiodic solve read as periodic would be a different field with
    # the same values, so the fields carry the solve's grid, spin included
    g = Grid3D(n=8, L=5.0, spin="antiperiodic")
    rep = eigs_near(OperatorHandle(kind="t_a", grid=g, potential=LossYau()), 0.0, 1)
    assert rep.fields[0].grid == g and rep.fields[0].grid.spin == "antiperiodic"


def test_constant_fractions_are_measured_once_per_pair():
    from diraclab.probe import _constant_fraction

    for spin in ("periodic", "antiperiodic"):
        g = Grid3D(n=8, L=5.0, spin=spin)
        for op, target in ((OperatorHandle(kind="t_a", grid=g, potential=LossYau()), 0.0),
                           (OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=1.0), 1.0)):
            rep = eigs_near(op, target, 2, seed=3)
            fractions = rep.constant_fractions
            assert rep.to_dict()["constant_fractions"] == list(fractions)
            if g.antiperiodic:
                assert fractions == (None, None)
            else:
                assert fractions == tuple(_constant_fraction(f.values) for f in rep.fields)
                assert all(0.0 <= c <= 1.0 for c in fractions)
    # the free periodic kernel is the two constant spinors themselves
    g = Grid3D(n=8, L=5.0)
    rep = eigs_near(OperatorHandle(kind="t_a", grid=g, potential=FREE), 0.0, 2)
    assert np.allclose(rep.constant_fractions, 1.0, atol=1e-12)


def test_non_spec_potentials_are_refused():
    # grid samples travel as Sampled, which refuses non-finite ones; a bare
    # array is no potential, not even a finite one
    from diraclab.grid import sample_potential
    from diraclab.potentials import Sampled

    g = Grid3D(n=8, L=5.0)
    bad = np.full((8, 8, 8, 3), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        Sampled(g, bad)
    for A in (bad, np.zeros((8, 8, 8, 3))):
        with pytest.raises(TypeError):
            OperatorHandle(kind="t_a", grid=g, potential=A)
        with pytest.raises(TypeError):
            sample_potential(A, g)
        with pytest.raises(TypeError):  # nor on the Weyl path
            h_a(A, 1.0, g)
    A = sample_potential(LossYau(), g)
    assert np.shares_memory(sample_potential(Sampled(g, A), g), A)


def test_gap_scan_validation():
    g = Grid3D(n=8, L=5.0)
    pot = LossYau()
    with pytest.raises(ValueError):
        gap_scan(pot, 1.0, g, lambdas=[0.0, 0.99])  # too close to the edge
    with pytest.raises(ValueError):
        gap_scan(pot, -1.0, g)


def test_gap_scan_free_proxies_are_clean():
    g = Grid3D(n=16, L=5.0)
    rep = gap_scan(FREE, 1.0, g, lambdas=[-0.5, 0.0, 0.5])
    assert [lam for lam, _ in rep.rows] == [-0.5, 0.0, 0.5]
    for lam, proxy in rep.rows:
        assert proxy == pytest.approx(1.0, abs=1e-9)
    assert set(np.sign(rep.nearest_eigenvalues)) <= {-1.0, 1.0}


def test_coupling_scan_validation():
    g = Grid3D(n=8, L=5.0)
    with pytest.raises(ValueError):
        coupling_scan(LossYau(), [0.0, 1.0], g)


def test_coupling_scan_reports_per_row_convergence(monkeypatch):
    from diraclab import probe

    monkeypatch.setattr(probe, "RESID_TOL", 1e-30)
    scan = coupling_scan(LossYau(), [0.0, 1.0, 2.0], Grid3D(n=8, L=5.0))
    assert scan.converged == (False, False, False)  # the tolerance is unreachable
    d = scan.to_dict()
    assert d["converged"] == [False, False, False] and len(d["rows"]) == 3

    monkeypatch.undo()
    scan = coupling_scan(LossYau(), [0.5, 1.0, 1.5], Grid3D(n=8, L=5.0, spin="antiperiodic"))
    assert len(scan.converged) == 3 and all(isinstance(c, bool) for c in scan.converged)
    assert not any("constant" in note or "t=0" in note for note in scan.notes)


def test_coupling_scan_samples_its_base_once(monkeypatch):
    # every row scales the same samples: LossYau is evaluated once, not per
    # row, and the rows equal those of solves on Scaled(t, LossYau())
    calls = []
    original = LossYau.eval

    def counted(self, points):
        calls.append(np.shape(points))
        return original(self, points)

    monkeypatch.setattr(LossYau, "eval", counted)
    g = Grid3D(n=8, L=5.0)
    ts = (0.5, 1.0, 1.5)
    scan = coupling_scan(LossYau(), ts, g, seed=3)
    assert calls == [(8, 8, 8, 3)]
    warm: list = []
    for t, row, eigenvalues in zip(ts, scan.rows, scan.eigenvalues):
        op = OperatorHandle(kind="t_a", grid=g, potential=Scaled(t=t, inner=LossYau()))
        rep = eigs_near(op, 0.0, 3, warm, seed=3)
        assert row[0] == t and rep.eigenvalues == eigenvalues
        warm = list(rep.fields)


def test_coupling_scan_keeps_the_constant_kernel_of_a_zero_potential():
    # one rule decides the constant branch: under a zero potential, at any
    # t, the constant spinors are the exact kernel and are kept raw, as the
    # kernel count of eigs_near keeps them
    scan = coupling_scan(FREE, [0.0, 0.5, 1.0], Grid3D(n=8, L=5.0))
    assert all(lam <= 1e-12 for _, lam in scan.rows), scan.rows
    assert [note.split(":")[0] for note in scan.notes] == ["t=0", "t=0.5", "t=1"]
    assert all("torus constant-spinor kernel" in note for note in scan.notes)


def test_decay_fit_verdicts_on_synthetic_profiles():
    def mode_like(pts):
        r2 = 1.0 + np.sum(np.asarray(pts) ** 2, axis=-1)
        return (1.0 / r2)[..., None] * np.ones(2)

    def resonance_like(pts):
        r = np.sqrt(1.0 + np.sum(np.asarray(pts) ** 2, axis=-1))
        return (1.0 / r)[..., None] * np.ones(2)

    radii = np.geomspace(10.0, 100.0, 12)
    fit_m = decay_fit(mode_like, radii)
    assert fit_m.verdict == "mode_tail"
    assert fit_m.exponent == pytest.approx(2.0, abs=0.05)
    fit_r = decay_fit(resonance_like, radii)
    assert fit_r.verdict == "resonance_tail"


def _loss_yau_times_z1(power):
    """psi_LY z1^power with z1 = 2 (x1 + i x2) / <x>^2: an L^2 zero mode of
    T for Scaled(t=(2 power + 3)/3, LossYau()), decaying like r^-(2 + power)."""
    def mode(points):
        pts = np.asarray(points, dtype=np.float64)
        z1 = 2.0 * (pts[..., 0] + 1j * pts[..., 1]) / (1.0 + np.sum(pts**2, axis=-1))
        return LossYauMode().eval(pts) * (z1**power)[..., None]
    return mode


def test_decay_fit_counts_faster_tails_as_modes():
    from diraclab.algebra import sigma_mul

    pts = np.random.default_rng(9).uniform(-3.0, 3.0, size=(6, 3))
    for power, want in ((1, 3.0), (2, 4.0)):
        mode = _loss_yau_times_z1(power)
        # zero mode of sigma.(D - tA) at t = (2 power + 3)/3, D = -i grad,
        # by central differences; O(1) off that coupling
        h = 1e-5
        grad = [(mode(pts + h * e) - mode(pts - h * e)) / (2 * h) for e in np.eye(3)]
        sigma_d = sum(-1j * sigma_mul(*e, g.T) for e, g in zip(np.eye(3), grad))
        A = LossYau().eval(pts).T
        for t, small in (((2 * power + 3) / 3.0, True), (1.0, False)):
            res = np.linalg.norm(sigma_d - t * sigma_mul(*A, mode(pts).T)) / np.linalg.norm(sigma_d)
            assert (res <= 1e-6) == small, (power, t, res)
        fit = decay_fit(mode, np.geomspace(20.0, 200.0, 24))
        assert fit.exponent == pytest.approx(want, abs=0.01), power
        assert fit.verdict == "mode_tail", (power, fit.exponent)
    # the Loss-Yau mode itself keeps its exponent and verdict
    fit = decay_fit(LossYauMode().eval, np.geomspace(20.0, 200.0, 24))
    assert fit.exponent == pytest.approx(1.9991477400657518, rel=1e-12)
    assert fit.verdict == "mode_tail"


def test_decay_fit_noise_floor_is_undetermined():
    tiny = lambda pts: 1e-200 * np.ones(np.asarray(pts).shape[:-1] + (2,))
    fit = decay_fit(tiny, np.geomspace(10.0, 100.0, 8))
    assert fit.verdict == "undetermined"
    assert np.isnan(fit.exponent) and np.isnan(fit.exponent_stderr)
    # the report is strict JSON: the NaN exponent and stderr are null
    text = json.dumps(fit.to_dict())
    report = json.loads(text, parse_constant=lambda token: pytest.fail(f"not JSON: {token}"))
    assert report["exponent"] is None and report["exponent_stderr"] is None


def test_decay_fit_field_window_must_fit_box():
    g = Grid3D(n=8, L=5.0)
    f = sample_field(LossYauMode().eval, g)
    with pytest.raises(ValueError):
        decay_fit(f, [1.0, 2.0, 6.0])  # 6 > L
    fa = sample_field(LossYauMode().eval, Grid3D(n=8, L=5.0, spin="antiperiodic"))
    with pytest.raises(ValueError, match="periodic grids only"):
        decay_fit(fa, np.linspace(0.5, 3.0, 6))


@pytest.mark.parametrize("k", [(0.3, -1.2, 0.7), (0.0, 0.0, 2.0), (0.0, 0.0, -2.0)],
                         ids=["generic", "+e3", "-e3"])
def test_plus_spinor_is_the_dense_plus_eigenspinor(k):
    # -e3 takes the fallback column; the lattice tie-break never returns it
    from diraclab.algebra import pauli
    from diraclab.probe import _plus_spinor

    k = np.array(k)
    chi = _plus_spinor(k)
    sigma_k = sum(kj * pauli(j + 1) for j, kj in enumerate(k))
    assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(sigma_k @ chi, np.linalg.norm(k) * chi, rtol=0, atol=1e-15)


def test_weyl_quasimode_free_is_exact():
    g = Grid3D(n=16, L=5.0)
    lam0 = float(np.sqrt(1.0 + (2 * np.pi / 10.0) ** 2))
    (qm,) = build_weyl_quasimode(h_a(FREE, 1.0, g), lam0, [1])
    assert qm.residual <= 1e-10
    assert qm.envelope_width is None
    assert qm.nu0 == pytest.approx(2 * np.pi / 10.0, rel=1e-12)


def test_weyl_quasimode_envelope_grows_with_index():
    g = Grid3D(n=16, L=10.0)
    widths = [qm.envelope_width
              for qm in build_weyl_quasimode(h_a(LossYau(), 1.0, g), 1.5, (1, 2))]
    assert widths[0] < widths[1]


WEYL_CASES = [
    # (n, L, lambda0, mass, n_index): LossYau at n=16 and 32, negative
    # lambda0, m = 0
    (16, 20.0, 1.5, 1.0, 1),
    (16, 20.0, 1.5, 1.0, 3),
    (32, 20.0, 1.5, 1.0, 2),
    (32, 20.0, -1.7, 1.0, 1),
    (32, 20.0, 0.8, 0.0, 4),
]


@pytest.mark.parametrize("n,L,lam0,mass,n_index", WEYL_CASES)
def test_weyl_residual_from_factors_equals_grid_residual(n, L, lam0, mass, n_index):
    g = Grid3D(n=n, L=L)
    op = h_a(LossYau(), mass, g)
    (qm,) = build_weyl_quasimode(op, lam0, [n_index])
    assert qm.residual == pytest.approx(residual_norm(op, qm.field, lam0), rel=1e-12)


def test_weyl_residual_from_factors_free_exact_case():
    g = Grid3D(n=16, L=5.0)
    lam0 = float(np.sqrt(1.0 + (2 * np.pi / 10.0) ** 2))
    op = h_a(FREE, 1.0, g)
    (qm,) = build_weyl_quasimode(op, lam0, [1])
    assert qm.residual <= 1e-10
    assert residual_norm(op, qm.field, lam0) <= 1e-10


def test_weyl_quasimode_field_is_assembled_on_demand(monkeypatch):
    from diraclab.probe import WeylQuasimode

    g = Grid3D(n=16, L=20.0)
    (qm,) = build_weyl_quasimode(h_a(LossYau(), 1.0, g), 1.5, [2])
    fx, fy, fz = qm.factors
    want = (fx[:, None, None, None] * fy[None, :, None, None] * fz[None, None, :, None]
            * qm.spinor)
    np.testing.assert_array_equal(qm.field.values, want)
    assert np.linalg.norm(qm.spinor) == pytest.approx(1.0, rel=1e-14)

    def no_field(self):
        raise AssertionError("the report assembled the field")

    monkeypatch.setattr(WeylQuasimode, "field", property(no_field))
    report = qm.to_dict()
    assert (report["grid_n"], report["box_l"]) == (16, 20.0)


def test_weyl_quasimode_validation():
    g = Grid3D(n=16, L=5.0)
    with pytest.raises(ValueError):
        build_weyl_quasimode(h_a(FREE, 1.0, g), 0.5, [1])  # below the threshold m
    for indices in ([0], [2, 0], []):
        with pytest.raises(ValueError, match="n_index"):
            build_weyl_quasimode(h_a(FREE, 1.0, g), 1.5, indices)
    with pytest.raises(ValueError, match="periodic grids only"):
        build_weyl_quasimode(h_a(FREE, 1.0, Grid3D(n=16, L=5.0, spin="antiperiodic")), 1.5, [1])
    # the quasi-modes are H_A's, and the operator holds the mass rule
    with pytest.raises(ValueError, match="h_a operator"):
        build_weyl_quasimode(OperatorHandle(kind="t_a", grid=g, potential=FREE), 1.5, [1])
    for mass in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite mass"):
            h_a(FREE, mass, g)


@pytest.mark.parametrize("pot,lam0,mass", [(LossYau(), 1.5, 1.0), (LossYau(), -1.7, 1.0),
                                           (FREE, 1.5, 1.0)])
def test_weyl_sweep_residuals_equal_one_index_sweeps(pot, lam0, mass):
    g = Grid3D(n=16, L=20.0)
    sweep = build_weyl_quasimode(h_a(pot, mass, g), lam0, range(1, 5))
    for n_index, qm in enumerate(sweep, start=1):
        (single,) = build_weyl_quasimode(h_a(pot, mass, g), lam0, [n_index])
        assert qm.residual == single.residual
        assert qm.to_dict() == single.to_dict()
        np.testing.assert_array_equal(qm.factors, single.factors)


def test_weyl_sweep_forms_sigma_a_chi_once_per_slab(monkeypatch):
    # counts, not timings: sigma_mul is called once for the spinor, three
    # times for sigma_j chi and once per x-slab for sigma.A chi, whatever the
    # number of quasi-modes in the sweep; a free operator has no sigma.A chi
    from diraclab import probe

    g = Grid3D(n=64, L=20.0)  # slabs of 32 rows: 2 slabs
    calls = []
    original = probe.sigma_mul

    def counted(*args):
        calls.append(np.ndim(args[0]))
        return original(*args)

    monkeypatch.setattr(probe, "sigma_mul", counted)
    for length in (1, 4, 7):
        calls.clear()
        sweep = build_weyl_quasimode(h_a(LossYau(), 1.0, g), 1.5, range(1, length + 1))
        assert len(sweep) == length
        assert calls.count(3) == 2 and len(calls) == 1 + 3 + 2
    for pot in (None, FREE):
        calls.clear()
        sweep = build_weyl_quasimode(h_a(pot, 1.0, g), 1.5, (1, 2))
        assert [qm.envelope_width for qm in sweep] == [None, None]
        assert calls.count(3) == 0 and len(calls) == 1 + 3, pot


# ----------------------------------------------------------------------------
# The block solver on dense matrices with a known spectrum


def _dense_psd(N=200, seed=3):
    """Q diag(d) Q^H with three well separated smallest eigenvalues and the
    rest packed into [1, 1.02], where guard columns converge slowly."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    d = np.concatenate([[0.0, 1e-3, 2e-3], 1.0 + 1e-4 * np.arange(N - 3)])
    A = (Q * d) @ Q.conj().T
    X = rng.normal(size=(N, 6)) + 1j * rng.normal(size=(N, 6))
    return (A + A.conj().T) / 2.0, Q, X


def test_lobpcg_dense_smallest_pairs():
    A, _, X = _dense_psd()
    tol = 1e-8
    theta, V, iterations, resid = lobpcg(A, X, tol=tol, maxiter=200, nwanted=3)
    assert np.max(np.abs(theta[:3] - np.linalg.eigh(A)[0][:3])) <= 1e-10
    assert len(resid) == 3 and np.all(resid <= tol)
    true_resid = np.linalg.norm(A @ V - V * theta, axis=0)
    assert np.all(true_resid[:3] <= 2 * tol)
    assert np.max(np.abs(V.conj().T @ V - np.eye(6))) <= 1e-12
    # the guards in the packed cluster are still unconverged at the exit, and
    # converging them too takes many more iterations
    assert np.any(true_resid[3:] > tol)
    all_six = lobpcg(A, X, tol=tol, maxiter=200)
    assert np.all(all_six[3] <= tol) and all_six[2] > 3 * iterations


def test_lobpcg_exact_start_returns_at_once():
    A, Q, X = _dense_psd()
    X[:, :3] = Q[:, :3]
    theta, _, iterations, resid = lobpcg(A, X, tol=1e-8, maxiter=200, nwanted=3)
    assert iterations == 0
    assert np.all(resid <= 1e-8)
    assert np.allclose(theta[:3], [0.0, 1e-3, 2e-3], rtol=0, atol=1e-12)


def test_lobpcg_is_deterministic():
    A, _, X = _dense_psd()
    a = lobpcg(A, X, tol=1e-8, maxiter=200, nwanted=3)
    b = lobpcg(A, X.copy(), tol=1e-8, maxiter=200, nwanted=3)
    assert a[2] == b[2]
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    g = Grid3D(n=8, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
    r1, r2 = (eigs_near(op, 0.0, 2, seed=7) for _ in range(2))
    assert r1.eigenvalues == r2.eigenvalues and all(
        np.array_equal(f1.values, f2.values) for f1, f2 in zip(r1.fields, r2.fields))


class _Poisoned:
    """A dense matrix applied through `@` whose output turns NaN after
    `after` applies."""

    def __init__(self, A, after):
        self.A, self.after, self.calls = A, after, 0
        self.dtype = A.dtype

    def __matmul__(self, block):
        self.calls += 1
        out = self.A @ block
        if self.calls > self.after:
            out[0, 0] = np.nan
        return out


def test_lobpcg_non_finite_operator_raises():
    A, _, X = _dense_psd()
    with pytest.raises(SolverError):
        lobpcg(_Poisoned(A, 2), X, tol=1e-8, maxiter=200, nwanted=3)
    with pytest.raises(SolverError):  # the preconditioner is checked the same way
        lobpcg(A, X, M=_Poisoned(np.eye(len(A)), 1), tol=1e-8, maxiter=200, nwanted=3)


def test_maxiter_hit_is_noted(monkeypatch):
    from diraclab import probe

    g = Grid3D(n=8, L=5.0)
    op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
    monkeypatch.setattr(probe, "MAXITER", 2)
    rep = eigs_near(op, 0.0, 2)
    assert rep.iterations == 2 and not rep.converged
    assert any("maxiter 2" in note and "worst" in note for note in rep.notes), rep.notes
    monkeypatch.undo()
    rep = eigs_near(op, 0.0, 2)
    assert rep.converged and not any("maxiter" in note for note in rep.notes)


class _Widths:
    """A dense matrix applied through `@` that records how many columns each
    apply was given."""

    def __init__(self, A):
        self.A, self.dtype, self.widths = A, A.dtype, []

    def __matmul__(self, block):
        self.widths.append(block.shape[1] if block.ndim == 2 else 1)
        return self.A @ block


@pytest.mark.parametrize("nwanted,starts", [(1, [1] * 6), (3, [3, 3]), (4, [4, 2])])
def test_lobpcg_applies_a_to_at_most_the_wanted_columns(nwanted, starts):
    # a six-column start block goes in slices of at most nwanted columns, one
    # column at a time for one wanted pair, and every iteration's W is no wider
    A, _, X = _dense_psd()
    op = _Widths(A)
    _, _, iterations, resid = lobpcg(op, X, tol=1e-8, maxiter=200, nwanted=nwanted)
    assert np.all(resid <= 1e-8)
    assert op.widths[:len(starts)] == starts
    assert len(op.widths) == len(starts) + iterations and max(op.widths) == nwanted


def test_lobpcg_takes_its_precision_from_the_operator():
    # a complex64 operator gives a complex64 basis; the stall guard ends the
    # loop at the complex64 floor, far above an unreachable tol
    A, _, X = _dense_psd()
    A64 = A.astype(np.complex64)
    theta, V, iterations, resid = lobpcg(A64, X, tol=1e-14, maxiter=200, nwanted=3, stall=5)
    assert V.dtype == np.complex64 and iterations < 200
    assert np.max(resid) <= 1e-5 and np.max(np.abs(theta[:3] - [0.0, 1e-3, 2e-3])) <= 1e-5


# ----------------------------------------------------------------------------
# The block solver's kernels on dense blocks

KERNEL_DTYPES = [(np.complex128, 1e-12), (np.complex64, 1e-5)]


def _block(N, cols, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(
        (rng.normal(size=(N, cols)) + 1j * rng.normal(size=(N, cols))).astype(dtype))


@pytest.mark.parametrize("dtype,rtol", KERNEL_DTYPES)
def test_gram_is_the_conjugate_transposed_product(dtype, rtol):
    # N spans two row blocks and part of a third
    from diraclab.blocksolver import _GRAM_ROWS, _gram

    S = _block(2 * _GRAM_ROWS + 123, 7, dtype)
    G = _gram(S[:, :5], S[:, 4:7])
    want = S[:, :5].astype(np.complex128).conj().T @ S[:, 4:7].astype(np.complex128)
    assert G.dtype == np.complex128 and G.shape == (5, 3)
    assert np.max(np.abs(G - want)) <= rtol * np.max(np.abs(want))
    S[7, 6] = np.inf
    with pytest.raises(SolverError):
        _gram(S[:, :5], S[:, 4:7])


@pytest.mark.parametrize("dtype,rtol", KERNEL_DTYPES)
@pytest.mark.parametrize("lo,hi,r,at", [(1, 5, 3, 2), (0, 6, 4, 0), (2, 4, 2, 3)])
def test_recombine_matches_the_out_of_place_product(dtype, rtol, lo, hi, r, at):
    # N is no multiple of the row block, and the destination columns
    # at:at + r overlap the source columns lo:hi
    from diraclab.blocksolver import _ROWS, _recombine

    V = _block(2 * _ROWS + 123, 6, dtype)
    coef = _block(hi - lo, r, np.complex128, seed=1)
    want = V.copy(order="F")
    want[:, at:at + r] = V[:, lo:hi] @ coef.astype(dtype)
    _recombine(V, lo, hi, coef, at=at)
    assert np.max(np.abs(V - want)) <= rtol * np.max(np.abs(want))
    rest = np.r_[0:at, at + r:6]
    assert np.array_equal(V[:, rest], want[:, rest])


def _orthonormal_errors(S, lo, q):
    """||Q^H Q - I|| and ||X^H Q|| for X = S[:, :lo], Q = S[:, lo:lo + q]."""
    X, Q = S[:, :lo], S[:, lo:lo + q]
    return (np.linalg.norm(Q.conj().T @ Q - np.eye(q)),
            np.linalg.norm(X.conj().T @ Q) if lo else 0.0)


def _counting_grams(monkeypatch):
    from diraclab import blocksolver

    calls, gram = [], blocksolver._gram
    monkeypatch.setattr(blocksolver, "_gram", lambda a, b: calls.append(1) or gram(a, b))
    return calls


def test_orthonormalize_runs_a_second_pass_on_w_nearly_inside_x(monkeypatch):
    # W = X c + 1e-7 noise: the projection removes all but 1e-7 of W, past the
    # 1e4 bound, so a second pass runs
    from diraclab.blocksolver import _orthonormalize

    S = _block(5000, 6, np.complex128)
    S[:, :3] = np.linalg.qr(S[:, :3])[0]
    S[:, 3:] = S[:, :3] @ _block(3, 3, np.complex128, seed=2) + 1e-7 * S[:, 3:]
    calls = _counting_grams(monkeypatch)
    assert _orthonormalize(S, 3, 6) == 3
    assert len(calls) == 2
    assert max(_orthonormal_errors(S, 3, 3)) <= 1e-12


def test_orthonormalize_drops_dependent_columns(monkeypatch):
    from diraclab.blocksolver import _orthonormalize

    S = _block(5000, 7, np.complex128)
    S[:, :2] = np.linalg.qr(S[:, :2])[0]
    # the last new column is a combination of X and the other new columns
    S[:, 6] = S[:, :6] @ _block(6, 1, np.complex128, seed=2)[:, 0]
    calls = _counting_grams(monkeypatch)
    assert _orthonormalize(S, 2, 7) == 4
    assert len(calls) == 1
    assert max(_orthonormal_errors(S, 2, 4)) <= 1e-12


@pytest.mark.parametrize("lo", [0, 3])
def test_orthonormalize_one_column(lo):
    from diraclab.blocksolver import _orthonormalize

    S = _block(5000, lo + 1, np.complex128)
    if lo:
        S[:, :lo] = np.linalg.qr(S[:, :lo])[0]
    w = S[:, lo].copy()
    assert _orthonormalize(S, lo, lo + 1) == 1
    assert max(_orthonormal_errors(S, lo, 1)) <= 1e-12
    # the column is w without its X part, normalized
    X = S[:, :lo]
    w -= X @ (X.conj().T @ w)
    assert np.allclose(S[:, lo], w / np.linalg.norm(w), rtol=0, atol=1e-12)


def test_block_kernels_allocate_less_than_one_column():
    # on a (2^18, 8) complex128 basis (4 MB per column) no kernel may build a
    # temporary of the basis height
    import tracemalloc

    from diraclab.blocksolver import _gram, _orthonormalize, _recombine

    S = _block(2**18, 8, np.complex128)
    S[:, :5] = np.linalg.qr(S[:, :5])[0]
    coef = _block(8, 4, np.complex128, seed=1)
    column = S[:, 0].nbytes
    for kernel in (lambda: _gram(S, S[:, 5:]), lambda: _orthonormalize(S, 5, 8),
                   lambda: _recombine(S, 0, 8, coef, at=2)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < column, (peak, column)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_solves_import_no_scipy_linalg(tmp_path):
    # the solver and the Weyl residual call no scipy BLAS, and the quadrature
    # takes numpy's Gauss-Legendre rule: after a solve, a quasi-mode and the
    # two commands that integrate no scipy.linalg module is loaded, and the
    # OpenBLAS libraries mapped are the ones numpy and scipy.special map on
    # import
    import diraclab

    code = (
        "import json, sys\n"
        "def blas():\n"
        "    with open('/proc/self/maps') as f:\n"
        "        return sorted({l.split()[-1] for l in f if 'openblas' in l.lower()})\n"
        "import numpy, scipy.fft, scipy.special\n"
        "on_import = blas()\n"
        "from diraclab.grid import Grid3D, OperatorHandle\n"
        "from diraclab.potentials import LossYau\n"
        "from diraclab.probe import build_weyl_quasimode, eigs_near\n"
        "g = Grid3D(n=8, L=5.0)\n"
        "op = OperatorHandle(kind='t_a', grid=g, potential=LossYau())\n"
        "assert eigs_near(op, 0.0, 1).converged\n"
        "build_weyl_quasimode(OperatorHandle(kind='h_a', grid=g, potential=LossYau(), mass=1.0),\n"
        "                     1.5, [1])\n"
        "from diraclab.cli import main\n"
        "assert main(['verify-zero-mode', '--grid-n', '8', '--out', 'v.json']) in (0, 2)\n"
        "assert main(['asymptotics', '--out', 'a.json']) == 0\n"
        "print(json.dumps([on_import, blas(),\n"
        "                  sorted(m for m in sys.modules if m.startswith('scipy.linalg'))]))\n"
    )
    src = str(Path(diraclab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
                         cwd=tmp_path)
    on_import, after, linalg = json.loads(out.stdout.strip().splitlines()[-1])
    assert linalg == []
    assert after == on_import


# The complex64 phase, moved down to n=16 grids by lowering its size gate
TWO_PHASE_CASES = [("t_a", "periodic", 0.0), ("t_a", "antiperiodic", 0.0),
                   ("t_a", "periodic", 0.3), ("h_a", "periodic", 1.0)]


@pytest.mark.parametrize("kind,spin,target", TWO_PHASE_CASES)
def test_two_phase_solve_matches_the_one_phase_solve(monkeypatch, kind, spin, target):
    from diraclab import probe

    g = Grid3D(n=16, L=10.0, spin=spin)
    op = OperatorHandle(kind=kind, grid=g, potential=LossYau(), mass=1.0)
    one = eigs_near(op, target, 2, seed=4)
    assert one.complex64_iterations == 0
    monkeypatch.setattr(probe, "SINGLE_N", 16)
    two = eigs_near(op, target, 2, seed=4)
    assert one.converged and two.converged, (one.residuals, two.residuals)
    assert 0 < two.complex64_iterations < two.iterations
    assert two.to_dict()["complex64_iterations"] == two.complex64_iterations
    assert np.max(np.abs(np.subtract(two.eigenvalues, one.eigenvalues))) <= 1e-9
    assert max(two.residuals) <= 1e-6


def test_unreachable_single_tol_hands_off_at_the_stall_guard(monkeypatch):
    from diraclab import probe

    monkeypatch.setattr(probe, "SINGLE_N", 16)
    monkeypatch.setattr(probe, "SINGLE_TOL", 1e-14)  # far below the complex64 floor
    g = Grid3D(n=16, L=10.0, spin="antiperiodic")
    op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
    rep = eigs_near(op, 0.0, 1, seed=4)
    assert rep.converged and rep.iterations <= probe.MAXITER, rep.notes
    assert rep.complex64_iterations < probe.MAXITER
    assert any("handed off at its stall guard" in note for note in rep.notes), rep.notes


@pytest.mark.parametrize("spin", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("tau", [0.0, 0.8])
def test_complex64_applies_stay_in_complex64(spin, tau):
    # the complex64 square (its supercharge kernel) and preconditioner read
    # only complex64 and float32 arrays (ladders, frequency axes) and agree
    # with the complex128 ones to complex64 round-off
    from diraclab.probe import _FreeSymbolPreconditioner, _ShiftedSquare

    g = Grid3D(n=16, L=6.0, spin=spin)
    op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
    X = _coefficients(g, _random_fields(g, 2, seed=3)).copy(order="F")
    X64 = X.astype(np.complex64)
    square64 = _ShiftedSquare(op, tau, np.complex64)
    arrays = square64.T.k + square64.T.a
    assert {a.dtype for a in arrays} <= {np.dtype(np.complex64), np.dtype(np.float32)}
    for name, single, double in (
            ("square", square64, _ShiftedSquare(op, tau)),
            ("prec", _FreeSymbolPreconditioner(g, tau, 0.03, np.complex64),
             _FreeSymbolPreconditioner(g, tau, 0.03))):
        got, want = single @ X64, double @ X
        assert got.dtype == np.complex64, name
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), name


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_coefficient_square_applies_no_spin_phase(dtype):
    # on coefficients the antiperiodic phases around sigma.A cancel, so the
    # squared shift neither builds nor reads them
    from diraclab.probe import _ShiftedSquare

    g = Grid3D(n=8, L=6.0, spin="antiperiodic")
    op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
    X = np.asfortranarray(np.random.default_rng(5).normal(size=(2 * g.n**3, 2))).astype(dtype)
    out = _ShiftedSquare(op, 0.8, dtype) @ X
    assert out.dtype == dtype and np.all(np.isfinite(out))
    assert not {"spin_phase", "spin_untwist"} & set(vars(g))


# ----------------------------------------------------------------------------
# The solver's Fourier basis: equivalence with the grid-value operators

FOURIER_CASES = [(n, spin, tau) for n in (8, 16) for spin in ("periodic", "antiperiodic")
                 for tau in (0.0, 0.8)]


def _random_fields(grid, count, seed):
    """Grid values (count, n, n, n, 2) of random 2-spinor fields."""
    rng = np.random.default_rng(seed)
    shape = (grid.n**3 * 2, count)
    cols = np.asfortranarray(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return cols.T.reshape((count,) + (grid.n,) * 3 + (2,))


def _coefficients(grid, fields):
    """Grid values (c, n, n, n, 2) as Fortran (N, c) unitary coefficient columns."""
    from diraclab.grid import spinor_fftn

    c = len(fields)
    X = np.ascontiguousarray(np.moveaxis(fields, -1, 1))
    return spinor_fftn(grid, X).reshape(c, -1).T


def _apply_fields(op, fields):
    """An operator applied to each of the fields (c, n, n, n, rank)."""
    from diraclab.grid import apply_values

    return np.moveaxis(apply_values(op, np.moveaxis(fields, 0, 3)), 3, 0)


@pytest.mark.parametrize("n,spin,tau", FOURIER_CASES)
def test_fourier_square_equals_grid_square(n, spin, tau):
    from diraclab.probe import _ShiftedSquare, _grid_fields

    g = Grid3D(n=n, L=6.0, spin=spin)
    for pot in (None, LossYau()):
        op = OperatorHandle(kind="t_a", grid=g, potential=pot)
        square = _ShiftedSquare(op, tau)
        v = _random_fields(g, 3, seed=n)
        w = _apply_fields(op, v) - tau * v
        want = _apply_fields(op, w) - tau * w
        X = _coefficients(g, v)
        got = _grid_fields(g, square @ X)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (pot, "block")
        # a single column, (N,), as matvec passes it; the work blocks resize
        got1 = _grid_fields(g, (square @ np.array(X[:, 1]))[:, None])
        assert np.linalg.norm(got1[0] - want[1]) <= 1e-13 * np.linalg.norm(want[1]), pot


@pytest.mark.parametrize("n,spin,tau", FOURIER_CASES)
def test_fourier_preconditioner_equals_closed_form_in_real_space(n, spin, tau):
    from diraclab.algebra import sigma_mul
    from diraclab.grid import spinor_fftn, spinor_ifftn
    from diraclab.probe import _FreeSymbolPreconditioner, _grid_fields

    g = Grid3D(n=n, L=6.0, spin=spin)
    delta = 0.03
    v = _random_fields(g, 3, seed=n + 1)
    # reference: the closed form applied between grid values and coefficients,
    # on a component-leading (2, 3, n, n, n) copy transformed in place
    vhat = spinor_fftn(g, np.ascontiguousarray(v.transpose(4, 0, 1, 2, 3)))
    kn = np.sqrt(g.k2_mesh)
    den = ((kn - tau) ** 2 + delta) * ((kn + tau) ** 2 + delta)
    what = ((g.k2_mesh + tau**2 + delta) * vhat + 2.0 * tau * sigma_mul(*g.k_axes, vhat)) / den
    want = spinor_ifftn(g, what).transpose(1, 2, 3, 4, 0)
    prec = _FreeSymbolPreconditioner(g, tau, delta)
    X = _coefficients(g, v)
    got = _grid_fields(g, prec @ X)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    got1 = _grid_fields(g, (prec @ np.array(X[:, 2]))[:, None])
    assert np.linalg.norm(got1[0] - want[2]) <= 1e-13 * np.linalg.norm(want[2])


@pytest.mark.parametrize("n,spin", [(n, spin) for n in (8, 16)
                                    for spin in ("periodic", "antiperiodic")])
def test_fourier_transforms_are_unitary(n, spin):
    from diraclab.probe import _grid_fields

    g = Grid3D(n=n, L=6.0, spin=spin)
    v = _random_fields(g, 4, seed=2 * n)
    X = _coefficients(g, v)
    norms = np.linalg.norm(v.reshape(4, -1), axis=1)
    assert np.max(np.abs(np.linalg.norm(X, axis=0) / norms - 1.0)) <= 1e-14
    back = _grid_fields(g, X.copy(order="F"))
    assert np.max(np.abs(np.linalg.norm(back.reshape(4, -1), axis=1) / norms - 1.0)) <= 1e-14
    assert np.linalg.norm(back - v) <= 1e-14 * np.linalg.norm(v)


def test_solver_applies_make_no_preconditioner_transforms(monkeypatch):
    """Counts, not timings: inside lobpcg every M @ W makes no transform and
    every A @ S exactly four, two FFT pairs over the whole block."""
    import scipy.fft
    from scipy.sparse.linalg import LinearOperator

    from diraclab import probe

    calls = {"n": 0}
    for name in ("fftn", "ifftn"):
        original = getattr(scipy.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)

    per_apply = {"A": [], "M": []}

    def counting(op, key):
        def mat(block):
            before = calls["n"]
            out = op @ block
            per_apply[key].append(calls["n"] - before)
            return out

        return LinearOperator(op.shape, matvec=mat, matmat=mat, dtype=op.dtype)

    original_lobpcg = probe.lobpcg

    def traced(A, X, M=None, **kwargs):
        return original_lobpcg(counting(A, "A"), X, M=counting(M, "M"), **kwargs)

    monkeypatch.setattr(probe, "lobpcg", traced)
    for spin in ("periodic", "antiperiodic"):
        op = OperatorHandle(kind="t_a", grid=Grid3D(n=16, L=20.0, spin=spin), potential=LossYau())
        rep = eigs_near(op, 0.0, 3, seed=5)
        assert rep.converged and rep.iterations > 10
    assert per_apply["M"] and set(per_apply["M"]) == {0}
    assert per_apply["A"] and set(per_apply["A"]) == {4}


def test_eigs_near_applies_the_grid_operator_once(monkeypatch):
    """Rayleigh-Ritz of T runs on coefficients; only the final residuals of
    the returned vectors apply the grid operator."""
    from diraclab import probe

    calls = []
    original = probe.apply_values
    monkeypatch.setattr(probe, "apply_values",
                        lambda op, values: calls.append(op.kind) or original(op, values))
    g = Grid3D(n=16, L=20.0, spin="antiperiodic")
    for kind, target in (("t_a", 0.0), ("h_a", 1.0)):
        calls.clear()
        op = OperatorHandle(kind=kind, grid=g, potential=LossYau(), mass=1.0)
        assert eigs_near(op, target, 1, seed=3).converged
        assert calls == [kind]
