"""Acceptance checks: one test per release criterion, tolerances pinned.

Each test is self-describing and asserts every clause of its criterion; a
failing clause fails the whole criterion with the measured numbers in the
message. The heavy shared eigensolves live in conftest fixtures.
"""

import numpy as np
import pytest

from diraclab.algebra import dirac_alpha, dirac_beta, sigma_dot
from diraclab.grid import (
    Field,
    Grid3D,
    OperatorHandle,
    gauge_transform,
    gauged_mode,
    sample_potential,
    spectral_curl,
    spectral_divergence,
    susy_square_check,
)
from diraclab.modes import (
    LossYauMode,
    asymptotic_convergence,
    asymptotic_limit_quadrature,
    mode_l2_norm,
    t_residual_analytic,
)
from diraclab.potentials import LossYau, Scaled, default_classification
from diraclab.probe import (
    build_weyl_quasimode,
    coupling_scan,
    decay_fit,
    eigs_near,
    gap_scan,
)
from diraclab.quadrature import sphere_directions_26

from conftest import lifted_block


def test_criterion_01_clifford_identities():
    rng = np.random.default_rng(0)
    I2, I4 = np.eye(2), np.eye(4)
    beta = dirac_beta()
    assert np.linalg.norm(beta @ beta - I4) == 0.0
    for _ in range(100):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        sa, sb = sigma_dot(a), sigma_dot(b)
        assert np.linalg.norm(sa @ sb + sb @ sa - 2.0 * (a @ b) * I2) <= 1e-12
        aa = sum(a[j - 1] * dirac_alpha(j) for j in (1, 2, 3))
        ab = sum(b[j - 1] * dirac_alpha(j) for j in (1, 2, 3))
        assert np.linalg.norm(aa @ ab + ab @ aa - 2.0 * (a @ b) * I4) <= 1e-12
        assert np.linalg.norm(aa @ beta + beta @ aa) <= 1e-12


def test_criterion_02_potential_closed_forms(lossyau):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-30.0, 30.0, size=(1000, 3))
    w = 1.0 + np.sum(pts**2, axis=-1)  # <x>^2

    phi = LossYauMode().eval(pts)
    assert np.max(np.abs(np.linalg.norm(phi, axis=-1) - 1.0 / w)) <= 1e-10

    A = lossyau.eval(pts)
    assert np.max(np.abs(np.linalg.norm(A, axis=-1) - 3.0 / w)) <= 1e-10

    assert abs(mode_l2_norm(LossYauMode()) - np.pi) <= 1e-3

    target = 27.0 * np.pi**2 / 4.0
    cubic = default_classification(lossyau).cubic_integral
    assert abs(cubic - target) <= 0.01 * target


def test_criterion_03_zero_mode_residuals(lossyau, lam_min_refined, lam_min_half_box):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-15.0, 15.0, size=(500, 3))
    assert float(np.max(t_residual_analytic(LossYauMode(), lossyau, pts))) <= 1e-10

    assert lam_min_refined <= 5e-3, f"refined-box kernel offset {lam_min_refined:.4e}"

    ratio = lam_min_half_box / lam_min_refined
    assert ratio >= 4.0, (
        f"kernel offset shrank only {ratio:.3f}x from L=10 to L=20 "
        f"({lam_min_half_box:.4e} -> {lam_min_refined:.4e}); an offset that "
        "does not fall with the box is not the zero-mode branch's truncation "
        "error (on periodic spinors it is the constant-spinor artifact near "
        "|torus mean of A|)"
    )


def test_criterion_03_solve_iterates_mostly_in_complex64(refined_solve):
    # the complex64 phase reaches SINGLE_TOL on its own, not at its stall guard
    assert not any("handed off" in note for note in refined_solve.notes), refined_solve.notes
    assert refined_solve.complex64_iterations * 2 >= refined_solve.iterations, (
        refined_solve.complex64_iterations, refined_solve.iterations)


def test_criterion_04_threshold_lift_block_purity(lossyau, grid32, cluster32, dirac_pair32):
    for sign in (+1, -1):
        rep = dirac_pair32[sign]
        for lam in rep.eigenvalues:
            assert abs(lam - sign) <= 5e-3, f"eigenvalue {lam} vs target {sign}"
        for i in range(3):
            v = rep.fields[i].values.reshape(-1, 4)
            v = v / np.linalg.norm(v)
            off = np.linalg.norm(v[:, 2:] if sign > 0 else v[:, :2])
            assert off <= 1e-2, f"off-block norm {off:.3e} at sign {sign}"

    assert dirac_pair32[+1].kernel_dim_estimate == dirac_pair32[-1].kernel_dim_estimate

    # mass only rescales the block mixing; the supercharge factor of the
    # eigenvector must not move
    i_min = int(np.argmin(np.abs(cluster32.eigenvalues)))
    uppers = {}
    for mass in (0.5, 1.0, 2.0):
        op = OperatorHandle(kind="h_a", grid=grid32, potential=lossyau, mass=mass)
        warm = lifted_block(cluster32, grid32, mass, +1, [i_min])
        rep = eigs_near(op, mass, 1, warm, seed=7, extra=0)
        assert rep.converged
        assert abs(rep.eigenvalues[0] - mass) <= 5e-3
        v = rep.fields[0].values.reshape(-1, 4)
        u = v[:, :2].ravel()
        uppers[mass] = u / np.linalg.norm(u)
    for m1, m2 in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0)):
        ip = np.vdot(uppers[m1], uppers[m2])
        phase = ip / abs(ip)
        diff = np.linalg.norm(uppers[m1] - phase * uppers[m2])
        assert diff <= 1e-6, f"nonzero block moved {diff:.3e} between m={m1} and m={m2}"


def test_criterion_05_square_identity_and_gap(lossyau, grid32):
    dev = susy_square_check(OperatorHandle(kind="h_a", grid=grid32, potential=lossyau, mass=1.0))
    assert dev <= 1e-10, f"squared-operator identity deviation {dev:.3e}"

    scan = gap_scan(lossyau, 1.0, grid32, lambdas=(-0.5, 0.0, 0.5), seed=7)
    for lam, proxy in scan.rows:
        assert proxy >= 0.9, f"gap proxy {proxy:.4f} at lambda={lam}"


def test_criterion_06_long_range_limit(lossyau):
    omegas = sphere_directions_26()
    mode = LossYauMode()
    u, quad_err = asymptotic_limit_quadrature(mode, lossyau, omegas)
    u_ref = mode.closed_form_limit(omegas)
    assert float(np.max(np.linalg.norm(u - u_ref, axis=-1))) <= 1e-3

    radii = [10.0, 20.0, 40.0, 80.0]
    rep = asymptotic_convergence(mode, lossyau, radii)
    devs = np.array([d for _, d in rep.convergence_table])
    assert np.all(np.diff(devs) < 0.0), f"deviations not monotone: {devs}"
    slope = np.polyfit(np.log(radii), np.log(devs), 1)[0]
    assert abs(slope + 1.0) <= 0.15, f"log-log slope {slope:.3f}"


def _least_constant_member(rep):
    return int(np.argmin(rep.constant_fractions))


def test_criterion_07_decay_discrimination(lossyau, grid32, dirac_pair32):
    # grid eigenvectors: drop the k=0 torus component, the remaining tail
    # must be the mode's
    radii = np.linspace(5.0, 16.0, 8)
    for sign in (+1, -1):
        rep = dirac_pair32[sign]
        i = _least_constant_member(rep)
        vals = rep.fields[i].values
        vals = vals - vals.mean(axis=(0, 1, 2), keepdims=True)
        fit = decay_fit(Field(grid32, np.ascontiguousarray(vals)), radii)
        assert fit.verdict == "mode_tail", f"sign {sign}: {fit.verdict}"
        assert abs(fit.exponent - 2.0) <= 0.25, f"sign {sign}: {fit.exponent}"

    fit = decay_fit(LossYauMode().eval, np.geomspace(20.0, 200.0, 24))
    assert fit.verdict == "mode_tail"
    assert abs(fit.exponent - 2.0) <= 0.25

    def inverse_r(points):
        r = np.linalg.norm(np.atleast_2d(points), axis=-1)
        return (1.0 / np.maximum(r, 1e-9))[..., None] * np.array([1.0, 0.0])

    fit = decay_fit(inverse_r, np.geomspace(20.0, 200.0, 24))
    assert fit.verdict == "resonance_tail", fit.verdict


def test_criterion_08_spectrum_filling_quasimodes(lossyau):
    free = Scaled(t=0.0, inner=LossYau())
    grid5 = Grid3D(16, 5.0)
    nu0 = 2.0 * np.pi / 10.0  # smallest dual wavenumber of the L=5 box
    lam0 = float(np.sqrt(1.0 + nu0**2))
    (rep,) = build_weyl_quasimode(OperatorHandle(kind="h_a", grid=grid5, potential=free, mass=1.0),
                                  lam0, [1])
    assert rep.residual <= 1e-10, f"free residual {rep.residual:.3e}"

    grid = Grid3D(32, 20.0)
    op = OperatorHandle(kind="h_a", grid=grid, potential=lossyau, mass=1.0)
    residuals = [qm.residual for qm in build_weyl_quasimode(op, 1.5, (1, 2, 3, 4))]
    assert all(np.diff(residuals) < 0.0), f"not strictly decreasing: {residuals}"


def test_criterion_09_divergence_free_gauge(lossyau, grid32, cluster32):
    gauged, _, _ = gauge_transform(lossyau, grid32)

    A = sample_potential(lossyau, grid32)
    A_t = sample_potential(gauged, grid32)
    div_rel = np.linalg.norm(spectral_divergence(grid32, A_t)) / np.linalg.norm(A_t)
    assert div_rel <= 1e-8, f"residual divergence {div_rel:.3e}"

    curl_dev = (np.linalg.norm(spectral_curl(grid32, A_t) - spectral_curl(grid32, A))
                / np.linalg.norm(spectral_curl(grid32, A)))
    assert curl_dev <= 1e-10, f"curl moved by {curl_dev:.3e}"

    op = OperatorHandle(kind="t_a", grid=grid32, potential=gauged)
    warm = [gauged_mode(f, gauged) for f in cluster32.fields]
    rep = eigs_near(op, 0.0, 1, warm, seed=7, extra=0)
    assert rep.converged
    lam_min = min(abs(e) for e in rep.eigenvalues)
    assert lam_min <= 1e-2, f"gauged kernel offset {lam_min:.4e}"


def test_criterion_10_coupling_scan(lossyau):
    # antiperiodic spinors: no constant-spinor branch to hybridize with the
    # mode. Spacing h = 0.625, as at n=64, L=20: at h = 1.25 (n=32, L=20) the
    # mode-branch offset is 8.1e-3, the same floor as at n=16, L=10.
    grid = Grid3D(32, 10.0, spin="antiperiodic")
    ts = (0.5, 0.75, 1.0, 1.25, 1.5)
    scan = coupling_scan(lossyau, ts, grid, seed=7)
    lam = {t: v for t, v in scan.rows}
    assert all(scan.converged), f"unconverged coupling solves: {dict(zip(ts, scan.converged))}"

    t_min = min(lam, key=lam.get)
    assert t_min == 1.0, f"minimum at t={t_min}, table {lam}"
    assert lam[0.75] > lam[1.0] and lam[1.25] > lam[1.0]

    assert lam[1.0] <= 5e-3, (
        f"|lambda_min| at unit coupling is {lam[1.0]:.4e}: the zero-mode "
        "branch's offset on this grid exceeds 5e-3"
    )
