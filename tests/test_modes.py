"""Analytic zero mode and the asymptotic-limit quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.algebra import pauli, sigma_dot
from diraclab.modes import (
    AccuracyError,
    HypothesisViolation,
    LossYauMode,
    asymptotic_convergence,
    asymptotic_limit_quadrature,
    mode_l2_norm,
    sigma_d_analytic,
    t_residual_analytic,
    ZeroModeSpec,
)
from diraclab.potentials import LossYau, Scaled
from diraclab.quadrature import sphere_directions_26

point = st.tuples(
    st.floats(min_value=-30, max_value=30, allow_nan=False),
    st.floats(min_value=-30, max_value=30, allow_nan=False),
    st.floats(min_value=-30, max_value=30, allow_nan=False),
)


@given(point)
@settings(max_examples=200)
def test_mode_norm_closed_form(x):
    phi = LossYauMode().eval(x)
    assert np.linalg.norm(phi) == pytest.approx(1.0 / (1.0 + np.dot(x, x)), rel=1e-10)


@given(point)
@settings(max_examples=100)
def test_analytic_zero_mode_residual(x):
    # sigma.(D - A) phi = 0 pointwise, evaluated with the analytic gradient
    res = t_residual_analytic(LossYauMode(), LossYau(), np.asarray(x))
    assert float(res) <= 1e-10


def test_analytic_gradient_matches_finite_differences():
    mode = LossYauMode()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(20, 3))
    h = 1e-6
    grad = mode.gradient(pts)  # (..., 3, 2)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (mode.eval(pts + e) - mode.eval(pts - e)) / (2 * h)
        assert np.allclose(grad[..., j, :], fd, atol=1e-7)


def test_u_from_moments_equals_dense_pauli_formula():
    # u = (i/4pi) [ (omega.I) + i sum_{l,j,m} eps_ljm omega_j sigma_l I_m ]
    from diraclab.modes import _u_from_moments

    rng = np.random.default_rng(5)
    moments = 0.2 * (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    omegas = sphere_directions_26()
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    sig = np.stack([pauli(j) for j in (1, 2, 3)])
    want = [(1j / (4 * np.pi)) * (w @ moments + 1j * np.einsum(
        "ljm,j,lab,mb->a", eps, w, sig, moments)) for w in omegas]
    np.testing.assert_allclose(_u_from_moments(moments, omegas), want, rtol=0, atol=1e-15)


def test_sigma_d_analytic_equals_dense_pauli_sum():
    # sigma.D phi = -i sum_j sigma_j d_j phi, with the dense Pauli matrices
    mode = LossYauMode(phi0=((0.6, 0.0), (0.0, 0.8)))
    pts = np.random.default_rng(4).uniform(-3, 3, size=(5, 4, 3))
    grad = mode.gradient(pts)
    want = -1j * sum(grad[..., j, :] @ pauli(j + 1).T for j in range(3))
    assert np.allclose(sigma_d_analytic(mode, pts), want, rtol=0, atol=1e-15)


def test_mode_l2_norm_is_pi():
    assert mode_l2_norm(LossYauMode()) == pytest.approx(np.pi, abs=1e-3)


def test_closed_form_limit_is_i_sigma_omega_phi0():
    mode = LossYauMode()
    omegas = sphere_directions_26()
    u = mode.closed_form_limit(omegas)
    phi0 = mode.phi0_spinor()
    for om, u_om in zip(omegas, u):
        assert np.allclose(u_om, 1j * sigma_dot(om) @ phi0, atol=1e-14)


def test_quadrature_limit_matches_closed_form():
    mode = LossYauMode()
    pot = LossYau()
    omegas = sphere_directions_26()
    u, err = asymptotic_limit_quadrature(mode, pot, omegas)
    u_ref = mode.closed_form_limit(omegas)
    assert np.max(np.linalg.norm(u - u_ref, axis=-1)) <= 1e-3
    assert err < 1e-3


def test_quadrature_rejects_bad_omega():
    with pytest.raises(ValueError):
        asymptotic_limit_quadrature(LossYauMode(), LossYau(), (1.0, 1.0, 0.0))


def test_limit_requires_decay_class():
    class Slow(LossYau):
        def eval(self, points):
            pts = np.asarray(points, dtype=np.float64)
            r2 = 1.0 + np.sum(pts * pts, axis=-1)
            return pts / r2[..., None]

    with pytest.raises(HypothesisViolation):
        asymptotic_limit_quadrature(LossYauMode(), Slow(), (0.0, 0.0, 1.0))


def test_convergence_table_slope():
    rep = asymptotic_convergence(LossYauMode(), LossYau(), [10.0, 20.0, 40.0, 80.0])
    devs = np.array([d for _, d in rep.convergence_table])
    assert np.all(np.diff(devs) < 0)  # monotone decrease
    slope = np.polyfit(np.log([10, 20, 40, 80]), np.log(devs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)
    assert rep.sup_deviation <= 1e-3
    # the benchmark's asymptotics references; rel 1e-12 leaves room for the
    # round-off of other numpy builds
    assert [r for r, _ in rep.convergence_table] == [10.0, 20.0, 40.0, 80.0]
    expected = [0.09962617991157793, 0.04995316168542102, 0.024994141769914806,
                0.012499267613891746]
    assert list(devs) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("method", ["eval", "gradient", "closed_form_limit"])
def test_zero_mode_spec_requires_every_closed_form(method):
    # a spec gives the mode, its gradient and its far-field limit; the base
    # class has none of them to fall back on
    with pytest.raises(NotImplementedError):
        getattr(ZeroModeSpec(), method)(np.zeros((4, 3)))
