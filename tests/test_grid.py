"""Grid operators: exactness on plane waves, Hermiticity, the square identity,
vector calculus, gauge pipeline, and field I/O."""

import struct

import numpy as np
import pytest

from diraclab.algebra import sigma_dot
from diraclab.grid import (
    Field,
    Grid3D,
    GridMismatchError,
    OperatorHandle,
    apply_values,
    gauge_transform,
    gauged_mode,
    interp_trilinear,
    read_field,
    residual_norm,
    sample_field,
    sample_potential,
    spectral_curl,
    spectral_divergence,
    spectral_scalar_gradient,
    susy_square_check,
    write_field,
)
from diraclab.modes import LossYauMode
from diraclab.potentials import LossYau, Sampled, Scaled

FREE = Scaled(t=0.0, inner=LossYau())

# Each spin structure with the offset of its spinor dual lattice, in units of
# pi/L: k = (pi/L)(Z + offset)^3.
SPINS = (("periodic", 0.0), ("antiperiodic", 0.5))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3D(n=12, L=10.0)
    with pytest.raises(ValueError):
        Grid3D(n=4, L=10.0)
    with pytest.raises(ValueError):
        Grid3D(n=16, L=-1.0)
    g = Grid3D(n=16, L=8.0)
    assert g.h == 1.0
    assert g.axis[0] == -8.0 and g.axis[-1] == 7.0
    with pytest.raises(ValueError):
        Grid3D(n=16, L=8.0, spin="twisted")
    assert Grid3D(n=16, L=8.0) != Grid3D(n=16, L=8.0, spin="antiperiodic")


def plane_wave(grid, k, spinor):
    xs, ys, zs = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    phase = np.exp(1j * (k[0] * xs + k[1] * ys + k[2] * zs))
    return Field(grid=grid, values=phase[..., None] * np.asarray(spinor))


def test_free_operator_exact_on_plane_waves():
    for spin, offset in SPINS:
        g = Grid3D(n=16, L=5.0, spin=spin)
        k = (2 * np.pi / 10.0) * (np.array([2.0, -1.0, 3.0]) + offset)  # on the dual lattice
        evals, evecs = np.linalg.eigh(sigma_dot(k))
        op = OperatorHandle(kind="t_a", grid=g, potential=FREE)
        for lam, v in zip(evals, evecs.T):
            f = plane_wave(g, k, v)
            assert residual_norm(op, f, float(lam)) <= 1e-12, spin


def test_free_sigma_d_kernel_by_spin_structure():
    # dense sigma.D on the n=8 box: the periodic lattice has the 2-dim
    # constant kernel, the antiperiodic one none, its floor being the
    # corner shell |k| = sqrt(3) pi/(2L)
    L = 6.0
    for spin, floor, kernel in (("periodic", 0.0, 2), ("antiperiodic", np.sqrt(3) * np.pi / (2 * L), 0)):
        g = Grid3D(n=8, L=L, spin=spin)
        op = OperatorHandle(kind="t_a", grid=g)
        N = 8**3 * 2
        basis = np.eye(N, dtype=complex).reshape(8, 8, 8, 2, N).transpose(0, 1, 2, 4, 3)
        mat = apply_values(op, basis).transpose(0, 1, 2, 4, 3).reshape(N, N)
        assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * np.linalg.norm(mat), spin
        ev = np.abs(np.linalg.eigvalsh(mat))
        assert abs(ev.min() - floor) <= 1e-12, (spin, ev.min())
        assert int(np.sum(ev <= 1e-10)) == kernel, spin


def test_free_dirac_dispersion():
    m = 0.7
    for spin, offset in SPINS:
        g = Grid3D(n=16, L=5.0, spin=spin)
        k = (2 * np.pi / 10.0) * (np.array([1.0, 0.0, 0.0]) + offset)
        lam = np.sqrt(np.dot(k, k) + m * m)
        # eigenvector of [[m, sigma.k], [sigma.k, -m]] at +lam, built blockwise
        sk = sigma_dot(k)
        v2 = np.linalg.eigh(sk)[1][:, 1]  # sigma.k eigenvector at +|k|
        upper = np.cos(0.5 * np.arctan2(np.linalg.norm(k), m)) * v2
        lower = np.sin(0.5 * np.arctan2(np.linalg.norm(k), m)) * v2
        phase = np.exp(1j * (g.nodes @ k))
        vals = phase[..., None] * np.concatenate([upper, lower])
        f = Field(grid=g, values=vals)
        op = OperatorHandle(kind="h_a", grid=g, potential=FREE, mass=m)
        assert residual_norm(op, f, float(lam)) <= 1e-12, spin


def test_operator_hermitian_on_random_fields():
    for spin, _ in SPINS:
        g = Grid3D(n=8, L=6.0, spin=spin)
        rng = np.random.default_rng(11)
        op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
        for _ in range(5):
            f = Field(grid=g, values=rng.normal(size=(8, 8, 8, 2)) + 1j * rng.normal(size=(8, 8, 8, 2)))
            u = Field(grid=g, values=rng.normal(size=(8, 8, 8, 2)) + 1j * rng.normal(size=(8, 8, 8, 2)))
            lhs = u.inner(Field(g, apply_values(op, f.values)))
            rhs = Field(g, apply_values(op, u.values)).inner(f)
            assert lhs == pytest.approx(rhs, abs=1e-10 * f.norm() * u.norm()), spin


def test_susy_square_identity(monkeypatch):
    for spin, _ in SPINS:
        g = Grid3D(n=16, L=10.0, spin=spin)
        op = OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=1.0)
        assert susy_square_check(op) <= 1e-10, spin
    # the identity is H's: an operator with no mass is refused
    with pytest.raises(ValueError, match="h_a"):
        susy_square_check(OperatorHandle(kind="t_a", grid=g, potential=LossYau()))

    # a zero potential runs the sigma.D kernel: per field H^2 and T^2 apply
    # T 4 + 4 times at one sigma.k product each, with no sigma.A product
    from diraclab import grid

    calls = []
    original = grid._sigma

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid, "_sigma", counted)
    for pot in (None, FREE):
        calls.clear()
        op = OperatorHandle(kind="h_a", grid=Grid3D(n=8, L=5.0), potential=pot, mass=1.0)
        assert susy_square_check(op) <= 1e-12
        assert len(calls) == 20 * 4, pot


def test_antiperiodic_twist_is_unitary_equivalence():
    # antiperiodic T_A = e^{is.x} (periodic T_{A - s}) e^{-is.x}, s = pi/(2L) (1,1,1)
    L = 6.0
    ga, gp = Grid3D(n=8, L=L, spin="antiperiodic"), Grid3D(n=8, L=L)
    A = sample_potential(LossYau(), gp)
    rng = np.random.default_rng(5)
    v = rng.normal(size=(8, 8, 8, 2)) + 1j * rng.normal(size=(8, 8, 8, 2))
    twist = ga.spin_phase[..., None]
    lhs = apply_values(OperatorHandle(kind="t_a", grid=ga, potential=Sampled(gp, A)), v)
    shifted = Sampled(gp, A - np.pi / (2 * L))
    rhs = twist * apply_values(OperatorHandle(kind="t_a", grid=gp, potential=shifted),
                               twist.conj() * v)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(lhs)


def test_chiral_map_anticommutes():
    # J(u, l) = (l, -u) flips the sign of H exactly on the grid
    g = Grid3D(n=8, L=6.0)
    rng = np.random.default_rng(7)
    op = OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=1.3)
    vals = rng.normal(size=(8, 8, 8, 4)) + 1j * rng.normal(size=(8, 8, 8, 4))
    J = lambda v: np.concatenate([v[..., 2:], -v[..., :2]], axis=-1)
    hv = apply_values(op, vals)
    hjv = apply_values(op, J(vals))
    assert np.linalg.norm(J(hv) + hjv) <= 1e-12 * np.linalg.norm(vals)


def test_operator_handle_validation():
    g = Grid3D(n=8, L=6.0)
    with pytest.raises(ValueError):
        OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=-0.8)
    with pytest.raises(ValueError):
        OperatorHandle(kind="h_a", grid=g, potential=LossYau())  # no mass
    # two kinds, T and H: sigma.D is t_a with no potential, H^2 is no kind
    for kind in ("nope", "sigma_d", "h_squared"):
        with pytest.raises(ValueError, match="unknown operator kind"):
            OperatorHandle(kind=kind, grid=g, potential=LossYau(), mass=0.8)
    # H acts on 4-spinors only: a 2-spinor block is refused, not half-applied
    h = OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=0.8)
    with pytest.raises(ValueError, match="expects rank 4"):
        apply_values(h, np.zeros((8, 8, 8, 3, 2), dtype=complex))


def test_operator_handle_is_frozen():
    # the samples of A are cached on first use and the mass is checked at
    # construction: neither can go stale or unchecked by assignment
    import dataclasses

    g = Grid3D(n=8, L=6.0)
    op = OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=0.8)
    A = op.sampled_potential()
    for name, value in (("potential", None), ("mass", -3.0), ("kind", "t_a"), ("grid", g)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, value)
    assert op.sampled_potential() is A and op.mass == 0.8


def test_gradient_exact_on_lattice_waves():
    g = Grid3D(n=16, L=4.0)
    xs, ys, zs = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")
    k = 2 * np.pi / 8.0
    s = np.sin(2 * k * xs) * np.cos(k * ys)
    grad = spectral_scalar_gradient(g, s)
    assert np.allclose(grad[..., 0], 2 * k * np.cos(2 * k * xs) * np.cos(k * ys), atol=1e-12)
    assert np.allclose(grad[..., 1], -k * np.sin(2 * k * xs) * np.sin(k * ys), atol=1e-12)
    assert np.allclose(grad[..., 2], 0.0, atol=1e-13)


def test_divergence_of_curl_vanishes():
    g = Grid3D(n=16, L=5.0)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(16, 16, 16, 3))
    c = spectral_curl(g, A)
    assert np.linalg.norm(spectral_divergence(g, c)) <= 1e-12 * np.linalg.norm(c)


def test_gauge_transform_pipeline():
    g = Grid3D(n=16, L=10.0)
    pot = LossYau()
    gauged, _, _ = gauge_transform(pot, g)
    A_t = sample_potential(gauged, g)
    A_0 = sample_potential(pot, g)
    assert np.linalg.norm(spectral_divergence(g, A_t)) <= 1e-8 * np.linalg.norm(A_t)
    curl_diff = spectral_curl(g, A_t) - spectral_curl(g, A_0)
    assert np.linalg.norm(curl_diff) <= 1e-10 * np.linalg.norm(spectral_curl(g, A_0))
    # the gauged samples must be A + grad chi on the nodes
    assert np.allclose(A_t, A_0 + spectral_scalar_gradient(g, gauged.chi), atol=1e-10)


def _random_sampled(g, seed):
    return Sampled(grid=g, values=np.random.default_rng(seed).normal(size=(g.n,) * 3 + (3,)))


@pytest.mark.parametrize("pot,g", [
    (LossYau(), Grid3D(n=16, L=10.0)),
    (Scaled(t=1.4, inner=LossYau()), Grid3D(n=32, L=7.0)),
    ("random", Grid3D(n=16, L=5.0)),
])
def test_gauge_transform_is_one_pass_over_the_spectrum_of_a(pot, g):
    if pot == "random":
        pot = _random_sampled(g, 2)
    gauged, div_rel, curl_dev = gauge_transform(pot, g)
    A = sample_potential(pot, g)
    # chi and A_t depend on the samples of A alone, bit for bit
    again, _, _ = gauge_transform(Sampled(g, A), g)
    assert np.array_equal(gauged.chi, again.chi)
    assert np.array_equal(gauged.values, again.values)
    # the gauged samples are handed on as formed, and they are A + grad chi
    A_t = sample_potential(gauged, g)
    assert np.shares_memory(A_t, gauged.values)
    grad = spectral_scalar_gradient(g, gauged.chi)
    assert np.linalg.norm(A_t - (A + grad)) <= 1e-13 * np.linalg.norm(A)
    # both numbers are those of the spectral calculus on the returned samples
    div = np.linalg.norm(spectral_divergence(g, A_t)) / np.linalg.norm(A_t)
    assert div_rel == pytest.approx(div, rel=1e-12, abs=0.0)
    curl_A = spectral_curl(g, A)
    curl = np.linalg.norm(spectral_curl(g, A_t) - curl_A) / np.linalg.norm(curl_A)
    assert max(curl_dev, curl) <= 1e-14 and abs(curl_dev - curl) <= 1e-14


def test_gauge_transform_measures_what_the_samples_carry(monkeypatch):
    # samples that are not A + grad chi: both numbers must see the change,
    # and agree with the spectral calculus far above round-off
    from diraclab import grid

    g = Grid3D(n=16, L=5.0)
    bump = 1e-6 * _random_sampled(g, 4).values
    original = grid._transverse_part

    def off(grid_, a_hat):
        A_t, chi = original(grid_, a_hat)
        return sample_potential(Sampled(grid_, A_t + bump), grid_), chi

    monkeypatch.setattr(grid, "_transverse_part", off)
    pot = Scaled(t=1.4, inner=LossYau())
    gauged, div_rel, curl_dev = gauge_transform(pot, g)
    assert div_rel > 1e-8  # returned for the caller to judge, not raised
    A, A_t = sample_potential(pot, g), gauged.values
    div = np.linalg.norm(spectral_divergence(g, A_t)) / np.linalg.norm(A_t)
    curl_A = spectral_curl(g, A)
    curl = np.linalg.norm(spectral_curl(g, A_t) - curl_A) / np.linalg.norm(curl_A)
    assert min(div, curl) > 1e-8
    assert div_rel == pytest.approx(div, rel=1e-12)
    assert curl_dev == pytest.approx(curl, rel=1e-8)


def _gauge_on_temporaries(pot, g):
    """gauge_transform's four outputs from its formulas on whole-array
    temporaries: chi_hat = where(k^2 > 0, div / k^2, 0), A_t from
    irfftn(a_j + i k_j chi_hat), and the curl change from d_j = t_j - a_j."""
    import scipy.fft

    from diraclab.grid import _half_norm

    def irfftn(half):
        return scipy.fft.irfftn(half, s=(g.n,) * 3, workers=-1)

    def curl(h):
        return [1j * (k[c - 2] * h[c - 1] - k[c - 1] * h[c - 2]) for c in range(3)]

    A = sample_potential(pot, g)
    a = [scipy.fft.rfftn(A[..., j], workers=-1) for j in range(3)]
    k = g.k_axes_real
    k2 = k[0]**2 + k[1]**2 + k[2]**2
    div = 1j * (k[0] * a[0] + k[1] * a[1] + k[2] * a[2])
    chi_hat = np.where(k2 > 0.0, div / np.where(k2 > 0.0, k2, 1.0), 0.0)
    chi = irfftn(chi_hat)
    out = np.empty((3,) + (g.n,) * 3)  # the component-leading layout of A_t
    for j in range(3):
        out[j] = irfftn(a[j] + 1j * k[j] * chi_hat)
    A_t = np.moveaxis(out, 0, -1)
    t = [scipy.fft.rfftn(A_t[..., j], workers=-1) for j in range(3)]
    div_t = 1j * (k[0] * t[0] + k[1] * t[1] + k[2] * t[2])
    div_rel = _half_norm(g, [div_t]) / np.linalg.norm(A_t)
    curl_dev = _half_norm(g, curl([t[j] - a[j] for j in range(3)])) / _half_norm(g, curl(a))
    return A_t, chi, div_rel, curl_dev


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("pot", [LossYau(), Scaled(t=1.4, inner=LossYau())])
def test_gauge_transform_in_place_is_the_temporaries_bit_for_bit(n, pot):
    g = Grid3D(n=n, L=10.0)
    gauged, div_rel, curl_dev = gauge_transform(pot, g)
    A_t, chi, div_ref, curl_ref = _gauge_on_temporaries(pot, g)
    assert np.array_equal(gauged.values, A_t)
    assert np.array_equal(gauged.chi, chi)
    assert (div_rel, curl_dev) == (div_ref, curl_ref)


def test_gauge_transform_peak_is_nine_real_arrays():
    # beside the samples of A while they are transformed, the peak is in the
    # A_t loop: three half spectra of A, chi_hat, one component's spectrum,
    # A_t and one component's samples (about 9.2 real n^3 arrays at n=64;
    # 10.25 when chi came first and the spectra were built from temporaries)
    import tracemalloc

    g = Grid3D(n=64, L=20.0)
    tracemalloc.start()
    try:
        gauge_transform(LossYau(), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.4 * g.n**3 * 8, peak / (g.n**3 * 8)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_half_norm_is_the_norm_of_the_inverse_transform(n):
    # Parseval on half spectra: of a real field, of a round-off-sized one, of
    # several at once, and of a half spectrum whose k_z = 0 and Nyquist planes
    # are not Hermitian (irfftn reads their Hermitian part)
    import scipy.fft

    from diraclab.grid import _half_norm

    g = Grid3D(n=n, L=5.0)
    rng = np.random.default_rng(n)
    fields = [rng.normal(size=(n,) * 3), 1e-16 * rng.normal(size=(n,) * 3)]
    halves = [scipy.fft.rfftn(x) for x in fields]
    shape = halves[0].shape
    halves.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for h in halves:
        want = np.linalg.norm(scipy.fft.irfftn(h, s=(n,) * 3))
        assert _half_norm(g, [h]) == pytest.approx(want, rel=1e-14, abs=0.0)
    want = np.linalg.norm([np.linalg.norm(scipy.fft.irfftn(h, s=(n,) * 3)) for h in halves])
    assert _half_norm(g, halves) == pytest.approx(want, rel=1e-14, abs=0.0)
    # the projection matters: the planes' raw squares give another number
    h = halves[2]
    raw = np.sqrt((2 * np.vdot(h, h).real - np.vdot(h[..., 0], h[..., 0]).real
                   - np.vdot(h[..., -1], h[..., -1]).real) / n**3)
    assert abs(raw / _half_norm(g, [h]) - 1.0) > 1e-3


@pytest.mark.parametrize("spin", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_spinor_transforms_are_scipy_fft_bit_for_bit(spin, dtype):
    # the kernel is called with scipy.fft's own arguments, so a scipy release
    # that changes the kernel's private signature fails here, not in a result
    import scipy.fft

    from diraclab.grid import spinor_fftn, spinor_ifftn

    g = Grid3D(n=8, L=5.0, spin=spin)
    rng = np.random.default_rng(3)
    shape = (2, 3, 2) + (g.n,) * 3  # batch axes before the components
    block = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
    want = block.copy()
    if g.antiperiodic:
        want *= g.spin_untwist
    want = scipy.fft.fftn(want, axes=(-3, -2, -1), norm="ortho", overwrite_x=True, workers=-1)
    got = spinor_fftn(g, block.copy())
    assert got.dtype == dtype and np.array_equal(got, want)
    want = scipy.fft.ifftn(block.copy(), axes=(-3, -2, -1), norm="ortho", overwrite_x=True,
                           workers=-1)
    if g.antiperiodic:
        want *= g.spin_phase
    got = spinor_ifftn(g, block.copy())
    assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [7, 8, 15, 16, 27])
def test_real_and_1d_transforms_are_scipy_fft_bit_for_bit(n):
    import types

    import scipy.fft

    from diraclab.grid import _irfftn, _rfftn, fft_1d

    rng = np.random.default_rng(n)
    x = rng.normal(size=(n,) * 3)
    half = scipy.fft.rfftn(x, workers=-1)
    assert np.array_equal(_rfftn(x), half)
    # _irfftn reads only the grid's n, and writes over the half spectrum
    want = scipy.fft.irfftn(half, s=(n,) * 3, workers=-1)
    assert np.array_equal(_irfftn(types.SimpleNamespace(n=n), half.copy()), want)
    f = rng.normal(size=n)
    for v in (f, f + 1j * rng.normal(size=n)):
        assert np.array_equal(fft_1d(v), scipy.fft.fft(v))
        assert np.array_equal(fft_1d(v, inverse=True), scipy.fft.ifft(v))


def test_pocketfft_loader_falls_back_to_the_import(monkeypatch):
    import os
    import sys

    from diraclab import grid

    name = "scipy.fft._pocketfft.pypocketfft"
    monkeypatch.setattr(os.path, "isfile", lambda path: False)
    kernel = grid._load_pocketfft()
    assert kernel is sys.modules[name]
    assert (kernel.__name__, kernel.__file__) == (name, grid._pocketfft.__file__)
    x = np.arange(8.0) + 1j
    assert np.array_equal(kernel.c2c(x, (0,), True, 0, None, 1),
                          grid._pocketfft.c2c(x, (0,), True, 0, None, 1))


def test_gauged_mode_preserves_pointwise_norm():
    g = Grid3D(n=16, L=10.0)
    f = sample_field(LossYauMode().eval, g)
    gauged, _, _ = gauge_transform(LossYau(), g)
    ft = gauged_mode(f, gauged)
    assert np.allclose(np.abs(ft.values), np.abs(f.values), atol=1e-14)
    with pytest.raises(GridMismatchError):
        gauged_mode(Field(grid=Grid3D(n=8, L=10.0),
                          values=np.zeros((8, 8, 8, 2), dtype=complex)), gauged)
    # same n, other L: a bare chi array could not tell
    with pytest.raises(GridMismatchError):
        gauged_mode(sample_field(LossYauMode().eval, Grid3D(n=16, L=5.0)), gauged)


def test_residual_norm_refuses_a_field_on_another_grid():
    # same n, other L: the residual would be taken under the wrong box
    op = OperatorHandle(kind="t_a", grid=Grid3D(n=8, L=4.0), potential=LossYau())
    f = sample_field(LossYauMode().eval, Grid3D(n=8, L=6.0))
    with pytest.raises(GridMismatchError):
        residual_norm(op, f, 0.0)


def test_interp_trilinear_reproduces_nodes_and_linears():
    g = Grid3D(n=8, L=4.0)
    nodes = g.nodes
    vals = (1.0 + 2.0 * nodes[..., 0] - 0.5 * nodes[..., 1])[..., None].astype(complex)
    got = interp_trilinear(g, vals, np.array([0.25, -1.3, 2.0]))
    assert got[0] == pytest.approx(1.0 + 2.0 * 0.25 - 0.5 * (-1.3), abs=1e-12)
    node_pt = np.array([g.axis[3], g.axis[5], g.axis[1]])
    assert interp_trilinear(g, vals, node_pt)[0] == pytest.approx(vals[3, 5, 1, 0], abs=0)
    with pytest.raises(ValueError):
        interp_trilinear(g, vals, np.array([0.0, 0.0, 4.0]))  # right edge excluded


def test_interp_trilinear_refuses_a_nan_point():
    # a NaN coordinate fails every comparison, so only the check that valid
    # points pass can refuse it
    g = Grid3D(n=8, L=4.0)
    pot = Sampled(g, sample_potential(LossYau(), g))
    for bad in ([np.nan, 0.0, 0.0], [[0.0, 0.0, 0.0], [1.0, np.nan, 2.0]]):
        with pytest.raises(ValueError, match="outside the box"):
            pot.eval(np.array(bad))
    assert np.array_equal(pot.eval(np.array([g.axis[3], g.axis[5], g.axis[1]])),
                          pot.values[3, 5, 1])


def test_field_io_round_trip(tmp_path):
    g = Grid3D(n=8, L=3.0)
    rng = np.random.default_rng(23)
    f = Field(grid=g, values=rng.normal(size=(8, 8, 8, 4)) + 1j * rng.normal(size=(8, 8, 8, 4)))
    p = tmp_path / "mode.dtl"
    write_field(p, f)
    back = read_field(p)
    assert back.rank == 4
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    # an antiperiodic field comes back on its own grid, spin structure included
    ga = Grid3D(n=8, L=3.0, spin="antiperiodic")
    write_field(tmp_path / "twisted.dtl", Field(grid=ga, values=f.values))
    back = read_field(tmp_path / "twisted.dtl")
    assert back.grid == ga and back.grid.spin == "antiperiodic"
    assert np.array_equal(back.values, f.values)


def test_antiperiodic_field_file_round_trip(tmp_path):
    # the spin mark is a negative component count; the values are stored as
    # on a periodic grid, and both ranks round-trip bit for bit
    rng = np.random.default_rng(5)
    ga = Grid3D(n=16, L=10.0, spin="antiperiodic")
    for rank in (2, 4):
        f = Field(grid=ga, values=rng.normal(size=(16, 16, 16, rank))
                  + 1j * rng.normal(size=(16, 16, 16, rank)))
        p = tmp_path / f"twisted{rank}.dtl"
        write_field(p, f)
        data = p.read_bytes()
        assert data[:28] == b"DTL1" + struct.pack("<3d", -rank, 16, 10.0)
        write_field(tmp_path / "plain.dtl", Field(grid=Grid3D(n=16, L=10.0), values=f.values))
        assert data[28:] == (tmp_path / "plain.dtl").read_bytes()[28:]
        back = read_field(p)
        assert (back.grid, back.grid.spin, back.rank) == (ga, "antiperiodic", rank)
        assert np.array_equal(back.values, f.values)


def test_potential_files_are_never_spin_marked(tmp_path):
    # real fields are periodic on both spin structures: a sampled potential
    # of an antiperiodic grid is written unmarked, and a marked file is refused
    from diraclab.grid import _write_dtl1
    from diraclab.potentials import potential_from_json, write_sampled_potential

    ga = Grid3D(n=8, L=4.0, spin="antiperiodic")
    A = sample_potential(LossYau(), ga)
    write_sampled_potential(tmp_path / "a.dtl", Sampled(ga, A))
    assert (tmp_path / "a.dtl").read_bytes()[:28] == b"DTL1" + struct.pack("<3d", 3, 8, 4.0)
    back = potential_from_json({"variant": "sampled", "file": "a.dtl"}, tmp_path)
    assert back.grid == Grid3D(n=8, L=4.0) and np.array_equal(back.values, A)
    _write_dtl1(tmp_path / "marked.dtl", ga, A, marked=True)
    with pytest.raises(ValueError, match="bad header: -3 components"):
        potential_from_json({"variant": "sampled", "file": "marked.dtl"}, tmp_path)


def test_sample_field_shapes():
    g = Grid3D(n=8, L=5.0)
    f2 = sample_field(LossYauMode().eval, g)
    assert f2.rank == 2 and f2.values.shape == (8, 8, 8, 2)
    with pytest.raises(ValueError):
        Field(grid=g, values=np.zeros((4, 4, 4, 2), dtype=complex))
    other = Field(grid=Grid3D(n=8, L=4.0), values=np.zeros((8, 8, 8, 2), dtype=complex))
    with pytest.raises(GridMismatchError):
        other.inner(f2)


def test_field_file_header_is_pinned(tmp_path):
    g = Grid3D(n=8, L=3.0)
    p = tmp_path / "mode.dtl"
    write_field(p, Field(grid=g, values=np.ones((8, 8, 8, 4), dtype=complex)))
    data = p.read_bytes()
    assert data[:28] == b"DTL1" + struct.pack("<3d", 4, 8, 3.0)
    assert len(data) == 28 + 8**3 * 4 * 16


def test_grid_refuses_more_than_physical_memory():
    # refused in the constructor, before any node or frequency array exists
    with pytest.raises(ValueError, match="physical memory"):
        Grid3D(n=4096, L=1.0)
    assert Grid3D(n=128, L=20.0).n == 128


KINDS = [(kind, rank, pot) for kind, rank in (("t_a", 2), ("h_a", 4)) for pot in (None, LossYau())]


def _handle(kind, grid, pot):
    return OperatorHandle(kind=kind, grid=grid, potential=pot, mass=0.7 if kind == "h_a" else None)


def test_batch_apply_equals_column_applies():
    # one transform pass over a (n, n, n, nb, rank) block, C-ordered or the
    # strided view the eigensolver passes, gives each column's apply exactly
    rng = np.random.default_rng(3)
    for spin, _ in SPINS:
        g = Grid3D(n=8, L=5.0, spin=spin)
        for kind, rank, pot in KINDS:
            op = _handle(kind, g, pot)
            block = rng.normal(size=(8, 8, 8, 3, rank)) + 1j * rng.normal(size=(8, 8, 8, 3, rank))
            cols = np.asfortranarray(block.transpose(0, 1, 2, 4, 3).reshape(-1, 3))
            strided = cols.reshape(8, 8, 8, rank, 3).transpose(0, 1, 2, 4, 3)
            for v in (block, strided):
                out = apply_values(op, v)
                assert out.shape == v.shape, (spin, kind)
                for j in range(3):
                    col = apply_values(op, np.ascontiguousarray(v[..., j, :]))
                    assert np.array_equal(out[..., j, :], col), (spin, kind, j)


def test_h_a_is_block_assembly_of_t_a():
    # H = [[m, T], [T, -m]] over (upper, lower), exactly as assembled from T
    rng = np.random.default_rng(4)
    m = 0.7
    for spin, _ in SPINS:
        g = Grid3D(n=8, L=5.0, spin=spin)
        v = rng.normal(size=(8, 8, 8, 4)) + 1j * rng.normal(size=(8, 8, 8, 4))
        t_op = OperatorHandle(kind="t_a", grid=g, potential=LossYau())
        t_up = apply_values(t_op, np.ascontiguousarray(v[..., 0:2]))
        t_low = apply_values(t_op, np.ascontiguousarray(v[..., 2:4]))
        want = np.concatenate([m * v[..., 0:2] + t_low, t_up - m * v[..., 2:4]], axis=-1)
        got = apply_values(OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=m), v)
        assert np.array_equal(got, want), spin


def _complex_reference(grid, A):
    """Gradient of A[..., 0], divergence, curl and Helmholtz projection of a
    real field through complex transforms, the Nyquist-zeroed lattice as a
    full mesh."""
    k = np.meshgrid(*(grid.k_axis_real,) * 3, indexing="ij")
    fft = lambda f: np.fft.fftn(f)
    ifft = lambda f: np.fft.ifftn(f).real
    ahat = [fft(A[..., j]) for j in range(3)]
    grad = np.stack([ifft(1j * k[j] * ahat[0]) for j in range(3)], axis=-1)
    div_hat = 1j * (k[0] * ahat[0] + k[1] * ahat[1] + k[2] * ahat[2])
    curl = np.stack([ifft(1j * (k[(j + 1) % 3] * ahat[(j + 2) % 3] - k[(j + 2) % 3] * ahat[(j + 1) % 3]))
                     for j in range(3)], axis=-1)
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    chi_hat = np.where(k2 > 0.0, div_hat / np.where(k2 > 0.0, k2, 1.0), 0.0)
    proj = A + np.stack([ifft(1j * k[j] * chi_hat) for j in range(3)], axis=-1)
    return grad, ifft(div_hat), curl, proj, ifft(chi_hat)


def test_real_transforms_match_complex_reference():
    rng = np.random.default_rng(8)
    g = Grid3D(n=16, L=5.0)
    A = rng.normal(size=(16, 16, 16, 3))
    grad, div, curl, proj, chi = _complex_reference(g, A)
    gauged, _, _ = gauge_transform(Sampled(g, A), g)
    proj_got, chi_got = gauged.values, gauged.chi
    for name, got, want in (("gradient", spectral_scalar_gradient(g, A[..., 0]), grad),
                            ("divergence", spectral_divergence(g, A), div),
                            ("curl", spectral_curl(g, A), curl),
                            ("projection", proj_got, proj), ("chi", chi_got, chi)):
        assert got.shape == want.shape, name
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name


def test_potential_samples_itself_on_its_grid():
    # Scaled and Gauged on the gauge function's grid: no interpolation, the
    # same values as evaluating at the nodes up to round-off
    g = Grid3D(n=16, L=7.0)
    gauged, _, _ = gauge_transform(Scaled(t=1.4, inner=LossYau()), g)
    for spec in (Scaled(t=1.4, inner=LossYau()), gauged,
                 Sampled(grid=g, values=sample_potential(LossYau(), g))):
        got = sample_potential(spec, g)
        assert got.shape == (16, 16, 16, 3)
        assert all(got[..., j].flags.c_contiguous for j in range(3))
        want = spec.eval(g.nodes)
        assert np.allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want))), type(spec)
    # the spin structure does not move the nodes: no interpolation there
    # either, and a Gauged hands back its values without a copy
    ga = Grid3D(n=16, L=7.0, spin="antiperiodic")
    assert np.array_equal(sample_potential(gauged, ga), sample_potential(gauged, g))
    assert np.shares_memory(sample_potential(gauged, ga), gauged.values)


def test_grid_holds_no_node_mesh_after_sampling():
    g = Grid3D(n=16, L=7.0)
    A = sample_potential(LossYau(), g)
    sample_field(LossYauMode(phi0=LossYau().phi0).eval, g)
    assert g.nodes.shape == (16, 16, 16, 3)
    held = [k for k, v in vars(g).items() if np.shape(v) == (16, 16, 16, 3)]
    assert not held, held
    assert np.array_equal(A, LossYau().eval(g.nodes))
