"""Closed forms, decay classification, and serialization of potentials."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.grid import Grid3D
from diraclab.potentials import (
    AMN,
    ClassificationUndetermined,
    LossYau,
    Sampled,
    Scaled,
    UnsupportedVariant,
    default_classification,
    potential_from_json,
    w0_of,
)

# The JSON object of LossYau(), as a potential file or --potential spells it.
LOSS_YAU_JSON = {"variant": "loss_yau", "phi0": [[1.0, 0.0], [0.0, 0.0]]}

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
point = st.tuples(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)


def bracket(x):
    return np.sqrt(1.0 + np.dot(x, x))


def test_w0_of_default_points_up():
    assert np.allclose(w0_of((1.0, 0.0)), [0.0, 0.0, 1.0])


def test_w0_of_unit_for_any_normalized_spinor():
    assert np.linalg.norm(w0_of((0.6, 0.8j))) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        w0_of((2.0, 0.0))


def test_w0_of_equals_dense_pauli_expectations():
    from diraclab.algebra import pauli

    rng = np.random.default_rng(7)
    for _ in range(20):
        phi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi0 /= np.linalg.norm(phi0)
        want = [np.vdot(phi0, pauli(j) @ phi0).real for j in (1, 2, 3)]
        assert np.allclose(w0_of(phi0), want, rtol=0, atol=1e-15)


def test_potential_json_nests_at_most_max_depth_entries():
    from diraclab.potentials import MAX_DEPTH

    def nested(depth):
        scaled = '{"variant": "scaled", "t": 1.0, "inner": '
        return scaled * (depth - 1) + '{"variant": "loss_yau"}' + "}" * (depth - 1)

    spec = potential_from_json(json.loads(nested(MAX_DEPTH)))
    for _ in range(MAX_DEPTH - 1):
        spec = spec.inner
    assert spec == LossYau()
    with pytest.raises(ValueError, match=f"over {MAX_DEPTH}"):
        potential_from_json(json.loads(nested(MAX_DEPTH + 1)))
    # JSON text is the caller's to parse: a string is no potential, however
    # deep the text it holds (3000 entries would exhaust the JSON parser)
    for text in (nested(1), nested(3000)):
        with pytest.raises(ValueError, match="must be a JSON object"):
            potential_from_json(text)


def test_loss_yau_at_reference_points():
    pot = LossYau()
    # (0,0,1): bracket^2 = 2, (1-1)w0 + 2*1*(0,0,1) + 2 w0 x x = (0,0,2); 3/4*2
    assert np.allclose(pot.eval((0.0, 0.0, 1.0)), [0.0, 0.0, 1.5])
    assert np.allclose(pot.eval((0.0, 0.0, 0.0)), [0.0, 0.0, 3.0])


@given(point)
@settings(max_examples=200)
def test_loss_yau_norm_closed_form(x):
    pot = LossYau()
    a = pot.eval(x)
    assert np.linalg.norm(a) == pytest.approx(3.0 / bracket(x) ** 2, rel=1e-10)


@given(point)
@settings(max_examples=50)
def test_loss_yau_batch_matches_scalar(x):
    pot = LossYau()
    pts = np.array([x, (0.0, 0.0, 0.0), x])
    batch = pot.eval(pts)
    assert batch.shape == (3, 3)
    assert np.allclose(batch[0], pot.eval(x))
    assert np.allclose(batch[2], batch[0])


def _loss_yau_bracket_formula(w0, points):
    """The closed form as one bracket expression over (..., 3) points: the
    reference the component-by-component evaluation must reproduce bit for
    bit."""
    pts = np.asarray(points, dtype=np.float64)
    r2 = np.sum(pts**2, axis=-1)
    wdx = np.tensordot(pts, w0, axes=([-1], [0]))
    bracket = (
        (1.0 - r2)[..., None] * w0
        + 2.0 * wdx[..., None] * pts
        + 2.0 * np.cross(np.broadcast_to(w0, pts.shape), pts)
    )
    return 3.0 * (1.0 + r2)[..., None] ** -2 * bracket


def test_loss_yau_samples_are_bit_identical_to_the_bracket_formula(monkeypatch):
    from diraclab.grid import Grid3D, sample_potential

    rng = np.random.default_rng(3)
    phis = [((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0))]
    for v in rng.normal(size=(5, 4)):
        v /= np.linalg.norm(v)
        phis.append(((v[0], v[1]), (v[2], v[3])))
    points = rng.normal(scale=30.0, size=(200, 3))
    for n, L in ((16, 20.0), (32, 5.0)):
        grid = Grid3D(n, L)
        for phi0 in phis:
            pot = LossYau(phi0=phi0)
            A = sample_potential(pot, grid)
            assert np.array_equal(A, _loss_yau_bracket_formula(pot.w0(), grid.nodes))
            assert np.array_equal(pot.eval(points), _loss_yau_bracket_formula(pot.w0(), points))
            assert np.array_equal(pot.eval(points[0]), _loss_yau_bracket_formula(pot.w0(), points[0]))
    # the components come as one (3, n, n, n) block, which sampling keeps
    evaluated = []
    original = LossYau.eval
    monkeypatch.setattr(LossYau, "eval",
                        lambda self, pts: evaluated.append(original(self, pts)) or evaluated[-1])
    A = sample_potential(LossYau(), grid)
    assert np.moveaxis(evaluated[0], -1, 0).flags.c_contiguous
    assert np.shares_memory(A, evaluated[0])


def test_loss_yau_sampling_peak_is_slab_sized():
    # slab by slab, the temporaries beside the result are the node mesh (one
    # result's size, twice while meshgrid stacks it) and one slab's; whole
    # arrays of temporaries took three results' size above the result
    import tracemalloc

    from diraclab.grid import Grid3D, sample_potential

    grid = Grid3D(64, 20.0)
    tracemalloc.start()
    try:
        A = sample_potential(LossYau(), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - A.nbytes <= 1.5 * A.nbytes, (peak, A.nbytes)
    # other point blocks, over several slabs or with one point a row, keep
    # their bits too; a one-point slab at the end of (16385, 1, 3) would
    # differ from the bracket formula in about one draw of four
    rng = np.random.default_rng(5)
    v = np.array([0.3, -0.5, 0.7, 0.4]) / np.linalg.norm([0.3, -0.5, 0.7, 0.4])
    pot = LossYau(phi0=((v[0], v[1]), (v[2], v[3])))
    for shape in [(2000, 26, 3), (3, 5, 7, 3)] + [(16385, 1, 3)] * 20:
        pts = rng.normal(scale=20.0, size=shape)
        assert np.array_equal(pot.eval(pts), _loss_yau_bracket_formula(pot.w0(), pts)), shape


def test_loss_yau_rejects_unnormalized_phi0():
    with pytest.raises(ValueError):
        LossYau(phi0=((2.0, 0.0), (0.0, 0.0)))


def test_a_nan_phi0_is_refused():
    from diraclab.modes import LossYauMode

    for phi0 in (((np.nan, 0.0), (0.0, 0.0)), ((1.0, 0.0), (0.0, np.nan))):
        for spec in (LossYau, LossYauMode):
            with pytest.raises(ValueError, match="unit norm"):
                spec(phi0=phi0)
    for phi0 in ((np.nan, 0.0), (1.0, complex(0.0, np.nan))):
        with pytest.raises(ValueError, match="unit spinor"):
            w0_of(phi0)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False), point)
@settings(max_examples=50)
def test_scaled_is_pointwise_multiple(t, x):
    base = LossYau()
    assert np.allclose(
        Scaled(t=t, inner=base).eval(x), t * base.eval(x)
    )


def test_loss_yau_classification():
    rep = default_classification(LossYau())
    assert rep.in_SU and rep.in_BE and rep.in_E
    assert rep.rho_fit >= 1.05  # global fit, flattened by the |x| <~ 1 head
    assert rep.tail_exponent == pytest.approx(2.0, abs=0.05)
    assert rep.cubic_integral == pytest.approx(27.0 * np.pi**2 / 4.0, rel=0.01)
    # the benchmark's potential_info references; rel 1e-12 leaves room for
    # the round-off of other numpy builds
    assert rep.rho_fit == pytest.approx(1.5898515076344368, rel=1e-12)
    assert rep.cubic_integral == pytest.approx(66.61973607862447, rel=1e-12)
    assert rep.tail_exponent == pytest.approx(1.999992121432712, rel=1e-12)
    assert rep.in_BE is True


@pytest.mark.parametrize("n", [3, 4, 5, 6, 239, 240])
@pytest.mark.parametrize("nodes", ["uniform", "geometric"])
def test_simpson_port_is_bit_identical_to_scipy(n, nodes):
    from scipy.integrate import simpson as scipy_simpson

    from diraclab.quadrature import simpson

    x = np.linspace(-1.0, 3.0, n) if nodes == "uniform" else np.geomspace(0.05, 2000.0, n)
    rng = np.random.default_rng(n)
    for y in (4.0 * np.pi * x**2 * (1.0 + x**2) ** -3, rng.standard_normal(n)):
        assert simpson(y, x) == float(scipy_simpson(y, x=x))


def test_classification_flags_slow_decay():
    class Slow(LossYau):
        def eval(self, points):  # |A| ~ 1/r, outside the uniqueness class
            pts = np.asarray(points, dtype=np.float64)
            r2 = 1.0 + np.sum(pts * pts, axis=-1)
            return pts / r2[..., None]

    rep = default_classification(Slow())
    assert not rep.in_SU  # |A| ~ 1/r decays too slowly for the uniqueness class
    # its |A|^3 tail diverges; the report writes the inf estimate as null
    assert rep.cubic_tail_estimate == np.inf
    report = json.loads(json.dumps(rep.to_dict()),
                        parse_constant=lambda token: pytest.fail(f"not JSON: {token}"))
    assert report["cubic_tail_estimate"] is None


def test_classify_decay_needs_usable_window():
    with pytest.raises(ClassificationUndetermined):
        default_classification(Scaled(t=0.0, inner=LossYau()))


def test_amn_is_loss_yau_at_level_0():
    amn, ly = AMN(ell=0, c_ell=3.0), LossYau()
    rng = np.random.default_rng(7)
    for pts in (rng.uniform(-40.0, 40.0, size=(500, 3)), Grid3D(n=16, L=5.0).nodes):
        want = ly.eval(pts)
        err = np.linalg.norm(amn.eval(pts) - want, axis=-1)
        assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=-1))
    for ell in (1, -1):
        with pytest.raises(UnsupportedVariant):
            AMN(ell=ell, c_ell=1.0)


def test_json_round_trip_loss_yau_and_scaled():
    spec = Scaled(t=1.25, inner=LossYau())
    back = potential_from_json({"variant": "scaled", "t": 1.25, "inner": LOSS_YAU_JSON})
    assert back == spec
    x = (0.3, -1.2, 2.0)
    assert np.allclose(back.eval(x), spec.eval(x))


def test_json_rejects_unknown_variant():
    with pytest.raises(UnsupportedVariant):
        potential_from_json({"variant": "nope"})


def test_sampled_round_trips_grid_values():
    from diraclab.grid import Grid3D, sample_potential

    g = Grid3D(n=8, L=4.0)
    vals = sample_potential(LossYau(), g)
    spec = Sampled(grid=g, values=vals)
    nodes = g.nodes
    assert np.allclose(spec.eval(nodes[2, 3, 4]), vals[2, 3, 4])


def test_sampled_values_are_read_only_and_checked():
    from diraclab.grid import sample_potential

    g = Grid3D(n=8, L=4.0)
    vals = sample_potential(LossYau(), g)
    spec = Sampled(grid=g, values=vals)
    with pytest.raises(ValueError, match="read-only"):
        spec.values[0, 0, 0, 0] = 1.0
    assert vals.flags.writeable  # the caller's array is not frozen
    # read on its own nodes: the checked values come back as they are
    assert np.array_equal(sample_potential(spec, g), vals)
    bad = vals.copy()
    bad[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Sampled(grid=g, values=bad)
    # a wrapper's samples are new values and are checked again
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        sample_potential(Scaled(t=1e308, inner=spec), g)


def test_sampled_companion_round_trip(tmp_path):
    from diraclab.grid import Grid3D, sample_potential
    from diraclab.potentials import write_sampled_potential

    g = Grid3D(n=8, L=4.0)
    spec = Sampled(grid=g, values=sample_potential(LossYau(), g))
    write_sampled_potential(tmp_path / "a.dtl", spec)
    # DTL1 header, then three real components stored as complex pairs
    assert (tmp_path / "a.dtl").stat().st_size == 28 + 8**3 * 3 * 16
    obj = {"variant": "sampled", "grid_n": 8, "box_l": 4.0, "file": "a.dtl"}
    back = potential_from_json(json.loads(json.dumps(obj)), base_dir=tmp_path)
    assert back.grid == g
    assert np.array_equal(back.values, spec.values)


def test_gauged_is_no_json_variant():
    # a gauged potential exists only as gauge_transform's grid samples
    entry = {"variant": "gauged", "inner": LOSS_YAU_JSON,
             "chi": {"grid_n": 8, "box_l": 4.0, "file": "chi.dtl"}}
    with pytest.raises(UnsupportedVariant):
        potential_from_json(entry)


def test_companion_header_must_match_entry(tmp_path):
    from diraclab.grid import Grid3D, sample_potential
    from diraclab.potentials import write_sampled_potential

    g = Grid3D(n=8, L=4.0)
    write_sampled_potential(tmp_path / "a.dtl", Sampled(grid=g, values=sample_potential(LossYau(), g)))
    entry = {"variant": "sampled", "grid_n": 16, "box_l": 20.0, "file": "a.dtl"}
    with pytest.raises(ValueError, match="grid_n"):
        potential_from_json(entry, base_dir=tmp_path)
    with pytest.raises(ValueError, match="box_l"):
        potential_from_json(dict(entry, grid_n=8), base_dir=tmp_path)
    # without the keys the header alone decides
    assert potential_from_json({"variant": "sampled", "file": "a.dtl"}, base_dir=tmp_path).grid == g


def test_companion_refuses_headerless_and_complex_files(tmp_path):
    n = 8
    (tmp_path / "old.bin").write_bytes(struct.pack("<4d", n, n, n, 4.0)
                                       + np.zeros(3 * n**3).tobytes())
    with pytest.raises(ValueError, match="DTL1"):
        potential_from_json({"variant": "sampled", "file": "old.bin"}, base_dir=tmp_path)
    (tmp_path / "complex.dtl").write_bytes(b"DTL1" + struct.pack("<3d", 3, n, 4.0)
                                           + np.full(3 * n**3, 1.0 + 0.5j).astype("<c16").tobytes())
    with pytest.raises(ValueError, match="imaginary"):
        potential_from_json({"variant": "sampled", "file": "complex.dtl"}, base_dir=tmp_path)
