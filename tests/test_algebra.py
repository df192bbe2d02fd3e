"""Exactness and identity checks for the matrix algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.algebra import (
    dirac_alpha,
    dirac_beta,
    pauli,
    sigma_dot,
)

I2 = np.eye(2)
I4 = np.eye(4)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)


def test_pauli_entries_exact():
    s1, s2, s3 = pauli(1), pauli(2), pauli(3)
    assert np.array_equal(s1, [[0, 1], [1, 0]])
    assert np.array_equal(s2, [[0, -1j], [1j, 0]])
    assert np.array_equal(s3, [[1, 0], [0, -1]])


def test_pauli_index_range():
    with pytest.raises(IndexError):
        pauli(0)
    with pytest.raises(IndexError):
        pauli(4)


def test_returned_copies_are_writable_originals_are_not():
    a = pauli(1)
    a[0, 0] = 7  # caller's copy, must not leak back
    assert pauli(1)[0, 0] == 0


@given(st.integers(1, 3), st.integers(1, 3))
def test_pauli_anticommutator(j, k):
    lhs = pauli(j) @ pauli(k) + pauli(k) @ pauli(j)
    assert np.allclose(lhs, 2.0 * (j == k) * I2, atol=1e-12)


@given(st.integers(1, 3), st.integers(1, 3))
def test_alpha_anticommutator(j, k):
    lhs = dirac_alpha(j) @ dirac_alpha(k) + dirac_alpha(k) @ dirac_alpha(j)
    assert np.allclose(lhs, 2.0 * (j == k) * I4, atol=1e-12)


@given(st.integers(1, 3))
def test_alpha_beta_anticommute(j):
    b = dirac_beta()
    lhs = dirac_alpha(j) @ b + b @ dirac_alpha(j)
    assert np.allclose(lhs, 0.0, atol=1e-12)


def test_beta_squares_to_identity():
    assert np.array_equal(dirac_beta() @ dirac_beta(), I4)


@given(vec3)
@settings(max_examples=100)
def test_sigma_dot_square_is_norm(v):
    m = sigma_dot(v)
    assert np.allclose(m @ m, np.dot(v, v) * I2, atol=1e-12 * max(1.0, np.dot(v, v)))


@given(vec3)
def test_sigma_dot_hermitian(v):
    m = sigma_dot(v)
    assert np.allclose(m, m.conj().T, atol=0)


@given(vec3, vec3)
@settings(max_examples=100)
def test_sigma_dot_product_identity(a, b):
    # sigma.a sigma.b = (a.b) I + i sigma.(a x b)
    lhs = sigma_dot(a) @ sigma_dot(b)
    rhs = np.dot(a, b) * I2 + 1j * sigma_dot(np.cross(a, b))
    scale = max(1.0, float(np.linalg.norm(a) * np.linalg.norm(b)))
    assert np.allclose(lhs, rhs, atol=1e-12 * scale)


def test_sigma_dot_rejects_bad_shape():
    with pytest.raises(ValueError):
        sigma_dot([1.0, 2.0])
