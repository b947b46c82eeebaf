import math

import numpy as np
import pytest

from qreality.errors import StateValidationError
from qreality.linalg import (
    DensityMatrix,
    embed_operator,
    frobenius_distance,
    hermitian_eigensystem,
    partial_trace,
    tensor_product,
)
from qreality.states import SIGMA_Z, random_density, singlet, werner


def test_tensor_product_identities():
    eye2 = np.eye(2, dtype=complex)
    np.testing.assert_allclose(tensor_product(eye2, eye2), np.eye(4))
    p = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(tensor_product(p, p), np.diag([1.0, 0, 0, 0]))
    np.testing.assert_allclose(
        tensor_product(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0])
    )


def test_tensor_product_block_convention():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8]], dtype=complex)
    out = tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for left in range(2):
                    assert out[i * 2 + k, j * 2 + left] == a[i, j] * b[k, left]


def test_tensor_product_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(np.trace(tensor_product(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho1 = random_density(2, 2, rng)
    rho2 = random_density(3, 3, rng)
    joint = DensityMatrix(tensor_product(rho1.mat, rho2.mat), (2, 3))
    np.testing.assert_allclose(partial_trace(joint, 0).mat, rho1.mat, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, 1).mat, rho2.mat, atol=1e-12)


def test_partial_trace_singlet():
    for keep in (0, 1):
        reduced = partial_trace(singlet(), keep)
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)
        assert reduced.dims == (2,)


def test_partial_trace_werner_marginal():
    # Oracle: the reduced state is the sum of the computational-basis
    # diagonal blocks of the explicit 4x4 matrix.
    for f in (0.0, 0.3, 0.8, 1.0):
        mat = werner(f).mat
        blocks = mat[:2, :2] + mat[2:, 2:]
        reduced = partial_trace(werner(f), 1)
        np.testing.assert_allclose(reduced.mat, blocks, atol=1e-13)
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(8, 5, rng, dims=(2, 2, 2))
        for keep in ((0,), (1,), (2,), (0, 2)):
            reduced = partial_trace(rho, keep)
            assert abs(np.trace(reduced.mat) - 1.0) <= 1e-12


def test_partial_trace_composition_order():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density(8, 8, rng, dims=(2, 2, 2))
        direct = partial_trace(rho, 1)
        via01 = partial_trace(partial_trace(rho, (0, 1)), 1)
        via12 = partial_trace(partial_trace(rho, (1, 2)), 0)
        assert frobenius_distance(direct.mat, via01.mat) <= 1e-12
        assert frobenius_distance(direct.mat, via12.mat) <= 1e-12


def test_partial_trace_errors():
    rho = singlet()
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, -1)


def test_hermitian_eigensystem_examples():
    np.testing.assert_allclose(
        hermitian_eigensystem(SIGMA_Z).values, [-1.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        hermitian_eigensystem(np.eye(4) / 4).values, [0.25] * 4, atol=1e-12
    )
    # Oracle: the isotropic mixture is a rank-1 shift of the identity, so the
    # spectrum is (1-f)/4 three times plus (1+3f)/4.
    for f in (0.2, 0.5, 0.9):
        expected = np.array([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4])
        got = hermitian_eigensystem(werner(f).mat).values
        np.testing.assert_allclose(got, np.sort(expected), atol=1e-12)


def test_eigensystem_roundtrip_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        herm = (g + g.conj().T) / 2
        eig = hermitian_eigensystem(herm)
        assert np.all(np.diff(eig.values) >= 0)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        norm = max(1.0, float(np.linalg.norm(herm)))
        assert np.linalg.norm(herm - rebuilt) <= 1e-9 * norm
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_hermitian_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_frobenius_distance_examples():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert frobenius_distance(m, m) == 0.0
    assert frobenius_distance(np.diag([1.0, 0]), np.diag([0.0, 1])) == pytest.approx(
        math.sqrt(2)
    )
    assert frobenius_distance(
        np.eye(2) / 2, np.diag([1.0, 0])
    ) == pytest.approx(math.sqrt(0.5))
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(3))


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(mat, (2,))
    assert err.value.invariant == "hermiticity"
    assert err.value.residual == pytest.approx(0.1)


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_density_matrix_rejects_non_finite_entries(entry, where):
    mat = np.eye(2, dtype=complex) / 2
    mat[where] = entry
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(mat, (2,))
    assert err.value.invariant == "finite-entries"
    assert not math.isfinite(err.value.residual)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(np.eye(2, dtype=complex), (2,))
    assert err.value.invariant == "unit-trace"
    assert err.value.residual == pytest.approx(1.0)


def test_density_matrix_rejects_negative_spectrum():
    mat = np.diag([-1e-3, 1 + 1e-3]).astype(complex)
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(mat, (2,))
    assert err.value.invariant == "positive-semidefinite"
    assert err.value.residual == pytest.approx(-1e-3)


def test_density_matrix_repairs_rounding_noise():
    mat = np.diag([-5e-11, 1 + 5e-11]).astype(complex)
    rho = DensityMatrix(mat, (2,))
    eigs = np.linalg.eigvalsh(rho.mat)
    assert eigs[0] >= 0.0
    assert abs(np.trace(rho.mat) - 1.0) <= 1e-12


def test_density_matrix_layout_mismatch():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))


def test_density_matrix_is_immutable():
    rho = singlet()
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def test_embed_operator():
    z = SIGMA_Z
    full = embed_operator(z, 1, (2, 2, 2))
    np.testing.assert_allclose(
        full, np.kron(np.kron(np.eye(2), z), np.eye(2)), atol=0
    )
    with pytest.raises(ValueError):
        embed_operator(z, 3, (2, 2))
    with pytest.raises(ValueError):
        embed_operator(np.eye(3, dtype=complex), 0, (2, 2))
