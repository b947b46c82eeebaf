import dataclasses
import itertools
import math

import numpy as np
import pytest

from qreality.errors import StateValidationError
from qreality.linalg import (
    DensityMatrix,
    embed_operator,
    frobenius_distance,
    partial_trace,
    tensor_product,
)
from qreality.states import SIGMA_Z, alpha_state, random_density, singlet, werner


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


def _signed_zero_complex(rng, shape):
    # Random complex entries, about a third of the parts +0.0 or -0.0.
    parts = rng.normal(size=(2, *shape))
    zeros = rng.random(parts.shape) < 0.35
    parts[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
    return parts[0] + 1j * parts[1]


def test_tensor_product_is_bitwise_kron():
    rng = np.random.default_rng(23)
    for shape_a, shape_b in [((2, 2), (2, 2)), ((3, 3), (4, 4)), ((2, 3), (3, 1)),
                             ((1, 1), (2, 2))]:
        for _ in range(25):
            a = _signed_zero_complex(rng, shape_a)
            b = _signed_zero_complex(rng, shape_b)
            got = tensor_product(a, b)
            want = np.kron(a, b)
            assert got.shape == want.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))
    # Real and signed-zero inputs are taken as complex, as np.kron of the
    # complex arrays would.
    z = np.array([[-0.0, 0.0], [1.0, -2.0]])
    np.testing.assert_array_equal(_bits(tensor_product(z, -z)),
                                  _bits(np.kron(z.astype(complex), (-z).astype(complex))))


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
    # A bool, float or string is no subsystem index, even where int() would
    # make one of it.
    for keep in (True, (0.7, 2), "0", 1.0, (0, False)):
        with pytest.raises(ValueError, match="keep must be a subsystem index or indices"):
            partial_trace(rho, keep)
    for keep in (np.int64(1), (np.uint8(1),), [1]):
        np.testing.assert_array_equal(partial_trace(rho, keep).mat, partial_trace(rho, 1).mat)


def test_hermitian_eigensystem_examples():
    np.testing.assert_allclose(
        np.linalg.eigh(SIGMA_Z)[0], [-1.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        np.linalg.eigh(np.eye(4) / 4)[0], [0.25] * 4, atol=1e-12
    )
    # Oracle: the isotropic mixture is a rank-1 shift of the identity, so the
    # spectrum is (1-f)/4 three times plus (1+3f)/4.
    for f in (0.2, 0.5, 0.9):
        expected = np.array([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4])
        got = np.linalg.eigh(werner(f).mat)[0]
        np.testing.assert_allclose(got, np.sort(expected), atol=1e-12)


def test_eigensystem_roundtrip_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        herm = (g + g.conj().T) / 2
        values, vectors = np.linalg.eigh(herm)
        assert np.all(np.diff(values) >= 0)
        rebuilt = (vectors * values) @ vectors.conj().T
        norm = max(1.0, float(np.linalg.norm(herm)))
        assert np.linalg.norm(herm - rebuilt) <= 1e-9 * norm
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


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


@pytest.mark.parametrize("dims", [(2.7, 2.2), (2.0, 2), (2, True), (True, 4), ("2", 2)])
def test_density_matrix_rejects_non_integral_dims(dims):
    # int() used to turn (2.7, 2.2) into (2, 2) without a word.
    with pytest.raises(ValueError, match="subsystem dimensions must be integers"):
        DensityMatrix(np.eye(4) / 4, dims)


def test_density_matrix_accepts_numpy_integer_dims():
    dims = DensityMatrix(np.eye(4) / 4, (np.int64(2), np.int32(2))).dims
    assert dims == (2, 2) and all(type(d) is int for d in dims)


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


def _never_called(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return call


def test_density_matrix_rejects_a_nan_spectrum(monkeypatch):
    # The bound is written so that a NaN eigenvalue fails it too: where
    # LAPACK fails, _spectrum returns numpy's all-NaN fill.
    from qreality import linalg

    monkeypatch.setattr(linalg, "_spectrum", lambda mat: np.full(mat.shape[0], math.nan))
    monkeypatch.setattr(np.linalg, "eigvalsh", _never_called("np.linalg.eigvalsh"))
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(np.eye(2) / 2, (2,))
    assert err.value.invariant == "positive-semidefinite"
    assert math.isnan(err.value.residual)


def _hermitian(d, rank, rng):
    # G G^dag of a complex Ginibre d x rank matrix: Hermitian of rank `rank`.
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


def test_spectrum_is_bitwise_eigvalsh():
    # _spectrum skips np.linalg.eigvalsh's wrapper, not its gufunc: every
    # spectrum keeps its bits, on each numpy the package supports.
    from qreality.linalg import _spectrum

    rng = np.random.default_rng(2024)
    cases = [_hermitian(d, rank, rng) for d in (1, 2, 3, 4, 6, 8) for rank in range(1, d + 1)]
    zeros = _hermitian(4, 4, rng)
    zeros[:2, 2:] = zeros[2:, :2] = 0.0
    # A transposed view is Hermitian too, and not C-contiguous.
    strided = _hermitian(8, 8, rng).T
    stack = np.stack([_hermitian(4, 1 + k % 4, rng) for k in range(5)])
    cases += [np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex), zeros, strided, stack]
    for mat in cases:
        got, want = _spectrum(mat), np.linalg.eigvalsh(mat)
        assert got.shape == want.shape == mat.shape[:-1] and got.dtype == np.float64
        np.testing.assert_array_equal(_bits(got), _bits(want))


_EINSUM_LAYOUTS = ((2,), (2, 2), (2, 3), (3, 2), (2, 2, 2))


def _signed_zero_state(dims):
    # A diagonal state with -0.0 real parts above the diagonal and +0.0
    # below.  Validation halves complex entries, which keeps a -0.0 real
    # part only where the imaginary part is -0.0 too, as it is above.
    n = math.prod(dims)
    weights = np.linspace(2.0, 1.0, n)
    mat = np.diag(weights / weights.sum()).astype(complex)
    upper = np.triu_indices(n, 1)
    mat[upper] = complex(-0.0, -0.0)
    mat.T[upper] = complex(-0.0, 0.0)
    rho = DensityMatrix(mat, dims)
    assert np.signbit(rho.mat.real).sum() == n * (n - 1) // 2
    return rho


def _einsum_bases(d, rng):
    # (d, d) basis vectors for the measured subsystem: exact and signed
    # zeros from the computational basis and its negation, and generic ones.
    from qreality.observables import qubit_basis
    from qreality.states import random_unitary

    generic = qubit_basis(*rng.uniform(0.0, math.pi, 2)).vectors if d == 2 else random_unitary(d, rng)
    return [np.eye(d, dtype=complex), -np.eye(d, dtype=complex), generic]


def test_c_einsum_is_bitwise_einsum():
    # The matrix route calls numpy's c_einsum, not the np.einsum wrapper, on
    # the hot path.  With optimize=False, its default, np.einsum calls
    # c_einsum itself, so each subscript form the package sends must give
    # np.einsum's bits, signed zeros included, on each numpy the package
    # supports: _blocks for one basis and for a stack, dephase's put-back,
    # and partial_trace's interleaved sublists.  Each form is checked as raw
    # operands and through the package's own function.
    from qreality.linalg import _derived, c_einsum
    from qreality.measures import _blocks, dephase
    from qreality.observables import ProjectiveBasis

    blocks_form = "...xj,axrbys,...yj->...jarbs"
    put_back_form = "xj,jarbs,yj->axrbys"
    rng = np.random.default_rng(2025)
    for dims in _EINSUM_LAYOUTS:
        n = math.prod(dims)
        states = [_signed_zero_state(dims), random_density(n, min(3, n), 41, dims=dims)]
        raw = _signed_zero_complex(rng, (n, n))
        for subsystem, d in enumerate(dims):
            left, right = math.prod(dims[:subsystem]), math.prod(dims[subsystem + 1:])
            bases = _einsum_bases(d, rng)
            stack = np.stack(bases)
            raw_vecs = _signed_zero_complex(rng, (d, d))
            tensor = raw.reshape(left, d, right, left, d, right)
            for vecs in (*bases, stack, raw_vecs, np.stack([raw_vecs, -raw_vecs])):
                got = c_einsum(blocks_form, vecs.conj(), tensor, vecs)
                np.testing.assert_array_equal(
                    _bits(got), _bits(np.einsum(blocks_form, vecs.conj(), tensor, vecs)))
                if vecs.ndim == 2:
                    np.testing.assert_array_equal(
                        _bits(c_einsum(put_back_form, vecs, got, vecs.conj())),
                        _bits(np.einsum(put_back_form, vecs, got, vecs.conj())))
            for rho in states:
                tensor = rho.mat.reshape(left, d, right, left, d, right)
                np.testing.assert_array_equal(
                    _bits(_blocks(rho, stack, subsystem)),
                    _bits(np.einsum(blocks_form, stack.conj(), tensor, stack)))
                for vecs in bases:
                    blocks = np.einsum(blocks_form, vecs.conj(), tensor, vecs)
                    np.testing.assert_array_equal(_bits(_blocks(rho, vecs, subsystem)),
                                                  _bits(blocks))
                    put_back = np.einsum(put_back_form, vecs, blocks, vecs.conj())
                    want = _derived(put_back.reshape(n, n), dims)
                    got = dephase(rho, ProjectiveBasis(vecs), subsystem)
                    np.testing.assert_array_equal(_bits(got.mat), _bits(want.mat))
                    np.testing.assert_array_equal(_bits(got.eigenvalues), _bits(want.eigenvalues))
        for size in range(1, len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), size):
                k = len(dims)
                sublists = ([*range(k), *(k + j if j in keep else j for j in range(k))],
                            [*keep, *(k + j for j in keep)])
                for mat in (raw, *(rho.mat for rho in states)):
                    tensor = mat.reshape(dims + dims)
                    np.testing.assert_array_equal(
                        _bits(c_einsum(tensor, *sublists)), _bits(np.einsum(tensor, *sublists)))
                for rho in states:
                    d = math.prod(dims[j] for j in keep)
                    reduced = np.einsum(rho.mat.reshape(dims + dims), *sublists)
                    want = DensityMatrix(reduced.reshape(d, d), tuple(dims[j] for j in keep))
                    np.testing.assert_array_equal(_bits(partial_trace(rho, keep).mat),
                                                  _bits(want.mat))


def _assert_spectrum_of_stored_matrix(rho):
    np.testing.assert_array_equal(
        rho.eigenvalues.view(np.uint64), np.linalg.eigvalsh(rho.mat).view(np.uint64))
    assert np.all(np.diff(rho.eigenvalues) >= 0.0)
    with pytest.raises(ValueError):
        rho.eigenvalues[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.eigenvalues = np.zeros(rho.dim)


def test_eigenvalues_are_the_stored_matrix_spectrum():
    for dims in ((2, 2), (2, 2, 2)):
        for rank in range(1, 5):
            rho = random_density(math.prod(dims), rank, 90 + rank, dims=dims)
            _assert_spectrum_of_stored_matrix(rho)
            _assert_spectrum_of_stored_matrix(partial_trace(rho, 0))


def test_density_matrix_keeps_rounding_noise():
    # An eigenvalue in [-1e-10, 0) is rounding noise: the state is accepted
    # and stored as built, its spectrum that of the given matrix.
    mat = np.diag([-5e-11, 1 + 5e-11]).astype(complex)
    rho = DensityMatrix(mat, (2,))
    np.testing.assert_array_equal(_bits(rho.mat), _bits(mat))
    assert float(rho.eigenvalues[0]) == -5e-11
    _assert_spectrum_of_stored_matrix(rho)


@pytest.mark.parametrize("build", [lambda: alpha_state(0.18),
                                   lambda: random_density(4, 1, 7, dims=(2, 2))],
                         ids=["alpha_state", "rank-1 random_density"])
def test_a_state_is_diagonalized_once(build, monkeypatch):
    # alpha_state(0.18) has an exactly zero eigenvalue that rounds below zero,
    # and a rank-1 state three: each is still diagonalized once, by
    # _spectrum, never by np.linalg.eigvalsh, and never rebuilt.
    from qreality import linalg

    calls = []

    def counted(name, fn):
        def call(mat):
            calls.append(name)
            return fn(mat)
        return call

    for module, name in ((linalg, "_spectrum"), (np.linalg, "eigvalsh"), (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rho = build()
    assert calls == ["_spectrum"]
    assert float(rho.eigenvalues[0]) < 0.0
    _assert_spectrum_of_stored_matrix(rho)


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
    for subsystem in (1.0, True):
        with pytest.raises(ValueError, match="subsystem must be an integer"):
            embed_operator(z, subsystem, (2, 2))
    np.testing.assert_array_equal(embed_operator(z, np.int64(1), (2, 2, 2)), full)


def _bits(x):
    # Raw IEEE words, so that signed zeros and every last bit count.
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)])
def test_embed_operator_is_bitwise_nested_kron(dims):
    rng = np.random.default_rng(len(dims) * 10 + sum(dims))
    for subsystem, d in enumerate(dims):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        left = np.eye(math.prod(dims[:subsystem]), dtype=complex)
        right = np.eye(math.prod(dims[subsystem + 1:]), dtype=complex)
        reference = np.kron(np.kron(left, op), right)
        got = embed_operator(op, subsystem, dims)
        assert got.shape == reference.shape
        np.testing.assert_array_equal(_bits(got), _bits(reference))


def _fresh_trace_subscripts(n, keep_set):
    # The string form of the contraction partial_trace spells with integer
    # sublists; the sublist form must match it bit for bit. The einsum label
    # order fixes the summation order.
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    row_sub, col_sub, out_sub = [], [], []
    for k in range(n):
        a = next(letters)
        if k in keep_set:
            b = next(letters)
            row_sub.append(a)
            col_sub.append(b)
            out_sub.append((a, b))
        else:
            row_sub.append(a)
            col_sub.append(a)
    out_rows = "".join(a for a, _ in out_sub)
    out_cols = "".join(b for _, b in out_sub)
    return "".join(row_sub + col_sub) + "->" + out_rows + out_cols


# Every nonempty keep subset of each layout; (2, 3, 2) comes first so that its
# seven subsets keep the ids keep0-keep6.
_TRACE_CASES = [
    (dims, keep)
    for dims in ((2, 3, 2), (2, 2), (3, 2, 2), (2, 2, 2, 2))
    for size in range(1, len(dims) + 1)
    for keep in itertools.combinations(range(len(dims)), size)
]


@pytest.mark.parametrize("dims, keep", _TRACE_CASES,
                         ids=[f"keep{i}" for i in range(len(_TRACE_CASES))])
def test_partial_trace_matches_fresh_einsum(dims, keep):
    d_full = math.prod(dims)
    rho = random_density(d_full, min(5, d_full), 17, dims=dims)
    tensor = rho.mat.reshape(dims + dims)
    reduced = np.einsum(_fresh_trace_subscripts(len(dims), keep), tensor)
    kept_dims = tuple(dims[k] for k in keep)
    d = math.prod(kept_dims)
    reference = DensityMatrix(reduced.reshape(d, d), kept_dims)
    for spelling in (keep, list(reversed(keep))):
        got = partial_trace(rho, spelling)
        assert got.dims == kept_dims
        np.testing.assert_array_equal(_bits(got.mat), _bits(reference.mat))


def test_states_bases_and_schmidt_forms_compare_by_identity():
    # Comparing the held arrays would raise ("truth value of an array is
    # ambiguous"), and arrays are unhashable.
    from qreality.observables import qubit_basis, schmidt_decompose

    rho, other = werner(0.5), werner(0.4)
    basis = qubit_basis(0.3, 0.2)
    form = schmidt_decompose(singlet())
    for value, twin in ((rho, werner(0.5)), (basis, qubit_basis(0.3, 0.2)),
                        (form, schmidt_decompose(singlet()))):
        assert value == value and value != twin
        assert hash(value) == hash(value)
        assert len({value, twin}) == 2
    assert rho != other
    assert {rho: 1}[rho] == 1


def _random_basis(dim, seed):
    from qreality.observables import ProjectiveBasis, qubit_basis
    from qreality.states import random_unitary

    if dim == 2:
        return qubit_basis(*np.random.default_rng(seed).uniform(0.0, math.pi, 2))
    return ProjectiveBasis(random_unitary(dim, seed))


def _assert_bitwise_validated(seen):
    # Each recorded (pre-validation matrix, dims, derived state) against the
    # validated state of the same matrix.
    for mat, dims, state in seen:
        reference = DensityMatrix(mat, dims)
        assert state.dims == reference.dims
        np.testing.assert_array_equal(_bits(state.mat), _bits(reference.mat))
        np.testing.assert_array_equal(_bits(state.eigenvalues), _bits(reference.eigenvalues))
        assert not state.mat.flags.writeable and not state.eigenvalues.flags.writeable


@pytest.mark.parametrize("rank", [2, None])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)])
def test_derived_states_are_bitwise_validated_states(dims, rank, monkeypatch):
    from qreality import linalg, measures

    def spy(seen):
        def derived(mat, dims):
            mat_copy = np.array(mat)
            state = original(mat, dims)
            seen.append((mat_copy, dims, state))
            return state
        return derived

    original = linalg._derived
    in_linalg, in_measures = [], []
    monkeypatch.setattr(linalg, "_derived", spy(in_linalg))
    monkeypatch.setattr(measures, "_derived", spy(in_measures))

    n = len(dims)
    d = math.prod(dims)
    rho = random_density(d, rank or d, 500 + 10 * d + n, dims=dims)
    bases = [_random_basis(dims[k], 600 + 10 * d + k) for k in range(n)]
    # The product of marginals needs two subsystems: the rest are one.
    bipartite = DensityMatrix(rho.mat, (dims[0], math.prod(dims[1:])))
    keeps = [keep for size in range(1, n + 1) for keep in itertools.combinations(range(n), size)]
    # (site, call, the spy that sees the site, its derived states per call)
    sites = [
        ("dephase", lambda: [measures.dephase(rho, bases[k], k) for k in range(n)],
         in_measures, n),
        ("partial_trace", lambda: [partial_trace(rho, keep) for keep in keeps],
         in_linalg, len(keeps)),
        ("dephase_joint", lambda: measures._dephase_joint(
            rho, (bases[0], 0), (bases[n - 1], n - 1)), in_measures, 1),
        ("product of marginals", lambda: measures.mutual_information(bipartite),
         in_measures, 1),
    ]
    for site, call, seen, expected in sites:
        in_linalg.clear()
        in_measures.clear()
        call()
        assert len(seen) == expected, site
        _assert_bitwise_validated(in_linalg + in_measures)


def test_derived_validates_only_a_spectrum_below_zero(monkeypatch):
    from qreality.linalg import _derived

    validations = []
    decompositions = []
    post_init = DensityMatrix.__post_init__
    eigh = np.linalg.eigh

    def counted_post_init(self):
        validations.append(self)
        post_init(self)

    def counted_eigh(mat):
        decompositions.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)

    # A derived state never runs the boundary checks, and nothing is rebuilt:
    # not exactly zero eigenvalues, nor a pure state's zero eigenvalues that
    # round below zero.
    state = _derived(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), (2, 2))
    assert float(state.eigenvalues[0]) == 0.0
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    pure = np.outer(vec, vec.conj())
    state = _derived(pure, (2, 2))
    assert float(state.eigenvalues[0]) < 0.0
    assert validations == [] and decompositions == []
    _assert_bitwise_validated([(pure, (2, 2), state)])

    # Beyond the bound it is rejected as the constructor rejects it.
    with pytest.raises(StateValidationError) as err:
        _derived(np.diag([-1e-3, 1 + 1e-3]).astype(complex), (2,))
    assert err.value.invariant == "positive-semidefinite"
    assert err.value.residual == pytest.approx(-1e-3)


def test_derived_is_not_exported():
    import qreality

    assert "_derived" not in qreality.__all__
    assert not hasattr(qreality, "_derived")


@pytest.mark.parametrize("mat, dims, message", [
    (np.ones((2, 3)) / 2, (2,), r"expected a square matrix, got shape \(2, 3\)"),
    (np.ones((2, 2, 2)), (2,), r"expected a square matrix, got shape \(2, 2, 2\)"),
    (np.eye(1), (0,), r"subsystem dimensions must be positive, got \(0,\)"),
    (np.eye(2) / 2, (2, -1), r"subsystem dimensions must be positive, got \(2, -1\)"),
    (np.eye(2) / 2, (), r"subsystem dimensions must be positive, got \(\)"),
])
def test_density_matrix_rejects_a_non_square_matrix_or_a_dimension_below_one(mat, dims, message):
    with pytest.raises(ValueError, match=message) as exc:
        DensityMatrix(mat, dims)
    assert type(exc.value) is ValueError
