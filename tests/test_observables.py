import math
import re

import numpy as np
import pytest

from qreality.errors import SpecParseError, StateValidationError
from qreality.linalg import embed_operator, frobenius_distance, partial_trace
from qreality.measures import dephase
from qreality.observables import (
    ProjectiveBasis,
    computational_basis,
    fourier_basis,
    fourier_of,
    is_mub,
    lift,
    parse_basis_spec,
    qubit_basis,
    schmidt_decompose,
)
from qreality.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    floating_slit,
    pure_from_amplitudes,
    random_density,
    random_unitary,
    singlet,
    werner,
)
from qreality.verify import _reduced_basis_check


def _axis(theta, phi):
    return np.array(
        [math.sin(theta) * math.cos(phi),
         math.sin(theta) * math.sin(phi),
         math.cos(theta)]
    )


def test_qubit_basis_named_axes():
    comp = qubit_basis(0.0, 0.0)
    np.testing.assert_allclose(comp.vectors, np.eye(2), atol=1e-15)

    xb = qubit_basis(math.pi / 2, 0.0)
    plus = np.array([1, 1]) / math.sqrt(2)
    np.testing.assert_allclose(xb.projector(0), np.outer(plus, plus), atol=1e-12)

    yb = qubit_basis(math.pi / 2, math.pi / 2)
    expected = (np.eye(2) + SIGMA_Y) / 2
    np.testing.assert_allclose(yb.projector(0), expected, atol=1e-12)


def test_qubit_basis_projects_along_bloch_axis():
    rng = np.random.default_rng(8)
    paulis = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
    for _ in range(20):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, math.pi)
        n = _axis(theta, phi)
        expected = (np.eye(2) + np.tensordot(n, paulis, axes=1)) / 2
        np.testing.assert_allclose(qubit_basis(theta, phi).projector(0), expected, atol=1e-12)


def test_qubit_basis_antipodal_redundancy():
    rng = np.random.default_rng(31)
    for _ in range(10):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, math.pi)
        rho = random_density(4, 4, rng, dims=(2, 2))
        direct = dephase(rho, qubit_basis(theta, phi), 0)
        flipped = dephase(rho, qubit_basis(math.pi - theta, phi + math.pi), 0)
        assert frobenius_distance(direct.mat, flipped.mat) <= 1e-10


def test_fourier_basis_examples():
    f2 = fourier_basis(2)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    np.testing.assert_allclose(f2.vectors[:, 0], plus, atol=1e-12)
    np.testing.assert_allclose(f2.vectors[:, 1], minus, atol=1e-12)

    f3 = fourier_basis(3)
    gram = f3.vectors.conj().T @ f3.vectors
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
    overlaps = np.abs(np.eye(3).conj().T @ f3.vectors) ** 2
    np.testing.assert_allclose(overlaps, np.full((3, 3), 1 / 3), atol=1e-12)

    for dim in (1, 0, np.int64(-2)):
        with pytest.raises(ValueError, match=rf"dim must be at least 2, got {dim}"):
            fourier_basis(dim)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_basis_constructors_name_a_non_integer_dimension(bad):
    # computational_basis(2.0) raised numpy's TypeError and fourier_basis(2.5)
    # a misleading basis-orthonormality error.  numpy integers are dimensions.
    with pytest.raises(ValueError, match=rf"dim must be an integer, got {bad!r}"):
        computational_basis(bad)
    with pytest.raises(ValueError, match=rf"dim must be an integer, got {bad!r}"):
        fourier_basis(bad)
    assert np.array_equal(computational_basis(np.int64(3)).vectors, np.eye(3))
    assert np.array_equal(fourier_basis(np.uint8(3)).vectors, fourier_basis(3).vectors)


@pytest.mark.parametrize("dim", [0, -1])
def test_computational_basis_names_a_dimension_below_one(dim):
    # computational_basis(0) failed inside numpy's "zero-size array to
    # reduction operation", and -1 on numpy's negative dimensions.
    with pytest.raises(ValueError, match=rf"dim must be at least 1, got {dim}"):
        computational_basis(dim)
    assert np.array_equal(computational_basis(1).vectors, np.eye(1))


def test_is_mub():
    for d in (2, 3, 4, 5):
        assert is_mub(computational_basis(d), fourier_basis(d), 1e-10)
    comp = computational_basis(2)
    assert not is_mub(comp, comp, 1e-10)
    for phi in (0.0, 0.4, 1.1, 2.9):
        assert is_mub(comp, qubit_basis(math.pi / 2, phi), 1e-10)
    with pytest.raises(ValueError):
        is_mub(computational_basis(2), computational_basis(3), 1e-10)


def test_fourier_of_is_unbiased_partner():
    rng = np.random.default_rng(12)
    for _ in range(5):
        base = qubit_basis(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        assert is_mub(base, fourier_of(base), 1e-10)


def test_schmidt_examples():
    form = schmidt_decompose(singlet())
    np.testing.assert_allclose(form.coefficients, [0.5, 0.5], atol=1e-12)

    form = schmidt_decompose(pure_from_amplitudes([1, 0, 0, 0], (2, 2)))
    np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)

    for x in (0.0, 0.3, 0.75, 1.0):
        form = schmidt_decompose(floating_slit(x))
        np.testing.assert_allclose(
            form.coefficients, [(1 + x) / 2, (1 - x) / 2], atol=1e-10
        )


def test_schmidt_reconstruction_and_marginals():
    rng = np.random.default_rng(4)
    for _ in range(20):
        psi = random_density(4, 1, rng, dims=(2, 2))
        form = schmidt_decompose(psi)
        assert np.all(np.diff(form.coefficients) <= 1e-12)
        assert _reduced_basis_check(psi, form) <= 1e-9
        np.testing.assert_allclose(
            form.coefficients, partial_trace(psi, 0).eigenvalues[::-1], atol=1e-9
        )


def test_schmidt_rejects_bad_input():
    with pytest.raises(ValueError, match="mixed"):
        schmidt_decompose(werner(0.5))
    with pytest.raises(ValueError, match="bipartite"):
        schmidt_decompose(random_density(8, 1, 3, dims=(2, 2, 2)))


def test_lift_examples():
    comp = computational_basis(2)
    projs = lift(comp, 0, (2, 2))
    np.testing.assert_allclose(projs[0], np.diag([1.0, 1, 0, 0]), atol=1e-15)
    np.testing.assert_allclose(projs[1], np.diag([0.0, 0, 1, 1]), atol=1e-15)
    np.testing.assert_allclose(sum(projs), np.eye(4), atol=1e-12)

    own = lift(comp, 0, (2,))
    np.testing.assert_allclose(own[0], comp.projector(0), atol=1e-15)

    rng = np.random.default_rng(6)
    basis = qubit_basis(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
    assert np.max(np.abs(sum(lift(basis, 1, (2, 2))) - np.eye(4))) <= 1e-10

    with pytest.raises(ValueError):
        lift(comp, 2, (2, 2))
    with pytest.raises(ValueError):
        lift(computational_basis(3), 0, (2, 2))


def _bits(x):
    # Raw IEEE words, so that signed zeros and every last bit count.
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)])
def test_lift_is_bitwise_the_embedded_projectors(dims):
    # Random bases, and bases whose vectors hold signed zeros: qubit_basis at
    # a pole (-0 * phase) and the computational basis with -0.0 - 0.0i off
    # the diagonal, whose projectors hold -0.0 entries.
    rng = np.random.default_rng(sum(dims) * 7 + len(dims))
    for subsystem, d in enumerate(dims):
        signed = np.full((d, d), complex(-0.0, -0.0))
        np.fill_diagonal(signed, 1.0)
        signed = ProjectiveBasis(signed)
        assert np.signbit(signed.projector(0).real).any()
        bases = [ProjectiveBasis(random_unitary(d, rng)), signed,
                 fourier_of(ProjectiveBasis(random_unitary(d, rng)))]
        if d == 2:
            bases += [qubit_basis(0.0, 0.7), qubit_basis(math.pi, 2.0)]
        for basis in bases:
            got = lift(basis, subsystem, dims)
            assert len(got) == d
            for k, proj in enumerate(got):
                want = embed_operator(basis.projector(k), subsystem, dims)
                assert proj.shape == want.shape
                np.testing.assert_array_equal(_bits(proj), _bits(want))


def test_projective_basis_validation():
    # A NaN residual must fail the check, not pass it.
    for entry in (0.1, math.nan):
        with pytest.raises(StateValidationError) as err:
            ProjectiveBasis(np.array([[1.0, 0.0], [entry, 1.0]], dtype=complex))
        assert err.value.invariant == "basis-orthonormality"


def test_qubit_basis_is_bitwise_the_validated_basis():
    # The trusted construction stores what validation would: over seeded
    # angles in the canonical ranges and out to |theta| = 1e6.
    rng = np.random.default_rng(17)
    angles = [tuple(rng.uniform(0.0, math.pi, 2)) for _ in range(50)]
    angles += [tuple(rng.uniform(-1e6, 1e6, 2)) for _ in range(50)]
    angles += [(1e6, -1e6), (-1e6, 0.5), (0.0, 0.0), (math.pi, math.pi)]
    for theta, phi in angles:
        basis = qubit_basis(theta, phi)
        reference = ProjectiveBasis(np.array(basis.vectors))
        assert basis.vectors.dtype == np.complex128
        np.testing.assert_array_equal(
            basis.vectors.view(np.uint64), reference.vectors.view(np.uint64))
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 1.0


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["theta", "phi"])
def test_qubit_basis_rejects_non_finite_angles(which, angle):
    args = {"theta": 0.3, "phi": 0.2}
    args[which] = angle
    with pytest.raises(StateValidationError) as err:
        qubit_basis(**args)
    assert err.value.invariant == "basis-orthonormality"
    assert math.isnan(err.value.residual)


def test_eigenbasis_of_state_is_projective_basis():
    rho = random_density(4, 4, 44, dims=(2, 2))
    ProjectiveBasis(np.linalg.eigh(rho.mat)[1])  # orthonormality holds


def test_parse_basis_spec():
    assert frobenius_distance(
        parse_basis_spec("zbasis", 2).vectors, qubit_basis(0, 0).vectors
    ) == 0.0
    assert frobenius_distance(
        parse_basis_spec("xbasis", 2).vectors, qubit_basis(math.pi / 2, 0).vectors
    ) == 0.0
    assert frobenius_distance(
        parse_basis_spec("ybasis", 2).vectors,
        qubit_basis(math.pi / 2, math.pi / 2).vectors,
    ) == 0.0
    got = parse_basis_spec("bloch:theta=1.57,phi=0", 2)
    assert frobenius_distance(got.vectors, qubit_basis(1.57, 0.0).vectors) == 0.0
    assert parse_basis_spec("fourier:d=3", 3).dim == 3

    for bad in ("nope", "bloch:theta=1", "bloch:theta=a,phi=0", "fourier:d=x", "fourier:n=2",
                "bloch:theta=nan,phi=0", "bloch:theta=inf,phi=0", "bloch:theta=0,phi=-inf",
                "bloch:theta=1,phi=0,theta=2"):
        with pytest.raises(SpecParseError):
            parse_basis_spec(bad, 2)


def test_parse_basis_spec_reads_keys_alike_for_every_form():
    # Whitespace around a key is ignored, and a repeated key is named, in
    # Bloch and Fourier specs alike.
    assert np.array_equal(parse_basis_spec("bloch: theta=1, phi=0", 2).vectors,
                          qubit_basis(1.0, 0.0).vectors)
    assert np.array_equal(parse_basis_spec("fourier: d=2", 2).vectors, fourier_basis(2).vectors)
    for spec, key in (("fourier:d=2,d=3", "d"), ("fourier:d=2, d=2", "d"),
                      ("bloch:theta=1,phi=0, theta=2", "theta")):
        with pytest.raises(SpecParseError, match=f"basis spec '{spec}' repeats the key '{key}'"):
            parse_basis_spec(spec, 2)
    with pytest.raises(SpecParseError, match="needs d=<int>"):
        parse_basis_spec("fourier:d=2,n=2", 2)


@pytest.mark.parametrize("spec, size, dim", [
    ("zbasis", 2, 3), ("bloch:theta=1,phi=0", 2, 4), ("fourier:d=3", 3, 2),
    ("fourier:d=100000", 100000, 2),
])
def test_parse_basis_spec_checks_dimension_before_building(spec, size, dim, monkeypatch):
    from qreality import observables

    def no_build(*args):
        raise AssertionError("basis built before its dimension was checked")

    monkeypatch.setattr(observables, "fourier_basis", no_build)
    monkeypatch.setattr(observables, "qubit_basis", no_build)
    with pytest.raises(SpecParseError, match=f"has dimension {size}, subsystem has {dim}"):
        parse_basis_spec(spec, dim)


def test_projector_is_bitwise_outer_product():
    rng = np.random.default_rng(23)
    bases = [qubit_basis(*rng.uniform(0, math.pi, 2)) for _ in range(20)]
    bases += [fourier_basis(3), fourier_basis(5)]
    for basis in bases:
        for k in range(basis.dim):
            v = basis.vectors[:, k]
            reference = np.outer(v, v.conj())
            np.testing.assert_array_equal(
                basis.projector(k).view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("vectors", [np.eye(2, 3), np.ones(2), np.ones((2, 2, 2))])
def test_basis_vectors_must_form_a_square_matrix(vectors):
    shape = np.shape(vectors)
    with pytest.raises(ValueError, match=f"basis vectors must form a square matrix, got "
                                         rf"{re.escape(str(shape))}") as exc:
        ProjectiveBasis(vectors)
    assert type(exc.value) is ValueError
