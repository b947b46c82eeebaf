"""Projective eigenbases on subsystems and basis constructions.

An observable enters every quantity in this package only through its
eigenbasis, so two observables sharing an eigenbasis are equivalent
throughout, and a basis carries no eigenvalues.  Only nondegenerate (rank-1)
projective decompositions are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecParseError, StateValidationError
from .linalg import DensityMatrix, _check_integer, _check_placement, _check_pure, _embed_stack

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProjectiveBasis:
    """Orthonormal rank-1 decomposition of one subsystem.

    ``vectors`` holds the eigenvectors as columns.  Bases compare and hash by
    identity, like :class:`DensityMatrix`.
    """

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
            raise ValueError(f"basis vectors must form a square matrix, got {vecs.shape}")
        eye = np.eye(vecs.shape[0])
        gram = vecs.conj().T @ vecs
        residual = float(np.abs(gram - eye).max())
        # Written so that a NaN residual fails.
        if not residual <= ORTHONORMALITY_TOL:
            raise StateValidationError("basis-orthonormality", residual)
        completeness = float(np.abs(vecs @ vecs.conj().T - eye).max())
        if not completeness <= ORTHONORMALITY_TOL:
            raise StateValidationError("basis-completeness", completeness)
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def projector(self, k: int) -> np.ndarray:
        v = self.vectors[:, k]
        return v[:, None] * v.conj()[None, :]  # np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Canonical bipartite form: nonincreasing coefficients plus local bases.

    Coefficients are real and nonnegative (phases absorbed into ``basis_b``)
    and sum to 1; the state is sum_k sqrt(l_k) |k>_A |k>_B.  Forms compare and
    hash by identity.
    """

    coefficients: np.ndarray
    basis_a: ProjectiveBasis
    basis_b: ProjectiveBasis


def qubit_basis(theta: float, phi: float) -> ProjectiveBasis:
    """Eigenbasis of the Bloch-axis observable n(theta, phi) . sigma.

    theta=0 gives the computational basis; (theta, phi) and its antipode give
    the same basis up to ordering, so theta in [0, pi], phi in [0, pi) covers
    everything.  Values outside those ranges are accepted (the formula is
    periodic), which keeps unconstrained optimization simple.

    For finite angles the matrix is unitary to rounding, so the basis is
    built without ``ProjectiveBasis``'s Gram and completeness products; it is
    bitwise the basis that validation would store.  A NaN or infinite angle
    raises ``StateValidationError('basis-orthonormality', nan)``, as the
    Gram check does on the NaN entries such an angle would give.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise StateValidationError(
            "basis-orthonormality", math.nan, f"non-finite angle ({theta}, {phi})")
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    phase = complex(math.cos(phi), math.sin(phi))
    # Built flat and reshaped: numpy converts a flat tuple faster than
    # nested lists, to the same bytes.
    vecs = np.array((c, -s * phase.conjugate(), s * phase, c), dtype=complex).reshape(2, 2)
    vecs.setflags(write=False)
    basis = object.__new__(ProjectiveBasis)
    vars(basis)["vectors"] = vecs  # the frozen field, as linalg._settle writes a state's
    return basis


def fourier_basis(dim: int) -> ProjectiveBasis:
    """Discrete-Fourier basis, mutually unbiased with the computational one."""
    _check_integer("dim", dim, minimum=2)
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    vecs = np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)
    return ProjectiveBasis(vecs)


def computational_basis(dim: int) -> ProjectiveBasis:
    _check_integer("dim", dim, minimum=1)
    return ProjectiveBasis(np.eye(dim, dtype=complex))


def is_mub(a: ProjectiveBasis, b: ProjectiveBasis, tol: float) -> bool:
    """True iff every squared cross-overlap equals 1/dim within tol."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    overlaps = np.abs(a.vectors.conj().T @ b.vectors) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / a.dim)) <= tol)


def fourier_of(basis: ProjectiveBasis) -> ProjectiveBasis:
    """Basis mutually unbiased with ``basis``: its Fourier-rotated partner."""
    f = fourier_basis(basis.dim)
    return ProjectiveBasis(basis.vectors @ f.vectors)


def schmidt_decompose(psi: DensityMatrix) -> SchmidtForm:
    """Schmidt form of a bipartite pure state.

    Requires purity >= 1 - 1e-9 and exactly two subsystems.  Coefficients come
    out nonincreasing (SVD order); within degenerate groups the SVD's vector
    order is kept.
    """
    _check_pure(psi, "schmidt decomposition")
    vals, vecs = np.linalg.eigh(psi.mat)
    ket = vecs[:, -1]
    da, db = psi.dims
    u, s, vh = np.linalg.svd(ket.reshape(da, db), full_matrices=True)
    coeffs = np.zeros(min(da, db))
    coeffs[: s.size] = s**2
    coeffs /= coeffs.sum()
    return SchmidtForm(
        coefficients=coeffs,
        basis_a=ProjectiveBasis(u),
        basis_b=ProjectiveBasis(vh.T),
    )


def lift(basis: ProjectiveBasis, subsystem: int, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Full-space projectors I x ... x |o_k><o_k| x ... x I in layout order."""
    _check_placement("basis", basis.dim, subsystem, dims)
    # All d projectors v_k v_k^+ in one broadcast, each entry the product
    # basis.projector(k) forms, and then all their embeddings in one: each
    # lifted projector is bitwise embed_operator(basis.projector(k)).
    vecs = basis.vectors.T
    return list(_embed_stack(vecs[:, :, None] * vecs.conj()[:, None, :], subsystem, dims))


def _require_dimension(text: str, size: int, dim: int) -> None:
    if size != dim:
        raise SpecParseError(f"basis spec '{text}' has dimension {size}, subsystem has {dim}")


def _spec_params(text: str, arg: str, convert, what: str, kind: str = "basis") -> dict:
    # The comma-separated key=value pieces of a basis (or state) spec, keys
    # stripped of whitespace; a repeated key, or a value convert rejects, is
    # a parse error.
    params = {}
    for piece in arg.split(","):
        key, _, raw = piece.partition("=")
        key = key.strip()
        if key in params:
            raise SpecParseError(f"{kind} spec '{text}' repeats the key '{key}'")
        try:
            params[key] = convert(raw)
        except ValueError:
            raise SpecParseError(f"{kind} spec '{text}' has a malformed {what}") from None
    return params


def parse_basis_spec(text: str, dim: int) -> ProjectiveBasis:
    """Build a basis for a subsystem of dimension ``dim`` from CLI syntax.

    Recognized forms: ``zbasis``, ``xbasis``, ``ybasis``,
    ``bloch:theta=1.57,phi=0``, ``fourier:d=3``.  A spec of any other
    dimension, or a spec that repeats a key, is rejected before its basis
    is built.  Whitespace around the head and around a key is ignored.
    """
    spec = text.strip()
    head, _, arg = spec.partition(":")
    head = head.strip()
    if head == "fourier":
        params = _spec_params(text, arg, int, "dimension")
        if set(params) != {"d"}:
            raise SpecParseError(f"basis spec '{text}' needs d=<int>")
        _require_dimension(text, params["d"], dim)
        return fourier_basis(params["d"])
    if spec == "zbasis":
        theta, phi = 0.0, 0.0
    elif spec == "xbasis":
        theta, phi = math.pi / 2.0, 0.0
    elif spec == "ybasis":
        theta, phi = math.pi / 2.0, math.pi / 2.0
    elif head == "bloch":
        params = _spec_params(text, arg, float, "angle")
        if set(params) != {"theta", "phi"}:
            raise SpecParseError(f"basis spec '{text}' needs theta and phi")
        theta, phi = params["theta"], params["phi"]
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise SpecParseError(f"basis spec '{text}' has a non-finite angle")
    else:
        raise SpecParseError(f"unrecognized basis spec '{text}'")
    _require_dimension(text, 2, dim)
    return qubit_basis(theta, phi)
