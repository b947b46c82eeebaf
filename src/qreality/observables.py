"""Projective eigenbases on subsystems and basis constructions.

An observable enters every quantity in this package only through its
eigenbasis: eigenvalue labels are carried for bookkeeping but never affect a
dephasing map, so two observables sharing an eigenbasis are equivalent
throughout.  Only nondegenerate (rank-1) projective decompositions are
supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecParseError, StateValidationError
from .linalg import DensityMatrix, embed_operator, partial_trace

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class ProjectiveBasis:
    """Orthonormal rank-1 decomposition of one subsystem.

    ``vectors`` holds the eigenvectors as columns; optional ``labels`` are the
    real eigenvalues attached to them.
    """

    vectors: np.ndarray
    labels: np.ndarray | None = field(default=None)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
            raise ValueError(f"basis vectors must form a square matrix, got {vecs.shape}")
        eye = np.eye(vecs.shape[0])
        gram = vecs.conj().T @ vecs
        residual = float(np.abs(gram - eye).max())
        if residual > ORTHONORMALITY_TOL:
            raise StateValidationError("basis-orthonormality", residual)
        completeness = float(np.abs(vecs @ vecs.conj().T - eye).max())
        if completeness > ORTHONORMALITY_TOL:
            raise StateValidationError("basis-completeness", completeness)
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=float)
            if labels.shape != (vecs.shape[0],):
                raise ValueError("labels must have one real value per basis vector")
            labels.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def projector(self, k: int) -> np.ndarray:
        v = self.vectors[:, k]
        return v[:, None] * v.conj()[None, :]  # np.outer(v, v.conj())


@dataclass(frozen=True)
class SchmidtForm:
    """Canonical bipartite form: nonincreasing coefficients plus local bases.

    Coefficients are real and nonnegative (phases absorbed into ``basis_b``)
    and sum to 1; the state is sum_k sqrt(l_k) |k>_A |k>_B.
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
    """
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    phase = complex(math.cos(phi), math.sin(phi))
    vecs = np.array(
        [[c, -s * phase.conjugate()],
         [s * phase, c]],
        dtype=complex,
    )
    return ProjectiveBasis(vecs)


def fourier_basis(dim: int) -> ProjectiveBasis:
    """Discrete-Fourier basis, mutually unbiased with the computational one."""
    if dim < 2:
        raise ValueError("fourier basis needs dim >= 2")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    vecs = np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)
    return ProjectiveBasis(vecs)


def computational_basis(dim: int) -> ProjectiveBasis:
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
    if len(psi.dims) != 2:
        raise ValueError(f"schmidt decomposition needs a bipartite layout, got {psi.dims}")
    purity = psi.purity()
    if purity < 1.0 - 1e-9:
        raise ValueError(f"state is mixed (purity {purity:.6f})")
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
    if subsystem < 0 or subsystem >= len(dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {dims}")
    if basis.dim != dims[subsystem]:
        raise ValueError(
            f"basis dimension {basis.dim} does not match subsystem "
            f"dimension {dims[subsystem]}"
        )
    return [embed_operator(basis.projector(k), subsystem, dims) for k in range(basis.dim)]


def reduced_basis_check(psi: DensityMatrix, form: SchmidtForm) -> float:
    """Reconstruction residual of a Schmidt form against its source state."""
    da, db = psi.dims
    ket = np.zeros(da * db, dtype=complex)
    for k, lam in enumerate(form.coefficients):
        ket += math.sqrt(max(lam, 0.0)) * np.kron(
            form.basis_a.vectors[:, k], form.basis_b.vectors[:, k]
        )
    fidelity = float(np.real(ket.conj() @ psi.mat @ ket))
    return 1.0 - fidelity


def schmidt_marginal_spectrum(psi: DensityMatrix) -> np.ndarray:
    """Eigenvalues of either marginal, for cross-checking Schmidt coefficients."""
    reduced = partial_trace(psi, 0)
    return np.linalg.eigvalsh(reduced.mat)[::-1]


def parse_basis_spec(text: str) -> ProjectiveBasis:
    """Build a basis from CLI syntax.

    Recognized forms: ``zbasis``, ``xbasis``, ``ybasis``,
    ``bloch:theta=1.57,phi=0``, ``fourier:d=3``.
    """
    spec = text.strip()
    if spec == "zbasis":
        return qubit_basis(0.0, 0.0)
    if spec == "xbasis":
        return qubit_basis(math.pi / 2.0, 0.0)
    if spec == "ybasis":
        return qubit_basis(math.pi / 2.0, math.pi / 2.0)
    head, _, arg = spec.partition(":")
    if head == "bloch":
        params = {}
        for piece in arg.split(","):
            key, _, raw = piece.partition("=")
            try:
                params[key.strip()] = float(raw)
            except ValueError:
                raise SpecParseError(f"basis spec '{text}' has a malformed angle") from None
        if set(params) != {"theta", "phi"}:
            raise SpecParseError(f"basis spec '{text}' needs theta and phi")
        return qubit_basis(params["theta"], params["phi"])
    if head == "fourier":
        key, _, raw = arg.partition("=")
        if key != "d":
            raise SpecParseError(f"basis spec '{text}' needs d=<int>")
        try:
            d = int(raw)
        except ValueError:
            raise SpecParseError(f"basis spec '{text}' has a malformed dimension") from None
        return fourier_basis(d)
    raise SpecParseError(f"unrecognized basis spec '{text}'")
