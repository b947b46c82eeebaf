"""Dense complex linear algebra for multipartite density matrices.

Matrices are plain complex ``numpy`` arrays; a :class:`DensityMatrix` pairs a
matrix with the ordered tuple of subsystem dimensions that defines its tensor
factorization.  Subsystem 0 is always the leftmost Kronecker factor
(row-major convention), fixed project-wide so index bookkeeping never flips.

All entropic quantities elsewhere in the package are computed from
eigenvalues, never from matrix logarithms, so the only spectral primitive
needed here is the Hermitian eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import StateValidationError

# Construction tolerances: violations below these are rounding noise and get
# repaired; anything larger is rejected as genuinely invalid input.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_CLAMP = -1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _as_square_complex(mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with a subsystem layout.

    Construction validates (and where legitimate, repairs) the state: finite
    entries, and Hermiticity and unit trace within 1e-10, are required;
    eigenvalues in [-1e-10, 0) are clamped to zero with the spectrum
    renormalized, while anything more negative raises
    :class:`StateValidationError`.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = _as_square_complex(self.mat)
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if math.prod(dims) != mat.shape[0]:
            raise StateValidationError(
                "layout-product", abs(math.prod(dims) - mat.shape[0]),
                f"dims {dims} do not factor a {mat.shape[0]}-dimensional matrix",
            )

        # Non-finite exactly when some entry is NaN or infinite.
        with np.errstate(invalid="ignore"):
            herm_residual = float(np.max(np.abs(mat - mat.conj().T)))
        if not math.isfinite(herm_residual):
            raise StateValidationError(
                "finite-entries", herm_residual, "matrix has NaN or infinite entries")
        if herm_residual > HERMITICITY_TOL:
            raise StateValidationError("hermiticity", herm_residual)
        mat = (mat + mat.conj().T) / 2.0

        trace_residual = abs(complex(np.trace(mat)) - 1.0)
        if trace_residual > TRACE_TOL:
            raise StateValidationError("unit-trace", trace_residual)

        eigvals = np.linalg.eigvalsh(mat)
        lowest = float(eigvals[0])
        if lowest < EIGENVALUE_CLAMP:
            raise StateValidationError(
                "positive-semidefinite", lowest,
                f"most negative eigenvalue {lowest:.6e}",
            )
        if lowest < 0.0:
            # Repair rounding-level PSD violations: clamp and renormalize.
            vals, vecs = np.linalg.eigh(mat)
            vals = np.clip(vals, 0.0, None)
            vals = vals / vals.sum()
            mat = (vecs * vals) @ vecs.conj().T
            mat = (mat + mat.conj().T) / 2.0

        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and the unitary of column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major block convention.

    entry[(i*dimB+k), (j*dimB+l)] = a[i,j] * b[k,l], i.e. subsystem order is
    preserved left to right.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: DensityMatrix, keep: Iterable[int] | int) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original order."""
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep_set = sorted({int(k) for k in keep})
    n = len(rho.dims)
    if not keep_set:
        raise ValueError("keep set must be nonempty")
    if keep_set[0] < 0 or keep_set[-1] >= n:
        raise ValueError(f"keep indices {keep_set} out of range for {n} subsystems")

    tensor = rho.mat.reshape(rho.dims + rho.dims)
    row_sub, col_sub, out_sub = [], [], []
    fresh = iter(_LETTERS)
    for k in range(n):
        a = next(fresh)
        if k in keep_set:
            b = next(fresh)
            row_sub.append(a)
            col_sub.append(b)
            out_sub.append((a, b))
        else:
            row_sub.append(a)
            col_sub.append(a)
    out_rows = "".join(a for a, _ in out_sub)
    out_cols = "".join(b for _, b in out_sub)
    subscripts = "".join(row_sub + col_sub) + "->" + out_rows + out_cols
    reduced = np.einsum(subscripts, tensor)

    kept_dims = tuple(rho.dims[k] for k in keep_set)
    d = math.prod(kept_dims)
    return DensityMatrix(reduced.reshape(d, d), kept_dims)


def hermitian_eigensystem(mat: np.ndarray, tol: float = 1e-9) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix; rejects non-Hermitian input."""
    arr = _as_square_complex(mat)
    residual = float(np.max(np.abs(arr - arr.conj().T)))
    if residual > tol:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    values, vectors = np.linalg.eigh(arr)
    return EigenSystem(values=values, vectors=vectors)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum |a_ij - b_ij|^2); the equality metric used everywhere."""
    x = np.asarray(a, dtype=complex)
    y = np.asarray(b, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y))


def embed_operator(op: np.ndarray, subsystem: int, dims: tuple[int, ...]) -> np.ndarray:
    """Extend an operator on one subsystem by identity on all others."""
    op = _as_square_complex(op)
    if subsystem < 0 or subsystem >= len(dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {dims}")
    if op.shape[0] != dims[subsystem]:
        raise ValueError(
            f"operator dimension {op.shape[0]} does not match subsystem "
            f"dimension {dims[subsystem]}"
        )
    left = np.eye(math.prod(dims[:subsystem]), dtype=complex)
    right = np.eye(math.prod(dims[subsystem + 1:]), dtype=complex)
    return np.kron(np.kron(left, op), right)
