"""Dense complex linear algebra for multipartite density matrices.

Matrices are plain complex ``numpy`` arrays; a :class:`DensityMatrix` pairs a
matrix with the ordered tuple of subsystem dimensions that defines its tensor
factorization.  Subsystem 0 is always the leftmost Kronecker factor
(row-major convention), fixed project-wide so index bookkeeping never flips.

Each state is diagonalized once, when it is built: ``DensityMatrix.eigenvalues``
holds the ascending spectrum of the stored matrix, and every entropy in the
package reads it (never a matrix logarithm).  ``_spectrum`` takes that
spectrum: the LAPACK gufunc behind ``np.linalg.eigvalsh``, called without the
wrapper, so the same bits at LAPACK's cost.  Where LAPACK fails it returns
NaN with a ``RuntimeWarning`` instead of raising ``LinAlgError``, and the
state is rejected as ``positive-semidefinite``.  Outside this module a state's
matrix is decomposed again only where its eigenvectors are needed:
``measures.relative_entropy`` (sigma's support and eigenbasis) and
``observables.schmidt_decompose`` (the pure state's vector) call ``eigh``.

``partial_trace`` contracts through ``c_einsum``, the C entry point that
``np.einsum`` calls with its default ``optimize=False``, so its bits are
``np.einsum``'s without the dispatcher's cost; ``measures`` takes its
blocks and pinchings through the same name.  It is imported from
``numpy._core.multiarray``, or from ``numpy.core.multiarray`` on
numpy < 2, where ``numpy._core`` does not exist; importing ``numpy.core``
on numpy 2 raises a ``DeprecationWarning``.

Validation happens at the boundary.  A state built from outside data goes
through every ``DensityMatrix`` check.  A state that a map derives from
validated states (``partial_trace`` here; ``dephase``, the joint dephasing
and the product of marginals in ``measures``) is built by ``_derived``.  Its
matrix is finite, Hermitian to rounding and of unit trace by construction,
so those three checks cannot fail and are skipped.  Both paths then settle
the state in one function, ``_settle``: the same symmetrized matrix,
spectrum and rejection, so a derived state is bit for bit the
``DensityMatrix`` of the same matrix.  A state is stored as built, never
rebuilt: its spectrum may hold rounding values in [-1e-10, 0), which every
entropy reads as zero.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2, where numpy.core is not yet deprecated
    from numpy.core.multiarray import c_einsum

from .errors import StateValidationError

# Construction tolerances: violations below these are rounding noise and are
# accepted; anything larger is rejected as genuinely invalid input.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _is_integer(x) -> bool:
    # A count, dimension or subsystem index: int() would truncate 2.7, and a
    # bool is an Integral but none of these.  numpy integers pass.  A plain
    # int is tested first: the Integral test costs an ABC lookup, and
    # dephase runs this once per call.
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    # Raise ValueError, naming the argument, unless value is an integer of at
    # least minimum.
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _as_square_complex(mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with a subsystem layout.

    Construction validates the state: finite entries, and Hermiticity and
    unit trace within 1e-10, are required; an eigenvalue below -1e-10 raises
    :class:`StateValidationError`.  The symmetrized matrix is stored as
    given, so eigenvalues in [-1e-10, 0) stay: rounding noise, which every
    entropy reads as zero.

    ``eigenvalues`` is the read-only spectrum of the stored ``mat`` in
    ascending order, the one validation takes.

    States compare and hash by identity: comparing the arrays would need a
    tolerance, which ``==`` cannot carry.

    Every public input path validates in full.  States that internal maps
    derive from validated states are built by ``_derived``, which skips only
    the finite-entry, Hermiticity and trace checks those maps cannot fail.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _as_square_complex(self.mat)
        if not all(_is_integer(d) for d in self.dims):
            raise ValueError(f"subsystem dimensions must be integers, got {tuple(self.dims)}")
        dims = tuple(map(int, self.dims))
        if not dims or min(dims) < 1:
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if math.prod(dims) != mat.shape[0]:
            raise StateValidationError(
                "layout-product", abs(math.prod(dims) - mat.shape[0]),
                f"dims {dims} do not factor a {mat.shape[0]}-dimensional matrix",
            )

        # Non-finite exactly when some entry is NaN or infinite.
        adjoint = mat.conj().T
        with np.errstate(invalid="ignore"):
            herm_residual = float(np.abs(mat - adjoint).max())
        if not math.isfinite(herm_residual):
            raise StateValidationError(
                "finite-entries", herm_residual, "matrix has NaN or infinite entries")
        if herm_residual > HERMITICITY_TOL:
            raise StateValidationError("hermiticity", herm_residual)
        # Halved in place, as in _derived.  Not *= 0.5: it differs from / 2.0
        # in the sign of some zero parts, e.g. of (-0.0+1j).
        mat = mat + adjoint
        mat /= 2.0

        trace_residual = abs(complex(mat.trace()) - 1.0)
        if trace_residual > TRACE_TOL:
            raise StateValidationError("unit-trace", trace_residual)

        _settle(self, mat, dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def _spectrum(hermitian: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix or ``(k, d, d)`` stack.

    The gufunc ``np.linalg.eigvalsh`` calls, with its lower-triangle
    signature, so the bits are ``np.linalg.eigvalsh``'s.  The wrapper is
    skipped because its array checks and error-state context cost as much
    as LAPACK's work on a state's small matrix: a 4 x 4 call took 5.6 us,
    the gufunc alone 2.8 us (numpy 2.4.6, x86-64).  Without that context a
    LAPACK failure does not raise ``LinAlgError``: the gufunc fills that
    matrix's spectrum with NaN, which numpy's default error state reports
    as a ``RuntimeWarning``, and ``_settle`` rejects the state as
    ``positive-semidefinite``.
    """
    return _umath_linalg.eigvalsh_lo(hermitian, signature="D->d")


def _settle(state: DensityMatrix, hermitian: np.ndarray, dims: tuple[int, ...]) -> DensityMatrix:
    # Validation's last step, shared with _derived: the _spectrum of the
    # symmetrized matrix, rejection below EIGENVALUE_FLOOR (written so that a
    # NaN eigenvalue is rejected too, as in the all-NaN spectrum _spectrum
    # returns where LAPACK fails), and the read-only store.
    eigvals = _spectrum(hermitian)
    if not eigvals[0] >= EIGENVALUE_FLOOR:
        lowest = float(eigvals[0])
        raise StateValidationError("positive-semidefinite", lowest,
                                   f"most negative eigenvalue {lowest:.6e}")
    hermitian.setflags(write=False)
    eigvals.setflags(write=False)
    # The frozen fields, written to the instance dict in one pass rather
    # than by three object.__setattr__ calls.
    fields = vars(state)
    fields["mat"] = hermitian
    fields["dims"] = dims
    fields["eigenvalues"] = eigvals
    return state


def _derived(mat: np.ndarray, dims: tuple[int, ...]) -> DensityMatrix:
    """State of a map of validated states, without the checks it cannot fail.

    ``mat`` must come from validated states by a map that keeps the entries
    finite, the matrix Hermitian to rounding and the trace 1, and ``dims``
    must be a validated layout.  The finite-entry, Hermiticity and trace
    checks are skipped; the symmetrization, spectrum and rejection are
    validation's own, so the result is bitwise ``DensityMatrix(mat, dims)``.
    """
    hermitian = mat + mat.conj().T
    hermitian /= 2.0
    return _settle(object.__new__(DensityMatrix), hermitian, dims)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major block convention.

    entry[(i*dimB+k), (j*dimB+l)] = a[i,j] * b[k,l], i.e. subsystem order is
    preserved left to right.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    # np.kron as one broadcast product, as in embed_operator: each entry is
    # the one product a[i,j] * b[k,l], so the result is bitwise np.kron's,
    # signed zeros included.
    full = a[:, None, :, None] * b[None, :, None, :]
    return full.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def partial_trace(rho: DensityMatrix, keep: Iterable[int] | int) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original order.

    ``keep`` is one subsystem index or an iterable of them; anything else,
    a bool or float among them, raises ``ValueError``.
    """
    if _is_integer(keep):
        indices = (keep,)
    else:
        indices = tuple(keep) if isinstance(keep, Iterable) else (keep,)
        if not all(_is_integer(k) for k in indices):
            raise ValueError(f"keep must be a subsystem index or indices, got {keep!r}")
    keep_set = sorted({int(k) for k in indices})
    n = len(rho.dims)
    if not keep_set:
        raise ValueError("keep set must be nonempty")
    if keep_set[0] < 0 or keep_set[-1] >= n:
        raise ValueError(f"keep indices {keep_set} out of range for {n} subsystems")

    tensor = rho.mat.reshape(rho.dims + rho.dims)
    # Row axis k is label k; its column axis is label n + k when kept and
    # label k (a trace) otherwise.
    cols = [n + k if k in keep_set else k for k in range(n)]
    out = keep_set + [n + k for k in keep_set]
    reduced = c_einsum(tensor, [*range(n), *cols], out)

    kept_dims = tuple(rho.dims[k] for k in keep_set)
    d = math.prod(kept_dims)
    return _derived(reduced.reshape(d, d), kept_dims)


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
    _check_placement("operator", op.shape[0], subsystem, dims)
    return _embed_stack(op[None], subsystem, dims)[0]


def _check_placement(what: str, dim: int, subsystem: int, dims: tuple[int, ...]) -> None:
    # Raise ValueError unless an operator or basis ``what`` of dimension dim
    # acts on subsystem ``subsystem`` of dims.
    if not _is_integer(subsystem):
        raise ValueError(f"subsystem must be an integer, got {subsystem!r}")
    if subsystem < 0 or subsystem >= len(dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {dims}")
    if dim != dims[subsystem]:
        raise ValueError(
            f"{what} dimension {dim} does not match subsystem dimension {dims[subsystem]}")


def _check_qubit_side(rho: DensityMatrix, subsystem: int, task: str) -> None:
    # Raise ValueError unless subsystem names a qubit side of a bipartite
    # rho: the side a one-sided minimizer or scan optimizes.
    if len(rho.dims) != 2:
        raise ValueError(f"{task} needs a bipartite state, got {rho.dims}")
    if not _is_integer(subsystem) or subsystem not in (0, 1):
        raise ValueError(f"subsystem must be 0 or 1, got {subsystem!r}")
    if rho.dims[subsystem] != 2:
        raise ValueError("the optimized subsystem must be a qubit")


def _embed_stack(ops: np.ndarray, subsystem: int, dims: tuple[int, ...]) -> np.ndarray:
    # embed_operator of each op in a (k, d, d) stack, without its checks.
    # np.kron(np.kron(left, op), right) as one broadcast product: the same
    # complex multiplications in the same order, so every entry is bitwise
    # equal (signed zeros included), without kron's per-call reshaping.
    left = np.eye(math.prod(dims[:subsystem]), dtype=complex)
    right = np.eye(math.prod(dims[subsystem + 1:]), dtype=complex)
    full = ((left[None, :, None, None, :, None, None]
             * ops[:, None, :, None, None, :, None])
            * right[None, None, None, :, None, None, :])
    n = math.prod(dims)
    return full.reshape(ops.shape[0], n, n)
