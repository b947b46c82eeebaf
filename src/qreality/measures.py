"""Scalar quantifiers: entropy, dephasing, reality, discord-like drops, nonlocality.

All entropic values are in nats.  The unread-measurement map

    dephase(rho, B, k) = sum_j P_j rho P_j,   P_j = I x ... x |b_j><b_j| x ... x I

is the single primitive behind everything here: an observable is *real* for a
preparation when dephasing in its eigenbasis leaves the state unchanged, and
its *irreality* is the entropy the dephasing adds.  The dephased state is
block diagonal in the basis: ``_blocks`` takes its blocks <b_j| rho |b_j>
on any layout, for one basis or a stack, without full-space projectors;
``dephase`` puts them back, and :mod:`qreality.oracle` reads their spectra.
Both contractions call numpy's ``c_einsum`` directly, the C entry point
that ``np.einsum`` itself calls with its default ``optimize=False``: the
same bits without the Python dispatcher, which was about a quarter of each
``einsum`` call on a two-qubit state.  ``linalg`` imports it, from
``numpy.core`` on numpy < 2.
Every entropy here drops the eigenvalues and weights at or below
``linalg.ZERO_WEIGHT`` (0 ln 0 = 0), the cut-off the kernels use.
Nonlocality is the drop in one subsystem's irreality caused by an unread
measurement on the other; it is computed through two independent routes
(sequential ``dephase`` calls vs one Kraus pass with the lifted product
projectors P_j x Q_k) that are cross-asserted on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    SIGMA_Y,
    ZERO_WEIGHT,
    DensityMatrix,
    _check_placement,
    _check_pure,
    _derived,
    c_einsum,
    embed_operator,
    frobenius_distance,
    partial_trace,
    tensor_product,
)
from .observables import ProjectiveBasis, lift

# Eigenvalues above this count as support for relative-entropy purposes.
SUPPORT_CUTOFF = 1e-12
FORM_AGREEMENT_TOL = 1e-9

BasisOnSubsystem = tuple[ProjectiveBasis, int]


@dataclass(frozen=True)
class MeasureReport:
    """One named scalar result with the inputs that produced it."""

    name: str
    value: float
    inputs: str
    residuals: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"report '{self.name}' has non-finite value {self.value}")

    def record(self) -> str:
        parts = [f"name={self.name}", f"value={self.value:.17g}", f'inputs="{self.inputs}"']
        parts += [f"residual.{k}={v:.17g}" for k, v in sorted(self.residuals.items())]
        return " ".join(parts)


class IrrealityDecomposition(NamedTuple):
    total: float
    local: float
    correlated: float


def shannon_entropy(probs: np.ndarray) -> float:
    """-sum p ln p over the given weights, with 0 ln 0 = 0; >= 0, clamped at 0.

    Rounding can put a pure state's one weight just above 1, and the sum
    just below zero (-2.2e-16 for ``slit:x=1``); the clamp reads it as the
    zero it is.
    """
    total = 0.0
    for p in np.asarray(probs, dtype=float).reshape(-1).tolist():
        if p > ZERO_WEIGHT:
            total -= p * math.log(p)
    return max(total, 0.0)


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy in nats, from the spectrum the state was validated with."""
    return shannon_entropy(rho.eigenvalues)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho ln rho - rho ln sigma) on sigma's support; +inf outside it."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    svals, svecs = np.linalg.eigh(sigma.mat)
    support = svals > SUPPORT_CUTOFF
    if not np.all(support):
        kernel = svecs[:, ~support]
        leak = float(np.real(np.trace(kernel.conj().T @ rho.mat @ kernel)))
        if leak > 1e-9:
            return math.inf
    overlaps = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, rho.mat, svecs))
    tr_rho_ln_sigma = float(np.sum(overlaps[support] * np.log(svals[support])))
    value = -entropy(rho) - tr_rho_ln_sigma
    return max(value, 0.0) if value > -1e-9 else value


def _blocks(rho: DensityMatrix, vecs: np.ndarray, subsystem: int) -> np.ndarray:
    # <b_j| rho |b_j> for the basis of the (d, d) column vectors vecs, or for
    # each basis of an (m, d, d) stack, measured on one subsystem.
    return _conj_blocks(rho, vecs.conj(), vecs, subsystem)


def _conj_blocks(rho: DensityMatrix, conj: np.ndarray, vecs: np.ndarray, subsystem: int) -> np.ndarray:
    # _blocks with vecs.conj() given: with rho as a (left, d, right)**2
    # tensor, the (..., d, left, right, left, right) blocks.
    dims = rho.dims
    d, left, right = dims[subsystem], math.prod(dims[:subsystem]), math.prod(dims[subsystem + 1:])
    tensor = rho.mat.reshape(left, d, right, left, d, right)
    return c_einsum("...xj,axrbys,...yj->...jarbs", conj, tensor, vecs)


def dephase(rho: DensityMatrix, basis: ProjectiveBasis, subsystem: int) -> DensityMatrix:
    """Unread projective measurement of the basis on one subsystem.

    The pinching sum_j P_j rho P_j, computed in the basis: the blocks
    <b_j| rho |b_j> of the measured axes are put back as
    sum_j |b_j><b_j| x block_j.
    """
    _check_placement("basis", basis.dim, subsystem, rho.dims)
    vecs = basis.vectors
    conj = vecs.conj()
    out = c_einsum("xj,jarbs,yj->axrbys", vecs, _conj_blocks(rho, conj, vecs, subsystem), conj)
    return _derived(out.reshape(rho.mat.shape), rho.dims)


def _dephase_joint(rho: DensityMatrix, pair_a: BasisOnSubsystem, pair_b: BasisOnSubsystem) -> DensityMatrix:
    # One Kraus pass with product projectors; independent route from composing
    # two dephase() calls, used for the cross-asserted symmetric form.
    projs_a = lift(pair_a[0], pair_a[1], rho.dims)
    projs_b = lift(pair_b[0], pair_b[1], rho.dims)
    out = np.zeros_like(rho.mat)
    for pa in projs_a:
        for pb in projs_b:
            joint = pa @ pb
            out += joint @ rho.mat @ joint
    return _derived(out, rho.dims)


def _dephasing_distance(basis: ProjectiveBasis, subsystem: int, rho: DensityMatrix) -> float:
    # The Frobenius distance dephasing in the basis moves rho: the test of
    # is_real, which oracle.classical_quantum_minimum reports as well.
    return frobenius_distance(dephase(rho, basis, subsystem).mat, rho.mat)


def is_real(basis: ProjectiveBasis, subsystem: int, rho: DensityMatrix, tol: float = 1e-9) -> bool:
    """True iff dephasing in the basis leaves the state unchanged within tol."""
    return _dephasing_distance(basis, subsystem, rho) <= tol


def irreality(basis: ProjectiveBasis, subsystem: int, rho: DensityMatrix) -> float:
    """Entropy added by the unread measurement; >= 0, clamped at 0."""
    value = entropy(dephase(rho, basis, subsystem)) - entropy(rho)
    return max(value, 0.0)


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_1) + S(rho_2) - S(rho) for a bipartite state.

    When the product of marginals has full support, the relative-entropy form
    is evaluated as well and agreement within 1e-9 is asserted.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"mutual information needs a bipartite layout, got {rho.dims}")
    rho1 = partial_trace(rho, 0)
    rho2 = partial_trace(rho, 1)
    value = entropy(rho1) + entropy(rho2) - entropy(rho)
    product = _derived(tensor_product(rho1.mat, rho2.mat), rho.dims)
    if float(product.eigenvalues[0]) > SUPPORT_CUTOFF:
        alt = relative_entropy(rho, product)
        if abs(alt - value) > FORM_AGREEMENT_TOL:
            raise ArithmeticError(
                f"mutual-information forms disagree: {value} vs {alt}"
            )
    return max(value, 0.0)


def discord_like(rho: DensityMatrix, pairs: Sequence[BasisOnSubsystem]) -> float:
    """Mutual-information drop under dephasing one or both subsystems."""
    if len(rho.dims) != 2:
        raise ValueError(f"discord needs a bipartite layout, got {rho.dims}")
    pairs = list(pairs)
    if not 1 <= len(pairs) <= 2:
        raise ValueError("discord takes one or two (basis, subsystem) pairs")
    if len(pairs) == 2 and pairs[0][1] == pairs[1][1]:
        raise ValueError("the two dephased subsystems must be distinct")
    out = rho
    for basis, subsystem in pairs:
        out = dephase(out, basis, subsystem)
    return mutual_information(rho) - mutual_information(out)


def irreality_decomposition(
    basis: ProjectiveBasis, subsystem: int, rho: DensityMatrix
) -> IrrealityDecomposition:
    """Split total irreality into the local part plus the correlated part.

    Returns (total, local, correlated), each computed independently; they
    close to total = local + correlated within numerical tolerance.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"decomposition needs a bipartite layout, got {rho.dims}")
    total = irreality(basis, subsystem, rho)
    local = irreality(basis, 0, partial_trace(rho, subsystem))
    correlated = discord_like(rho, [(basis, subsystem)])
    return IrrealityDecomposition(total, local, correlated)


def available_information(rho: DensityMatrix) -> float:
    """ln(dim) - S(rho): purity deficit relative to the maximally mixed state."""
    if len(rho.dims) != 1:
        raise ValueError(f"available information takes a single-subsystem state, got {rho.dims}")
    return math.log(rho.dim) - entropy(rho)


def nonlocality_forms(
    basis_a: ProjectiveBasis,
    basis_b: ProjectiveBasis,
    rho: DensityMatrix,
    subsystem_a: int = 0,
    subsystem_b: int = 1,
) -> tuple[float, float]:
    """(symmetric form, unread-measurement form) of the nonlocality of a pair.

    symmetric:  S(Ph_A rho) + S(Ph_B rho) - S(Ph_A Ph_B rho) - S(rho), with the
    joint term evaluated through product projectors in one Kraus pass.
    unread-measurement: irreality of A on rho minus its irreality on the
    B-dephased state, evaluated through sequential dephasing.
    """
    if subsystem_a == subsystem_b:
        raise ValueError("the two bases must act on distinct subsystems")
    phi_a = dephase(rho, basis_a, subsystem_a)
    phi_b = dephase(rho, basis_b, subsystem_b)
    # irreality(basis_a, subsystem_a, rho), from the phi_a the symmetric form reads
    sequential = max(entropy(phi_a) - entropy(rho), 0.0) - irreality(basis_a, subsystem_a, phi_b)
    joint = _dephase_joint(rho, (basis_a, subsystem_a), (basis_b, subsystem_b))
    symmetric = (
        entropy(phi_a)
        + entropy(phi_b)
        - entropy(joint)
        - entropy(rho)
    )
    return symmetric, sequential


def nonlocality(
    basis_a: ProjectiveBasis,
    basis_b: ProjectiveBasis,
    rho: DensityMatrix,
    subsystem_a: int = 0,
    subsystem_b: int = 1,
) -> float:
    """Nonlocality of an observable pair; the symmetric form is canonical.

    Both forms are always computed and must agree within 1e-9 (they are the
    same four entropies reached through different code paths); the symmetric
    value, which never subtracts two dephased entropies taken on different
    states, is returned.
    """
    symmetric, sequential = nonlocality_forms(basis_a, basis_b, rho, subsystem_a, subsystem_b)
    if abs(symmetric - sequential) > FORM_AGREEMENT_TOL:
        raise ArithmeticError(
            f"nonlocality forms disagree: {symmetric} vs {sequential}"
        )
    return symmetric


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state (computational-basis conjugation)."""
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence is defined for 2x2 layouts, got {rho.dims}")
    yy = tensor_product(SIGMA_Y, SIGMA_Y)
    spun = rho.mat @ yy @ rho.mat.conj() @ yy
    eigs = np.linalg.eigvals(spun)
    mags = np.sqrt(np.clip(eigs.real, 0.0, None))
    mags[::-1].sort()
    return max(0.0, float(mags[0] - mags[1] - mags[2] - mags[3]))


def entanglement_entropy(psi: DensityMatrix) -> float:
    """Entropy of either marginal of a bipartite pure state."""
    _check_pure(psi, "entanglement entropy")
    s1 = entropy(partial_trace(psi, 0))
    s2 = entropy(partial_trace(psi, 1))
    if abs(s1 - s2) > 1e-9:
        raise ArithmeticError(f"marginal entropies disagree: {s1} vs {s2}")
    return s1


def dilation_dephase(rho: DensityMatrix, basis: ProjectiveBasis, subsystem: int) -> DensityMatrix:
    """Dephasing realized as a unitary with an ancilla that is then discarded.

    A controlled shift stores which projector fired into an ancilla prepared
    in |a_0>; tracing the ancilla out reproduces dephase() up to rounding
    (the checks allow 1e-10 in the Frobenius norm).  It builds the lifted
    projectors, so it is a second code path, not dephase() again.
    """
    d = basis.dim
    big_dims = rho.dims + (d,)
    ancilla0 = np.zeros((d, d), dtype=complex)
    ancilla0[0, 0] = 1.0
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0

    unitary = np.zeros((rho.dim * d, rho.dim * d), dtype=complex)
    power = np.eye(d, dtype=complex)
    for proj in lift(basis, subsystem, rho.dims):
        unitary += np.kron(proj, power)
        power = shift @ power

    evolved = unitary @ np.kron(rho.mat, ancilla0) @ unitary.conj().T
    big = DensityMatrix(evolved, big_dims)
    return partial_trace(big, tuple(range(len(rho.dims))))


def remote_unitary_invariance(
    basis: ProjectiveBasis,
    subsystem_a: int,
    unitary: np.ndarray,
    subsystem_b: int,
    rho: DensityMatrix,
) -> float:
    """Irreality change of one subsystem's observable under a remote unitary.

    Always within numerical noise of zero: dephasing here commutes with
    unitaries acting elsewhere.
    """
    if subsystem_a == subsystem_b:
        raise ValueError("remote unitary must act on a different subsystem")
    u = np.asarray(unitary, dtype=complex)
    residual = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if residual > 1e-9:
        raise ValueError(f"matrix is not unitary (residual {residual:.3e})")
    lifted = embed_operator(u, subsystem_b, rho.dims)
    rotated = DensityMatrix(lifted @ rho.mat @ lifted.conj().T, rho.dims)
    return irreality(basis, subsystem_a, rho) - irreality(basis, subsystem_a, rotated)
