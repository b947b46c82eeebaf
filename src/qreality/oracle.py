"""Matrix-route scans: the independent oracle for the minimizers.

The minimizers in :mod:`qreality.optimize` read closed forms from
:mod:`qreality.kernels`.  The scans here check them along another route,
dephasing in :func:`qreality.observables.qubit_basis` bases plus Hermitian
eigendecompositions, and never import the kernels or the minimizers.

- :func:`brute_force_single` scans the one-sided drop I(rho) - I(Ph rho)
  over a dense (theta, phi) grid of one qubit's bases, on every layout
  :func:`qreality.optimize.minimize_single` takes.  Its engine is the
  generator ``_drop_scan``: one basis and one ``dephase`` call per point.
- :func:`brute_force_pair` scans both bases of two qubits for the lowest
  nonlocality and the lowest two-sided drop, the oracle for
  :func:`qreality.optimize.minimize_pair`.  A state dephased on side A in
  the basis {b_o} is block diagonal, with blocks B_o = <b_o| rho |b_o> on
  side B, so S(Ph_A rho) is the entropy of the blocks' 2 x 2 spectra from
  one batched ``eigvalsh`` (side B alike).  The doubly dephased state is
  diagonal in the product basis, so its spectrum is the joint outcome
  probabilities <b_q| B_o |b_q>.  Its grid is offset by half a cell from
  its edges, so no point falls on the default optimizer grid.

Both scans read blocks from :func:`qreality.measures._blocks`, in chunks
of bounded size, so their memory does not grow with the scan.  Both take
a qubit's outcome entropies H in one step, ``_outcome_entropies``: the
outcome probabilities are its marginal's 1 x 1 blocks.

- :func:`t_state_minima` gives both pair minima exactly on T-states, two
  qubits with maximally mixed marginals: Bell diagonal up to local unitaries
  (Luo, PRA 77, 042303 (2008)).  It measures T_ij = Tr[rho sigma_i x sigma_j]
  by Pauli tomography, from side A's blocks in the x, y and z bases.  With
  s1 >= s2 the two largest singular values of T and H(x) the entropy of the
  weights (1 +/- x)/2, N_min = H(s1) + H(s2) - S(rho), and the pair discord
  is I(rho) - ln 2 + H(s1).  Dephasing along the Bloch axes u on A and v on
  B leaves the weights (1 +/- |T^t u|)/4, (1 +/- |T v|)/4 and, on both,
  (1 +/- u.T v)/4, each twice, so the pair value is
  N(u, v) = ln 2 + H(|T^t u|) + H(|T v|) - H(u.T v) - S(rho).  With u the
  left singular vector of s1 and v the right one of s2, u.T v = 0 and
  H(0) = ln 2, which gives the form.  That no pair goes lower is measured
  against the minimizer, not derived.
- :func:`pure_state_minima` gives both pair minima exactly on pure states
  (Henderson & Vedral, J. Phys. A 34, 6899 (2001)), with E = S(rho_A) the
  entanglement entropy.  Measuring B on a pure state leaves pure
  conditional states on A, so I(Ph_B rho) = E in every basis of B, down
  from I(rho) = 2E.  Dephasing A as well cannot raise I, and the Schmidt
  bases keep it at E, so the pair discord is 2E - E = E.  With B in its
  Schmidt basis and A in a basis unbiased with A's, A's outcomes are
  uniform whether B is read or not, so A's irreality is ln d_A both times
  and the nonlocality is 0, the least it can be: N_min = 0.  The sides
  swap: :func:`witness_pair_for_pure` returns A's Schmidt basis and the
  Fourier partner of B's, a pair of zero nonlocality found with no search.
- :func:`classical_quantum_minimum` gives the one-sided minimum exactly on
  classical-quantum states, rho = sum_j p_j |b_j><b_j| x sigma_j with {b_j}
  a basis of the measured qubit and sigma_j states of its partner
  (Ollivier & Zurek, PRL 88, 017901 (2001)).  Dephasing the qubit in {b_j}
  leaves rho unchanged, so I(Ph rho) = I(rho) and the drop there is 0; no
  basis gives a negative drop, since a local map cannot raise the mutual
  information, so 0 is the minimum.  The qubit's marginal is
  sum_j p_j |b_j><b_j|, so for p_0 != p_1 its eigenbasis is {b_j}.  For
  p_0 = p_1 the marginal is I/2 and names no basis, and the function
  refuses the state.  Conversely, a state that dephasing in some basis
  leaves unchanged is of this form in that basis.  So a state whose
  marginal is nondegenerate is classical-quantum exactly when dephasing in
  the marginal's eigenbasis leaves it unchanged, which is
  :func:`qreality.measures.is_real`'s test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import ZERO_WEIGHT, DensityMatrix, _check_integer, _check_qubit_side, partial_trace
from .measures import (
    _blocks,
    _dephasing_distance,
    dephase,
    entanglement_entropy,
    entropy,
    mutual_information,
    shannon_entropy,
)
from .observables import ProjectiveBasis, fourier_of, qubit_basis, schmidt_decompose

# Matrix entries of dephased states per chunk of the matrix-route scan: it
# runs in chunks of SCAN_CHUNK_ENTRIES // dim**2 points (1,024 for two
# qubits) and keeps only each point's basis and spectrum, so its memory does
# not grow with the scan.
SCAN_CHUNK_ENTRIES = 2**14
# Joint outcome probabilities per block of the pair scan: 32 MB of float64,
# 256 of side A's bases against all 4,096 of side B's at 64 points per angle.
PAIR_BLOCK_ENTRIES = 2**22


def _spectral_entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with 0 ln 0 = 0 at or below ZERO_WEIGHT."""
    kept = np.where(spectra > ZERO_WEIGHT, spectra, 1.0)
    return -np.sum(kept * np.log(kept), axis=-1)


def _outcome_entropies(marginal: DensityMatrix, vecs: np.ndarray) -> np.ndarray:
    # The outcome entropy H of a qubit marginal measured in each basis of
    # the (m, 2, 2) stack vecs: its outcome probabilities are the marginal's
    # 1 x 1 blocks <b_j| rho_q |b_j>, real to rounding, so their imaginary
    # parts are dropped.
    return _spectral_entropies(_blocks(marginal, vecs, 0).real.reshape(-1, 2))


def _drop_scan(rho: DensityMatrix, subsystem: int, angles):
    # The matrix route's one-sided drop I(rho) - I(Ph rho) on one state at
    # the (theta, phi) pairs of angles, read lazily; yields the drops of each
    # chunk of at most SCAN_CHUNK_ENTRIES // dim**2 points.  The state data
    # are taken once, before the first chunk: the marginal rho_q of the
    # scanned qubit, S of the other marginal, which dephasing the scanned side
    # leaves unchanged, and I(rho).  Each point builds one basis and
    # makes one dephase call, whose spectrum gives S(Ph rho); neither is
    # validated again (the basis of finite angles is unitary to rounding, and
    # the dephased state is a map of the validated rho).  The dephased
    # marginal of the scanned qubit is sum_j p_j |b_j><b_j| with
    # p_j = <b_j| rho_q |b_j>, so its entropy is the outcome entropy of
    # rho_q in each of the chunk's stacked bases.
    rho_q = partial_trace(rho, subsystem)
    s_other = entropy(partial_trace(rho, 1 - subsystem))
    mi = entropy(rho_q) + s_other - entropy(rho)
    chunk = max(1, SCAN_CHUNK_ENTRIES // rho.dim**2)
    angles = iter(angles)
    vecs = np.empty((chunk, 2, 2), dtype=complex)
    spectra = np.empty((chunk, rho.dim))
    while points := list(itertools.islice(angles, chunk)):
        for k, (theta, phi) in enumerate(points):
            basis = qubit_basis(theta, phi)
            vecs[k] = basis.vectors
            spectra[k] = dephase(rho, basis, subsystem).eigenvalues
        n = len(points)
        yield mi - (_outcome_entropies(rho_q, vecs[:n]) + s_other
                    - _spectral_entropies(spectra[:n]))


def brute_force_single(
    rho: DensityMatrix,
    subsystem: int,
    n_theta: int = 200,
    n_phi: int = 200,
) -> tuple[float, tuple[float, float]]:
    """Dense grid scan of the one-sided drop through the matrix route.

    Independent of the kernels by construction: one pass of ``_drop_scan``,
    the matrix route's one drop engine (``dephase`` plus
    eigendecompositions), over the grid; it is the oracle for
    :func:`minimize_single` on every layout.  The first point in (theta,
    phi) order with the lowest drop wins; a NaN drop, which no validated
    state gives, raises ``FloatingPointError``.  ``subsystem`` is checked
    as :func:`minimize_single` checks it, before any work.
    """
    _check_qubit_side(rho, subsystem, "oracle scan")
    for name, points in (("n_theta", n_theta), ("n_phi", n_phi)):
        _check_integer(name, points, minimum=1)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    best, best_point, start = math.inf, 0, 0
    # Python floats, not np.float64: qubit_basis's scalar math on them is
    # cheaper, and the same bits.
    for drops in _drop_scan(rho, subsystem, itertools.product(thetas.tolist(), phis.tolist())):
        k = int(np.argmin(drops))  # the first NaN, if the chunk holds one
        if math.isnan(drops[k]):
            raise FloatingPointError(f"NaN drop at scan point {start + k}: drops must be finite")
        if drops[k] < best:
            best, best_point = float(drops[k]), start + k
        start += drops.size
    i, j = divmod(best_point, n_phi)
    return best, (float(thetas[i]), float(phis[j]))


def _pair_scan_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    # The pair scan's n * n (theta, phi) points per side, theta-major, each
    # angle offset by half a cell from the edges of [0, pi].
    grid = (np.arange(n) + 0.5) * math.pi / n
    thetas, phis = np.meshgrid(grid, grid, indexing="ij")
    return thetas.reshape(-1), phis.reshape(-1)


def _bases(thetas, phis) -> np.ndarray:
    # (m,) angle pairs -> (m, 2, 2) qubit_basis vectors, one basis per row,
    # its outcome vectors as columns.
    return np.stack([qubit_basis(theta, phi).vectors for theta, phi in zip(thetas, phis)])


def _joint_entropies(blocks_a, vecs_b):
    # S of the doubly dephased state for every pair of bases: the entropy of
    # the joint outcome probabilities <b_q| B_o |b_q> of side A's blocks and
    # side B's vectors.  The probabilities are real: Re(h q) = Re h Re q -
    # Im h Im q, one real product over the 4 + 4 stacked parts.
    half = blocks_a.reshape(-1, 4)
    b = vecs_b.transpose(0, 2, 1)
    other = (b.conj()[:, :, :, None] * b[:, :, None, :]).reshape(-1, 4).T
    joint = np.concatenate([half.real, -half.imag], axis=1) @ np.concatenate(
        [other.real, other.imag])
    # Row 2a + o and column 2b + q hold outcome (o, q) of bases (a, b): the
    # sum of the four strided outcome views' terms, which numpy adds faster
    # than it reduces over the interleaved outcome axes.
    return sum(_spectral_entropies(joint[o::2, q::2, None]) for o in (0, 1) for q in (0, 1))


def _pair_scan(rho: DensityMatrix, vecs_a, vecs_b):
    # Nonlocality S_A + S_B - S_AB - S(rho) and the two-sided drop
    # I(rho) - (H_A + H_B - S_AB) of two qubits at every pair of bases of
    # the (m, 2, 2) vector stacks; yields the two for each block of rows of
    # vecs_a, as (rows, len(vecs_b)) arrays; a block holds at most
    # PAIR_BLOCK_ENTRIES joint probabilities, or one row.  The state data and
    # each side's entropies are taken once, before the first block.
    rho_a, rho_b = partial_trace(rho, 0), partial_trace(rho, 1)
    s_rho = entropy(rho)
    mi = entropy(rho_a) + entropy(rho_b) - s_rho
    blocks_a = _blocks(rho, vecs_a, 0).reshape(-1, 2, 2, 2)
    s_a = _spectral_entropies(np.linalg.eigvalsh(blocks_a).reshape(-1, 4))
    s_b = _spectral_entropies(
        np.linalg.eigvalsh(_blocks(rho, vecs_b, 1).reshape(-1, 2, 2, 2)).reshape(-1, 4))
    h_a, h_b = _outcome_entropies(rho_a, vecs_a), _outcome_entropies(rho_b, vecs_b)
    rows = max(1, PAIR_BLOCK_ENTRIES // (4 * len(vecs_b)))
    for start in range(0, len(vecs_a), rows):
        block = slice(start, start + rows)
        h_ab = _joint_entropies(blocks_a[block], vecs_b)
        yield (s_a[block, None] + s_b[None, :] - h_ab - s_rho,
               mi - (h_a[block, None] + h_b[None, :] - h_ab))


def brute_force_pair(rho: DensityMatrix, n: int = 64) -> tuple[float, float]:
    """Lowest nonlocality and lowest two-sided drop over a dense scan of basis pairs.

    Independent of the kernels by construction: each side scans n * n
    bases, n thetas by n phis in [0, pi] offset by half a cell, so the scan
    takes n**4 basis pairs.  It is the oracle for :func:`minimize_pair` on
    two qubits.  A NaN value, which no validated state gives, raises
    ``FloatingPointError``, as in :func:`brute_force_single`.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"pair oracle scan needs two qubits, got {rho.dims}")
    _check_integer("n", n, minimum=1)
    vecs = _bases(*_pair_scan_angles(n))
    best = np.full(2, math.inf)
    for block in _pair_scan(rho, vecs, vecs):
        best = np.minimum(best, [values.min() for values in block])  # keeps a NaN
        if np.isnan(best).any():
            raise FloatingPointError("NaN in the pair scan: its values must be finite")
    return float(best[0]), float(best[1])


def t_state_minima(rho: DensityMatrix) -> tuple[float, float]:
    """(N_min, pair discord) of a T-state, from the forms in the module docstring.

    Raises ``ValueError`` unless rho is two qubits whose marginals are within
    1e-12 of I/2, entry by entry.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"T-state minima need two qubits, got {rho.dims}")
    for side in (0, 1):
        gap = float(np.abs(partial_trace(rho, side).mat - np.eye(2) / 2).max())
        if gap > 1e-12:
            raise ValueError(f"T-state minima need maximally mixed marginals: "
                             f"qubit {side}'s is {gap:.3e} from I/2, above 1e-12")
    # The x, y and z eigenbases, outcome 0 the +1 eigenvector: p[i, j, o, q]
    # is the probability of outcomes (o, q) of sigma_i on A and sigma_j on B.
    vecs = _bases((math.pi / 2, math.pi / 2, 0.0), (0.0, math.pi / 2, 0.0))
    blocks = _blocks(rho, vecs, 0).reshape(3, 2, 2, 2)
    p = np.einsum("jxq,ioxy,jyq->ijoq", vecs.conj(), blocks, vecs).real
    tmat = p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]
    s1, s2, _ = np.linalg.svd(tmat, compute_uv=False)
    h1, h2 = (shannon_entropy(((1 + s) / 2, (1 - s) / 2)) for s in (s1, s2))
    return h1 + h2 - entropy(rho), mutual_information(rho) - math.log(2.0) + h1


def pure_state_minima(rho: DensityMatrix) -> tuple[float, float]:
    """(N_min, pair discord) of a bipartite pure state: (0.0, E).

    E is :func:`qreality.measures.entanglement_entropy`, the entropy of
    ``partial_trace(rho, 0)``, which raises ``ValueError`` for a state that
    is not bipartite or whose purity is below 1 - 1e-9.  The derivation is
    in the module docstring.
    """
    return 0.0, entanglement_entropy(rho)


def witness_pair_for_pure(psi: DensityMatrix) -> tuple[ProjectiveBasis, ProjectiveBasis]:
    """Observable pair certifying zero nonlocality for a bipartite pure state.

    Returns (Schmidt basis on side A, Fourier partner of the Schmidt basis on
    side B); nonlocality evaluated on this pair vanishes identically, no
    optimization involved (see the module docstring).
    """
    form = schmidt_decompose(psi)
    return form.basis_a, fourier_of(form.basis_b)


def classical_quantum_minimum(rho: DensityMatrix, subsystem: int) -> tuple[float, np.ndarray]:
    """(0.0, axis): the one-sided minimum of a classical-quantum state and where it lies.

    ``axis`` is the Bloch axis of outcome 0 of the eigenbasis of the qubit's
    marginal; its sign is arbitrary, since it names a basis.  Raises
    ``ValueError`` unless ``subsystem`` is a qubit side of a bipartite
    state (checked as :func:`brute_force_single` checks it), the marginal's
    eigenvalues are more than 1e-9 apart, and dephasing the qubit in that
    basis leaves rho within 1e-10 in the Frobenius norm.  The derivation is
    in the module docstring.
    """
    _check_qubit_side(rho, subsystem, "classical-quantum minimum")
    values, vecs = np.linalg.eigh(partial_trace(rho, subsystem).mat)
    gap = float(values[1] - values[0])
    if gap <= 1e-9:
        raise ValueError(f"classical-quantum minimum needs a nondegenerate marginal: "
                         f"qubit {subsystem}'s eigenvalues are {gap:.3e} apart, within 1e-9")
    distance = _dephasing_distance(ProjectiveBasis(vecs), subsystem, rho)
    if not distance <= 1e-10:
        raise ValueError(f"state is not classical on qubit {subsystem}: dephasing in its "
                         f"marginal's eigenbasis moves it by {distance:.3e}, above 1e-10")
    # The Bloch axis (<b| sigma_i |b>) of outcome 0, b = vecs[:, 0].
    overlap = vecs[0, 0].conjugate() * vecs[1, 0]
    axis = np.array([2.0 * overlap.real, 2.0 * overlap.imag,
                     abs(vecs[0, 0]) ** 2 - abs(vecs[1, 0]) ** 2])
    return 0.0, axis
