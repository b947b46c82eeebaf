"""Matrix-route scans: the independent oracle for the minimizers.

The minimizers in :mod:`qreality.optimize` read closed forms from
:mod:`qreality.kernels`.  The scans here check them along another route,
projector dephasing plus Hermitian eigendecompositions, and never import
the kernels or the minimizers.

- :func:`brute_force_single` scans the one-sided drop I(rho) - I(Ph rho)
  over a dense (theta, phi) grid of one qubit's bases, on every layout
  :func:`qreality.optimize.minimize_single` takes.  Its engine is the
  generator ``_drop_scan``: one basis and one ``dephase`` call per point.
- :func:`brute_force_pair` scans both bases of two qubits for the lowest
  nonlocality and the lowest two-sided drop, the oracle for
  :func:`qreality.optimize.minimize_pair`.  Each basis is the projector pair
  (1 +- n.sigma)/2 of its Bloch axis n.  S(Ph_A rho) and S(Ph_B rho) are
  entropies of the singly dephased 4 x 4 matrices from batched
  ``eigvalsh``; the doubly dephased state is diagonal in the product basis,
  so its spectrum is the joint outcome probabilities.  Its grid is offset by
  half a cell from its edges, so no point falls on the default optimizer
  grid.

Both scans run in chunks of bounded size, so their memory does not grow
with the scan.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import DensityMatrix, _check_integer, _check_qubit_side, partial_trace
from .measures import ZERO_EIGENVALUE, entropy
from .observables import qubit_basis

# Matrix entries of dephased states per chunk of the matrix-route scan: it
# runs in chunks of SCAN_CHUNK_ENTRIES // dim**2 points (1,024 for two
# qubits) and keeps only each point's basis and spectrum, so its memory does
# not grow with the scan.
SCAN_CHUNK_ENTRIES = 2**14
# Joint outcome probabilities per block of the pair scan: 32 MB of float64,
# 256 of side A's axes against all 4,096 of side B's at 64 points per angle.
PAIR_BLOCK_ENTRIES = 2**22

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _spectral_entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with 0 ln 0 = 0 below ZERO_EIGENVALUE."""
    kept = np.where(spectra > ZERO_EIGENVALUE, spectra, 1.0)
    return -np.sum(kept * np.log(kept), axis=-1)


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
    # p_j = <b_j| rho_q |b_j>, so its spectrum is p: one einsum over the
    # chunk's stacked bases.
    from .measures import dephase  # resolved per scan: a rebound measures.dephase is used

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
        p = np.einsum("nxj,xy,nyj->nj", vecs[:n].conj(), rho_q.mat, vecs[:n]).real
        yield mi - (_spectral_entropies(p) + s_other - _spectral_entropies(spectra[:n]))


def brute_force_single(
    rho: DensityMatrix,
    subsystem: int,
    n_theta: int = 200,
    n_phi: int = 200,
) -> tuple[float, tuple[float, float]]:
    """Dense grid scan of the one-sided drop through the matrix route.

    Independent of the kernels by construction: one pass of ``_drop_scan``,
    the matrix route's one drop engine (projector dephasing plus
    eigendecompositions), over the grid; it is the oracle for
    :func:`minimize_single` on every layout.  The first point in (theta, phi) order with the lowest
    drop wins; a NaN never does.  ``subsystem`` is checked as
    :func:`minimize_single` checks it, before any work.
    """
    _check_qubit_side(rho, subsystem, "oracle scan")
    for name, points in (("n_theta", n_theta), ("n_phi", n_phi)):
        _check_integer(name, points)
        if points < 1:
            raise ValueError(f"{name} must be at least 1, got {points}")
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    best = math.inf
    best_angles = (0.0, 0.0)
    start = 0
    for drops in _drop_scan(rho, subsystem, itertools.product(thetas, phis)):
        drops[np.isnan(drops)] = math.inf
        k = int(np.argmin(drops))
        if drops[k] < best:
            best = float(drops[k])
            i, j = divmod(start + k, n_phi)
            best_angles = (float(thetas[i]), float(phis[j]))
        start += drops.size
    return best, best_angles


def _axes(thetas, phis) -> np.ndarray:
    # (m,) angle pairs -> (m, 3) Bloch axes.
    return np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis),
                     np.cos(thetas)], axis=1)


def _pair_scan_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    # The pair scan's n * n (theta, phi) points per side, theta-major, each
    # angle offset by half a cell from the edges of [0, pi].
    grid = (np.arange(n) + 0.5) * math.pi / n
    thetas, phis = np.meshgrid(grid, grid, indexing="ij")
    return thetas.reshape(-1), phis.reshape(-1)


def _projectors(axes):
    # (m, 3) axes -> (m, 2, 2, 2): basis, outcome, row, column.
    n_sigma = np.einsum("mk,kij->mij", axes, PAULI)
    eye = np.eye(2)
    return np.stack([(eye + n_sigma) / 2, (eye - n_sigma) / 2], axis=1)


def _side_entropies(r, axes, subsystem):
    # Per axis on one side of the state r[i, k, j, l] = rho[(i, k), (j, l)]:
    # S of the state dephased there, from the dephased matrices' spectra, and
    # the entropy of that side's outcomes.
    proj = _projectors(axes)
    if subsystem == 0:
        dephased = np.einsum("aoxy,ykzl,aozj->axkjl", proj, r, proj)
        outcomes = np.einsum("aoji,ikjk->ao", proj, r)
    else:
        dephased = np.einsum("boxy,iyjz,bozl->bixjl", proj, r, proj)
        outcomes = np.einsum("bolk,ikil->bo", proj, r)
    return (_spectral_entropies(np.linalg.eigvalsh(dephased.reshape(-1, 4, 4))),
            _spectral_entropies(outcomes.real))


def _joint_entropies(r, axes_a, axes_b):
    # S of the doubly dephased state for every pair of axes: the entropy of
    # the joint outcome probabilities tr(rho P_a (x) Q_b).  The probabilities
    # are real: Re(h q) = Re h Re q - Im h Im q, one real product over the
    # 4 + 4 stacked parts.
    proj_a, proj_b = _projectors(axes_a), _projectors(axes_b)
    half = np.einsum("aoji,ikjl->aokl", proj_a, r).reshape(-1, 4)
    other = proj_b.transpose(0, 1, 3, 2).reshape(-1, 4).T
    joint = np.concatenate([half.real, -half.imag], axis=1) @ np.concatenate(
        [other.real, other.imag])
    # Row 2a + o and column 2b + q hold outcome (o, q) of axes (a, b): the sum
    # of the four strided outcome views' terms, which numpy adds faster than
    # it reduces over the interleaved outcome axes.
    return sum(_spectral_entropies(joint[o::2, q::2, None]) for o in (0, 1) for q in (0, 1))


def _pair_scan(rho: DensityMatrix, axes_a, axes_b):
    # Nonlocality S_A + S_B - S_AB - S(rho) and the two-sided drop
    # I(rho) - (H_A + H_B - S_AB) of two qubits at every pair of (m, 3) axes;
    # yields the two for each block of rows of axes_a, as (rows,
    # len(axes_b)) arrays; a block holds at most PAIR_BLOCK_ENTRIES joint
    # probabilities, or one row.  The state data and each side's entropies
    # are taken once, before the first block.
    r = rho.mat.reshape(2, 2, 2, 2)
    s_rho = entropy(rho)
    mi = entropy(partial_trace(rho, 0)) + entropy(partial_trace(rho, 1)) - s_rho
    s_a, h_a = _side_entropies(r, axes_a, 0)
    s_b, h_b = _side_entropies(r, axes_b, 1)
    rows = max(1, PAIR_BLOCK_ENTRIES // (4 * len(axes_b)))
    for start in range(0, len(axes_a), rows):
        block = slice(start, start + rows)
        h_ab = _joint_entropies(r, axes_a[block], axes_b)
        yield (s_a[block, None] + s_b[None, :] - h_ab - s_rho,
               mi - (h_a[block, None] + h_b[None, :] - h_ab))


def brute_force_pair(rho: DensityMatrix, n: int = 64) -> tuple[float, float]:
    """Lowest nonlocality and lowest two-sided drop over a dense scan of basis pairs.

    Independent of the kernels by construction: each side scans n * n
    axes, n thetas by n phis in [0, pi] offset by half a cell, so the scan
    takes n**4 basis pairs.  It is the oracle for :func:`minimize_pair` on
    two qubits.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"pair oracle scan needs two qubits, got {rho.dims}")
    _check_integer("n", n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    axes = _axes(*_pair_scan_angles(n))
    best_n = best_d = math.inf
    for n_values, d_values in _pair_scan(rho, axes, axes):
        best_n = min(best_n, float(n_values.min()))
        best_d = min(best_d, float(d_values.min()))
    return best_n, best_d
