"""Matrix-route oracle for minimize_pair: a dense scan over both bases.

Nothing here comes from ``qreality.kernels``.  Each basis is the projector
pair (1 +- n.sigma)/2 of its Bloch axis n.  The joint outcome probabilities
are projector expectation values; S(Ph_A rho) and S(Ph_B rho) are entropies
of the singly dephased 4 x 4 matrices from batched ``eigvalsh``; the doubly
dephased state is diagonal in the product basis, so its entropy is the
Shannon entropy of the joint probabilities.  The scan's grid is offset by
half a cell from its edges, so no point falls on the default optimizer grid.
"""

import math

import numpy as np
import pytest

from qreality.measures import discord_like, nonlocality
from qreality.observables import qubit_basis
from qreality.optimize import minimize_pair
from qreality.states import random_density

# Points per angle per side: SCAN**2 axes per side and SCAN**4 basis pairs.
SCAN = 64
# Rows of side A's axes per block of the joint probabilities: 4 * CHUNK *
# SCAN**2 floats, 32 MB per block.
CHUNK = 256

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _axes(thetas, phis):
    return np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis),
                     np.cos(thetas)], axis=1)


def _projectors(axes):
    # (m, 3) axes -> (m, 2, 2, 2): basis, outcome, row, column.
    n_sigma = np.einsum("mk,kij->mij", axes, PAULI)
    eye = np.eye(2)
    return np.stack([(eye + n_sigma) / 2, (eye - n_sigma) / 2], axis=1)


def _shannon(p, axis):
    # -sum p ln p, with 0 ln 0 = 0 and rounding-level negative p counted as 0.
    terms = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    terms *= p
    return -np.sum(terms, axis=axis)


def _spectral_entropy(mats):
    return _shannon(np.linalg.eigvalsh(mats), axis=-1)


def _state_entropies(rho):
    # S(rho) and the mutual information I(rho).
    r = rho.mat.reshape(2, 2, 2, 2)  # r[i, k, j, l] = rho[(i, k), (j, l)]
    s_rho = _spectral_entropy(rho.mat)
    s_a = _spectral_entropy(np.einsum("ikjk->ij", r))
    s_b = _spectral_entropy(np.einsum("kikj->ij", r))
    return s_rho, s_a + s_b - s_rho


def _side_entropies(rho, axes, subsystem):
    # Per axis on one side: S of the state dephased there, from the dephased
    # matrices' spectra, and the Shannon entropy of that side's outcomes.
    r = rho.mat.reshape(2, 2, 2, 2)
    proj = _projectors(axes)
    if subsystem == 0:
        dephased = np.einsum("aoxy,ykzl,aozj->axkjl", proj, r, proj)
        outcomes = np.einsum("aoji,ikjk->ao", proj, r)
    else:
        dephased = np.einsum("boxy,iyjz,bozl->bixjl", proj, r, proj)
        outcomes = np.einsum("bolk,ikil->bo", proj, r)
    return _spectral_entropy(dephased.reshape(-1, 4, 4)), _shannon(outcomes.real, axis=1)


def _joint_entropies(rho, axes_a, axes_b):
    # S of the doubly dephased state: the Shannon entropy of the joint
    # outcome probabilities tr(rho P_a (x) Q_b), for every pair of axes.
    # The probabilities are real: Re(h q) = Re h Re q - Im h Im q, one real
    # product over the 4 + 4 stacked parts.
    r = rho.mat.reshape(2, 2, 2, 2)
    proj_a, proj_b = _projectors(axes_a), _projectors(axes_b)
    half = np.einsum("aoji,ikjl->aokl", proj_a, r).reshape(-1, 4)
    other = proj_b.transpose(0, 1, 3, 2).reshape(-1, 4).T
    joint = np.concatenate([half.real, -half.imag], axis=1) @ np.concatenate(
        [other.real, other.imag])
    # Row 2a + o and column 2b + q hold outcome (o, q) of axes (a, b): the sum
    # of the four strided outcome views, which numpy adds faster than it
    # reduces over the interleaved outcome axes.
    return sum(_shannon(joint[o::2, q::2], axis=()) for o in (0, 1) for q in (0, 1))


def _combine(state, side_a, side_b, h_ab):
    # Nonlocality S_A + S_B - S_AB - S(rho) and the two-sided discord-like
    # drop I(rho) - (H_A + H_B - S_AB), as (len(axes_a), len(axes_b)) arrays.
    (s_rho, mutual_info), (s_deph_a, h_a), (s_deph_b, h_b) = state, side_a, side_b
    n_values = s_deph_a[:, None] + s_deph_b[None, :] - h_ab - s_rho
    d_values = mutual_info - (h_a[:, None] + h_b[None, :] - h_ab)
    return n_values, d_values


def _pair_values(rho, axes_a, axes_b):
    return _combine(_state_entropies(rho), _side_entropies(rho, axes_a, 0),
                    _side_entropies(rho, axes_b, 1), _joint_entropies(rho, axes_a, axes_b))


def _scan_axes():
    grid = (np.arange(SCAN) + 0.5) * math.pi / SCAN
    thetas, phis = (a.reshape(-1) for a in np.meshgrid(grid, grid, indexing="ij"))
    return thetas, phis


def _scan_minima(rho):
    axes = _axes(*_scan_axes())
    state = _state_entropies(rho)
    side_a, side_b = _side_entropies(rho, axes, 0), _side_entropies(rho, axes, 1)
    best_n = best_d = math.inf
    for start in range(0, len(axes), CHUNK):
        rows = slice(start, start + CHUNK)
        n_values, d_values = _combine(state, [x[rows] for x in side_a], side_b,
                                      _joint_entropies(rho, axes[rows], axes))
        best_n = min(best_n, float(n_values.min()))
        best_d = min(best_d, float(d_values.min()))
    return best_n, best_d


def test_scan_values_match_the_measures():
    # The oracle's closed loop: its pair values are the package's matrix
    # route to rounding, at scan points and at arbitrary angles.
    rho = random_density(4, 3, 90266, dims=(2, 2))
    thetas, phis = _scan_axes()
    rng = np.random.default_rng(5)
    picks = rng.choice(len(thetas), 6, replace=False)
    ta = np.concatenate([thetas[picks[:3]], [0.0, 1.1]])
    pa = np.concatenate([phis[picks[:3]], [0.0, 2.9]])
    tb = np.concatenate([thetas[picks[3:]], [math.pi / 2, 0.3]])
    pb = np.concatenate([phis[picks[3:]], [0.7, 0.0]])
    n_values, d_values = _pair_values(rho, _axes(ta, pa), _axes(tb, pb))
    for i in range(len(ta)):
        for j in range(len(tb)):
            basis_a, basis_b = qubit_basis(ta[i], pa[i]), qubit_basis(tb[j], pb[j])
            assert n_values[i, j] == pytest.approx(nonlocality(basis_a, basis_b, rho),
                                                   abs=1e-12)
            assert d_values[i, j] == pytest.approx(
                discord_like(rho, [(basis_a, 0), (basis_b, 1)]), abs=1e-12)


@pytest.mark.parametrize("seed, rank", [
    (50217, 2), (90057, 2), (90169, 2), (90251, 4), (90266, 3), (90269, 2), (90273, 2),
])
def test_minimize_pair_is_at_or_below_the_matrix_route_scan(seed, rank):
    # States on which refining only the lowest grid cells, all in one basin,
    # ended above the nonlocality minimum, and two (90269 and 90273) whose
    # minimum a coarser 17 x 16 grid with full phi rows misses.
    rho = random_density(4, rank, seed, dims=(2, 2))
    scan_n, scan_d = _scan_minima(rho)
    assert minimize_pair(rho, "nonlocality").value <= scan_n + 1e-9
    assert minimize_pair(rho, "discord").value <= scan_d + 1e-9
