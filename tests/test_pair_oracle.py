"""The matrix-route pair oracles, and minimize_pair against them.

``qreality.oracle.brute_force_pair`` scans both bases of two qubits without
``qreality.kernels``; its grid is offset by half a cell from its edges, so
no point falls on the default optimizer grid.  ``qreality.oracle.t_state_minima``
gives both minima exactly on states with maximally mixed marginals, and
``qreality.oracle.pure_state_minima`` on pure states.
"""

import math

import numpy as np
import pytest

from qreality import oracle
from qreality.linalg import DensityMatrix, partial_trace, tensor_product
from qreality.measures import dephase, discord_like, nonlocality
from qreality.observables import qubit_basis
from qreality.optimize import minimize_pair
from qreality.oracle import brute_force_pair, pure_state_minima, t_state_minima
from qreality.states import random_density, random_unitary, singlet, werner

# Points per angle per side: SCAN**2 bases per side and SCAN**4 basis pairs.
SCAN = 64
# The Bell states, one per row, in the product basis.
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


def test_scan_values_match_the_measures():
    # The oracle's closed loop: its pair values are the package's matrix
    # route to rounding, at scan points and at arbitrary angles.
    rho = random_density(4, 3, 90266, dims=(2, 2))
    thetas, phis = oracle._pair_scan_angles(SCAN)
    rng = np.random.default_rng(5)
    picks = rng.choice(len(thetas), 6, replace=False)
    ta = np.concatenate([thetas[picks[:3]], [0.0, 1.1]])
    pa = np.concatenate([phis[picks[:3]], [0.0, 2.9]])
    tb = np.concatenate([thetas[picks[3:]], [math.pi / 2, 0.3]])
    pb = np.concatenate([phis[picks[3:]], [0.7, 0.0]])
    [(n_values, d_values)] = oracle._pair_scan(rho, oracle._bases(ta, pa), oracle._bases(tb, pb))
    for i in range(len(ta)):
        for j in range(len(tb)):
            basis_a, basis_b = qubit_basis(ta[i], pa[i]), qubit_basis(tb[j], pb[j])
            assert n_values[i, j] == pytest.approx(nonlocality(basis_a, basis_b, rho),
                                                   abs=1e-12)
            assert d_values[i, j] == pytest.approx(
                discord_like(rho, [(basis_a, 0), (basis_b, 1)]), abs=1e-12)


def test_pair_scan_blocks_are_the_dephased_spectra_on_each_side(monkeypatch):
    # The blocks <b_o| rho |b_o> the scan takes on each side: their spectra
    # together are the spectrum of rho dephased there, and their traces are
    # the outcome probabilities of that side's marginal.  The state's local
    # Bloch vectors are far from zero and the angles off the scan grid, so
    # taking side B's blocks from the wrong index pair fails here.
    rho = random_density(4, 2, 90251, dims=(2, 2))
    for side in (0, 1):
        marginal = partial_trace(rho, side).mat
        assert np.abs(marginal - np.eye(2) / 2).max() > 0.05
    angles = {0: ([0.4, 2.3], [1.9, 0.2]), 1: ([1.2, 2.9], [0.6, 2.5])}
    vecs = {side: oracle._bases(*angles[side]) for side in (0, 1)}
    taken = {}
    blocks = oracle._blocks

    def recorded(state, v, subsystem):
        out = blocks(state, v, subsystem)
        if state is rho:  # not a marginal's outcome probabilities
            taken[next(side for side in (0, 1) if v is vecs[side])] = out.reshape(-1, 2, 2, 2)
        return out

    monkeypatch.setattr(oracle, "_blocks", recorded)
    list(oracle._pair_scan(rho, vecs[0], vecs[1]))
    for side in (0, 1):
        marginal = partial_trace(rho, side).mat
        for k, (theta, phi) in enumerate(zip(*angles[side])):
            basis = qubit_basis(theta, phi)
            spectrum = np.linalg.eigvalsh(taken[side][k]).reshape(-1)
            dephased = dephase(rho, basis, side).eigenvalues
            assert np.abs(np.sort(spectrum) - np.sort(dephased)).max() <= 1e-12
            traces = np.trace(taken[side][k], axis1=1, axis2=2)
            outcomes = np.diag(basis.vectors.conj().T @ marginal @ basis.vectors)
            assert np.abs(traces - outcomes).max() <= 1e-12


def test_pair_scan_blocks_keep_the_minima(monkeypatch):
    # Blocks of 3 of side A's 16 bases, the last one short, give the minima
    # of the whole scan taken as one block.
    rho = random_density(4, 2, 90269, dims=(2, 2))
    whole = brute_force_pair(rho, 4)
    monkeypatch.setattr(oracle, "PAIR_BLOCK_ENTRIES", 3 * 4 * 16 + 1)
    vecs = oracle._bases(*oracle._pair_scan_angles(4))
    assert [len(n) for n, _ in oracle._pair_scan(rho, vecs, vecs)] == [3] * 5 + [1]
    assert brute_force_pair(rho, 4) == whole


def test_brute_force_pair_raises_on_a_nan(monkeypatch):
    # A NaN in the only block, or in the second of six, raises as
    # brute_force_single does, and the scan stops at that block.
    joint = oracle._joint_entropies
    rho = random_density(4, 3, 7, dims=(2, 2))
    for n, block_entries, nan_block in ((8, oracle.PAIR_BLOCK_ENTRIES, 0), (4, 3 * 4 * 16 + 1, 1)):
        monkeypatch.setattr(oracle, "PAIR_BLOCK_ENTRIES", block_entries)
        blocks = []

        def with_nan(blocks_a, vecs_b):
            values = joint(blocks_a, vecs_b)
            if len(blocks) == nan_block:
                values[0, 1] = math.nan
            blocks.append(values.shape)
            return values

        monkeypatch.setattr(oracle, "_joint_entropies", with_nan)
        with pytest.raises(FloatingPointError, match="NaN in the pair scan"):
            brute_force_pair(rho, n)
        assert len(blocks) == nan_block + 1


def test_brute_force_pair_rejects_a_bad_state_or_count():
    rho = random_density(4, 2, 90273, dims=(2, 2))
    with pytest.raises(ValueError, match=r"pair oracle scan needs two qubits, got \(2, 3\)"):
        brute_force_pair(random_density(6, 2, 1, dims=(2, 3)))
    for n in (2.5, 4.0, True, "4", None):
        with pytest.raises(ValueError, match=rf"n must be an integer, got {n!r}"):
            brute_force_pair(rho, n)
    for n in (0, -2):
        with pytest.raises(ValueError, match=rf"n must be at least 1, got {n}"):
            brute_force_pair(rho, n)
    assert brute_force_pair(rho, np.int64(3)) == brute_force_pair(rho, 3)


@pytest.mark.parametrize("seed, rank", [
    (50217, 2), (90057, 2), (90169, 2), (90251, 4), (90266, 3), (90269, 2), (90273, 2),
])
def test_minimize_pair_is_at_or_below_the_matrix_route_scan(seed, rank):
    # States on which refining only the lowest grid cells, all in one basin,
    # ended above the nonlocality minimum, and two (90269 and 90273) whose
    # minimum a coarser 17 x 16 grid with full phi rows misses.
    rho = random_density(4, rank, seed, dims=(2, 2))
    scan_n, scan_d = brute_force_pair(rho, SCAN)
    assert minimize_pair(rho, "nonlocality").value <= scan_n + 1e-9
    assert minimize_pair(rho, "discord").value <= scan_d + 1e-9


def _turned_bell_mixture(seed):
    # A mixture of the Bell states with seeded weights, turned by seeded
    # local unitaries: its marginals are I/2 and its T is not diagonal.
    weights = np.random.default_rng(seed).dirichlet(np.ones(4))
    local = tensor_product(random_unitary(2, (seed, 0)), random_unitary(2, (seed, 1)))
    return DensityMatrix(local @ (BELL.T * weights) @ BELL @ local.conj().T, (2, 2))


def test_minimize_pair_meets_the_t_state_minima_on_turned_states():
    # The exact minima, not a scan.  Neither objective may fall below its
    # form beyond rounding (lowest measured -5.6e-16 on these 40 states).
    # Above it, refinement can stop early on flat landscapes: nonlocality
    # was up to 7.6e-10 above (seed 3237), 4 of 40 by more than 1e-12, all
    # with converged=True; over seeds 3200-3499 up to 3.4e-8 (seed 3311).
    # 1e-7 admits those misses; the pair discord was at most 1.6e-13 above.
    for seed in range(3200, 3240):
        rho = _turned_bell_mixture(seed)
        want_n, want_d = t_state_minima(rho)
        for objective, want, above in (("nonlocality", want_n, 1e-7), ("discord", want_d, 1e-9)):
            gap = minimize_pair(rho, objective).value - want
            assert -1e-12 <= gap <= above, (seed, objective, gap)


def test_t_state_minima_reject_other_states():
    with pytest.raises(ValueError, match=r"T-state minima need two qubits, got \(2, 3\)"):
        t_state_minima(random_density(6, 2, 1, dims=(2, 3)))
    with pytest.raises(ValueError, match="need maximally mixed marginals: qubit 0's"):
        t_state_minima(random_density(4, 2, 90251, dims=(2, 2)))
    # werner(0.5) with weight moved from |01> to |00>: qubit 0's marginal
    # stays I/2, qubit 1's is 2e-12 from it, and 5e-13 passes.
    mat = werner(0.5).mat.copy()
    mat[0, 0] += 2e-12
    mat[1, 1] -= 2e-12
    with pytest.raises(ValueError, match="qubit 1's is 2.000e-12 from I/2, above 1e-12"):
        t_state_minima(DensityMatrix(mat, (2, 2)))
    mat = werner(0.5).mat.copy()
    mat[0, 0] += 5e-13
    mat[1, 1] -= 5e-13
    assert t_state_minima(DensityMatrix(mat, (2, 2)))[0] > 0.0


def test_pure_state_minima_reject_other_states():
    # The form holds on bipartite pure states only: a rank-2 state and a
    # three-qubit one are refused, naming the condition.
    with pytest.raises(ValueError, match=r"state is mixed \(purity 0.500000\)"):
        pure_state_minima(DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), (2, 2)))
    with pytest.raises(ValueError, match="state is mixed"):
        pure_state_minima(random_density(4, 2, 1, dims=(2, 2)))
    with pytest.raises(ValueError, match="needs a bipartite layout"):
        pure_state_minima(random_density(8, 1, 1, dims=(2, 2, 2)))
    n_min, discord = pure_state_minima(singlet())
    assert n_min == 0.0 and abs(discord - math.log(2.0)) <= 1e-15
