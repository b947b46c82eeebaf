"""The matrix-route pair scan: its values, and minimize_pair at or below it.

``qreality.oracle.brute_force_pair`` scans both bases of two qubits without
``qreality.kernels``; its grid is offset by half a cell from its edges, so
no point falls on the default optimizer grid.
"""

import math

import numpy as np
import pytest

from qreality import oracle
from qreality.measures import discord_like, nonlocality
from qreality.observables import qubit_basis
from qreality.optimize import minimize_pair
from qreality.oracle import brute_force_pair
from qreality.states import random_density

# Points per angle per side: SCAN**2 axes per side and SCAN**4 basis pairs.
SCAN = 64


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
    [(n_values, d_values)] = oracle._pair_scan(rho, oracle._axes(ta, pa), oracle._axes(tb, pb))
    for i in range(len(ta)):
        for j in range(len(tb)):
            basis_a, basis_b = qubit_basis(ta[i], pa[i]), qubit_basis(tb[j], pb[j])
            assert n_values[i, j] == pytest.approx(nonlocality(basis_a, basis_b, rho),
                                                   abs=1e-12)
            assert d_values[i, j] == pytest.approx(
                discord_like(rho, [(basis_a, 0), (basis_b, 1)]), abs=1e-12)


def test_pair_scan_blocks_keep_the_minima(monkeypatch):
    # Blocks of 3 of side A's 16 axes, the last one short, give the minima
    # of the whole scan taken as one block.
    rho = random_density(4, 2, 90269, dims=(2, 2))
    whole = brute_force_pair(rho, 4)
    monkeypatch.setattr(oracle, "PAIR_BLOCK_ENTRIES", 3 * 4 * 16 + 1)
    axes = oracle._axes(*oracle._pair_scan_angles(4))
    assert [len(n) for n, _ in oracle._pair_scan(rho, axes, axes)] == [3] * 5 + [1]
    assert brute_force_pair(rho, 4) == whole


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
