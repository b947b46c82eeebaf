import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qreality import kernels, optimize, oracle
from qreality.linalg import DensityMatrix, partial_trace, tensor_product
from qreality.measures import entropy, nonlocality
from qreality.optimize import (
    OptimizerConfig,
    _lowest_cells,
    _refine,
    _start_cells,
    minimize_pair,
    minimize_single,
)
from qreality.oracle import brute_force_single, witness_pair_for_pure
from qreality.states import (
    alpha_state,
    pure_from_amplitudes,
    random_density,
    random_unitary,
    singlet,
    werner,
)

# Coarse but adequate settings keep the unit tests quick; acceptance runs the
# defaults.
FAST = OptimizerConfig(grid_steps=8, refine_starts=3)


def test_config_validation():
    with pytest.raises(ValueError, match="grid_steps must be at least 1, got 0"):
        OptimizerConfig(grid_steps=0)
    with pytest.raises(ValueError, match="refine_starts must be at least 1, got -2"):
        OptimizerConfig(refine_starts=-2)
    with pytest.raises(ValueError, match="grid_steps must be at most 53, got 54"):
        OptimizerConfig(grid_steps=54)
    assert OptimizerConfig(grid_steps=53).grid_steps == 53


@pytest.mark.parametrize("field", ["grid_steps", "refine_starts"])
@pytest.mark.parametrize("value", [12.5, 9.0, True, "9", None])
def test_config_rejects_non_integral_counts(field, value):
    # 12.5 used to pass here and fail later inside axis_grid; a bool counts
    # as non-integral, as in state files.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        OptimizerConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = OptimizerConfig(grid_steps=np.int64(8), refine_starts=np.uint8(3))
    assert minimize_pair(werner(0.3), "discord", cfg) == minimize_pair(werner(0.3), "discord", FAST)


def test_objective_and_layout_validation():
    with pytest.raises(ValueError):
        minimize_single(singlet(), 2)
    with pytest.raises(ValueError):
        minimize_pair(singlet(), "entropy")
    trio = random_density(8, 8, 0, dims=(2, 2, 2))
    with pytest.raises(ValueError):
        minimize_single(trio, 0)
    qutrit_pair = random_density(9, 9, 0, dims=(3, 3))
    with pytest.raises(ValueError):
        minimize_pair(qutrit_pair, "nonlocality")
    with pytest.raises(ValueError):
        minimize_single(qutrit_pair, 0)
    # A side is an integer: True used to run as side 1, and 1.0 raised
    # TypeError from tuple indexing.  numpy integers are sides.
    for subsystem in (True, False, np.True_, 1.0, 0.0, "1", None):
        with pytest.raises(ValueError, match="subsystem must be 0 or 1"):
            minimize_single(singlet(), subsystem)
        with pytest.raises(ValueError, match="subsystem must be 0 or 1"):
            brute_force_single(singlet(), subsystem, 2, 2)
    rho = random_density(4, 3, 83, dims=(2, 2))
    assert minimize_single(rho, np.int64(1), FAST) == minimize_single(rho, 1, FAST)
    assert brute_force_single(rho, np.uint8(1), 3, 4) == brute_force_single(rho, 1, 3, 4)


def test_product_state_minima_vanish():
    rng = np.random.default_rng(201)
    a, b = random_density(2, 2, rng), random_density(2, 2, rng)
    product = DensityMatrix(tensor_product(a.mat, b.mat), (2, 2))
    assert abs(minimize_single(product, 0, cfg=FAST).value) <= 1e-9
    assert abs(minimize_pair(product, "nonlocality", cfg=FAST).value) <= 1e-9
    assert abs(minimize_pair(product, "discord", cfg=FAST).value) <= 1e-9


def test_uncorrelated_state_has_zero_minimum():
    flat = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert abs(minimize_pair(flat, "nonlocality", cfg=FAST).value) <= 1e-12


def test_pure_states_reach_zero_nonlocality():
    for psi in (singlet(), alpha_state(1.0)):
        res = minimize_pair(psi, "nonlocality", cfg=FAST)
        assert res.value <= 1e-4
        assert res.value >= -1e-9


def _pure_states(dims, count, seed):
    return [random_density(math.prod(dims), 1, seed + k, dims=dims) for k in range(count)]


def test_pure_state_minima_are_exact():
    # Measuring B on a pure state leaves pure states on A, so every basis of
    # B drops I from 2E to E, and the Schmidt bases keep that: the pair
    # discord is E and N_min is 0; the one-sided drop is E in every basis
    # (Henderson & Vedral 2001).  E is the entanglement entropy S(rho_A).
    for rho in [singlet(), alpha_state(1.0), *_pure_states((2, 2), 20, 3100)]:
        e = entropy(partial_trace(rho, 0))
        assert abs(minimize_pair(rho, "nonlocality").value) <= 1e-12
        assert abs(minimize_pair(rho, "discord").value - e) <= 1e-12
        assert abs(minimize_single(rho, 0).value - e) <= 1e-12
    for dims in ((2, 3), (2, 4)):
        for rho in _pure_states(dims, 5, 3200):
            e = entropy(partial_trace(rho, 0))
            assert abs(minimize_single(rho, 0).value - e) <= 1e-12


def _bloch_axis(vec):
    # <b| sigma |b> for a unit qubit vector b.
    from qreality.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z

    return np.array([np.vdot(vec, op @ vec).real for op in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


@pytest.mark.parametrize("partner", [2, 3, 4])
def test_classical_quantum_states_have_a_zero_one_sided_minimum(partner):
    # rho = sum_j p_j |b_j><b_j| x sigma_j is unchanged by dephasing the
    # qubit in {b_j}, so its one-sided drop there is 0, the minimum
    # (Ollivier & Zurek 2001), and the argmin axis is the basis' own, up to
    # sign.
    from qreality.observables import qubit_basis

    rng = np.random.default_rng(3300 + partner)
    for k in range(10):
        basis = random_unitary(2, rng)
        weights = rng.dirichlet(np.ones(2))
        sigmas = [random_density(partner, 1 + (k + j) % partner, rng).mat for j in range(2)]
        mat = sum(w * tensor_product(np.outer(basis[:, j], basis[:, j].conj()), sigma)
                  for j, (w, sigma) in enumerate(zip(weights, sigmas)))
        res = minimize_single(DensityMatrix(mat, (2, partner)), 0)
        assert res.value <= 1e-12 and res.converged
        found = _bloch_axis(qubit_basis(*res.argmin[0]).vectors[:, 0])
        want = _bloch_axis(basis[:, 0])
        angle = math.atan2(np.linalg.norm(np.cross(found, want)), abs(found @ want))
        assert angle <= 1e-5


def test_determinism():
    rho = random_density(4, 4, 7, dims=(2, 2))
    first = minimize_pair(rho, "nonlocality", cfg=FAST)
    second = minimize_pair(rho, "nonlocality", cfg=FAST)
    assert first == second
    assert minimize_single(rho, 1, cfg=FAST) == minimize_single(rho, 1, cfg=FAST)


def test_refinement_never_worse_than_grid():
    rng = np.random.default_rng(203)
    for _ in range(5):
        rho = random_density(4, 4, rng, dims=(2, 2))
        res = minimize_single(rho, 0, cfg=FAST)
        assert res.value <= res.grid_best + 1e-12
        pair = minimize_pair(rho, "discord", cfg=FAST)
        assert pair.value <= pair.grid_best + 1e-12
        assert pair.evaluations > 0


def test_argmin_is_canonical_and_usable():
    rng = np.random.default_rng(207)
    rho = random_density(4, 4, rng, dims=(2, 2))
    res = minimize_pair(rho, "nonlocality", cfg=FAST)
    from qreality.observables import qubit_basis

    (ta, pa), (tb, pb) = res.argmin
    for theta, phi in res.argmin:
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi < math.pi or phi == pytest.approx(math.pi, abs=1e-9)
    replay = nonlocality(qubit_basis(ta, pa), qubit_basis(tb, pb), rho)
    assert replay == pytest.approx(res.value, abs=1e-6)


@pytest.mark.parametrize("phi", [-1e-13, -1e-14])
def test_canonical_angles_fold_a_tiny_negative_phi_to_zero(phi):
    # Within 1e-12 of the phi = 0 half-plane the point is not flipped, so
    # atan2 can return a phi just below zero; it is folded to 0.0.
    theta, folded = optimize._canonical_angles(1.0, phi)
    assert folded == 0.0
    assert theta == pytest.approx(1.0, abs=1e-12)


def test_werner_oracle_agreement_coarse():
    # The dense scan is the oracle; the isotropic state's landscape is flat,
    # so even a coarse scan pins the value.
    for f in (0.2, 0.8):
        rho = werner(f)
        fast = minimize_single(rho, 0, cfg=FAST)
        slow, _ = brute_force_single(rho, 0, n_theta=40, n_phi=40)
        assert fast.value == pytest.approx(slow, abs=1e-4)


def test_optimizer_at_least_as_good_as_coarse_scan():
    rng = np.random.default_rng(211)
    for _ in range(3):
        rho = random_density(4, 4, rng, dims=(2, 2))
        res = minimize_single(rho, 0, cfg=FAST)
        scan, _ = brute_force_single(rho, 0, n_theta=30, n_phi=30)
        assert res.value <= scan + 1e-9


# Mixed states of ranks 2-4 on both sides, plus qubit-qutrit states, fixed
# before the scan was run: unlike werner states their landscapes are not
# flat, so the grid best alone loses to the 64 x 64 scan.
_SINGLE_ORACLE_CASES = [
    *[((4, 2 + k % 3, k, (2, 2)), k // 3) for k in range(6)],
    ((6, 4, 6, (2, 3)), 0),
    ((6, 4, 7, (3, 2)), 1),
]


@pytest.mark.parametrize("state, side", _SINGLE_ORACLE_CASES,
                         ids=[f"case{i}" for i in range(len(_SINGLE_ORACLE_CASES))])
def test_minimize_single_is_at_least_as_good_as_the_oracle_scan(state, side):
    dim, rank, seed, dims = state
    rho = random_density(dim, rank, seed, dims=dims)
    scan, _ = brute_force_single(rho, side, 64, 64)
    assert minimize_single(rho, side).value <= scan + 1e-9


def test_single_against_qutrit_partner_stays_at_or_below_its_grid_best():
    rho = random_density(6, 6, 5, dims=(2, 3))
    res = minimize_single(rho, 0, cfg=OptimizerConfig(grid_steps=6, refine_starts=2))
    assert res.value >= -1e-9
    assert res.value <= res.grid_best + 1e-12


def test_witness_pair_for_pure():
    rng = np.random.default_rng(213)
    cases = [singlet(), pure_from_amplitudes([1, 0, 0, 0], (2, 2))]
    cases += [random_density(4, 1, rng, dims=(2, 2)) for _ in range(10)]
    for psi in cases:
        basis_a, basis_b = witness_pair_for_pure(psi)
        assert abs(nonlocality(basis_a, basis_b, psi)) <= 1e-9
    with pytest.raises(ValueError, match="mixed"):
        witness_pair_for_pure(werner(0.5))


def test_pair_minima_do_not_change_under_local_unitaries():
    # N_min and the pair discord are minima over all basis pairs, and a local
    # unitary U_A (x) U_B maps basis pairs onto basis pairs, so both are the
    # same in every frame.  The grid is not: each frame puts the minimum
    # elsewhere between its cells, so this checks grid and refinement
    # together.  The spread measured on these 16 states x 3 frames is at most
    # 2.3e-13; a grid of 8 steps with 3 starts spreads nonlocality by 5e-4.
    for k in range(16):
        seed = 3100 + k
        rho = random_density(4, 1 + k % 4, seed, dims=(2, 2))
        values = []
        for frame in range(3):
            local = tensor_product(random_unitary(2, (seed, frame, 0)),
                                   random_unitary(2, (seed, frame, 1)))
            turned = DensityMatrix(local @ rho.mat @ local.conj().T, (2, 2))
            values.append([minimize_pair(turned, objective).value
                           for objective in ("nonlocality", "discord")])
        spread = np.ptp(values, axis=0)
        assert np.all(spread <= 1e-11), (seed, spread)


def _stable_head(values, k):
    return np.argsort(values.reshape(-1), kind="stable")[:k]


def test_lowest_cells_is_head_of_stable_sort():
    rng = np.random.default_rng(217)
    random_grid = rng.normal(size=(37, 41))
    for k in (1, 2, 5, 40):
        assert np.array_equal(_lowest_cells(random_grid, k), _stable_head(random_grid, k))

    # Exact ties straddling the k-th value, scattered out of index order.
    tied = rng.integers(0, 4, size=(20, 30)).astype(float)
    tied.flat[[599, 3, 250, 17]] = -1.0
    for k in (1, 3, 4, 5, 6, 80, 599):
        assert np.array_equal(_lowest_cells(tied, k), _stable_head(tied, k))

    # k at or above the cell count returns the full stable order.
    for k in (tied.size, tied.size + 7):
        assert np.array_equal(_lowest_cells(tied, k), _stable_head(tied, tied.size))

    side = rng.normal(size=600)
    side[[5, 77, 300]] = side.min() - 1.0
    assert np.array_equal(_lowest_cells(side, 5), _stable_head(side, 5))

    # The bound comes from row minima: one row holds several of the lowest
    # cells.
    clustered = rng.normal(size=(30, 40))
    clustered[7, [3, 9, 20, 21, 38]] = -10.0 - np.arange(5)
    for k in (1, 3, 5, 6, 30):
        assert np.array_equal(_lowest_cells(clustered, k), _stable_head(clustered, k))

    # A NaN cell is a defect, not a value sorted last: it raises for every k,
    # the full order included, as do NaN rows.
    clustered[7, 0] = np.nan
    for k in (1, 3, 5, 6, 30, clustered.size):
        with pytest.raises(FloatingPointError, match="NaN"):
            _lowest_cells(clustered, k)
    clustered[10:, 0] = np.nan
    for k in (5, 10, 11, 25):
        with pytest.raises(FloatingPointError, match="NaN"):
            _lowest_cells(clustered, k)


@pytest.mark.parametrize("rho", [werner(0.5), alpha_state(0.3)], ids=["werner", "alpha"])
def test_lowest_cells_on_tied_bell_diagonal_grids(rho):
    # The Bell-diagonal landscapes have many exactly tied cells.
    axes, _, _ = kernels.axis_grid(24)
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    grid = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, entropy(rho))
    assert np.sum(grid == grid.min()) > 1
    for k in (1, 5, 17):
        assert np.array_equal(_lowest_cells(grid, k), _stable_head(grid, k))


def test_lowest_cells_on_a_constant_grid_copies_no_grid():
    # werner(0)'s pair grids are constant: every cell ties with the bound.
    grid = np.full((553, 553), 0.25)
    tracemalloc.start()
    try:
        got = _lowest_cells(grid, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _stable_head(grid, 5))
    assert peak < 1_000_000



def test_lowest_cells_with_nan_rows_in_a_tied_grid():
    # Every other row holds a NaN cell; some of those rows also hold the
    # lowest cells, and the rest of the grid ties with the bound.  The NaN
    # raises from the row minima, before any row is copied: a block copy of
    # the NaN rows would take about 1.2 MB.
    grid = np.full((553, 553), 0.25)
    grid[[3, 200, 201], [100, 5, 552]] = -1.0
    grid[[40, 41], [9, 9]] = -2.0
    grid[[41, 300], [0, 17]] = 0.0
    grid[1::2, 7] = np.nan
    tracemalloc.start()
    try:
        for k in (1, 2, 3, 5, 6, 8, 40):
            with pytest.raises(FloatingPointError, match="NaN"):
                _lowest_cells(grid, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

    # The same grid with the NaN cells tied at the bound: the lowest cells
    # lie in rows of either parity, and the ties are found row by row.
    grid[1::2, 7] = 0.25
    for k in (1, 2, 3, 5, 6, 8, 40):
        assert np.array_equal(_lowest_cells(grid, k), _stable_head(grid, k))
    tracemalloc.start()
    try:
        got = _lowest_cells(grid, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _stable_head(grid, 8))
    assert peak < 1_000_000


def _separated_head(values, axes, k):
    # The start rule written out: walk the START_POOL * k lowest cells in
    # stable argsort order and accept a cell unless some accepted start's
    # axis is within START_SEPARATION of its axis, up to sign, on every side.
    cos_sep = math.cos(optimize.START_SEPARATION)
    pool = _stable_head(values, optimize.START_POOL * k)
    accepted = []
    for cell in pool:
        sides = np.unravel_index(cell, values.shape)
        if not any(all(abs(axes[i] @ axes[j]) > cos_sep
                       for i, j in zip(sides, np.unravel_index(a, values.shape)))
                   for a in accepted):
            accepted.append(int(cell))
            if len(accepted) == k:
                break
    return accepted


def _pair_grid(rho, axes):
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    return kernels.nonlocality_grid(axes, axes, r1, r2, tmat, entropy(rho))


def test_start_cells_are_separated_and_led_by_the_grid_best():
    axes, _, _ = kernels.axis_grid(24)
    cos_sep = math.cos(optimize.START_SEPARATION)
    for seed, rank in ((50217, 2), (90169, 2), (90266, 3), (9003, 4), (9000, 1)):
        grid = _pair_grid(random_density(4, rank, seed, dims=(2, 2)), axes)
        for k in (1, 2, 5, 9):
            cells = _start_cells(grid, axes, k)
            assert cells.tolist() == _separated_head(grid, axes, k)
            assert 1 <= cells.size <= k
            assert cells[0] == _lowest_cells(grid, 1)[0]
            a, b = np.unravel_index(cells, grid.shape)
            for i in range(cells.size):
                for j in range(i):
                    assert (abs(axes[a[i]] @ axes[a[j]]) <= cos_sep
                            or abs(axes[b[i]] @ axes[b[j]]) <= cos_sep)


def test_start_cells_on_a_constant_grid_copy_no_grid():
    # werner(0)'s pair grids are constant.  With the grid's own axes the
    # pool is the pole row's first 25 cells: side B's axes run from the pole
    # into the third inner row (theta = pi/8, beyond START_SEPARATION from
    # the pole), whose cells 12, 16 and 20 lie apart from each other.  With
    # scattered axes on side B several are accepted, in linear-index order.
    axes, _, _ = kernels.axis_grid(24)
    grid = np.full((len(axes), len(axes)), 0.25)
    rng = np.random.default_rng(233)
    scattered = rng.normal(size=(len(axes), 3))
    scattered /= np.linalg.norm(scattered, axis=1)[:, None]
    for side_axes, k in ((axes, 5), (scattered, 5), (scattered, 40)):
        tracemalloc.start()
        try:
            got = _start_cells(grid, side_axes, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert got.tolist() == _separated_head(grid, side_axes, k)
        assert got[0] == 0 and np.all(np.diff(got) > 0)
    assert _start_cells(grid, axes, 5).tolist() == [0, 12, 16, 20]
    assert _start_cells(grid, scattered, 5).size == 5


def test_start_cells_for_many_starts_hold_no_pool_by_pool_matrix():
    # 2,000 starts make a pool of 10,000 cells; a matrix over pairs of pool
    # cells would take 100 MB.  The walk holds at most one copy of the grid,
    # which _lowest_cells partitions when the pool outnumbers the rows.
    axes, _, _ = kernels.axis_grid(24)
    grid = np.random.default_rng(241).random((len(axes), len(axes)))
    k = 2000
    tracemalloc.start()
    try:
        cells = _start_cells(grid, axes, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes + 1_000_000
    # The pool holds fewer basins than k, so the walk ran through it: every
    # pool cell is accepted, in pool order, or lies near an earlier start.
    pool = _stable_head(grid, optimize.START_POOL * k).tolist()
    assert 1 < cells.size < k
    where = {cell: i for i, cell in enumerate(pool)}
    position = [where[c] for c in cells.tolist()]
    assert position == sorted(position) and position[0] == 0
    cos_sep = math.cos(optimize.START_SEPARATION)
    near = np.ones((len(pool), cells.size), dtype=bool)
    for pool_side, cell_side in zip(np.unravel_index(pool, grid.shape),
                                    np.unravel_index(cells, grid.shape)):
        near &= np.abs(axes[pool_side] @ axes[cell_side].T) > cos_sep
    first_near = np.where(near.any(axis=1), near.argmax(axis=1), cells.size)
    accepted = np.zeros(len(pool), dtype=bool)
    accepted[position] = True
    assert np.array_equal(first_near[accepted], np.arange(cells.size))
    assert np.all(np.array(position)[first_near[~accepted]] < np.flatnonzero(~accepted))


def test_start_cells_take_basins_in_value_order_and_raise_on_nan():
    # Four well separated axes: every cell is its own basin, taken in order
    # of value.  A NaN cell is a defect and raises, for any number of starts.
    axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [0.6, 0.0, 0.8]])
    values = np.array([0.7, 0.5, 0.9, 0.1])
    assert _start_cells(values, axes, 4).tolist() == [3, 1, 0, 2]
    assert _start_cells(values, axes, 2).tolist() == [3, 1]
    values[[0, 2]] = NAN
    for k in (1, 2, 4):
        with pytest.raises(FloatingPointError, match="NaN"):
            _start_cells(values, axes, k)
    # Six axes near +z (one as -z: the same basis) and four near +x: two
    # basins, so two starts however many are asked for.
    tilt = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    near_z = np.stack([np.sin(tilt), np.zeros(6), np.cos(tilt)], axis=1)
    near_z[2] *= -1.0
    near_x = np.stack([np.cos(tilt[:4]), np.sin(tilt[:4]), np.zeros(4)], axis=1)
    axes = np.concatenate([near_z, near_x])
    values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.5, 1.5, 2.5, 3.5])
    for k in (2, 3, 5):
        assert _start_cells(values, axes, k).tolist() == [0, 6]
    assert _start_cells(values, axes, 1).tolist() == [0]


def test_minimize_single_refines_separated_starts(monkeypatch):
    # One optimized side: a cell is skipped when its one axis is near an
    # accepted start's.  The starts handed to the refinement are those cells,
    # each with its cell's grid value as its floor.
    rho = random_density(4, 3, 90266, dims=(2, 2))
    axes, thetas, phis = kernels.axis_grid(24)
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    grid = kernels.single_discord_grid(axes, r1, r2, tmat, optimize.mutual_information(rho),
                                       entropy(partial_trace(rho, 1)))
    cells = _start_cells(grid, axes, 5)
    assert cells.tolist() == _separated_head(grid, axes, 5)
    seen = []
    refine = optimize._refine

    def recorded(fun, starts, floors, cfg):
        seen.append((np.array(starts), floors))
        return refine(fun, starts, floors, cfg)

    monkeypatch.setattr(optimize, "_refine", recorded)
    result = minimize_single(rho, 0)
    assert np.array_equal(seen[0][0], np.stack([thetas[cells], phis[cells]], axis=1))
    assert seen[0][1] == grid[cells].tolist()
    assert result.value <= result.grid_best


def test_one_start_is_the_lowest_cell(monkeypatch):
    # refine_starts=1 refines the grid best alone, as when the starts were
    # the lowest cells: the same results bit for bit.
    cfg = OptimizerConfig(refine_starts=1)
    rng = np.random.default_rng(239)
    states = [random_density(4, 1 + k % 4, rng, dims=(2, 2)) for k in range(4)]
    states += [werner(0.0), werner(0.6), alpha_state(0.4)]
    separated = [(_result_hex(minimize_pair(rho, obj, cfg)),
                  _result_hex(minimize_single(rho, 1, cfg)))
                 for rho in states for obj in ("nonlocality", "discord")]
    monkeypatch.setattr(optimize, "_start_cells", lambda values, axes, k: _lowest_cells(values, k))
    lowest = [(_result_hex(minimize_pair(rho, obj, cfg)),
               _result_hex(minimize_single(rho, 1, cfg)))
              for rho in states for obj in ("nonlocality", "discord")]
    assert separated == lowest


NAN = math.nan


@pytest.mark.parametrize("values, distinct", [
    ([0.3, -1.2, 5.0, 0.1, 2.2], True),
    ([4.0, 3.0, 2.0, 1.0, 0.0], True),
    ([-math.inf, 1e300, -1e-300, 1e-300, math.inf], True),
    ([1.0, 1.0, 0.0, 2.0, 1.0], False),
    ([0.5, 0.5, 0.5, 0.5, 0.5], False),
    ([0.0, -0.0, 1.0, -1.0, 0.0], False),
    ([-0.0, 0.0, -0.0], False),
    ([NAN, 1.0, 0.0, NAN, -1.0], False),
    ([2.0, NAN, 1.0], False),
    ([NAN], True),  # one value is trivially in order
])
def test_lowest_cells_and_refine_take_the_first_lowest(values, distinct):
    # The lowest cells are in stable argsort order (signed zeros tie), for
    # every number of starts; a grid holding NaN raises instead.
    grid = np.array(values)
    want = _stable_head(grid, grid.size).tolist()
    has_nan = bool(np.isnan(grid).any())
    for k in range(1, grid.size + 1):
        if has_nan:
            with pytest.raises(FloatingPointError, match="NaN"):
                _lowest_cells(grid, k)
        else:
            assert _lowest_cells(grid, k).tolist() == want[:k]
    in_order = [values[k] for k in want]
    assert all(a < b for a, b in zip(in_order, in_order[1:])) is distinct
    if distinct and not has_nan:
        # Without ties the order cannot depend on the index tie-break.
        assert [grid.size - 1 - k for k in _lowest_cells(grid[::-1], grid.size)] == want

    # Each start, floored at its own value, stops at once on it: the first
    # of the lowest values wins, and a NaN never does.
    def fun(x):
        return values[int(x[0])], [0.0]

    x, value, nfev, success = _refine(fun, [(float(k),) for k in range(grid.size)], values,
                                      OptimizerConfig())
    assert nfev == grid.size and success is (x is not None)
    if values[want[0]] == values[want[0]]:
        assert int(x[0]) == want[0] and value.hex() == values[want[0]].hex()
    else:  # only NaN: no start wins; start selection raises before on such a grid
        assert x is None and value == math.inf


def test_lowest_cells_is_the_stable_argsort_head_on_random_values():
    rng = np.random.default_rng(229)
    for size in (3, 5):
        for _ in range(200):
            values = rng.choice([-0.0, 0.0, 1.0, -1.0, NAN, 0.5], size)
            if rng.random() < 0.5:
                values = rng.normal(size=size)
            for k in range(1, size + 1):
                if np.isnan(values).any():
                    with pytest.raises(FloatingPointError, match="NaN"):
                        _lowest_cells(values, k)
                else:
                    assert np.array_equal(_lowest_cells(values, k), _stable_head(values, k))


def test_converged_reports_the_winning_start(monkeypatch):
    # The first start sits on a plateau, where the gradient is zero, and
    # converges at once; the second lies on a steep slope, finds the lower
    # values and runs out of iterations.
    monkeypatch.setattr(optimize, "MAX_REFINE_ITERATIONS", 2)
    cfg = OptimizerConfig()

    def fun(x):
        if x[0] < 1.0:
            return 0.0, [0.0, 0.0]
        return -1000.0 * x[0], [-1000.0, 0.0]

    x, value, nfev, converged = _refine(fun, [(0.0, 0.0), (2.0, 0.0)], [0.0, -2000.0], cfg)
    assert value < -2000.0 and x[0] > 2.0
    assert nfev == 1 + 3
    assert converged is False
    assert _refine(fun, [(0.0, 0.0)], [0.0], cfg)[3] is True
    assert _refine(fun, [(2.0, 0.0), (0.0, 0.0)], [-2000.0, 0.0], cfg)[3] is False


def test_refine_stops_when_no_step_decreases_the_value(monkeypatch):
    # A gradient that points the wrong way: every trial step goes uphill,
    # the line search halves the step until it gives up, and the start
    # keeps its value without claiming convergence.
    def fun(x):
        return x[0], [-1.0, 0.0]

    x, value, nfev, converged = _refine(fun, [(0.5, 0.5)], [0.5], OptimizerConfig())
    assert list(x) == [0.5, 0.5] and value == 0.5
    assert nfev == 1 + optimize.LINE_SEARCH_HALVINGS
    assert converged is False

    # A plateau whose gradient, like rounding noise, is above the tolerance
    # but too small to change the value: steps of equal value are no
    # decrease, so the start ends at once instead of walking for every
    # iteration.
    def plateau(x):
        return 1.0, [1e-12, -1e-12]

    monkeypatch.setattr(optimize, "REFINE_TOLERANCE", 1e-13)
    x, value, nfev, converged = _refine(plateau, [(0.5, 0.5)], [1.0], OptimizerConfig())
    assert list(x) == [0.5, 0.5] and value == 1.0
    assert nfev == 1 + optimize.LINE_SEARCH_HALVINGS
    assert converged is False


def test_refine_converges_on_a_quadratic():
    # An ill-scaled quadratic bowl: BFGS reaches the tolerance test within a
    # few dozen evaluations.
    def fun(x):
        a, b = x[0] - 0.3, x[1] + 0.2
        return 50.0 * a * a + 0.5 * b * b, [100.0 * a, b]

    x, value, nfev, converged = _refine(fun, [(1.0, 1.0)], [fun((1.0, 1.0))[0]], OptimizerConfig())
    assert converged is True
    assert abs(x[0] - 0.3) <= 1e-8 and abs(x[1] + 0.2) <= 1e-6
    assert value <= 1e-13
    assert nfev <= 40


def test_converged_is_false_when_the_grid_best_wins(monkeypatch):
    # An objective above every grid cell wherever the refinement looks, with
    # a gradient that is not zero: each start keeps its floor, its cell's
    # grid value, after a failed line search.  The grid best's start wins,
    # and it has not converged.
    for name in ("nonlocality_value", "single_discord_value"):
        def uphill(*args, value_of=getattr(kernels, name)):
            return math.inf, tuple(1.0 for _ in value_of(*args)[1])

        monkeypatch.setattr(kernels, name, uphill)
    rho = random_density(4, 3, 11, dims=(2, 2))
    for res in (minimize_pair(rho, "nonlocality", cfg=FAST), minimize_single(rho, 0, cfg=FAST)):
        assert res.value == res.grid_best
        assert res.converged is False


def _recorded_bfgs(monkeypatch):
    # The list gets (nfev, converged) of every start refined from here on.
    runs = []
    bfgs = optimize._bfgs

    def recorded(fun, x, floor, cfg):
        out = bfgs(fun, x, floor, cfg)
        runs.append(out[2:])
        return out

    monkeypatch.setattr(optimize, "_bfgs", recorded)
    return runs


def test_kept_grid_best_has_converged_when_its_start_stops_at_once(monkeypatch):
    # A rank-1 state's one-sided drop is the same at every axis: each start
    # passes the gradient test at once, and its re-evaluated value lands a
    # rounding above the grid cell's, so the start keeps its floor, the
    # cell's value, and the grid best is kept.  Its own start converged
    # there, so the result has too.
    rho = random_density(4, 1, 9000, dims=(2, 2))
    runs = _recorded_bfgs(monkeypatch)
    res = minimize_single(rho, 0)
    assert res.value == res.grid_best
    assert runs and all(run == (1, True) for run in runs)
    assert res.converged is True
    # A tolerance below the gradient's rounding noise: no start passes the
    # test, each ends on a failed line search, and the kept grid best has
    # not converged.
    runs.clear()
    monkeypatch.setattr(optimize, "REFINE_TOLERANCE", 1e-300)
    res = minimize_single(rho, 0)
    assert res.value == res.grid_best
    assert runs and all(run[1] is False for run in runs)
    assert res.converged is False


def test_flat_landscape_keeps_the_grid_best_cell():
    # A rank-1 state's one-sided drop is the same in every basis, so every
    # start's cell holds the grid best up to rounding and no start moves.
    # Each keeps its floor, so ties between starts go by start order and the
    # first start, the grid best's cell, wins with the grid best itself.
    rho = random_density(4, 1, 20000, dims=(2, 2))
    axes, thetas, phis = kernels.axis_grid(OptimizerConfig().grid_steps)
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    grid = kernels.single_discord_grid(axes, r2, r1, np.ascontiguousarray(tmat.T),
                                       optimize.mutual_information(rho),
                                       entropy(partial_trace(rho, 0)))
    cell = int(_lowest_cells(grid, 1)[0])
    res = minimize_single(rho, 1)
    assert res.argmin == (optimize._canonical_angles(thetas[cell], phis[cell]),)
    assert res.grid_best.hex() == float(grid[cell]).hex()
    assert res.value.hex() == res.grid_best.hex()
    assert res.converged is True


def test_kept_grid_best_has_not_converged_when_its_start_hit_the_iteration_cap(monkeypatch):
    # Three axes, one basin each.  Every start faces a slope that stays
    # above its floor, the grid value of its cell, so no trial step is lower
    # and each ends on a failed line search: the grid best is kept without a
    # converged start.  A start that reaches MAX_REFINE_ITERATIONS has moved
    # below its floor, so the grid best's start never keeps the grid best
    # that way.  On a plateau each start stops at once, converged, and so
    # does the kept grid best.
    monkeypatch.setattr(optimize, "MAX_REFINE_ITERATIONS", 3)
    axes = np.eye(3)[[2, 0, 1]]
    thetas = np.array([0.0, math.pi / 2, math.pi / 2])
    phis = np.array([0.0, 0.0, math.pi / 2])
    grid = np.array([0.0, 1.0, 2.0])
    cfg = OptimizerConfig()

    def slope(x):
        return 1.0 + math.exp(x[0]), [math.exp(x[0]), 0.0]

    def plateau(x):
        return 1.0, [0.0, 0.0]

    runs = _recorded_bfgs(monkeypatch)
    res = optimize._search(grid, axes, thetas, phis, slope, cfg)
    assert res.value == 0.0 and res.argmin == ((0.0, 0.0),)
    assert runs == [(1 + optimize.LINE_SEARCH_HALVINGS, False)] * 3
    assert res.converged is False
    runs.clear()
    res = optimize._search(grid, axes, thetas, phis, plateau, cfg)
    assert res.value == 0.0 and runs == [(1, True)] * 3
    assert res.converged is True

    # The first start at the pole on one of two landscapes, the others on
    # the equator on the other.  The second start on the line begins at 0.5,
    # below its floor of 1, moves and stops at MAX_REFINE_ITERATIONS at about
    # 0.3, above the grid best; on the line the grid best's start and the
    # third start (2.07 against its floor of 2) never get below their
    # floors and end on a failed line search.  A start on the plateau stops
    # at once.  Whichever way round, the kept grid best has converged exactly
    # when its start, the winner, did: not when any start did.
    def line(x):
        return 0.5 + x[1], [0.0, 1.0]

    moved, stuck, stopped = (4, False), (1 + optimize.LINE_SEARCH_HALVINGS, False), (1, True)
    for first, others, want in ((line, plateau, [stuck, stopped, stopped]),
                                (plateau, line, [stopped, moved, stuck])):
        runs.clear()
        res = optimize._search(grid, axes, thetas, phis,
                               lambda x: (first if x[0] < math.pi / 4 else others)(x), cfg)
        assert runs == want
        assert res.value == 0.0 and res.argmin == ((0.0, 0.0),)
        assert res.converged is want[0][1]


def test_brute_force_makes_one_basis_and_one_dephase_per_point(monkeypatch):
    # Each dephased state is diagonalized once, by _spectrum when it is
    # validated, and the two marginals of rho once each when the engine is
    # set up; np.linalg.eigvalsh is never called.  The dephased marginals
    # take no spectrum at all, whatever the chunk size: their spectra are
    # the outcome probabilities.
    from qreality import linalg

    calls = {"qubit_basis": 0, "dephase": 0, "_spectrum": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "qubit_basis", counted("qubit_basis", oracle.qubit_basis))
    # oracle binds dephase at import, so the count is of oracle's binding.
    monkeypatch.setattr(oracle, "dephase", counted("dephase", oracle.dephase))
    monkeypatch.setattr(linalg, "_spectrum", counted("_spectrum", linalg._spectrum))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    rho = random_density(4, 3, 41, dims=(2, 2))
    chunk = oracle.SCAN_CHUNK_ENTRIES // rho.dim**2
    for points_per_chunk in (chunk, 6):
        monkeypatch.setattr(oracle, "SCAN_CHUNK_ENTRIES", points_per_chunk * rho.dim**2)
        for subsystem in (0, 1):
            calls.update(qubit_basis=0, dephase=0, _spectrum=0, eigvalsh=0)
            brute_force_single(rho, subsystem, n_theta=4, n_phi=5)
            assert calls == {"qubit_basis": 20, "dephase": 20, "_spectrum": 22,
                             "eigvalsh": 0}


def _per_point_scan(rho, subsystem, n_theta, n_phi):
    # The scan written out one point at a time: a validated marginal and its
    # entropy per point, and the first strictly lowest drop wins.
    from qreality.measures import dephase
    from qreality.observables import qubit_basis

    s1 = entropy(partial_trace(rho, 0))
    s2 = entropy(partial_trace(rho, 1))
    mi = s1 + s2 - entropy(rho)
    best = math.inf
    best_angles = (0.0, 0.0)
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, math.pi, n_phi, endpoint=False):
            dephased = dephase(rho, qubit_basis(theta, phi), subsystem)
            s_local = entropy(partial_trace(dephased, subsystem))
            s_other = s2 if subsystem == 0 else s1
            drop = mi - (s_local + s_other - entropy(dephased))
            if drop < best:
                best = drop
                best_angles = (float(theta), float(phi))
    return best, best_angles


def test_batched_scan_matches_the_per_point_scan(monkeypatch):
    # 7 x 5 points in chunks of 3 points: chunk boundaries fall inside rows
    # of the scan.
    cases = [(random_density(4, rank, 700 + 10 * rank + sub, dims=(2, 2)), sub)
             for rank in (2, 3, 4) for sub in (0, 1)]
    cases += [(random_density(6, 3, 717, dims=(2, 3)), 0),
              (random_density(6, 4, 718, dims=(3, 2)), 1)]
    for rho, sub in cases:
        monkeypatch.setattr(oracle, "SCAN_CHUNK_ENTRIES", 3 * rho.dim**2 + 1)
        value, argmin = brute_force_single(rho, sub, 7, 5)
        ref_value, ref_argmin = _per_point_scan(rho, sub, 7, 5)
        assert argmin == ref_argmin
        assert abs(value - ref_value) <= 1e-12
    # werner(0.5) is flat in the axis: only the value is comparable.
    monkeypatch.setattr(oracle, "SCAN_CHUNK_ENTRIES", 3 * 16)
    for sub in (0, 1):
        value, _ = brute_force_single(werner(0.5), sub, 7, 5)
        assert abs(value - _per_point_scan(werner(0.5), sub, 7, 5)[0]) <= 1e-12


def test_batched_scan_keeps_the_first_lowest_point_and_never_a_nan(monkeypatch):
    # The maximally mixed state has I(rho) = 0 and S(rho_B) = ln 2, so with
    # S(dephased) read as 0 a marginal entropy -(x + ln 2) scores the drop x.
    # Drops in scan order: 3, 4, 1 | 1, 4, 0.5 | 0.5, 4 in chunks of 3
    # points.  Point 5, the first 0.5, wins over the tie in the next chunk.
    # A NaN drop is a defect: the scan raises at the chunk holding it.
    drops = iter([[3.0, 4.0, 1.0], [1.0, 4.0, 0.5], [0.5, 4.0],
                  [3.0, 4.0, 1.0], [1.0, math.nan, 0.5],
                  [math.nan, math.nan]])

    def spectral_entropies(spectra):
        if spectra.shape[1] == 4:  # the dephased states
            return np.zeros(len(spectra))
        return -np.array(next(drops)) - math.log(2.0)

    monkeypatch.setattr(oracle, "SCAN_CHUNK_ENTRIES", 3 * 16)
    monkeypatch.setattr(oracle, "_spectral_entropies", spectral_entropies)
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    value, argmin = brute_force_single(rho, 0, 2, 4)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert argmin == (math.pi, math.pi / 4)
    with pytest.raises(FloatingPointError, match="NaN drop at scan point 4"):
        brute_force_single(rho, 0, 2, 4)
    with pytest.raises(FloatingPointError, match="NaN drop at scan point 0"):
        brute_force_single(rho, 0, 1, 2)


def test_scan_memory_stays_within_one_chunk():
    # A 1 x 5,000 scan of two qubits holds one chunk of 1,024 points, their
    # angles, bases and spectra, within 3 x 256 kB, three chunks' worth of
    # dephased states.  The whole scan's dephased states alone would be
    # 1.28 MB.
    rho = random_density(4, 3, 43, dims=(2, 2))
    chunk_bytes = oracle.SCAN_CHUNK_ENTRIES * 16
    whole_bytes = 5000 * rho.dim**2 * 16
    brute_force_single(rho, 0, 1, 8)
    tracemalloc.start()
    try:
        brute_force_single(rho, 0, 1, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * chunk_bytes < whole_bytes


def test_brute_force_rejects_an_empty_scan():
    rho = werner(0.5)
    for n_theta, n_phi, name in ((0, 0, "n_theta"), (0, 10, "n_theta"),
                                 (10, 0, "n_phi"), (10, -3, "n_phi")):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            brute_force_single(rho, 0, n_theta, n_phi)
    # A count is an integer: True used to scan one theta, and 2.5 raised
    # TypeError from linspace.  numpy integers are counts.
    for n_theta, n_phi, name in ((True, 3, "n_theta"), (2.5, 3, "n_theta"),
                                 (3.0, 3, "n_theta"), (3, False, "n_phi"),
                                 (3, np.True_, "n_phi"), (3, "3", "n_phi")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            brute_force_single(rho, 0, n_theta, n_phi)
    assert brute_force_single(rho, 0, np.int64(3), np.int32(4)) == brute_force_single(rho, 0, 3, 4)
    value, _ = brute_force_single(rho, 0, 1, 1)  # the single point theta = phi = 0
    assert value == pytest.approx(brute_force_single(rho, 0, 2, 1)[0])


def test_brute_force_checks_the_subsystem_before_any_work(monkeypatch):
    from qreality import measures

    def no_dephase(*args):
        raise AssertionError("dephase called")

    # brute_force_single calls oracle's binding of dephase; measures' own
    # guards any other route.
    monkeypatch.setattr(measures, "dephase", no_dephase)
    monkeypatch.setattr(oracle, "dephase", no_dephase)
    qutrit_partner = random_density(6, 3, 45, dims=(2, 3))
    cases = [(werner(0.5), 2, "subsystem must be 0 or 1, got 2"),
             (werner(0.5), -1, "subsystem must be 0 or 1, got -1"),
             (qutrit_partner, 1, "the optimized subsystem must be a qubit")]
    for rho, subsystem, message in cases:
        with pytest.raises(ValueError, match=message):
            brute_force_single(rho, subsystem, 4, 5)
        with pytest.raises(ValueError, match=message):
            minimize_single(rho, subsystem, FAST)


def _drop_cases():
    # (state, scanned side): both sides of two qubits, and a qubit against a
    # qutrit on either side; rank 1 hits mutual_information's clamp at 0.
    cases = []
    for rank in (1, 2, 3, 4):
        for dims, side in (((2, 2), 0), ((2, 2), 1), ((2, 3), 0), ((3, 2), 1)):
            d = math.prod(dims)
            cases.append((random_density(d, rank, 1300 + 10 * rank + d + side, dims=dims), side))
    return cases


def test_scan_drops_are_the_public_discord_like_drop(monkeypatch):
    from qreality.measures import discord_like
    from qreality.observables import qubit_basis

    rng = np.random.default_rng(46)
    angles = [(0.0, 0.0), (math.pi, 0.0), (0.0, 1.1), (math.pi, 2.3)]
    angles += [tuple(x) for x in rng.uniform([0.0, 0.0], [math.pi, 2 * math.pi], (8, 2))]
    # Chunks of 5 points: the 12 angles make two full chunks and a short one.
    for rho, side in _drop_cases():
        monkeypatch.setattr(oracle, "SCAN_CHUNK_ENTRIES", 5 * rho.dim**2)
        chunks = list(oracle._drop_scan(rho, side, iter(angles)))
        assert [len(c) for c in chunks] == [5, 5, 2]
        drops = np.concatenate(chunks)
        for (theta, phi), drop in zip(angles, drops):
            ref = discord_like(rho, [(qubit_basis(theta, phi), side)])
            assert abs(drop - ref) <= 1e-12, (rho.dims, side, theta, phi)


def _package_imports(module) -> set[str]:
    # The package modules a module's source imports, at module level or
    # inside a function; it may import qreality only relatively.
    import ast

    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            # from .module import name, or from . import module
            imported.update([node.module] if node.module else
                            [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert not any(name.split(".")[0] == "qreality" for name in names)
    return imported


def test_oracle_imports_neither_the_kernels_nor_the_minimizers():
    # The scans are an independent check only while they share no code with
    # what they check: oracle.py imports from the package only linalg,
    # observables and measures.
    assert _package_imports(oracle) == {"linalg", "observables", "measures"}


def test_kernels_and_measures_import_no_state_constructors():
    # The kernels and the measures sit below the state constructors and spec
    # parsing of states.py: the Pauli matrices they read live in linalg.
    from qreality import linalg, measures

    assert _package_imports(kernels) == {"linalg"}
    assert _package_imports(measures) == {"linalg", "observables"}
    # Both routes read the one "0 ln 0" cut-off, defined in linalg.
    for module in (kernels, measures, oracle):
        assert module.ZERO_WEIGHT is linalg.ZERO_WEIGHT


def test_qubit_qudit_minimize_single_makes_one_kernel_call_per_evaluation(monkeypatch):
    # One partner-kernel grid over the side's axes, then one value-and-gradient
    # call per refinement evaluation; the matrix route is not touched.
    from qreality import measures

    def no_dephase(*args):
        raise AssertionError("minimize_single called dephase")

    monkeypatch.setattr(measures, "dephase", no_dephase)
    calls = {"grid": [], "value": 0}
    grid_of, value_of = kernels.qudit_drop_grid, kernels.qudit_drop_value

    def grid(axes, *args):
        calls["grid"].append(axes.shape[0])
        return grid_of(axes, *args)

    def value(*args):
        calls["value"] += 1
        return value_of(*args)

    monkeypatch.setattr(kernels, "qudit_drop_grid", grid)
    monkeypatch.setattr(kernels, "qudit_drop_value", value)
    nfev = []
    refine = optimize._refine

    def recorded(*args):
        out = refine(*args)
        nfev.append(out[2])
        return out

    monkeypatch.setattr(optimize, "_refine", recorded)
    for dims, side in (((2, 3), 0), ((3, 2), 1)):
        calls.update(grid=[], value=0)
        nfev.clear()
        res = minimize_single(random_density(6, 3, 47 + side, dims=dims), side)
        assert calls["grid"] == [379]
        assert calls["value"] == nfev[0] > 0
        assert res.evaluations == 379 + nfev[0]


def test_qubit_qudit_engines_take_the_state_data_once_per_call(monkeypatch):
    # minimize_single traces out the unscanned marginal once and takes the
    # partner data once, however many evaluations its refinement takes; the
    # matrix-route engine traces out each marginal once when it is set up.
    calls = []
    traced = optimize.partial_trace
    data = []
    partner_data = kernels.qudit_partner_data

    def counted(*args):
        calls.append(args[1])
        return traced(*args)

    def counted_data(*args):
        data.append(args[1:])
        return partner_data(*args)

    monkeypatch.setattr(optimize, "partial_trace", counted)
    monkeypatch.setattr(oracle, "partial_trace", counted)
    monkeypatch.setattr(kernels, "qudit_partner_data", counted_data)
    for dims, side in (((2, 3), 0), ((3, 2), 1)):
        rho = random_density(6, 3, 48 + side, dims=dims)
        calls.clear()
        data.clear()
        res = minimize_single(rho, side)
        assert calls == [1 - side] and data == [(3, side)]
        assert res.evaluations > 379 + 10
        calls.clear()
        brute_force_single(rho, side, 4, 5)
        assert sorted(calls) == [0, 1] and len(data) == 1


def test_minimizers_compute_only_the_state_data_their_objective_reads(monkeypatch):
    # S(rho) for nonlocality, I(rho) for the pair discord, and I(rho) plus the
    # unoptimized marginal's entropy for the one-sided drop: each once, and
    # no partial trace beyond the one that marginal needs.
    calls = {"entropy": 0, "mutual_information": 0, "partial_trace": 0}

    def counted(name):
        fn = getattr(optimize, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(optimize, name, counted(name))
    rho = random_density(4, 3, 47, dims=(2, 2))
    for run, want in (
        (lambda: minimize_pair(rho, "nonlocality", FAST),
         {"entropy": 1, "mutual_information": 0, "partial_trace": 0}),
        (lambda: minimize_pair(rho, "discord", FAST),
         {"entropy": 0, "mutual_information": 1, "partial_trace": 0}),
        (lambda: minimize_single(rho, 0, cfg=FAST),
         {"entropy": 1, "mutual_information": 1, "partial_trace": 1}),
        (lambda: minimize_single(rho, 1, cfg=FAST),
         {"entropy": 1, "mutual_information": 1, "partial_trace": 1}),
    ):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls == want


def _result_hex(res):
    return (res.value.hex(), [(t.hex(), p.hex()) for t, p in res.argmin],
            res.grid_best.hex(), res.evaluations, res.converged)


def _in_new_thread(fn):
    # fn() in a thread with no joint-pass history; its exception re-raised.
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def _fresh_results(calls):
    # Each (state, objective, cfg) minimized with no kept pass to read: one
    # call per state in a row keeps none.
    def run():
        got = [_result_hex(minimize_pair(*call)) for call in calls]
        assert not hasattr(kernels._KEPT, "values")
        return got

    return _in_new_thread(run)


def test_shared_joint_entropy_leaves_minimize_pair_bitwise_unchanged():
    # 171 axes per side: three joint blocks, the last one partial.  Both
    # objectives on each state in turn, in either order: from the second
    # state on, the second call reads the pass the first one kept.
    cfg = OptimizerConfig(grid_steps=16)
    rng = np.random.default_rng(163)
    states = [random_density(4, 1 + k % 4, rng, dims=(2, 2)) for k in range(8)]
    states += [werner(0.0), werner(0.6), werner(1.0), alpha_state(0.0), alpha_state(0.4)]
    objectives = ("nonlocality", "discord")
    keys = [(k, obj) for obj in objectives for k in range(len(states))]
    want = dict(zip(keys, _fresh_results([(states[k], obj, cfg) for k, obj in keys])))
    for order in (objectives, objectives[::-1]):
        got = _in_new_thread(lambda: {(k, obj): _result_hex(minimize_pair(rho, obj, cfg))
                                      for k, rho in enumerate(states) for obj in order})
        assert got == want


def test_shared_minimize_pair_recomputes_for_another_state():
    # A kept pass of werner(0.5) on the FAST grid serves neither another
    # state nor another grid: each call below is its result in a new thread.
    finer = OptimizerConfig(grid_steps=9, refine_starts=3)
    cases = [(alpha_state(0.5), "discord", FAST), (werner(0.5), "discord", finer)]

    def run():
        # The third call on one state keeps its pass.
        for obj in ("nonlocality", "discord", "nonlocality"):
            minimize_pair(werner(0.5), obj, FAST)
        assert kernels._KEPT.kept
        got = []
        for case in cases:
            kept = kernels._KEPT.inputs
            got.append(_result_hex(minimize_pair(*case)))
            assert kernels._KEPT.inputs is not kept
        return got

    assert _in_new_thread(run) == _fresh_results(cases)


def test_sweep_and_bounds_run_one_joint_pass_per_state(monkeypatch):
    # In a new thread the first state runs two passes, one per objective;
    # after that each state's first call keeps its pass and the second
    # reads it.
    from qreality.sweep import SweepSpec, sweep_rows
    from qreality.verify import run_suite

    runs = []
    blocks = kernels._joint_entropy_blocks

    def counted(*args):
        runs.append(1)
        return blocks(*args)

    monkeypatch.setattr(kernels, "_joint_entropy_blocks", counted)

    def passes(run):
        runs.clear()
        run()
        return len(runs)

    def sweeps():
        return [passes(lambda: sweep_rows(SweepSpec(family, points=3, optimizer=FAST)))
                for family in ("alpha", "werner")]

    assert _in_new_thread(sweeps) == [4, 3]
    assert _in_new_thread(lambda: passes(lambda: run_suite("bounds", 5, 3, FAST))) == 4
    assert _in_new_thread(lambda: [passes(lambda: run_suite("bounds", 5, 2, FAST)),
                                   passes(lambda: run_suite("bounds", 6, 2, FAST))]) == [3, 2]


def test_sweep_and_bounds_keep_one_joint_buffer_per_thread():
    from qreality.sweep import SweepSpec, sweep_rows
    from qreality.verify import run_suite

    sweep_rows(SweepSpec("werner", points=2, optimizer=FAST))
    buffer = kernels._KEPT.values
    assert buffer is not None
    sweep_rows(SweepSpec("alpha", points=2, optimizer=FAST))
    assert run_suite("bounds", 5, 1, FAST).ok
    assert kernels._KEPT.values is buffer
    assert _in_new_thread(lambda: vars(kernels._KEPT)) == {}


def test_once_per_state_calls_keep_no_pass():
    # A caller that asks once per state, as one minimize_pair per state
    # does, keeps no pass and allocates no buffer: it would write a
    # full-size grid that nobody reads.
    axes, _, _ = kernels.axis_grid(8)
    states = [random_density(4, 1 + k % 4, 181 + k, dims=(2, 2)) for k in range(6)]

    def once_per_state():
        for k, rho in enumerate(states):
            minimize_pair(rho, ("nonlocality", "discord")[k % 2], FAST)
        for rho in states:
            r1, r2, tmat = kernels.bloch_correlations(rho.mat)
            kernels.pair_discord_grid(axes, axes, r1, r2, tmat, 0.0)
        return dict(vars(kernels._KEPT))

    kept = _in_new_thread(once_per_state)
    assert "values" not in kept and not kept["kept"] and not kept["repeated"]


def test_single_calls_between_sweep_states_leave_every_result_unchanged():
    # Sweep-like pairs of calls with single calls on other states between
    # them: every mix of kept, read and fresh passes gives each call's
    # result in a new thread.
    rng = np.random.default_rng(191)
    calls = []
    for k in range(6):
        rho = random_density(4, 1 + k % 4, rng, dims=(2, 2))
        calls += [(rho, "nonlocality", FAST), (rho, "discord", FAST)]
        calls += [(random_density(4, 2, rng, dims=(2, 2)), ("discord", "nonlocality")[j % 2], FAST)
                  for j in range(k % 3)]
    got = _in_new_thread(lambda: [_result_hex(minimize_pair(*call)) for call in calls])
    assert got == [_in_new_thread(lambda call=call: _result_hex(minimize_pair(*call)))
                   for call in calls]


def test_sweeps_in_threads_keep_their_joint_passes_apart():
    # More threads than cores, switching often: a kept joint-entropy pass
    # shared across threads would silently serve another thread's state's
    # S(Phi_A Phi_B rho), and the rows would differ from the serial ones.
    from qreality.sweep import SweepSpec, sweep_rows

    specs = [SweepSpec(family, points=3, optimizer=FAST)
             for family in ("werner", "alpha", "werner", "alpha")]
    want = [sweep_rows(spec) for spec in specs]
    got = [None] * len(specs)

    def run(k):
        got[k] = sweep_rows(specs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_minimize_pair_rejects_grids_over_the_budget(monkeypatch):
    # The one grid bound is OptimizerConfig's: a setting over it is refused
    # when it is made, before any grid work, and the largest it accepts runs.
    def no_work(*args):
        raise AssertionError("the grid bound must be checked before any grid work")

    monkeypatch.setattr(kernels, "bloch_correlations", no_work)
    monkeypatch.setattr(kernels, "axis_grid", no_work)
    with pytest.raises(ValueError, match=r"grid_steps must be at most 53, got 54"):
        minimize_pair(werner(0.5), "nonlocality", OptimizerConfig(grid_steps=54, refine_starts=2))
    monkeypatch.undo()
    cfg = OptimizerConfig(grid_steps=53, refine_starts=2)
    assert minimize_pair(werner(0.5), "nonlocality", cfg).value >= -1e-9


def test_minimize_single_rejects_grids_over_the_side_budget(monkeypatch):
    # minimize_single shares the pair bound: 54 steps, which the side grid
    # alone would hold, are refused before the side grid is built.
    def no_grid(*args):
        raise AssertionError("the grid bound must be checked before the side grid")

    monkeypatch.setattr(kernels, "axis_grid", no_grid)
    for subsystem in (0, 1):
        with pytest.raises(ValueError, match=r"grid_steps must be at most 53, got 54"):
            minimize_single(werner(0.5), subsystem,
                            cfg=OptimizerConfig(grid_steps=54, refine_starts=2))
    monkeypatch.undo()
    cfg = OptimizerConfig(grid_steps=53, refine_starts=2)
    assert minimize_single(werner(0.5), 0, cfg=cfg).value >= -1e-9


DATA = Path(__file__).resolve().parent / "data"


def _reference_maker():
    spec = importlib.util.spec_from_file_location(
        "make_refine_reference", DATA / "make_refine_reference.py")
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    return maker


def test_minima_match_the_nelder_mead_reference():
    # data/make_refine_reference.py wrote these minima with the Nelder-Mead
    # refinement this BFGS replaced.  No minimum may end more than 1e-12
    # above its reference, nor more than 1e-9 away from it.
    maker = _reference_maker()
    import qreality

    entries = json.loads((DATA / "refine_reference.json").read_text())
    assert len(entries) == len(list(maker.cases()))
    problems = []
    for entry in entries:
        value = maker.minimize(qreality, maker.build_state(qreality, entry["state"]), entry).value
        ref = float.fromhex(entry["value"])
        if not (value <= ref + 1e-12 and abs(value - ref) <= 1e-9):
            problems.append((entry, value - ref))
    assert not problems


def test_reference_maker_needs_a_source(capsys):
    # A bare run would overwrite the frozen reference with the code under
    # test, which the test above would then compare with itself.
    reference = (DATA / "refine_reference.json").read_bytes()
    with pytest.raises(SystemExit) as stopped:
        _reference_maker().main([])
    assert stopped.value.code == 2
    assert "--src" in capsys.readouterr().err
    assert (DATA / "refine_reference.json").read_bytes() == reference


def test_miss_census_runs_on_one_seed_of_each_block(monkeypatch, capsys):
    # data/miss_census.py reads OptimizerConfig's fields and the axis grid by
    # name; a renamed one breaks it here, not on the next census.
    spec = importlib.util.spec_from_file_location("miss_census", DATA / "miss_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(census, "SEED_BLOCKS", (census.SEED_BLOCKS[0][:1],))
    monkeypatch.setattr(census, "QUDIT_SEEDS", census.QUDIT_SEEDS[:1])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    assert census.main([]) == 0
    out = capsys.readouterr().out
    for kind in ("pair", "single", "qudit"):
        assert f"{kind}: 2 calls, 0 misses" in out


def test_result_digest_tells_a_moved_argmin_from_a_moved_value(monkeypatch, tmp_path, capsys):
    # data/result_digest.py splits a minimizer result, a scan and a sweep CSV
    # into values, argmins, and counts and flags, so an argmin that moved
    # between equal starts is not read as a moved value.  Each family gets a
    # verdict, and the exit status says whether any moved beyond --tolerance.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    spec = importlib.util.spec_from_file_location("result_digest", DATA / "result_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.KINDS == ("values", "argmins", "counts and flags")
    # value, (theta, phi) of sides A and B, grid best, evaluations, converged
    parent = np.array([0.25, 0.1, 0.2, 0.3, 0.4, 0.25, 143677.0, 1.0])
    for index, want in ((1, [0, 1, 0]), (0, [1, 0, 0]), (5, [1, 0, 0]), (6, [0, 0, 1])):
        moved = parent.copy()
        moved[index] += 1.2
        got = digest._changed_by_kind(digest._result_kinds(parent), moved, parent)
        assert [n for n, _ in got] == want
        assert [d for _, d in got] == pytest.approx([1.2 * n for n in want])
    single = parent[[0, 1, 2, 5, 6, 7]]
    assert digest._result_kinds(single) == ["values", "argmins", "argmins", "values",
                                            "counts and flags", "counts and flags"]
    assert digest._scan_kinds(np.array([0.1, 0.2, 0.3])) == ["values", "argmins", "argmins"]
    # A sweep CSV whose argmin_params moved and no other column.
    head = "exit 0\nparam,n_min,d12,concurrence,n_zz,argmin_params\n0.5,0.05,0.18,0.25,0.18,"
    texts = [head + f"ta={ta};pa=0.78;tb=1.7;pb=0.78\n" for ta in ("0.13", "0.92")]
    kinds = digest._csv_kinds(texts[0])
    assert len(kinds) == digest._values(texts[0]).size
    got = digest._changed_by_kind(kinds, *(digest._values(text) for text in texts))
    assert [n for n, _ in got] == [0, 1, 0]

    assert digest._verdict(0, 0.0, 0.0) == "bitwise"
    assert digest._verdict(2, 3e-15, 1e-12) == "within 1e-12, largest |delta| 3e-15"
    assert digest._verdict(1, 0.0, 0.0) == "within 0, largest |delta| 0"
    assert digest._verdict(1, 3e-15, 0.0) == "moved, largest |delta| 3e-15"
    assert digest._verdict(1, math.inf, 1e-12) == "moved, largest |delta| inf"
    # The whole script on stand-in families: each checkout is the number k
    # of its package name, qreality_digest_k.
    monkeypatch.setattr(digest, "_load", lambda src, name: float(name[-1]))
    families = {"same": lambda k: iter([np.array([0.5, -0.25])]),
                "close": lambda k: iter([np.array([0.5 + 2.0**-44 * k])]),
                "far": lambda k: iter([np.array([0.5 + k])])}
    for names, argv, want, lines in (
            (("same", "close"), ["--tolerance", "1e-12"], 0,
             ["verdict: bitwise", "verdict: within 1e-12, largest |delta| 5.68e-14",
              "0 of 2 families moved beyond 1e-12"]),
            (("same", "close", "far"), ["--tolerance", "1e-12"], 1,
             ["verdict: moved, largest |delta| 1", "1 of 3 families moved beyond 1e-12",
              "  far"]),
            (("same", "close"), [], 1,
             ["verdict: moved, largest |delta| 5.68e-14", "1 of 2 families moved beyond 0"])):
        monkeypatch.setattr(digest, "FAMILIES", {name: families[name] for name in names})
        assert digest.main(["--src", str(tmp_path), *argv]) == want
        out = capsys.readouterr().out.splitlines()
        assert all(any(line.endswith(text) for line in out) for text in lines), out
    with pytest.raises(SystemExit):
        digest.main(["--tolerance", "-1"])
    assert "must be a finite number >= 0, got -1" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import qreality, sys; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
