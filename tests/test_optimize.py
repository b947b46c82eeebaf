import math

import numpy as np
import pytest

from qreality import kernels
from qreality.linalg import DensityMatrix, tensor_product
from qreality.measures import entropy, nonlocality
from qreality.optimize import (
    OptimizerConfig,
    _lowest_cells,
    _refine,
    brute_force_single,
    minimize_pair,
    minimize_single,
    witness_pair_for_pure,
)
from qreality.states import (
    alpha_state,
    pure_from_amplitudes,
    random_density,
    singlet,
    werner,
)

# Coarse but adequate settings keep the unit tests quick; acceptance runs the
# defaults.
FAST = OptimizerConfig(grid_points_theta=9, grid_points_phi=8, refine_starts=3)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points_theta=0)
    with pytest.raises(ValueError):
        OptimizerConfig(refine_tolerance=0.0)


def test_objective_and_layout_validation():
    with pytest.raises(ValueError):
        minimize_single(singlet(), 0, objective="entropy")
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


def test_single_against_qutrit_partner_uses_matrix_route():
    rho = random_density(6, 6, 5, dims=(2, 3))
    res = minimize_single(rho, 0, cfg=OptimizerConfig(grid_points_theta=7,
                                                      grid_points_phi=6,
                                                      refine_starts=2))
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


def test_minimize_pair_matches_closed_form_for_werner():
    # Oracle: with r1 = r2 = 0 and T = -f I the pair value depends only on the
    # axis alignment; the minimum sits at orthogonal axes.
    f = 0.5
    s_side = -2 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - 2 * ((1 + f) / 4) * math.log((1 + f) / 4)
    s_rho = -3 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - ((1 + 3 * f) / 4) * math.log((1 + 3 * f) / 4)
    expected_n = 2 * s_side - math.log(4.0) - s_rho
    res = minimize_pair(werner(f), "nonlocality")
    assert res.value == pytest.approx(expected_n, abs=1e-7)

    expected_d = s_side - s_rho  # joint dephasing entropy is minimal on matched axes
    res_d = minimize_pair(werner(f), "discord")
    assert res_d.value == pytest.approx(expected_d, abs=1e-7)


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


@pytest.mark.parametrize("rho", [werner(0.5), alpha_state(0.3)], ids=["werner", "alpha"])
def test_lowest_cells_on_tied_bell_diagonal_grids(rho):
    # The Bell-diagonal landscapes have many exactly tied cells.
    axes, _, _ = kernels.axis_grid(25, 24)
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    grid = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, entropy(rho))
    assert np.sum(grid == grid.min()) > 1
    for k in (1, 5, 17):
        assert np.array_equal(_lowest_cells(grid, k), _stable_head(grid, k))


def test_converged_reports_the_winning_start():
    # The first start sits on a plateau and converges at once; the second
    # lies on a steep slope, finds the lower value and runs out of iterations.
    cfg = OptimizerConfig(refine_tolerance=0.5, max_refine_iterations=2)

    def fun(x):
        return 0.0 if x[0] < 1.0 else -1000.0 * x[0]

    x, value, nfev, converged = _refine(fun, [(0.0, 0.0), (2.0, 0.0)], cfg)
    assert value < -2000.0 and x[0] > 2.0
    assert nfev > 0
    assert converged is False
    assert _refine(fun, [(0.0, 0.0)], cfg)[3] is True


def test_converged_is_false_when_the_grid_best_wins(monkeypatch):
    # A refinement that ends above the grid best (and claims success) loses
    # to the grid cell, which no refinement converged on.
    from qreality import optimize

    def worse_refine(fun, starts, cfg):
        return np.array(starts[0]), math.inf, 0, True

    monkeypatch.setattr(optimize, "_refine", worse_refine)
    rho = random_density(4, 3, 11, dims=(2, 2))
    for res in (minimize_pair(rho, "nonlocality", cfg=FAST), minimize_single(rho, 0, cfg=FAST)):
        assert res.value == res.grid_best
        assert res.converged is False
