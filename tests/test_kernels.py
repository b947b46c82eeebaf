import math

import numpy as np
import pytest

from qreality import kernels
from qreality.linalg import DensityMatrix, partial_trace, tensor_product
from qreality.measures import discord_like, entropy, mutual_information, nonlocality
from qreality.observables import qubit_basis
from qreality.states import (
    alpha_state,
    pure_from_amplitudes,
    random_density,
    singlet,
    werner,
)


def _state_data(rho):
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    return r1, r2, tmat, entropy(rho), mutual_information(rho), \
        entropy(partial_trace(rho, 1))


def test_bloch_correlations_singlet():
    r1, r2, tmat = kernels.bloch_correlations(singlet().mat)
    np.testing.assert_allclose(r1, 0.0, atol=1e-12)
    np.testing.assert_allclose(r2, 0.0, atol=1e-12)
    np.testing.assert_allclose(tmat, -np.eye(3), atol=1e-12)


def test_bloch_correlations_product_state():
    up = pure_from_amplitudes([1, 0], (2,))
    plus = pure_from_amplitudes([1, 1], (2,))
    rho = DensityMatrix(tensor_product(up.mat, plus.mat), (2, 2))
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    np.testing.assert_allclose(r1, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(r2, [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(tmat, np.outer(r1, r2), atol=1e-12)


def test_axis_grid_layout():
    axes, thetas, phis = kernels.axis_grid(3, 4)
    assert axes.shape == (12, 3)
    np.testing.assert_allclose(thetas[:4], 0.0, atol=0)
    np.testing.assert_allclose(phis[:4], [0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
    assert thetas.max() == pytest.approx(math.pi)
    assert phis.max() < math.pi


def test_scalar_values_match_matrix_route():
    rng = np.random.default_rng(101)
    for _ in range(15):
        rho = random_density(4, int(rng.integers(1, 5)), rng, dims=(2, 2))
        r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
        ta, pa, tb, pb = rng.uniform(0, math.pi, 4)
        ua = kernels.axis_from_angles(ta, pa)
        ub = kernels.axis_from_angles(tb, pb)
        basis_a = qubit_basis(ta, pa)
        basis_b = qubit_basis(tb, pb)

        n_fast = kernels.nonlocality_value(ua, ub, r1, r2, tmat, s_rho)
        assert n_fast == pytest.approx(nonlocality(basis_a, basis_b, rho), abs=1e-10)

        d_fast = kernels.pair_discord_value(ua, ub, r1, r2, tmat, mi)
        d_slow = discord_like(rho, [(basis_a, 0), (basis_b, 1)])
        assert d_fast == pytest.approx(d_slow, abs=1e-10)

        s_fast = kernels.single_discord_value(ua, r1, r2, tmat, mi, s_env)
        s_slow = discord_like(rho, [(basis_a, 0)])
        assert s_fast == pytest.approx(s_slow, abs=1e-10)


def test_single_discord_other_side_via_swap():
    rng = np.random.default_rng(103)
    rho = random_density(4, 4, rng, dims=(2, 2))
    r1, r2, tmat, _, mi, _ = _state_data(rho)
    s_env = entropy(partial_trace(rho, 0))
    theta, phi = rng.uniform(0, math.pi, 2)
    axis = kernels.axis_from_angles(theta, phi)
    fast = kernels.single_discord_value(
        axis, r2, r1, np.ascontiguousarray(tmat.T), mi, s_env)
    slow = discord_like(rho, [(qubit_basis(theta, phi), 1)])
    assert fast == pytest.approx(slow, abs=1e-10)


def test_grids_match_scalar_reference():
    rng = np.random.default_rng(107)
    rho = random_density(4, 4, rng, dims=(2, 2))
    r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
    axes, _, _ = kernels.axis_grid(5, 4)

    n_grid = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho)
    d_grid = kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi)
    s_grid = kernels.single_discord_grid(axes, r1, r2, tmat, mi, s_env)
    for i in range(axes.shape[0]):
        assert s_grid[i] == pytest.approx(
            kernels.single_discord_value(axes[i], r1, r2, tmat, mi, s_env), abs=1e-12)
        for j in range(axes.shape[0]):
            assert n_grid[i, j] == pytest.approx(
                kernels.nonlocality_value(axes[i], axes[j], r1, r2, tmat, s_rho),
                abs=1e-12)
            assert d_grid[i, j] == pytest.approx(
                kernels.pair_discord_value(axes[i], axes[j], r1, r2, tmat, mi),
                abs=1e-12)


def _entropy_terms_reference(p):
    # The boolean-mask form the elementwise numpy terms must reproduce.
    out = np.zeros_like(p)
    mask = p > kernels.ZERO_WEIGHT
    out[mask] = -p[mask] * np.log(p[mask])
    return out


def _joint_entropy_reference(axes_a, axes_b, r1, r2, tmat):
    # One-shot joint grid: full-size temporaries, the four terms summed at once.
    a = (axes_a @ r1)[:, None]
    b = (axes_b @ r2)[None, :]
    c = axes_a @ tmat @ axes_b.T
    out = np.zeros(c.shape)
    for s in (1.0, -1.0):
        for t in (1.0, -1.0):
            out += _entropy_terms_reference((1.0 + s * a + t * b + s * t * c) / 4.0)
    return out


def test_entropy_terms_match_mask_form_bitwise():
    rng = np.random.default_rng(113)
    p = np.concatenate([
        rng.uniform(-0.1, 1.1, 500),
        [0.0, -0.0, 1e-15, np.nextafter(1e-15, 1.0), 1.0, -1e-17, np.nan, np.inf],
    ])
    for shaped in (p, p.reshape(-1, 4)):
        got = kernels._entropy_terms_numpy(shaped)
        want = _entropy_terms_reference(shaped)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("rows", [
    1,
    kernels.JOINT_BLOCK_ROWS - 1,
    2 * kernels.JOINT_BLOCK_ROWS,
    kernels.JOINT_BLOCK_ROWS + 1,
])
@pytest.mark.parametrize("cols", [1, 300, 600])
def test_blocked_joint_grid_is_bitwise_one_shot(rows, cols):
    # 300 columns is a width where BLAS rounds a product over a subset of rows
    # differently from the full product, on at least one OpenBLAS build.
    rng = np.random.default_rng(rows * 1000 + cols)
    axes_a = rng.normal(size=(rows, 3))
    axes_a /= np.linalg.norm(axes_a, axis=1)[:, None]
    axes_b = rng.normal(size=(cols, 3))
    axes_b /= np.linalg.norm(axes_b, axis=1)[:, None]
    for rank in (1, 2, 4):
        rho = random_density(4, rank, rng, dims=(2, 2))
        r1, r2, tmat = kernels.bloch_correlations(rho.mat)
        got = kernels._joint_entropy_numpy(axes_a, axes_b, r1, r2, tmat)
        want = _joint_entropy_reference(axes_a, axes_b, r1, r2, tmat)
        assert got.shape == (rows, cols)
        assert np.array_equal(got, want)


def _unfused_pair_grids(axes_a, axes_b, r1, r2, tmat, s_rho, mi):
    # The side grids, the one-shot joint grid and the objectives composed
    # from them, as the pair grids were computed before the fused pass.
    s_a, h_a = kernels._side_entropies_numpy(axes_a, r1, r2, tmat)
    s_b, h_b = kernels._side_entropies_numpy(axes_b, r2, r1, np.ascontiguousarray(tmat.T))
    s_ab = _joint_entropy_reference(axes_a, axes_b, r1, r2, tmat)
    return (s_a[:, None] + s_b[None, :] - s_ab - s_rho,
            mi - h_a[:, None] - h_b[None, :] + s_ab)


def _has_dead_weight(axes_a, axes_b, r1, r2, tmat):
    a = (axes_a @ r1)[:, None]
    b = (axes_b @ r2)[None, :]
    c = axes_a @ tmat @ axes_b.T
    return any(((1.0 + s * a + t * b + s * t * c) / 4.0 <= kernels.ZERO_WEIGHT).any()
               for s in (1.0, -1.0) for t in (1.0, -1.0))


@pytest.mark.parametrize("rows", [
    1,
    kernels.JOINT_BLOCK_ROWS - 1,
    kernels.JOINT_BLOCK_ROWS + 1,
    128,
])
@pytest.mark.parametrize("cols", [1, 300, 600])
def test_fused_pair_grids_are_bitwise_unfused(rows, cols):
    # Random axes, and grid axes on which the Bell-diagonal werner and alpha
    # states have outcome weights of exactly zero.
    rng = np.random.default_rng(rows * 1000 + cols + 7)
    grid_axes, _, _ = kernels.axis_grid(25, 24)
    random_axes = rng.normal(size=(max(rows, cols), 3))
    random_axes /= np.linalg.norm(random_axes, axis=1)[:, None]
    states = [random_density(4, rank, rng, dims=(2, 2)) for rank in (1, 2, 4)]
    states += [werner(0.0), werner(0.5), werner(1.0), alpha_state(0.0), alpha_state(0.5)]
    dead = False
    for rho in states:
        r1, r2, tmat, s_rho, mi, _ = _state_data(rho)
        for axes in (random_axes, grid_axes):
            axes_a, axes_b = axes[:rows], axes[-cols:]
            dead |= _has_dead_weight(axes_a, axes_b, r1, r2, tmat)
            want_n, want_d = _unfused_pair_grids(axes_a, axes_b, r1, r2, tmat, s_rho, mi)
            got_n = kernels.nonlocality_grid(axes_a, axes_b, r1, r2, tmat, s_rho)
            got_d = kernels.pair_discord_grid(axes_a, axes_b, r1, r2, tmat, mi)
            for got, want in ((got_n, want_n), (got_d, want_d)):
                assert got.shape == (rows, cols)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if cols > 1:
        assert dead  # the zero-weight cells were exercised


def _old_side_values(axis, r_here, r_there, m):
    # The single side helper the scalar objectives used to share.
    a = float(axis @ r_here)
    w = axis @ m
    mp = float(np.linalg.norm(r_there + w))
    mm = float(np.linalg.norm(r_there - w))
    s = kernels._entropy_sum(
        ((1.0 + a + mp) / 4.0, (1.0 + a - mp) / 4.0,
         (1.0 - a + mm) / 4.0, (1.0 - a - mm) / 4.0)
    )
    h = kernels._entropy_sum(((1.0 + a) / 2.0, (1.0 - a) / 2.0))
    return s, h


def _old_joint_value(axis_a, axis_b, r1, r2, tmat):
    a = float(axis_a @ r1)
    b = float(axis_b @ r2)
    c = float(axis_a @ tmat @ axis_b)
    return kernels._entropy_sum(
        ((1.0 + a + b + c) / 4.0, (1.0 + a - b - c) / 4.0,
         (1.0 - a + b - c) / 4.0, (1.0 - a - b + c) / 4.0)
    )


def test_scalar_values_match_side_values_composition_bitwise():
    rng = np.random.default_rng(97)
    states = [random_density(4, 1 + k % 4, 500 + k, dims=(2, 2)) for k in range(12)]
    states += [werner(0.5), singlet()]
    for rho in states:
        r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
        for _ in range(40):
            ua, ub = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
            s_a, h_a = _old_side_values(ua, r1, r2, tmat)
            s_b, h_b = _old_side_values(ub, r2, r1, tmat.T)
            joint = _old_joint_value(ua, ub, r1, r2, tmat)
            pairs = (
                (kernels.nonlocality_value(ua, ub, r1, r2, tmat, s_rho),
                 s_a + s_b - joint - s_rho),
                (kernels.pair_discord_value(ua, ub, r1, r2, tmat, mi),
                 mi - h_a - h_b + joint),
                (kernels.single_discord_value(ua, r1, r2, tmat, mi, s_env),
                 mi - h_a - s_env + s_a),
            )
            for got, want in pairs:
                assert got.hex() == want.hex()
