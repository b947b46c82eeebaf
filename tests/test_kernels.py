import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qreality import kernels
from qreality.linalg import DensityMatrix, partial_trace, tensor_product
from qreality.measures import discord_like, entropy, mutual_information, nonlocality
from qreality.observables import qubit_basis
from qreality.states import pure_from_amplitudes, random_density, singlet, werner

BACKENDS = ["numpy"] + (["numba"] if kernels.NUMBA_ENABLED else [])


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_grids_match_scalar_reference(backend):
    rng = np.random.default_rng(107)
    rho = random_density(4, 4, rng, dims=(2, 2))
    r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
    axes, _, _ = kernels.axis_grid(5, 4)

    n_grid = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho, backend=backend)
    d_grid = kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi, backend=backend)
    s_grid = kernels.single_discord_grid(axes, r1, r2, tmat, mi, s_env, backend=backend)
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


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba backend unavailable")
def test_backends_agree():
    rng = np.random.default_rng(109)
    for _ in range(5):
        rho = random_density(4, 4, rng, dims=(2, 2))
        r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
        axes, _, _ = kernels.axis_grid(9, 8)
        for fn, extra in (
            (kernels.nonlocality_grid, s_rho),
            (kernels.pair_discord_grid, mi),
        ):
            jit = fn(axes, axes, r1, r2, tmat, extra, backend="numba")
            plain = fn(axes, axes, r1, r2, tmat, extra, backend="numpy")
            assert np.max(np.abs(jit - plain)) <= 1e-12
        jit = kernels.single_discord_grid(axes, r1, r2, tmat, mi, s_env, backend="numba")
        plain = kernels.single_discord_grid(axes, r1, r2, tmat, mi, s_env, backend="numpy")
        assert np.max(np.abs(jit - plain)) <= 1e-12


def test_unknown_backend_rejected():
    axes, _, _ = kernels.axis_grid(2, 2)
    with pytest.raises(ValueError):
        kernels.nonlocality_grid(axes, axes, np.zeros(3), np.zeros(3), np.eye(3),
                                 0.0, backend="torch")


def test_disable_flag_selects_numpy_backend():
    env = dict(os.environ, QREALITY_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "import qreality.kernels as k; print(k.backend(), k.NUMBA_ENABLED)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.split() == ["numpy", "False"]
