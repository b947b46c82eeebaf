import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qreality import kernels, optimize, oracle
from qreality.linalg import DensityMatrix, partial_trace, tensor_product
from qreality.measures import discord_like, entropy, mutual_information, nonlocality
from qreality.observables import qubit_basis
from qreality.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    alpha_state,
    pure_from_amplitudes,
    random_density,
    singlet,
    werner,
)


def _axis(theta, phi):
    # The unit Bloch axis the refinement evaluates at (theta, phi).
    return optimize._angle_point(theta, phi)[0]


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


def _bloch_by_traces(mat):
    # Tr[M (P x Q)] of every Pauli product by kron, matmul and trace.
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    eye = np.eye(2, dtype=complex)
    r1 = np.array([np.trace(mat @ np.kron(p, eye)).real for p in paulis])
    r2 = np.array([np.trace(mat @ np.kron(eye, p)).real for p in paulis])
    tmat = np.array([[np.trace(mat @ np.kron(p, q)).real for q in paulis] for p in paulis])
    return r1, r2, tmat


def _assert_bitwise(got, want):
    for x, y in zip(got, want):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_bloch_correlations_match_the_trace_form():
    # Equal bit for bit: random states of every rank, and the sweep families,
    # so every sweep result is too.
    rng = np.random.default_rng(167)
    for k in range(200):
        mat = random_density(4, 1 + k % 4, rng, dims=(2, 2)).mat
        _assert_bitwise(kernels.bloch_correlations(mat), _bloch_by_traces(mat))
    for param in np.linspace(0.0, 1.0, 51):
        for rho in (werner(float(param)), alpha_state(float(param))):
            _assert_bitwise(kernels.bloch_correlations(rho.mat), _bloch_by_traces(rho.mat))
    # Fresh contiguous arrays, also from a transposed (F-ordered) matrix.
    got = kernels.bloch_correlations(mat.T)
    _assert_bitwise(got, _bloch_by_traces(mat.T))
    assert all(x.flags.c_contiguous and x.flags.owndata for x in got)


def test_werner_states_have_zero_local_bloch_vectors():
    # The sweep's werner and alpha states take the two-log joint pass only
    # while their r1 and r2 come out exactly zero.
    for family in (werner, alpha_state):
        for param in np.linspace(0.0, 1.0, 51):
            r1, r2, _ = kernels.bloch_correlations(family(float(param)).mat)
            assert not r1.any() and not r2.any(), (family.__name__, param)


def test_axis_grid_layout():
    # The poles are one basis and come first, once; then the inner theta
    # rows, each with ceil(steps sin(theta)) evenly spaced phis from 0.
    axes, thetas, phis = kernels.axis_grid(4)
    assert axes.shape == (1 + 3 + 4 + 3, 3)
    assert thetas[0] == 0.0 and phis[0] == 0.0
    assert axes[0].tolist() == [0.0, 0.0, 1.0]
    np.testing.assert_allclose(thetas[1:], np.repeat([math.pi / 4, math.pi / 2,
                                                       3 * math.pi / 4], [3, 4, 3]))
    third = [0.0, math.pi / 3, 2 * math.pi / 3]
    quarter = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    np.testing.assert_allclose(phis[1:], third + quarter + third)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
    for axis, theta, phi in zip(axes, thetas, phis):
        assert np.array_equal(axis, _axis(theta, phi))
    # No two axes are the same basis (u and -u), and every other grid axis is
    # one of them.
    gram = np.abs(axes @ axes.T)
    assert np.all(gram[~np.eye(len(axes), dtype=bool)] < 1 - 1e-9)
    for theta in (0.0, math.pi):
        for phi in np.linspace(0.0, math.pi, 4, endpoint=False):
            assert np.max(np.abs(axes @ _axis(theta, phi))) == 1.0
    # The default 24 steps: 379 distinct axes, 24 on the equator row and 4 on
    # each row next to the poles, where 25 thetas by 24 phis name 600.
    _, thetas, _ = kernels.axis_grid(24)
    assert thetas.shape == (379,)
    sizes = np.unique(thetas, return_counts=True)[1]
    assert sizes.tolist() == [1, 4, 7, 10, 12, 15, 17, 20, 21, 23, 24, 24, 24,
                              24, 24, 23, 21, 20, 17, 15, 12, 10, 7, 4]
    # One step has no inner row: only the pole axis.
    only_pole, _, _ = kernels.axis_grid(1)
    assert only_pole.tolist() == [[0.0, 0.0, 1.0]]


def _grid_shape(steps):
    # A test id that names the grid: its thetas, then its equator's phis.
    return f"{steps + 1}-{steps}"


@pytest.mark.parametrize("steps", [24, 12, 8, 48, 1, 2, 3, 100], ids=_grid_shape)
def test_axis_grid_rows_are_no_sparser_than_the_equator(steps):
    # Every inner row's arc between neighbours, sin(theta) pi / n_k, is at
    # most the equator row's pi / steps (up to the 1e-9 slack in n_k), with
    # no more phis than that needs; its phis are evenly spaced from 0, and
    # rows theta and pi - theta have the same size.
    _, thetas, phis = kernels.axis_grid(steps)
    rows = [(theta, phis[thetas == theta]) for theta in np.unique(thetas[1:])]
    assert len(rows) == steps - 1
    for theta, row in rows:
        n = row.size
        assert math.sin(theta) * math.pi / n <= math.pi / steps * (1 + 1e-9)
        assert n == 1 or math.sin(theta) * math.pi / (n - 1) > math.pi / steps
        np.testing.assert_allclose(row, np.arange(n) * math.pi / n, rtol=0, atol=1e-15)
    sizes = [row.size for _, row in rows]
    assert sizes == sizes[::-1]


@pytest.mark.parametrize("steps", [24, 12, 8, 16], ids=_grid_shape)
def test_axis_grid_covers_the_sphere_as_closely_as_full_rows(steps):
    # The largest angle from a sphere point to its nearest grid axis, up to
    # sign, over a seeded sample: no larger than with every inner row full.
    points = np.random.default_rng((steps + 1) * 100 + steps).normal(size=(20_000, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    tt, pp = np.meshgrid(np.linspace(0.0, math.pi, steps + 1)[1:-1],
                         np.linspace(0.0, math.pi, steps, endpoint=False), indexing="ij")
    full = np.concatenate([[[0.0, 0.0, 1.0]], np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1).reshape(-1, 3)])
    thinned, _, _ = kernels.axis_grid(steps)
    assert len(thinned) < len(full)

    def radius(axes):
        # 2,000 points at a time: a few MB of dot products.
        nearest = np.concatenate([np.max(np.abs(points[i:i + 2000] @ axes.T), axis=1)
                                  for i in range(0, len(points), 2000)])
        return math.acos(min(1.0, float(nearest.min())))

    assert radius(thinned) <= radius(full)


def test_axis_grid_is_kept_read_only():
    axes, thetas, phis = kernels.axis_grid(4)
    again = kernels.axis_grid(4)
    assert all(x is y for x, y in zip(again, (axes, thetas, phis)))
    for x in (axes, thetas, phis):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
    assert axes[0].tolist() == [0.0, 0.0, 1.0] and thetas[0] == 0.0 and phis[0] == 0.0


def test_scalar_values_match_matrix_route():
    rng = np.random.default_rng(101)
    for _ in range(15):
        rho = random_density(4, int(rng.integers(1, 5)), rng, dims=(2, 2))
        r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
        ta, pa, tb, pb = rng.uniform(0, math.pi, 4)
        ua = _axis(ta, pa)
        ub = _axis(tb, pb)
        basis_a = qubit_basis(ta, pa)
        basis_b = qubit_basis(tb, pb)

        n_fast, _ = kernels.nonlocality_value(ua, ub, r1, r2, tmat, s_rho)
        assert n_fast == pytest.approx(nonlocality(basis_a, basis_b, rho), abs=1e-10)

        d_fast, _ = kernels.pair_discord_value(ua, ub, r1, r2, tmat, mi)
        d_slow = discord_like(rho, [(basis_a, 0), (basis_b, 1)])
        assert d_fast == pytest.approx(d_slow, abs=1e-10)

        s_fast, _ = kernels.single_discord_value(ua, r1, r2, tmat, mi, s_env)
        s_slow = discord_like(rho, [(basis_a, 0)])
        assert s_fast == pytest.approx(s_slow, abs=1e-10)


def test_single_discord_other_side_via_swap():
    rng = np.random.default_rng(103)
    rho = random_density(4, 4, rng, dims=(2, 2))
    r1, r2, tmat, _, mi, _ = _state_data(rho)
    s_env = entropy(partial_trace(rho, 0))
    theta, phi = rng.uniform(0, math.pi, 2)
    axis = _axis(theta, phi)
    fast, _ = kernels.single_discord_value(
        axis, r2, r1, np.ascontiguousarray(tmat.T), mi, s_env)
    slow = discord_like(rho, [(qubit_basis(theta, phi), 1)])
    assert fast == pytest.approx(slow, abs=1e-10)


def test_grids_match_scalar_reference():
    rng = np.random.default_rng(107)
    rho = random_density(4, 4, rng, dims=(2, 2))
    r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)
    axes, _, _ = kernels.axis_grid(4)

    n_grid = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho)
    d_grid = kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi)
    s_grid = kernels.single_discord_grid(axes, r1, r2, tmat, mi, s_env)
    for i in range(axes.shape[0]):
        assert s_grid[i] == pytest.approx(
            kernels.single_discord_value(axes[i], r1, r2, tmat, mi, s_env)[0], abs=1e-12)
        for j in range(axes.shape[0]):
            assert n_grid[i, j] == pytest.approx(
                kernels.nonlocality_value(axes[i], axes[j], r1, r2, tmat, s_rho)[0],
                abs=1e-12)
            assert d_grid[i, j] == pytest.approx(
                kernels.pair_discord_value(axes[i], axes[j], r1, r2, tmat, mi)[0],
                abs=1e-12)


def _entropy_terms_reference(p):
    # The boolean-mask form the elementwise numpy terms must reproduce.
    out = np.zeros_like(p)
    mask = p > kernels.ZERO_WEIGHT
    out[mask] = -p[mask] * np.log(p[mask])
    return out


def _joint_entropy_blocked(axes_a, axes_b, r1, r2, tmat):
    out = np.empty((axes_a.shape[0], axes_b.shape[0]))
    for rows, s_ab in kernels._joint_entropy_blocks(axes_a, axes_b, r1, r2, tmat, out):
        out[rows] = s_ab
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
        got = kernels._entropy_terms(shaped)
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
        got = _joint_entropy_blocked(axes_a, axes_b, r1, r2, tmat)
        want = _joint_entropy_reference(axes_a, axes_b, r1, r2, tmat)
        assert got.shape == (rows, cols)
        assert np.array_equal(got, want)


def _unfused_pair_grids(axes_a, axes_b, r1, r2, tmat, s_rho, mi):
    # The side grids, the one-shot joint grid and the objectives composed
    # from them, as the pair grids were computed before the fused pass.
    a, b = axes_a @ r1, axes_b @ r2
    s_a = kernels._dephased_entropies(axes_a, a, r2, tmat)
    s_b = kernels._dephased_entropies(axes_b, b, r1, np.ascontiguousarray(tmat.T))
    h_a, h_b = kernels._marginal_entropies(a), kernels._marginal_entropies(b)
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
    grid_axes, _, _ = kernels.axis_grid(24)
    grid_axes = np.concatenate([grid_axes, grid_axes])  # 379 axes, up to 600 taken
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


def test_each_grid_computes_only_the_side_data_it_reads(monkeypatch):
    # The pair discord reads the binary marginal entropies and never the
    # dephased-state entropies; nonlocality the reverse; the side grid both.
    calls = []
    for name in ("_dephased_entropies", "_marginal_entropies"):
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    axes, _, _ = kernels.axis_grid(8)
    r1, r2, tmat, s_rho, mi, s_env = _state_data(random_density(4, 3, 151, dims=(2, 2)))
    # Three rounds on one state: fresh passes, then a kept pass, then reads.
    for _ in range(3):
        kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho)
        assert calls == ["_dephased_entropies"] * 2
        calls.clear()
        kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi)
        assert calls == ["_marginal_entropies"] * 2
        calls.clear()
    kernels.single_discord_grid(axes, r1, r2, tmat, mi, s_env)
    assert sorted(calls) == ["_dephased_entropies", "_marginal_entropies"]


def _euler_rotation(alpha, beta, gamma):
    # R_z(alpha) R_y(beta) R_z(gamma)
    def rz(x):
        c, s = math.cos(x), math.sin(x)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    c, s = math.cos(beta), math.sin(beta)
    return rz(alpha) @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]) @ rz(gamma)


def _rotated_t_state(c, angles_a, angles_b):
    # (I + sum T_ij s_i x s_j)/4 with T = R_A diag(c) R_B^t: a Bell-diagonal
    # state turned by local unitaries, so r1 = r2 = 0 and T is not diagonal.
    tmat = _euler_rotation(*angles_a) @ np.diag(c) @ _euler_rotation(*angles_b).T
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    mat = np.eye(4, dtype=complex)
    for i, p in enumerate(paulis):
        for j, q in enumerate(paulis):
            mat = mat + tmat[i, j] * np.kron(p, q)
    return DensityMatrix(mat / 4.0, (2, 2))


def _zero_marginal_states():
    return [werner(0.0), werner(0.5), werner(1.0),
            alpha_state(0.0), alpha_state(0.4), alpha_state(0.5),
            _rotated_t_state([-0.4, 0.3, -0.2], (0.3, 1.1, -0.7), (2.0, 0.4, 0.9)),
            _rotated_t_state([-0.8, 0.5, 0.6], (0.8, 0.5, 0.1), (-0.6, 1.3, 2.2))]


def test_two_log_joint_pass_is_bitwise_unfused():
    # States with r1 = r2 = 0 on the default grid (six blocks): werner(0)
    # and werner(1) have dead joint weights, the rotated states a
    # non-diagonal T.  Both grids equal the four-log one-shot reference.
    axes, _, _ = kernels.axis_grid(24)
    dead = False
    for rho in _zero_marginal_states():
        r1, r2, tmat, s_rho, mi, _ = _state_data(rho)
        assert not r1.any() and not r2.any()
        dead |= _has_dead_weight(axes, axes, r1, r2, tmat)
        want_n, want_d = _unfused_pair_grids(axes, axes, r1, r2, tmat, s_rho, mi)
        got_n = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho)
        got_d = kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi)
        for got, want in ((got_n, want_n), (got_d, want_d)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert dead
    rotated = _zero_marginal_states()[-1]
    assert np.count_nonzero(kernels.bloch_correlations(rotated.mat)[2]) > 3


def test_joint_pass_takes_two_logs_per_block_when_marginals_vanish(monkeypatch):
    axes, _, _ = kernels.axis_grid(16)  # 171 axes: three blocks
    log = np.log
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return log(*args, **kwargs)

    monkeypatch.setattr(np, "log", counted)
    tilted = _rotated_t_state([-0.4, 0.3, -0.2], (0.3, 1.1, -0.7), (2.0, 0.4, 0.9))
    cases = [(rho, 2) for rho in (werner(0.5), alpha_state(0.4), tilted)]
    cases += [(random_density(4, rank, 173 + rank, dims=(2, 2)), 4) for rank in (1, 4)]
    for rho, logs_per_block in cases:
        r1, r2, tmat = kernels.bloch_correlations(rho.mat)
        out = np.empty((axes.shape[0], axes.shape[0]))
        calls.clear()
        blocks = sum(1 for _ in kernels._joint_entropy_blocks(axes, axes, r1, r2, tmat, out))
        assert blocks == 3 and len(calls) == logs_per_block * blocks


def _counted_joint_passes(monkeypatch):
    # The list gets one entry per joint pass run from here on.
    runs = []
    blocks = kernels._joint_entropy_blocks

    def counted(*args):
        runs.append(1)
        return blocks(*args)

    monkeypatch.setattr(kernels, "_joint_entropy_blocks", counted)
    return runs


def _bits_equal(got, want):
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _in_new_thread(fn):
    # fn() in a thread with no joint-pass history; its exception re-raised.
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def test_shared_joint_entropy_grids_are_bitwise_unshared(monkeypatch):
    # Several blocks, and the Bell-diagonal states with dead weights.  Both
    # pair grids on each state in turn, as a sweep asks for them, in either
    # order: the first state runs two passes, and on every later state the
    # first grid keeps its pass and the second reads it.
    axes, _, _ = kernels.axis_grid(12)
    rng = np.random.default_rng(139)
    states = [random_density(4, rank, rng, dims=(2, 2)) for rank in (1, 2, 3, 4)]
    states += [werner(0.0), werner(0.5), alpha_state(0.3)]
    data = [_state_data(rho) for rho in states]
    runs = _counted_joint_passes(monkeypatch)

    def sweep(order):
        passes = []
        for r1, r2, tmat, s_rho, mi, _ in data:
            want = _unfused_pair_grids(axes, axes, r1, r2, tmat, s_rho, mi)
            grids = (lambda: kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho),
                     lambda: kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi))
            runs.clear()
            for k in order:
                assert _bits_equal(grids[k](), want[k])
            passes.append(len(runs))
        return passes

    for order in ((0, 1), (1, 0)):
        assert _in_new_thread(lambda: sweep(order)) == [2] + [1] * (len(states) - 1)


def test_shared_grid_recomputes_for_other_bloch_data_or_axes(monkeypatch):
    axes, _, _ = kernels.axis_grid(8)
    r1, r2, tmat, s_rho, mi, _ = _state_data(random_density(4, 3, 151, dims=(2, 2)))
    other = _state_data(random_density(4, 3, 152, dims=(2, 2)))[:3]
    fewer, _, _ = kernels.axis_grid(7)
    data = [r1, r2, tmat]
    cases = []
    for k in range(3):
        changed = list(data)
        changed[k] = other[k]
        cases.append((axes, axes, *changed))
    for axes_a, axes_b in ((fewer, axes), (axes, fewer), (fewer, fewer), (axes[::-1], axes)):
        cases.append((axes_a, axes_b, r1, r2, tmat))
    runs = _counted_joint_passes(monkeypatch)

    def check(case):
        # Both grids on the base inputs, so the next call follows a repeat.
        kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho)
        kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi)
        runs.clear()
        got = kernels.pair_discord_grid(*case, mi)
        assert len(runs) == 1
        want = _unfused_pair_grids(*case, s_rho, mi)
        assert _bits_equal(got, want[1])
        # The pass it ran is kept for its own inputs.
        runs.clear()
        got = kernels.nonlocality_grid(*case, s_rho)
        assert not runs
        assert _bits_equal(got, want[0])

    _in_new_thread(lambda: [check(case) for case in cases])


def _entropy_sum(weights) -> float:
    # Shannon entropy of outcome weights, skipping those at or below
    # ZERO_WEIGHT: the loop the unrolled sums in kernels repeat term for
    # term, kept as the reference they are compared with.
    s = 0.0
    for w in weights:
        if w > kernels.ZERO_WEIGHT:
            s -= w * math.log(w)
    return s


def _old_side_values(axis, r_here, r_there, m):
    # The single side helper the scalar objectives used to share.
    a = float(axis @ r_here)
    w = axis @ m
    mp = float(np.linalg.norm(r_there + w))
    mm = float(np.linalg.norm(r_there - w))
    s = _entropy_sum(
        ((1.0 + a + mp) / 4.0, (1.0 + a - mp) / 4.0,
         (1.0 - a + mm) / 4.0, (1.0 - a - mm) / 4.0)
    )
    h = _entropy_sum(((1.0 + a) / 2.0, (1.0 - a) / 2.0))
    return s, h


def _old_joint_value(axis_a, axis_b, r1, r2, tmat):
    a = float(axis_a @ r1)
    b = float(axis_b @ r2)
    c = float(axis_a @ tmat @ axis_b)
    return _entropy_sum(
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
            for (got, _), want in pairs:
                assert got.hex() == want.hex()


def _angle_gradient(grad, theta, phi):
    # The gradient by the axis, taken onto (theta, phi).
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    g0, g1, g2 = grad
    return [g0 * ct * cp + g1 * ct * sp - g2 * st, st * (g1 * cp - g0 * sp)]


def _kernel_objectives(rho):
    # (name, f(angles) -> (value, gradient by the axes)) for the three kernels.
    r1, r2, tmat, s_rho, mi, s_env = _state_data(rho)

    def pair(value_of, base):
        def f(x):
            return value_of(_axis(x[0], x[1]), _axis(x[2], x[3]), r1, r2, tmat, base)
        return f

    def single(x):
        return kernels.single_discord_value(
            _axis(x[0], x[1]), r1, r2, tmat, mi, s_env)

    return (("nonlocality", pair(kernels.nonlocality_value, s_rho)),
            ("pair discord", pair(kernels.pair_discord_value, mi)),
            ("single discord", single))


def _product_pure_state():
    up = pure_from_amplitudes([1, 0], (2,))
    tilted = pure_from_amplitudes([0.6, 0.8j], (2,))
    return DensityMatrix(tensor_product(up.mat, tilted.mat), (2, 2))


def test_gradients_match_central_differences():
    # Random states of ranks 1-4, axes within 1e-3 of either pole, and states
    # with dead weights: the singlet and alpha(1) on matched axes (two joint
    # weights vanish) and a pure product state (two side weights vanish at
    # every axis).  Dead weights must leave the gradient finite.
    rng = np.random.default_rng(131)
    states = [random_density(4, 1 + k % 4, rng, dims=(2, 2)) for k in range(8)]
    states += [singlet(), alpha_state(1.0), _product_pure_state()]
    h = 1e-6
    for rho in states:
        points = [rng.uniform(0.2, math.pi - 0.2, 4) for _ in range(4)]
        near_poles = [1e-3, rng.uniform(0, math.pi), math.pi - 1e-3, rng.uniform(0, math.pi)]
        points += [np.array(near_poles), np.array([0.7, 1.1, 0.7, 1.1]),
                   np.array([1e-3, 0.4, 1e-3, 0.4])]
        for name, f in _kernel_objectives(rho):
            for x in points:
                n = 2 if name == "single discord" else 4
                x = x[:n]
                value, grad = f(x)
                assert len(grad) == 3 * n // 2
                assert all(math.isfinite(g) for g in grad)
                got = _angle_gradient(grad[:3], x[0], x[1])
                if n == 4:
                    got += _angle_gradient(grad[3:], x[2], x[3])
                for k in range(n):
                    step = np.zeros(n)
                    step[k] = h
                    want = (f(x + step)[0] - f(x - step)[0]) / (2 * h)
                    assert got[k] == pytest.approx(want, abs=1e-6), (name, x, k)



def _qudit_cases():
    # (state, scanned qubit side) for a qubit against a qutrit and a ququart
    # on either side, ranks 1 to full.
    cases = []
    for dims, side in (((2, 3), 0), ((3, 2), 1), ((2, 4), 0), ((4, 2), 1)):
        dim = math.prod(dims)
        for rank in (1, dim // 2, dim - 1, dim):
            cases.append((random_density(dim, rank, 1700 + 10 * dim + rank + side, dims=dims),
                          side))
    return cases


def _qudit_data(rho, side):
    data = kernels.qudit_partner_data(rho.mat, rho.dims[1 - side], side)
    return (*data, mutual_information(rho), entropy(partial_trace(rho, 1 - side)))


def test_qudit_kernels_match_the_matrix_route():
    # The partner kernels against the matrix-route engine on the whole side
    # grid, and against discord_like at angles off it.  The grid's
    # JOINT_BLOCK_ROWS blocks cover 379 axes with a short last block.
    axes, thetas, phis = kernels.axis_grid(24)
    rng = np.random.default_rng(139)
    for rho, side in _qudit_cases():
        data = _qudit_data(rho, side)
        grid = kernels.qudit_drop_grid(axes, *data)
        scan = np.concatenate(list(oracle._drop_scan(rho, side, zip(thetas, phis))))
        assert np.abs(grid - scan).max() <= 1e-13, (rho.dims, side)
        for i in (0, 1, 200, 378):
            assert kernels.qudit_drop_value(axes[i], *data)[0] == pytest.approx(grid[i], abs=1e-13)
        for theta, phi in rng.uniform(0.0, math.pi, (3, 2)):
            want = discord_like(rho, [(qubit_basis(theta, phi), side)])
            got, _ = kernels.qudit_drop_value(_axis(theta, phi), *data)
            assert got == pytest.approx(want, abs=1e-12), (rho.dims, side, theta, phi)


def test_qudit_kernels_on_two_qubits_match_the_bloch_kernels():
    # With d = 2 the partner data re-encode r1, r2 and T, so both forms give
    # the one drop.
    axes, _, _ = kernels.axis_grid(8)
    rng = np.random.default_rng(149)
    for k in range(4):
        rho = random_density(4, 1 + k, rng, dims=(2, 2))
        r1, r2, tmat, _, mi, _ = _state_data(rho)
        for side, (here, there, m) in enumerate(((r1, r2, tmat), (r2, r1, tmat.T.copy()))):
            data = _qudit_data(rho, side)
            want = kernels.single_discord_grid(axes, here, there, m, *data[3:])
            assert np.abs(kernels.qudit_drop_grid(axes, *data) - want).max() <= 1e-13
            for i in (3, 40):
                got, grad = kernels.qudit_drop_value(axes[i], *data)
                value, bloch_grad = kernels.single_discord_value(axes[i], here, there, m, *data[3:])
                assert got == pytest.approx(value, abs=1e-13)
                assert grad == pytest.approx(bloch_grad, abs=1e-9)


def test_qudit_gradient_matches_central_differences():
    # Full-rank states, where every eigenvalue of the dephased blocks is live,
    # at random angles and within 1e-3 of either pole.
    rng = np.random.default_rng(151)
    h = 1e-6
    for rho, side in _qudit_cases():
        if np.linalg.matrix_rank(rho.mat) < rho.dim:
            continue
        data = _qudit_data(rho, side)

        def f(x):
            return kernels.qudit_drop_value(_axis(x[0], x[1]), *data)

        points = [rng.uniform(0.2, math.pi - 0.2, 2) for _ in range(4)]
        points += [np.array([1e-3, 0.6]), np.array([math.pi - 1e-3, 2.1])]
        for x in points:
            value, grad = f(x)
            assert len(grad) == 3 and all(isinstance(g, float) for g in grad)
            got = _angle_gradient(grad, x[0], x[1])
            for k in range(2):
                step = np.zeros(2)
                step[k] = h
                want = (f(x + step)[0] - f(x - step)[0]) / (2 * h)
                assert got[k] == pytest.approx(want, abs=1e-8), (rho.dims, side, x, k)
