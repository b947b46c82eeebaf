"""Closed-form two-qubit objective kernels for the basis-pair minimizations.

Every objective the optimizer searches over (nonlocality of a basis pair,
single- and two-sided discord-like drops) reduces, for a two-qubit state, to
elementary functions of the Bloch data

    r1_i = Tr[rho (s_i x I)],   r2_j = Tr[rho (I x s_j)],
    T_ij = Tr[rho (s_i x s_j)],

because dephasing along a Bloch axis u produces a block-diagonal state whose
2x2 blocks have closed-form eigenvalues:

    S(Ph_u^A rho):  four weights ((1 + s u.r1) +/- |r2 + s T^t u|)/4, s = +/-1
    S(Ph_u^A Ph_v^B rho):  weights (1 + s u.r1 + t v.r2 + s t u.T v)/4
    dephased marginals:  binary entropy of (1 + u.r1)/2 (resp. v.r2)

so a grid scan needs no eigendecompositions at all.  The heavy loops are
compiled with numba when available; setting the environment variable
``QREALITY_DISABLE_NUMBA`` (to anything but ``0``) selects the pure-numpy
vectorized fallback instead.  Both backends are importable side by side for
testing.  The repository benchmark times the grid stage end to end:
``python3 perfbench/run.py --workload pair_min`` (``--trace 1`` for per-layer
figures, see ``perfbench/NOTES.md``).

The matrix route (projector dephasing plus Hermitian eigendecomposition in
:mod:`qreality.measures`) is kept fully independent of this module and is used
to cross-check it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .states import SIGMA_X, SIGMA_Y, SIGMA_Z

ZERO_WEIGHT = 1e-15
# Rows of the joint-entropy grid evaluated per block by the numpy backend.
JOINT_BLOCK_ROWS = 64

_flag = os.environ.get("QREALITY_DISABLE_NUMBA", "")
NUMBA_DISABLED = _flag not in ("", "0")
try:
    if NUMBA_DISABLED:
        raise ImportError
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    njit = None
    NUMBA_ENABLED = False

BACKEND = "numba" if NUMBA_ENABLED else "numpy"


def backend() -> str:
    """Active kernel backend: 'numba' or 'numpy'."""
    return BACKEND


def bloch_correlations(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors and correlation matrix of a two-qubit matrix."""
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    eye = np.eye(2, dtype=complex)
    r1 = np.array([np.trace(mat @ np.kron(p, eye)).real for p in paulis])
    r2 = np.array([np.trace(mat @ np.kron(eye, p)).real for p in paulis])
    tmat = np.array(
        [[np.trace(mat @ np.kron(p, q)).real for q in paulis] for p in paulis]
    )
    return r1, r2, tmat


def axis_from_angles(theta: float, phi: float) -> np.ndarray:
    """Unit Bloch axis for polar/azimuthal angles."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def axis_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes for theta in [0, pi] x phi in [0, pi), row-major (theta outer)."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = tt.reshape(-1)
    pp = pp.reshape(-1)
    axes = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1
    )
    return axes, tt, pp


# ---------------------------------------------------------------------------
# loop implementations (numba-compiled when the backend is 'numba')
# ---------------------------------------------------------------------------

def _side_entropies_loops(axes, r_here, r_there, m):
    # For each axis x: entropy of the state dephased on this side, and the
    # binary entropy of the dephased marginal.  m is T for side A and T^t
    # (contiguous) for side B.
    n = axes.shape[0]
    s_out = np.empty(n)
    h_out = np.empty(n)
    for i in range(n):
        x0 = axes[i, 0]
        x1 = axes[i, 1]
        x2 = axes[i, 2]
        a = x0 * r_here[0] + x1 * r_here[1] + x2 * r_here[2]
        w0 = x0 * m[0, 0] + x1 * m[1, 0] + x2 * m[2, 0]
        w1 = x0 * m[0, 1] + x1 * m[1, 1] + x2 * m[2, 1]
        w2 = x0 * m[0, 2] + x1 * m[1, 2] + x2 * m[2, 2]
        p0 = r_there[0] + w0
        p1 = r_there[1] + w1
        p2 = r_there[2] + w2
        mp = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
        q0 = r_there[0] - w0
        q1 = r_there[1] - w1
        q2 = r_there[2] - w2
        mm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2)
        s = 0.0
        for w in ((1.0 + a + mp) / 4.0, (1.0 + a - mp) / 4.0,
                  (1.0 - a + mm) / 4.0, (1.0 - a - mm) / 4.0):
            if w > ZERO_WEIGHT:
                s -= w * math.log(w)
        s_out[i] = s
        h = 0.0
        pa = (1.0 + a) / 2.0
        if pa > ZERO_WEIGHT:
            h -= pa * math.log(pa)
        pb = 1.0 - pa
        if pb > ZERO_WEIGHT:
            h -= pb * math.log(pb)
        h_out[i] = h
    return s_out, h_out


def _joint_entropy_loops(axes_a, axes_b, r1, r2, tmat):
    # Entropy of the state dephased on both sides: Shannon entropy of the
    # four outcome probabilities (1 + s u.r1 + t v.r2 + s t u.T v)/4.
    na = axes_a.shape[0]
    nb = axes_b.shape[0]
    out = np.empty((na, nb))
    for i in range(na):
        u0 = axes_a[i, 0]
        u1 = axes_a[i, 1]
        u2 = axes_a[i, 2]
        a = u0 * r1[0] + u1 * r1[1] + u2 * r1[2]
        t0 = u0 * tmat[0, 0] + u1 * tmat[1, 0] + u2 * tmat[2, 0]
        t1 = u0 * tmat[0, 1] + u1 * tmat[1, 1] + u2 * tmat[2, 1]
        t2 = u0 * tmat[0, 2] + u1 * tmat[1, 2] + u2 * tmat[2, 2]
        for j in range(nb):
            v0 = axes_b[j, 0]
            v1 = axes_b[j, 1]
            v2 = axes_b[j, 2]
            b = v0 * r2[0] + v1 * r2[1] + v2 * r2[2]
            c = t0 * v0 + t1 * v1 + t2 * v2
            s = 0.0
            for p in ((1.0 + a + b + c) / 4.0, (1.0 + a - b - c) / 4.0,
                      (1.0 - a + b - c) / 4.0, (1.0 - a - b + c) / 4.0):
                if p > ZERO_WEIGHT:
                    s -= p * math.log(p)
            out[i, j] = s
    return out


# ---------------------------------------------------------------------------
# vectorized numpy implementations (the fallback backend)
# ---------------------------------------------------------------------------

def _entropy_terms_numpy(p: np.ndarray) -> np.ndarray:
    # -p ln p elementwise, 0 at or below ZERO_WEIGHT; the log is taken of a
    # copy with those cells set to 1 so it never sees a zero or negative.
    live = p > ZERO_WEIGHT
    return np.where(live, -p * np.log(np.where(live, p, 1.0)), 0.0)


def _side_entropies_numpy(axes, r_here, r_there, m):
    a = axes @ r_here
    w = axes @ m
    mp = np.linalg.norm(r_there + w, axis=1)
    mm = np.linalg.norm(r_there - w, axis=1)
    weights = np.stack(
        [1.0 + a + mp, 1.0 + a - mp, 1.0 - a + mm, 1.0 - a - mm], axis=1
    ) / 4.0
    s_out = _entropy_terms_numpy(weights).sum(axis=1)
    pa = (1.0 + a) / 2.0
    h_out = _entropy_terms_numpy(pa) + _entropy_terms_numpy(1.0 - pa)
    return s_out, h_out


def _joint_entropy_numpy(axes_a, axes_b, r1, r2, tmat):
    # The four -p ln p terms are evaluated JOINT_BLOCK_ROWS rows at a time, so
    # temporaries stay block-sized whatever the grid.  c = u.T v is computed
    # once, straight into the output, by the full-size product: BLAS may round
    # a product over a subset of rows differently in the last bit.  Per cell
    # the arithmetic is that of the one-shot form (the terms summed onto zero
    # in the same order), so every cell is bitwise the same.
    a = (axes_a @ r1)[:, None]
    b = (axes_b @ r2)[None, :]
    out = np.empty((axes_a.shape[0], axes_b.shape[0]))
    np.matmul(axes_a @ tmat, axes_b.T, out=out)
    for start in range(0, out.shape[0], JOINT_BLOCK_ROWS):
        rows = slice(start, start + JOINT_BLOCK_ROWS)
        block = out[rows]
        c = block.copy()
        block[...] = 0.0
        for s in (1.0, -1.0):
            for t in (1.0, -1.0):
                block += _entropy_terms_numpy(
                    (1.0 + s * a[rows] + t * b + s * t * c) / 4.0)
    return out


if NUMBA_ENABLED:
    _side_entropies_jit = njit(cache=True)(_side_entropies_loops)
    _joint_entropy_jit = njit(cache=True)(_joint_entropy_loops)
else:
    _side_entropies_jit = None
    _joint_entropy_jit = None


def _impl(backend_name: str | None):
    name = BACKEND if backend_name is None else backend_name
    if name == "numba":
        if not NUMBA_ENABLED:
            raise RuntimeError("numba backend requested but not available")
        return _side_entropies_jit, _joint_entropy_jit
    if name == "numpy":
        return _side_entropies_numpy, _joint_entropy_numpy
    raise ValueError(f"unknown kernel backend '{backend_name}'")


# ---------------------------------------------------------------------------
# objective grids
# ---------------------------------------------------------------------------

def nonlocality_grid(axes_a, axes_b, r1, r2, tmat, base_entropy, backend=None):
    """N over all axis pairs: S_A + S_B - S_AB - S(rho)."""
    side, joint = _impl(backend)
    tmat_t = np.ascontiguousarray(tmat.T)
    s_a, _ = side(axes_a, r1, r2, tmat)
    s_b, _ = side(axes_b, r2, r1, tmat_t)
    s_ab = joint(axes_a, axes_b, r1, r2, tmat)
    return s_a[:, None] + s_b[None, :] - s_ab - base_entropy


def pair_discord_grid(axes_a, axes_b, r1, r2, tmat, mutual_info, backend=None):
    """Two-sided discord-like drop over all axis pairs."""
    side, joint = _impl(backend)
    tmat_t = np.ascontiguousarray(tmat.T)
    _, h_a = side(axes_a, r1, r2, tmat)
    _, h_b = side(axes_b, r2, r1, tmat_t)
    s_ab = joint(axes_a, axes_b, r1, r2, tmat)
    return mutual_info - h_a[:, None] - h_b[None, :] + s_ab


def single_discord_grid(axes, r1, r2, tmat, mutual_info, env_entropy, backend=None):
    """One-sided discord-like drop over axes on the dephased side."""
    side, _ = _impl(backend)
    s_a, h_a = side(axes, r1, r2, tmat)
    return mutual_info - h_a - env_entropy + s_a


# ---------------------------------------------------------------------------
# scalar values (refinement objectives; also the plain reference formulas)
# ---------------------------------------------------------------------------

def _entropy_sum(weights) -> float:
    s = 0.0
    for w in weights:
        if w > ZERO_WEIGHT:
            s -= w * math.log(w)
    return s


def _side_values(axis, r_here, r_there, m) -> tuple[float, float]:
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


def _joint_value(axis_a, axis_b, r1, r2, tmat) -> float:
    a = float(axis_a @ r1)
    b = float(axis_b @ r2)
    c = float(axis_a @ tmat @ axis_b)
    return _entropy_sum(
        ((1.0 + a + b + c) / 4.0, (1.0 + a - b - c) / 4.0,
         (1.0 - a + b - c) / 4.0, (1.0 - a - b + c) / 4.0)
    )


def nonlocality_value(axis_a, axis_b, r1, r2, tmat, base_entropy) -> float:
    s_a, _ = _side_values(axis_a, r1, r2, tmat)
    s_b, _ = _side_values(axis_b, r2, r1, tmat.T)
    return s_a + s_b - _joint_value(axis_a, axis_b, r1, r2, tmat) - base_entropy


def pair_discord_value(axis_a, axis_b, r1, r2, tmat, mutual_info) -> float:
    _, h_a = _side_values(axis_a, r1, r2, tmat)
    _, h_b = _side_values(axis_b, r2, r1, tmat.T)
    return mutual_info - h_a - h_b + _joint_value(axis_a, axis_b, r1, r2, tmat)


def single_discord_value(axis, r1, r2, tmat, mutual_info, env_entropy) -> float:
    s_a, h_a = _side_values(axis, r1, r2, tmat)
    return mutual_info - h_a - env_entropy + s_a
