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

so a grid scan needs no eigendecompositions at all.  The grids are vectorized
numpy and the only backend.  Each pair grid is one fused pass: the joint
entropy and the objective are formed ``JOINT_BLOCK_ROWS`` rows at a time in
block-sized scratch buffers, with every cell computed by the same floating
point operations, in the same order, as the unfused composition of side and
joint grids.  States whose marginals are maximally mixed have r1 = r2 = 0:
every Bell-diagonal state, so every werner point of the sweep and the alpha
points whose r does not carry rounding from the state's construction.  When
every a = u.r1 and b = v.r2 of the grid is zero, 1 +/- a +/- b is exactly 1,
so the four joint weights are pairwise equal bit for bit, (1 + c)/4 for
s = t and (1 - c)/4 for s != t.  That pass takes each of the two logarithms
once and subtracts the four terms in the usual order, so its S_AB is the
four-log pass's, cell for cell.  The branch is chosen from a and b, never
from a setting.  A caller that minimizes both pair objectives on
one state (``sweep.sweep_rows`` and ``verify.suite_bounds``) passes both grid
calls one :class:`JointEntropy`: the first keeps its S_AB, and the second
builds its grid from it instead of running the joint pass again, which is
almost all of a pair grid's cost.  A single-objective call keeps nothing: it
would hold a second full-size grid for no later use.  The scalar ``*_value``
functions are the refinement objectives:
each returns the value and its gradient by the Bloch axes, the gradient in
plain Python floats (d(-p ln p)/dp = -(1 + ln p) for each live weight).
The repository benchmark times the grid stage end to end:
``python3 perfbench/run.py --workload pair_min`` (``--trace 1`` for per-layer
figures, see ``perfbench/NOTES.md``).

The matrix route (projector dephasing plus Hermitian eigendecomposition in
:mod:`qreality.measures`) is kept fully independent of this module and is used
to cross-check it.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .states import SIGMA_X, SIGMA_Y, SIGMA_Z

ZERO_WEIGHT = 1e-15
# Rows of a pair grid evaluated per block.
JOINT_BLOCK_ROWS = 64


def backend() -> str:
    """Kernel backend: always 'numpy'."""
    return "numpy"


def _pauli_terms():
    # Re Tr[M (P x Q)] = sum over k of Re M[k, j] (P x Q)[j, k], where j is
    # the row of the one nonzero entry in column k of the Pauli product:
    # +/-1 takes +/-Re M[k, j] and +/-i takes -/+Im M[k, j].  Returns, per k,
    # the index of that part in M viewed as 32 floats and its sign, for the 16
    # products with the factor on A outer (identity first).
    paulis = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
    index = np.zeros((4, 16), dtype=np.intp)
    sign = np.zeros((4, 16))
    for m, product in enumerate(np.kron(p, q) for p in paulis for q in paulis):
        for k in range(4):
            (j,) = np.flatnonzero(product[:, k])
            entry = product[j, k]
            real = entry.imag == 0.0
            index[k, m] = 2 * (4 * k + j) + (0 if real else 1)
            sign[k, m] = entry.real if real else -entry.imag
    return index, sign


_PAULI_INDEX, _PAULI_SIGN = _pauli_terms()


def bloch_correlations(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors and correlation matrix of a two-qubit matrix.

    r1_i = Tr[M (s_i x I)], r2_j = Tr[M (I x s_j)] and T_ij = Tr[M (s_i x s_j)]
    (real parts), returned as fresh arrays.  All 16 coefficients come from
    one gather of signed real and imaginary parts of M: each Pauli product
    has one nonzero entry per column, so each trace is a sum of four terms.
    They are summed as (t0 + t1) + (t2 + t3), the order numpy's trace of
    M @ (P x Q) sums its diagonal in, so the result equals that form bit for
    bit wherever the matrix product is exact (each diagonal entry is one
    product by +/-1 or +/-i).
    """
    flat = np.ascontiguousarray(mat, dtype=np.complex128).reshape(16).view(np.float64)
    t = flat[_PAULI_INDEX] * _PAULI_SIGN
    coeffs = ((t[0] + t[1]) + (t[2] + t[3])).reshape(4, 4)
    return coeffs[1:, 0].copy(), coeffs[0, 1:].copy(), coeffs[1:, 1:].copy()


@functools.lru_cache(maxsize=4)
def axis_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis per basis of the theta in [0, pi] x phi in [0, pi) grid.

    Row-major, theta outer.  At theta = 0 and theta = pi every phi gives the
    axis +z or -z, and both are the one projective basis {|0>, |1>}; that
    basis appears once, as the first axis (theta = phi = 0).  The other axes
    are the inner theta rows across all phi, so there are
    1 + max(n_theta - 2, 0) * n_phi axes.

    The last four grids asked for are kept and returned again, so the arrays
    are read-only.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)[1:-1]
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = np.concatenate([[0.0], tt.reshape(-1)])
    pp = np.concatenate([[0.0], pp.reshape(-1)])
    axes = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1
    )
    for x in (axes, tt, pp):
        x.setflags(write=False)
    return axes, tt, pp


# ---------------------------------------------------------------------------
# grid building blocks
# ---------------------------------------------------------------------------

def _entropy_terms_numpy(p: np.ndarray) -> np.ndarray:
    # -p ln p elementwise, 0 at or below ZERO_WEIGHT; the log is taken of a
    # copy with those cells set to 1 so it never sees a zero or negative.
    live = p > ZERO_WEIGHT
    return np.where(live, -p * np.log(np.where(live, p, 1.0)), 0.0)


def _side_entropies_numpy(axes, r_here, r_there, m):
    # For each axis: entropy of the state dephased on this side, and the
    # binary entropy of the dephased marginal.  m is T for side A and T^t
    # (contiguous) for side B.
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


def _joint_entropy_blocks(axes_a, axes_b, r1, r2, tmat, out):
    # Entropy of the state dephased on both sides: Shannon entropy of the four
    # outcome probabilities (1 + s u.r1 + t v.r2 + s t u.T v)/4.  Fills out
    # with c = u.T v by the full-size product (BLAS may round a product over a
    # subset of rows differently in the last bit), then yields (rows, S_AB of
    # those rows) per JOINT_BLOCK_ROWS rows.  out[rows] holds c until its
    # S_AB is yielded; the caller then overwrites it.  The yielded array is
    # scratch, reused by the next block.
    #
    # Per cell this is the arithmetic of the one-shot form
    # sum over (s, t) of where(p > ZERO_WEIGHT, -p ln p, 0) onto zero:
    # p = ((1 + s a) + t b) + s t c, then x/4 == x*0.25; ln is taken of
    # q = where(p > ZERO_WEIGHT, p, 1) (just p when every cell is live), so a
    # dead cell subtracts 1*ln 1 = +0.0, and acc - q ln q == acc + (-q) ln q.
    # The sum never holds -0.0, so both zero terms leave it unchanged.
    #
    # When every a and b is +/-0 (r1 = r2 = 0), 1 +/- a and then +/- b are
    # exactly 1, so p(+,+) = p(-,-) = (1 + c)/4 and p(+,-) = p(-,+) = (1 - c)/4
    # bit for bit: the two-log block forms L+ = q ln q of the first and L- of
    # the second once each and subtracts them in the order above,
    # (((0 - L+) - L-) - L-) - L+, in the same three buffers.
    np.matmul(axes_a @ tmat, axes_b.T, out=out)
    a = axes_a @ r1
    b = axes_b @ r2
    shape = (min(JOINT_BLOCK_ROWS, out.shape[0]), out.shape[1])
    buffers = np.empty(shape), np.empty(shape), np.empty(shape)
    if a.any() or b.any():  # a NaN counts as nonzero
        sides = ((1.0 + a)[:, None], (1.0 - a)[:, None])
        block = functools.partial(_four_log_block, sides, b)
    else:
        block = _two_log_block
    for start in range(0, out.shape[0], JOINT_BLOCK_ROWS):
        rows = slice(start, start + JOINT_BLOCK_ROWS)
        c = out[rows]
        n = c.shape[0]
        yield rows, block(rows, c, *(buf[:n] for buf in buffers))


def _live(p):
    # p, or a copy with the cells at or below ZERO_WEIGHT set to 1; min is NaN
    # when any cell is, which takes the where path.
    return p if p.min() > ZERO_WEIGHT else np.where(p > ZERO_WEIGHT, p, 1.0)


def _four_log_block(sides, b, rows, c, p, lq, acc):
    acc.fill(0.0)
    for s, side in enumerate(sides):
        for t, add_b in enumerate((np.add, np.subtract)):
            add_b(side[rows], b, out=p)
            # s t = +1 when s and t have the same sign
            (np.add if s == t else np.subtract)(p, c, out=p)
            np.multiply(p, 0.25, out=p)
            q = _live(p)
            np.log(q, out=lq)
            np.multiply(q, lq, out=lq)
            np.subtract(acc, lq, out=acc)
    return acc


def _two_log_block(rows, c, p, lq, acc):
    np.add(1.0, c, out=p)
    np.multiply(p, 0.25, out=p)
    q = _live(p)
    np.log(q, out=lq)
    np.multiply(q, lq, out=lq)  # L+
    np.subtract(1.0, c, out=p)
    np.multiply(p, 0.25, out=p)
    q = _live(p)
    np.log(q, out=acc)
    np.multiply(q, acc, out=acc)  # L-
    np.subtract(0.0, lq, out=p)
    p -= acc
    p -= acc
    p -= lq
    return p


class JointEntropy:
    """S(Ph_A Ph_B rho) over one pair grid, shared by both pair objectives of a state.

    Pass one holder to both pair-grid calls on a state.  The first call runs
    the joint pass and keeps its S_AB; the second builds its grid from the
    kept values, cell for cell the same.  A filled holder serves only the
    Bloch data and axes that filled it: any others raise ``ValueError``.
    :meth:`clear` empties it for the next state but keeps its buffer.  A
    caller that walks through many states reuses one holder this way, the one
    :meth:`for_this_thread` returns: a new buffer per state, or per call,
    would be freed together with that state's grids, and the heap would hand
    the pages back and fault them in again for the next state, which costs
    about half of a joint pass.
    """

    def __init__(self):
        self._inputs = None
        self._values = None  # S_AB while _inputs is set; otherwise a free buffer

    @classmethod
    def for_this_thread(cls) -> JointEntropy:
        """The calling thread's holder, kept for the life of the thread.

        Its buffer survives from one call of a caller to the next.  It is
        never shared between threads; callers ``clear()`` it per state.
        """
        holder = getattr(_THREAD_HOLDERS, "joint", None)
        if holder is None:
            holder = _THREAD_HOLDERS.joint = cls()
        return holder

    def clear(self):
        """Forget the state that filled the holder; the next grid call refills it."""
        self._inputs = None

    def _blocks(self, axes_a, axes_b, r1, r2, tmat, out):
        # (rows, S_AB of those rows) as _joint_entropy_blocks yields them,
        # while keeping a copy; once filled, one block of all rows.
        inputs = (axes_a, axes_b, r1, r2, tmat)
        if self._inputs is not None:
            if not all(np.array_equal(x, y) for x, y in zip(inputs, self._inputs)):
                raise ValueError(
                    "joint entropy holder was filled for other Bloch data or axes")
            yield slice(None), self._values
            return
        if self._values is None or self._values.shape != out.shape:
            self._values = np.empty_like(out)
        for rows, s_ab in _joint_entropy_blocks(axes_a, axes_b, r1, r2, tmat, out):
            self._values[rows] = s_ab
            yield rows, s_ab
        self._inputs = tuple(np.array(x) for x in inputs)


_THREAD_HOLDERS = threading.local()


def _joint_entropy(axes_a, axes_b, r1, r2, tmat, out, joint):
    if joint is None:
        return _joint_entropy_blocks(axes_a, axes_b, r1, r2, tmat, out)
    return joint._blocks(axes_a, axes_b, r1, r2, tmat, out)


# ---------------------------------------------------------------------------
# objective grids
# ---------------------------------------------------------------------------

def nonlocality_grid(axes_a, axes_b, r1, r2, tmat, base_entropy, *, joint=None):
    """N over all axis pairs: S_A + S_B - S_AB - S(rho).

    ``joint`` is the state's :class:`JointEntropy` when both pair objectives
    are minimized on it.
    """
    s_a, _ = _side_entropies_numpy(axes_a, r1, r2, tmat)
    s_b, _ = _side_entropies_numpy(axes_b, r2, r1, np.ascontiguousarray(tmat.T))
    s_a = s_a[:, None]
    out = np.empty((axes_a.shape[0], axes_b.shape[0]))
    for rows, s_ab in _joint_entropy(axes_a, axes_b, r1, r2, tmat, out, joint):
        block = out[rows]
        np.add(s_a[rows], s_b, out=block)
        block -= s_ab
        block -= base_entropy
    return out


def pair_discord_grid(axes_a, axes_b, r1, r2, tmat, mutual_info, *, joint=None):
    """Two-sided discord-like drop over all axis pairs; ``joint`` as in
    :func:`nonlocality_grid`."""
    _, h_a = _side_entropies_numpy(axes_a, r1, r2, tmat)
    _, h_b = _side_entropies_numpy(axes_b, r2, r1, np.ascontiguousarray(tmat.T))
    head = (mutual_info - h_a)[:, None]
    out = np.empty((axes_a.shape[0], axes_b.shape[0]))
    for rows, s_ab in _joint_entropy(axes_a, axes_b, r1, r2, tmat, out, joint):
        block = out[rows]
        np.subtract(head[rows], h_b, out=block)
        block += s_ab
    return out


def single_discord_grid(axes, r1, r2, tmat, mutual_info, env_entropy):
    """One-sided discord-like drop over axes on the dephased side."""
    s_a, h_a = _side_entropies_numpy(axes, r1, r2, tmat)
    return mutual_info - h_a - env_entropy + s_a


# ---------------------------------------------------------------------------
# scalar values and gradients (refinement objectives)
# ---------------------------------------------------------------------------

def _entropy4(w0, w1, w2, w3):
    # Shannon entropy of four weights, skipping those at or below
    # ZERO_WEIGHT, and the derivative of each term, -(1 + ln w).  A dead
    # weight adds nothing to either, so it leaves the gradient finite.
    s = d0 = d1 = d2 = d3 = 0.0
    if w0 > ZERO_WEIGHT:
        log = math.log(w0)
        s -= w0 * log
        d0 = -1.0 - log
    if w1 > ZERO_WEIGHT:
        log = math.log(w1)
        s -= w1 * log
        d1 = -1.0 - log
    if w2 > ZERO_WEIGHT:
        log = math.log(w2)
        s -= w2 * log
        d2 = -1.0 - log
    if w3 > ZERO_WEIGHT:
        log = math.log(w3)
        s -= w3 * log
        d3 = -1.0 - log
    return s, d0, d1, d2, d3


def _side_entropy(a, w, r_there):
    # S(Ph_u rho) for the axis u on this side, a = u . r_here and w = u m,
    # with its derivative by a and by w (three floats).  sqrt(v . v) is the
    # dot product np.linalg.norm takes the root of, so it is bitwise equal.
    # w enters through mp = |r_there + w| and mm = |r_there - w|; where a
    # length is zero its two weights are equal, their derivatives cancel and
    # it contributes nothing.
    plus = r_there + w
    minus = r_there - w
    mp = math.sqrt(plus.dot(plus))
    mm = math.sqrt(minus.dot(minus))
    s, d0, d1, d2, d3 = _entropy4((1.0 + a + mp) / 4.0, (1.0 + a - mp) / 4.0,
                                  (1.0 - a + mm) / 4.0, (1.0 - a - mm) / 4.0)
    kp = (d0 - d1) / (4.0 * mp) if mp > 0.0 else 0.0
    km = (d2 - d3) / (4.0 * mm) if mm > 0.0 else 0.0
    d_w = [kp * p - km * m for p, m in zip(plus.tolist(), minus.tolist())]
    return s, (d0 + d1 - d2 - d3) / 4.0, d_w


def _marginal_entropy(a):
    # Binary entropy of the dephased marginal, a = u . r_here, and its
    # derivative by a.
    s = d = 0.0
    w = (1.0 + a) / 2.0
    if w > ZERO_WEIGHT:
        log = math.log(w)
        s -= w * log
        d -= (1.0 + log) / 2.0
    w = (1.0 - a) / 2.0
    if w > ZERO_WEIGHT:
        log = math.log(w)
        s -= w * log
        d += (1.0 + log) / 2.0
    return s, d


def _joint_value(a, b, c):
    # S_AB for a = u.r1, b = v.r2 and c = u.T v, and its derivatives by a,
    # b and c.
    s, d0, d1, d2, d3 = _entropy4((1.0 + a + b + c) / 4.0, (1.0 + a - b - c) / 4.0,
                                  (1.0 - a + b - c) / 4.0, (1.0 - a - b + c) / 4.0)
    return (s, (d0 + d1 - d2 - d3) / 4.0, (d0 - d1 + d2 - d3) / 4.0,
            (d0 - d1 - d2 + d3) / 4.0)


def _lift(k, r, rows, x):
    # k r + M x as three floats, for the 3-vectors r and x and the rows of M.
    x0, x1, x2 = x
    return [k * ri + m0 * x0 + m1 * x1 + m2 * x2 for ri, (m0, m1, m2) in zip(r, rows)]


# The scalar objectives take their products with ndarray.dot: for these 1-D
# and 1-D by 2-D operands it makes the same BLAS call (ddot or dgemv) as the
# @ operator, without the matmul ufunc's dispatch, so the bits are the same.
# Each returns (value, gradient).  The gradient is taken by the Cartesian
# components of the axis (or of axis_a, then axis_b) as plain floats; the
# chain rule onto angles is the caller's.  Every weight is affine in u.r1,
# v.r2, u.T v, |r2 +- T^t u| and |r1 +- T v|, so each derivative is the chain
# through those.

def nonlocality_value(axis_a, axis_b, r1, r2, tmat, base_entropy) -> tuple[float, tuple]:
    a = float(axis_a.dot(r1))
    b = float(axis_b.dot(r2))
    # u T, once: the side entropy of A needs it, and u.T v is (u T) v, the
    # product axis_a @ tmat @ axis_b evaluates.
    w_a = axis_a.dot(tmat)
    s_a, sa_a, sa_w = _side_entropy(a, w_a, r2)
    s_b, sb_b, sb_w = _side_entropy(b, axis_b.dot(tmat.T), r1)
    joint, j_a, j_b, j_c = _joint_value(a, b, float(w_a.dot(axis_b)))
    value = s_a + s_b - joint - base_entropy
    # dN/du = (dS_A/da - dJ/da) r1 + T (dS_A/dw - dJ/dc v), and dN/dv alike
    # with T^t.
    u, v, rows = axis_a.tolist(), axis_b.tolist(), tmat.tolist()
    grad_a = _lift(sa_a - j_a, r1.tolist(), rows,
                   [d - j_c * vk for d, vk in zip(sa_w, v)])
    grad_b = _lift(sb_b - j_b, r2.tolist(), zip(*rows),
                   [d - j_c * uk for d, uk in zip(sb_w, u)])
    return value, (*grad_a, *grad_b)


def pair_discord_value(axis_a, axis_b, r1, r2, tmat, mutual_info) -> tuple[float, tuple]:
    a = float(axis_a.dot(r1))
    b = float(axis_b.dot(r2))
    h_a, ha_a = _marginal_entropy(a)
    h_b, hb_b = _marginal_entropy(b)
    joint, j_a, j_b, j_c = _joint_value(a, b, float(axis_a.dot(tmat).dot(axis_b)))
    value = mutual_info - h_a - h_b + joint
    rows = tmat.tolist()
    grad_a = _lift(j_a - ha_a, r1.tolist(), rows, [j_c * vk for vk in axis_b.tolist()])
    grad_b = _lift(j_b - hb_b, r2.tolist(), zip(*rows), [j_c * uk for uk in axis_a.tolist()])
    return value, (*grad_a, *grad_b)


def single_discord_value(axis, r1, r2, tmat, mutual_info, env_entropy) -> tuple[float, tuple]:
    a = float(axis.dot(r1))
    s_a, sa_a, sa_w = _side_entropy(a, axis.dot(tmat), r2)
    h_a, ha_a = _marginal_entropy(a)
    value = mutual_info - h_a - env_entropy + s_a
    return value, tuple(_lift(sa_a - ha_a, r1.tolist(), tmat.tolist(), sa_w))
