"""Closed-form objective kernels for the basis minimizations.

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

so a grid scan needs no eigendecompositions at all.  A qubit against a
d-level partner keeps the one-sided drop's form, with the partner's data
replaced by its marginal and operators R_i (:func:`qudit_partner_data`), and
takes the spectra of two d x d blocks per point.  The grids are vectorized
numpy and the only backend.  Each grid computes only the side data its
objective reads: the dephased-state entropies for nonlocality, the marginal
binary entropies for the pair discord, both for the one-sided drop.  Each
pair grid is one fused pass: the joint entropy and the objective are formed
``JOINT_BLOCK_ROWS`` rows at a time in block-sized scratch buffers, with
every cell computed by the same floating point operations, in the same
order, as the unfused composition of side and joint grids.  A row that is
added to every block (b = v.r2 in the joint weights, S_B or the binary
entropy of B in the objective) is copied once per pass into a contiguous
tile of block height, and each block adds its column into the tile, which
numpy iterates faster than the broadcast of a column against a row.  A cell
of either form is the one IEEE addition of the same two operands, so the
tiles change no bit.

States whose marginals are maximally mixed have r1 = r2 = 0:
every Bell-diagonal state, so every werner point of the sweep and the alpha
points whose r does not carry rounding from the state's construction.  When
every a = u.r1 and b = v.r2 of the grid is zero, 1 +/- a +/- b is exactly 1,
so the four joint weights are pairwise equal bit for bit, (1 + c)/4 for
s = t and (1 - c)/4 for s != t.  That pass takes each of the two logarithms
once and subtracts the four terms in the usual order, so its S_AB is the
four-log pass's, cell for cell.  The branch is chosen from a and b, never
from a setting.  A thread keeps the S_AB of a joint pass when its own calls
repeat a state: a pair grid on the axes and Bloch data of the thread's last
call reads the pass that call kept instead of running it again, which is
almost all of a pair grid's cost.  A call on new inputs keeps its pass only
if the thread's previous call repeated the one before it, so a caller that
minimizes both pair objectives on each state (``sweep.sweep_rows``,
``verify.suite_bounds``) runs one pass per state after its first, and one
that asks once per state keeps nothing.  The scalar ``*_value`` functions
are the refinement objectives: each returns the value and its gradient by
the Bloch axes, the gradient in plain Python floats.  Their two-qubit
entropies, with the slope d(-p ln p)/dp = -(1 + ln p) of each live weight,
all come from one helper, ``_entropy_slopes``.
The repository benchmark times the grid stage end to end:
``python3 perfbench/run.py --workload pair_min`` (``--trace 1`` for per-layer
figures, see ``perfbench/NOTES.md``).

The matrix route (dephasing in the measured basis plus Hermitian
eigendecomposition in :mod:`qreality.measures`, and the dense scans of
:mod:`qreality.oracle`) is kept fully independent of this module and is used
to cross-check it.  The two routes share one rule, the "0 ln 0 = 0" cut-off
``linalg.ZERO_WEIGHT``: every weight at or below it counts as zero.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, ZERO_WEIGHT

# Rows of a pair grid evaluated per block.
JOINT_BLOCK_ROWS = 64


def backend() -> str:
    """Kernel backend: always 'numpy'."""
    return "numpy"


# The 16 Pauli products P x Q with the factor on A outer, identity first:
# entry 4i + j is s_i x s_j with s_0 = I.
_PAULIS = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_PRODUCTS = np.stack([np.kron(p, q) for p in _PAULIS for q in _PAULIS])
PAULI_PRODUCTS.setflags(write=False)


def bloch_correlations(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors and correlation matrix of a two-qubit matrix.

    r1_i = Tr[M (s_i x I)], r2_j = Tr[M (I x s_j)] and T_ij = Tr[M (s_i x s_j)]
    (real parts), returned as fresh arrays: the traces of M (P x Q) for each
    product in ``PAULI_PRODUCTS``, by one stacked matrix product.  Each
    column of a Pauli product holds one nonzero entry, +/-1 or +/-i, so every
    diagonal entry of M (P x Q) is one exact product of an entry of M, and
    the stacked trace sums the same four terms in the same order as
    ``np.trace(M @ np.kron(P, Q))``: the two forms are equal bit for bit.
    """
    coeffs = np.trace(mat @ PAULI_PRODUCTS, axis1=1, axis2=2).real.reshape(4, 4)
    return coeffs[1:, 0].copy(), coeffs[0, 1:].copy(), coeffs[1:, 1:].copy()


def qudit_partner_data(mat, d, side):
    """r, rho_B and R of the qubit on ``side`` of mat against a d-level partner.

    rho = (I x rho_B + sum_i s_i x R_i) / 2, qubit factor first, with
    R_i = Tr_q[(s_i x I) rho] stacked (3, d, d) and r_i = tr R_i.  Dephasing
    the qubit along u leaves the blocks (rho_B +/- u.R)/2, of traces
    (1 +/- u.r)/2, the dephased qubit's outcome probabilities.
    """
    m = mat.reshape(2, d, 2, d) if side == 0 else mat.reshape(d, 2, d, 2).transpose(1, 0, 3, 2)
    parts = np.einsum("iab,bxay->ixy", np.stack(_PAULIS), m)
    return np.trace(parts[1:], axis1=1, axis2=2).real, parts[0], parts[1:]


@functools.lru_cache(maxsize=4)
def axis_grid(steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis per basis of a grid over theta in [0, pi], phi in [0, pi).

    Row-major, theta outer, over the steps + 1 thetas from pole to pole, pi /
    steps apart.  At theta = 0 and theta = pi every phi gives the axis +z or
    -z, and both are the one projective basis {|0>, |1>}; that basis appears
    once, as the first axis (theta = phi = 0).  Each inner theta row then
    holds n_k = ceil(steps sin(theta) - 1e-9) evenly spaced phis from 0, so no
    two neighbours on a row are farther apart than on the equator row, which
    holds steps phis, pi / steps apart; the slack keeps rows theta and
    pi - theta the same size through the rounding of sin.  So there are
    1 + sum of n_k axes: 379 for 24 steps, where full rows would hold 553.

    The last four grids asked for are kept and returned again, so the arrays
    are read-only.
    """
    thetas = np.linspace(0.0, math.pi, steps + 1)[1:-1]
    sizes = np.ceil(steps * np.sin(thetas) - 1e-9).astype(np.intp)
    tt = np.concatenate([[0.0], np.repeat(thetas, sizes)])
    rows = (np.linspace(0.0, math.pi, n, endpoint=False) for n in sizes)
    pp = np.concatenate([[0.0], *rows])
    axes = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1
    )
    for x in (axes, tt, pp):
        x.setflags(write=False)
    return axes, tt, pp


# ---------------------------------------------------------------------------
# grid building blocks
# ---------------------------------------------------------------------------

def _entropy_terms(p: np.ndarray) -> np.ndarray:
    # -p ln p elementwise, 0 at or below ZERO_WEIGHT; the log is taken of a
    # copy with those cells set to 1 so it never sees a zero or negative.
    live = p > ZERO_WEIGHT
    return np.where(live, -p * np.log(np.where(live, p, 1.0)), 0.0)


def _dephased_entropies(axes, a, r_there, m):
    # For each axis: entropy of the state dephased on this side, with
    # a = axes @ r_here.  m is T for side A and T^t (contiguous) for side B.
    w = axes @ m
    mp = np.linalg.norm(r_there + w, axis=1)
    mm = np.linalg.norm(r_there - w, axis=1)
    weights = np.stack(
        [1.0 + a + mp, 1.0 + a - mp, 1.0 - a + mm, 1.0 - a - mm], axis=1
    ) / 4.0
    return _entropy_terms(weights).sum(axis=1)


def _marginal_entropies(a):
    # For each a = u . r_here: binary entropy of the dephased marginal.
    pa = (1.0 + a) / 2.0
    return _entropy_terms(pa) + _entropy_terms(1.0 - pa)


def _row_tile(row, n_rows):
    # The row repeated down min(JOINT_BLOCK_ROWS, n_rows) rows, contiguous.
    # A column added into it takes one contiguous inner loop per row, where
    # the broadcast of column against row is the slower iteration; each cell
    # is the same one addition of the same two operands, so the bits are the
    # same.
    tile = np.empty((min(JOINT_BLOCK_ROWS, n_rows), row.size))
    tile[...] = row
    return tile


def _row_blocks(n_rows):
    # The slices of JOINT_BLOCK_ROWS rows that cover n_rows rows.
    return (slice(start, start + JOINT_BLOCK_ROWS)
            for start in range(0, n_rows, JOINT_BLOCK_ROWS))


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
        block = functools.partial(_four_log_block, sides, _row_tile(b, out.shape[0]))
    else:
        block = _two_log_block
    for rows in _row_blocks(out.shape[0]):
        c = out[rows]
        n = c.shape[0]
        yield rows, block(rows, c, *(buf[:n] for buf in buffers))


def _live(p):
    # p, or a copy with the cells at or below ZERO_WEIGHT set to 1; min is NaN
    # when any cell is, which takes the where path.
    return p if p.min() > ZERO_WEIGHT else np.where(p > ZERO_WEIGHT, p, 1.0)


def _four_log_block(sides, b_tile, rows, c, p, lq, acc):
    acc.fill(0.0)
    b = b_tile[:c.shape[0]]
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


# Per thread: the last joint pass's inputs, whether that call repeated the
# one before it, whether its S_AB is kept, and the buffer that keeps it.
_KEPT = threading.local()


def _joint_entropy(axes_a, axes_b, r1, r2, tmat, out):
    # (rows, S_AB of those rows) as _joint_entropy_blocks yields them, or
    # the kept rows, in the same blocks, when the inputs equal the last
    # call's and it kept its pass.  Equal Bloch data are one state, so a
    # kept S_AB serves no other.  A pass is kept only after a repeat, so a
    # thread that asks once per state writes no buffer that nobody reads.
    # The buffer lives as long as the thread: a new one per state would be
    # freed with that state's grids, and the heap would hand the pages back
    # and fault them in again for the next state, about half a pass.
    inputs = (axes_a, axes_b, r1, r2, tmat)
    last = getattr(_KEPT, "inputs", None)
    repeat = last is not None and all(np.array_equal(x, y) for x, y in zip(inputs, last))
    keep = getattr(_KEPT, "repeated", False)
    _KEPT.repeated = repeat
    if repeat and _KEPT.kept:
        values = _KEPT.values
        for rows in _row_blocks(out.shape[0]):
            yield rows, values[rows]
        return
    _KEPT.inputs, _KEPT.kept = tuple(np.array(x) for x in inputs), False
    values = getattr(_KEPT, "values", None)
    if keep and (values is None or values.shape != out.shape):
        values = _KEPT.values = np.empty_like(out)
    for rows, s_ab in _joint_entropy_blocks(axes_a, axes_b, r1, r2, tmat, out):
        if keep:
            values[rows] = s_ab
        yield rows, s_ab
    _KEPT.kept = keep


# ---------------------------------------------------------------------------
# objective grids
# ---------------------------------------------------------------------------

def nonlocality_grid(axes_a, axes_b, r1, r2, tmat, base_entropy):
    """N over all axis pairs: S_A + S_B - S_AB - S(rho).

    S_AB is read from this thread's kept pass when its calls repeat the
    inputs (see the module docstring); the grid is the same bit for bit.
    """
    s_a = _dephased_entropies(axes_a, axes_a @ r1, r2, tmat)[:, None]
    s_b = _dephased_entropies(axes_b, axes_b @ r2, r1, np.ascontiguousarray(tmat.T))
    out = np.empty((axes_a.shape[0], axes_b.shape[0]))
    s_b = _row_tile(s_b, out.shape[0])
    for rows, s_ab in _joint_entropy(axes_a, axes_b, r1, r2, tmat, out):
        block = out[rows]
        np.add(s_a[rows], s_b[:block.shape[0]], out=block)
        block -= s_ab
        block -= base_entropy
    return out


def pair_discord_grid(axes_a, axes_b, r1, r2, tmat, mutual_info):
    """Two-sided discord-like drop over all axis pairs; S_AB as in
    :func:`nonlocality_grid`."""
    head = (mutual_info - _marginal_entropies(axes_a @ r1))[:, None]
    out = np.empty((axes_a.shape[0], axes_b.shape[0]))
    h_b = _row_tile(_marginal_entropies(axes_b @ r2), out.shape[0])
    for rows, s_ab in _joint_entropy(axes_a, axes_b, r1, r2, tmat, out):
        block = out[rows]
        np.subtract(head[rows], h_b[:block.shape[0]], out=block)
        block += s_ab
    return out


def single_discord_grid(axes, r1, r2, tmat, mutual_info, env_entropy):
    """One-sided discord-like drop over axes on the dephased side."""
    a = axes @ r1
    s_a = _dephased_entropies(axes, a, r2, tmat)
    return mutual_info - _marginal_entropies(a) - env_entropy + s_a


def _dephased_blocks(axes, rho_b, ops):
    # The blocks (rho_B +/- u.R)/2 of each axis u, stacked (..., 2, d, d).
    u_r = np.tensordot(axes, ops, 1)
    return np.stack([rho_b + u_r, rho_b - u_r], axis=-3) / 2.0


def qudit_drop_grid(axes, r, rho_b, ops, mutual_info, env_entropy):
    """:func:`single_discord_grid` with S(Ph_u rho) the entropy of the two
    blocks' spectra, one stacked ``eigvalsh`` per JOINT_BLOCK_ROWS axes."""
    s_a = np.empty(axes.shape[0])
    for rows in _row_blocks(axes.shape[0]):
        spectra = np.linalg.eigvalsh(_dephased_blocks(axes[rows], rho_b, ops))
        s_a[rows] = _entropy_terms(spectra).sum(axis=(1, 2))
    return mutual_info - _marginal_entropies(axes @ r) - env_entropy + s_a


# ---------------------------------------------------------------------------
# scalar values and gradients (refinement objectives)
# ---------------------------------------------------------------------------

def _entropy_slopes(*weights):
    # Shannon entropy of the weights, skipping those at or below
    # ZERO_WEIGHT, and the derivative of each term, -(1 + ln w), as a list.
    # A dead weight adds nothing to either, so it leaves the gradient finite.
    s = 0.0
    slopes = []
    for w in weights:
        if w > ZERO_WEIGHT:
            log = math.log(w)
            s -= w * log
            slopes.append(-1.0 - log)
        else:
            slopes.append(0.0)
    return s, slopes


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
    s, (d0, d1, d2, d3) = _entropy_slopes((1.0 + a + mp) / 4.0, (1.0 + a - mp) / 4.0,
                                          (1.0 - a + mm) / 4.0, (1.0 - a - mm) / 4.0)
    kp = (d0 - d1) / (4.0 * mp) if mp > 0.0 else 0.0
    km = (d2 - d3) / (4.0 * mm) if mm > 0.0 else 0.0
    d_w = [kp * p - km * m for p, m in zip(plus.tolist(), minus.tolist())]
    return s, (d0 + d1 - d2 - d3) / 4.0, d_w


def _marginal_entropy(a):
    # Binary entropy of the dephased marginal, a = u . r_here, and its
    # derivative by a: half the difference of the two slopes.
    s, (d0, d1) = _entropy_slopes((1.0 + a) / 2.0, (1.0 - a) / 2.0)
    return s, (d0 - d1) / 2.0


def _joint_value(a, b, c):
    # S_AB for a = u.r1, b = v.r2 and c = u.T v, and its derivatives by a,
    # b and c.
    s, (d0, d1, d2, d3) = _entropy_slopes((1.0 + a + b + c) / 4.0, (1.0 + a - b - c) / 4.0,
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


def qudit_drop_value(axis, r, rho_b, ops, mutual_info, env_entropy) -> tuple[float, tuple]:
    """The drop of :func:`qudit_drop_grid` at one axis, and its gradient.

    d tr f(B) = tr f'(B) dB (Bhatia, Matrix Analysis, ch. V), so from one
    ``eigh``, dS/du_i = sum over B+/- of +/- sum_k f'(l_k) <v_k|R_i|v_k>/2,
    with f'(l) = -(1 + ln l) on live eigenvalues.
    """
    spectra, vecs = np.linalg.eigh(_dephased_blocks(axis, rho_b, ops))
    live = spectra > ZERO_WEIGHT
    logs = np.log(np.where(live, spectra, 1.0))
    slopes = np.where(live, -1.0 - logs, 0.0)
    diag = np.einsum("sxk,ixy,syk->sik", vecs.conj(), ops, vecs).real
    h_a, ha_a = _marginal_entropy(float(axis.dot(r)))
    grad = (diag[0] @ slopes[0] - diag[1] @ slopes[1]) / 2.0 - ha_a * r
    value = mutual_info - h_a - env_entropy + float(np.where(live, -spectra * logs, 0.0).sum())
    return value, tuple(grad.tolist())
