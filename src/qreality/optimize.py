"""Minimization over one or two parameterized qubit bases.

Strategy: exhaustive scan of a fixed (theta, phi) grid per optimized side,
followed by quasi-Newton BFGS refinement started from the best grid cells.
The objective landscapes are smooth but multimodal, so the grid bounds how far
a global optimum can hide and BFGS sharpens the best cells to tolerance.  The
grid holds one axis per basis: the poles theta = 0 and theta = pi are the one
basis {|0>, |1>} and appear once, and each inner theta row holds only as many
phis as keep its spacing within the equator row's (see
:func:`qreality.kernels.axis_grid`).  The refinement is an in-house BFGS on plain
Python floats with a backtracking (Armijo) line search, so the package needs
only numpy.  Each evaluation is one call of a kernel in
:mod:`qreality.kernels`, which returns the value and its gradient by the
Bloch axes; the chain rule through (theta, phi) is applied here.  A
start converges when its gradient falls to ``REFINE_TOLERANCE`` in every
coordinate; one that reaches ``MAX_REFINE_ITERATIONS``, or whose line search
finds no lower value, has not.  The grid best is a floor: refinement never
reports a value above it.  When the grid best is kept, it has converged if
the gradient test passed there, at the first evaluation of its own start.
Everything is deterministic: fixed grid order, ties broken by lowest linear
grid index, and ties between starts by start order.

The best grid cells are those of distinct basins.  The lowest cells crowd
into the deepest basin, and refining several of them descends that basin
again each time.  So the starts are taken from a pool of the
``START_POOL * refine_starts`` lowest cells, in order of value: a cell is
skipped when an accepted start lies within ``START_SEPARATION`` of it on every
optimized side (an axis and its negative are one basis), and the walk stops
after ``refine_starts`` accepted cells.  The first start is always the grid
best; a pool holding fewer basins gives fewer starts.

The independent check of both minimizers, the matrix (projector-dephasing)
route's dense scans, lives in :mod:`qreality.oracle`, which imports neither
this module nor the kernels.

The two pair objectives share their costliest part, the entropy of the state
dephased on both sides.  A thread that minimizes both on each state (the
sweep rows and the bounds suite do) computes it once per state after its
first: the kernels keep a thread's joint grid when its calls repeat a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import DensityMatrix, _check_integer, _check_qubit_side, partial_trace
from .measures import entropy, mutual_information
from .observables import ProjectiveBasis, fourier_of, schmidt_decompose
# Bound here only for perfbench: its tracer and its oracle workload resolve
# qreality.optimize.brute_force_single.
from .oracle import brute_force_single  # noqa: F401

OBJECTIVE_NONLOCALITY = "nonlocality"
OBJECTIVE_DISCORD = "discord"

# Largest pair grid minimize_pair accepts, in cells: about 64 MB per float64
# grid.  The budget is checked against (theta points * phi points)**2, an
# upper bound on the cells: the pole axis is kept once and the rows away
# from the equator hold fewer phis, so the default 25 x 24 grid per side
# names 360,000 cells and has 143,641.
MAX_PAIR_GRID_CELLS = 2**23
# Largest side grid minimize_single accepts, in grid points: its (points, 3)
# float64 axis array is 48 MB, within one pair grid's size.
MAX_SIDE_GRID_POINTS = 2**21
# Sufficient-decrease constant of the line search (Nocedal & Wright's c1).
ARMIJO = 1e-4
# Step halvings after which the line search gives up on a start.
LINE_SEARCH_HALVINGS = 30
# BFGS iterations after which a start stops without converging.
MAX_REFINE_ITERATIONS = 500
# Largest gradient coordinate, by (theta, phi), at which a start has converged.
REFINE_TOLERANCE = 1e-7
# Angle, in radians, within which a cell's axis counts as near an accepted
# start's axis on the same side.  A cell near one accepted start on every
# optimized side lies in that start's basin and is not refined again.  It
# spans more than two steps of the default grid (pi/24 = 0.13 rad), so a
# refined cell's neighbours are skipped; tests/data/miss_census.py finds no
# missed minimum with it at the default grid.
START_SEPARATION = 0.35
# Refinement starts are chosen among the START_POOL * refine_starts lowest
# cells: enough to reach past the deepest basin's cells, few enough that the
# choice costs nothing next to the grid.
START_POOL = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid size per side and most refinement starts.

    Each side's grid has ``grid_points_theta`` thetas from pole to pole and
    ``grid_points_phi`` phis on the equator row; rows nearer the poles hold
    fewer (see :func:`qreality.kernels.axis_grid`).

    ``refine_starts`` is at most this many BFGS starts, one per basin among
    the lowest grid cells (see the module docstring), each refined to the
    module's gradient tolerance ``REFINE_TOLERANCE``.
    """

    grid_points_theta: int = 25
    grid_points_phi: int = 24
    refine_starts: int = 5

    def __post_init__(self):
        for name in ("grid_points_theta", "grid_points_phi", "refine_starts"):
            _check_integer(name, getattr(self, name))
        if min(self.grid_points_theta, self.grid_points_phi, self.refine_starts) < 1:
            raise ValueError("optimizer config fields must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """The minimum a minimizer found, where, and how it got there.

    ``value`` is the minimum found; it is never above ``grid_best``, the
    lowest value on the grid.  ``argmin`` holds the canonical (theta, phi)
    of each optimized side in order, theta in [0, pi] and phi in [0, pi):
    one pair for :func:`minimize_single`, two for :func:`minimize_pair`.
    ``evaluations`` is the number of grid cells plus one per kernel value
    call of the refinement, on every layout.  ``converged`` is true when the
    kept point passed the gradient test: the best start's when refinement
    reaches the grid best or below it, and otherwise, when the grid best is
    kept, only if the first start, which begins there, stopped at its first
    evaluation without moving.
    """

    value: float
    argmin: tuple[tuple[float, float], ...]
    grid_best: float
    evaluations: int
    converged: bool


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    # Fold onto theta in [0, pi], phi in [0, pi) using the antipodal
    # redundancy of the basis parameterization.
    x, y, z = _angle_point(theta, phi)[0]
    if y < -1e-12 or (abs(y) <= 1e-12 and x < 0.0):
        x, y, z = -x, -y, -z
    theta_c = math.acos(min(1.0, max(-1.0, z)))
    if math.hypot(x, y) < 1e-12:
        return theta_c, 0.0
    phi_c = math.atan2(y, x)
    if phi_c < 0.0:
        phi_c = 0.0
    return theta_c, phi_c


def _lowest_cells(values: np.ndarray, k: int) -> np.ndarray:
    # Linear indices of the k smallest values, exactly the head of
    # np.argsort(values, kind="stable"): ties are ordered by linear index.
    # Only cells below a bound on the k-th value are sorted.  The bound
    # is the k-th smallest row minimum: k rows have a cell at or below it, so
    # the k-th value is too.  Taking it from the row minima spares a
    # partition of a full-size copy of the grid.
    flat = values.reshape(-1)
    if k >= flat.size:
        return np.argsort(flat, kind="stable")
    grid = values.reshape(values.shape[0], -1)
    row_min = grid.min(axis=1)
    bound = np.partition(row_min, k - 1)[k - 1] if k <= row_min.size else math.nan
    if bound != bound:  # too few rows, or NaN rows: the k-th value itself
        bound = np.partition(flat, k - 1)[k - 1]
    if bound != bound:  # fewer than k cells below NaN: the head takes NaN cells
        return np.argsort(flat, kind="stable")[:k]
    # The cells strictly below the bound, then the first cells equal to it in
    # index order.  Only rows whose minimum is at or below the bound can hold
    # one, and NaN rows, whose NaN minimum hides the rest of the row; the
    # scan stops once k cells are found.  Neither step copies a grid of tied
    # cells.  Fewer than k rows have a minimum strictly below the bound: it
    # is the k-th smallest row minimum, or fewer than k rows have a minimum
    # that is not NaN.  So one nonzero over a copy of those rows finds their
    # cells, and each NaN row is searched on its own, so NaN rows never pull
    # a block copy of the grid.  On a constant grid every cell equals the
    # bound and no row is copied.
    cols = grid.shape[1]
    rows = np.flatnonzero(row_min < bound)
    hit_rows, hit_cols = np.nonzero(grid[rows] < bound)
    below = np.concatenate([rows[hit_rows] * cols + hit_cols,
                            *(i * cols + np.flatnonzero(grid[i] < bound)
                              for i in np.flatnonzero(row_min != row_min))])
    head = below[np.lexsort((below, flat[below]))[:k]]
    need = k - head.size
    ties = []
    for i in np.flatnonzero(~(row_min > bound)):
        if need == 0:
            break
        hits = np.flatnonzero(grid[i] == bound)[:need]
        ties.append(i * cols + hits)
        need -= hits.size
    return np.concatenate([head, *ties])


def _start_cells(values: np.ndarray, axes: np.ndarray, k: int) -> np.ndarray:
    # Linear indices of at most k refinement starts, one per basin, in the
    # order of _lowest_cells.  Each axis of values indexes the rows of axes.
    # A pool cell is skipped when some accepted start's axis is within
    # START_SEPARATION of the cell's axis, up to sign, on every side: each
    # accepted cell keeps in the walk only the cells far from it on some side.
    # Each accepted cell is compared with the pool as it is accepted, so the
    # walk holds a few pool-sized arrays, never a pool-by-pool matrix.
    pool = _lowest_cells(values, START_POOL * k)
    sides = [axes[s] for s in np.unravel_index(pool, values.shape)]
    free = np.ones(pool.size, dtype=bool)
    accepted = []
    while len(accepted) < k and free.any():
        i = int(free.argmax())
        accepted.append(i)
        near = np.ones(pool.size, dtype=bool)
        for u in sides:
            near &= np.abs(u @ u[i]) > math.cos(START_SEPARATION)
        free &= ~near
    return pool[accepted]


def _bfgs(fun, x, cfg: OptimizerConfig):
    # Quasi-Newton BFGS on a list of floats (Nocedal & Wright, Numerical
    # Optimization, ch. 6): the inverse Hessian H is updated from each step s
    # and gradient change y, with a backtracking line search that accepts the
    # first step length alpha = 1, 1/2, 1/4, ... meeting the Armijo condition
    # f(x + alpha p) <= f(x) + ARMIJO * alpha * g.p with a value strictly
    # below f(x).  Near a minimum alpha * g.p can fall below the rounding of
    # f, where the Armijo test alone would accept steps of equal value and
    # let a gradient of rounding noise walk x for every iteration.  The first
    # trial step moves no coordinate by more than the grid's half spacing;
    # after the first accepted step H starts as (s.y / y.y) I, and an update
    # with s.y <= 0 (no curvature information) is skipped, so H stays
    # positive definite.
    # fun(x) returns (value, gradient); every call is one evaluation.
    # Returns (x, value, nfev, converged): converged is True when the
    # gradient falls to REFINE_TOLERANCE in every coordinate, False at
    # MAX_REFINE_ITERATIONS or when no step length decreases the value.
    first_step = math.pi / max(cfg.grid_points_theta - 1, cfg.grid_points_phi, 1) / 2.0
    n = len(x)
    f, g = fun(x)
    nfev = 1
    h = None
    for _ in range(MAX_REFINE_ITERATIONS):
        g_max = max(abs(gk) for gk in g)
        if g_max <= REFINE_TOLERANCE:
            return x, f, nfev, True
        if h is not None:
            p = [-sum(hk[j] * g[j] for j in range(n)) for hk in h]
            slope = sum(gk * pk for gk, pk in zip(g, p))
        if h is None or not slope < 0.0:
            # Steepest descent, also when rounding has left H no descent
            # direction: then H starts afresh.
            h = None
            p = [-first_step / g_max * gk for gk in g]
            slope = sum(gk * pk for gk, pk in zip(g, p))
        alpha = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            x_new = [xk + alpha * pk for xk, pk in zip(x, p)]
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new < f and f_new <= f + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            return x, f, nfev, False
        s = [a - b for a, b in zip(x_new, x)]
        y = [a - b for a, b in zip(g_new, g)]
        sy = sum(sk * yk for sk, yk in zip(s, y))
        if sy > 0.0:
            if h is None:
                scale = sy / sum(yk * yk for yk in y)
                h = [[scale if i == j else 0.0 for j in range(n)] for i in range(n)]
            hy = [sum(hk[j] * y[j] for j in range(n)) for hk in h]
            rho = 1.0 / sy
            c = rho * (1.0 + rho * sum(yk * hyk for yk, hyk in zip(y, hy)))
            h = [[h[i][j] + c * s[i] * s[j] - rho * (hy[i] * s[j] + s[i] * hy[j])
                  for j in range(n)] for i in range(n)]
        x, f, g = x_new, f_new, g_new
    return x, f, nfev, False


def _refine(fun, starts, cfg: OptimizerConfig):
    # BFGS from each start; returns (x, value, nfev, success, stopped): x, value
    # and success of the best start (the first of equal values), nfev summed
    # over all starts, and whether the first start converged at once.
    best_x, best_val = None, math.inf
    nfev = 0
    best_success = stopped = False
    for k, x0 in enumerate(starts):
        x, value, calls, success = _bfgs(fun, [float(v) for v in x0], cfg)
        nfev += calls
        if k == 0:
            stopped = success and calls == 1
        if value < best_val:
            best_val, best_x, best_success = value, np.array(x), success
    return best_x, best_val, nfev, best_success, stopped


def _angle_point(theta: float, phi: float):
    # The axis at (theta, phi) and its derivatives by theta and by phi.  At a
    # pole (sin theta = 0) the phi derivative is zero.
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return np.array([st * cp, st * sp, ct]), (ct * cp, ct * sp, -st), (-st * sp, st * cp, 0.0)


def _angle_gradient(grad, d_theta, d_phi) -> list[float]:
    # The chain rule from a gradient by the axis to one by (theta, phi).
    g0, g1, g2 = grad
    return [g0 * d_theta[0] + g1 * d_theta[1] + g2 * d_theta[2],
            g0 * d_phi[0] + g1 * d_phi[1]]


def _search(grid_values, axes, thetas, phis, fun, cfg) -> OptimizationResult:
    # Refine the best grid cell of each distinct basin and floor the result
    # at the grid best.  grid_values has one axis per optimized side, each
    # indexing the grid's (axes, thetas, phis); a start, like fun's argument,
    # lists (theta, phi) of every side in order.  The evaluations are the
    # grid cells plus the calls of fun.  When every start ends above the
    # grid best, the grid best is kept; it has converged if its own
    # start, the first, stopped at its first evaluation without moving.
    cells = _start_cells(grid_values, axes, cfg.refine_starts)
    grid_best = float(grid_values.flat[cells[0]])
    sides = np.unravel_index(cells, grid_values.shape)
    starts = np.stack([a for i in sides for a in (thetas[i], phis[i])], axis=1)
    best_x, best_val, nfev, success, stopped = _refine(fun, starts, cfg)
    if best_val <= grid_best:
        value, argmin_x, converged = best_val, best_x, success
    else:
        value, argmin_x, converged = grid_best, starts[0], stopped
    return OptimizationResult(
        value=value,
        argmin=tuple(_canonical_angles(t, p) for t, p in argmin_x.reshape(-1, 2)),
        grid_best=grid_best,
        evaluations=int(grid_values.size + nfev),
        converged=converged,
    )


def minimize_single(
    rho: DensityMatrix,
    subsystem: int,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptimizationResult:
    """Minimize the one-sided discord-like drop over bases on one subsystem."""
    _check_qubit_side(rho, subsystem, "optimization")
    grid_points = cfg.grid_points_theta * cfg.grid_points_phi
    if grid_points > MAX_SIDE_GRID_POINTS:
        raise ValueError(
            f"side grid of {grid_points} points exceeds the budget of "
            f"{MAX_SIDE_GRID_POINTS} points; lower the grid points per side")

    axes, thetas, phis = kernels.axis_grid(cfg.grid_points_theta, cfg.grid_points_phi)
    mi = mutual_information(rho)
    env_entropy = entropy(partial_trace(rho, 1 - subsystem))
    if rho.dims == (2, 2):
        r1, r2, tmat = kernels.bloch_correlations(rho.mat)
        if subsystem == 1:
            r1, r2, tmat = r2, r1, np.ascontiguousarray(tmat.T)
        data = (r1, r2, tmat, mi, env_entropy)
        grid_of, value_of = kernels.single_discord_grid, kernels.single_discord_value
    else:
        data = (*kernels.qudit_partner_data(rho.mat, rho.dims[1 - subsystem], subsystem),
                mi, env_entropy)
        grid_of, value_of = kernels.qudit_drop_grid, kernels.qudit_drop_value

    def fun(x):
        axis, d_theta, d_phi = _angle_point(x[0], x[1])
        value, grad = value_of(axis, *data)
        return value, _angle_gradient(grad, d_theta, d_phi)

    return _search(grid_of(axes, *data), axes, thetas, phis, fun, cfg)


def minimize_pair(
    rho: DensityMatrix,
    objective: str,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptimizationResult:
    """Minimize nonlocality or the two-sided discord-like drop over basis pairs.

    When this thread's previous call was on the same state and grid, the
    joint-entropy grid it kept is read instead of computed again; the
    results are the same bit for bit.
    """
    if objective not in (OBJECTIVE_NONLOCALITY, OBJECTIVE_DISCORD):
        raise ValueError(f"unsupported pair objective '{objective}'")
    if rho.dims != (2, 2):
        raise ValueError(f"pair optimization needs two qubits, got {rho.dims}")
    grid_cells = (cfg.grid_points_theta * cfg.grid_points_phi) ** 2
    if grid_cells > MAX_PAIR_GRID_CELLS:
        raise ValueError(
            f"pair grid of {grid_cells} cells exceeds the budget of "
            f"{MAX_PAIR_GRID_CELLS} cells; lower the grid points per side")

    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    axes, thetas, phis = kernels.axis_grid(cfg.grid_points_theta, cfg.grid_points_phi)

    if objective == OBJECTIVE_NONLOCALITY:
        base = entropy(rho)
        grid_values = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, base)
        value_of = kernels.nonlocality_value
    else:
        base = mutual_information(rho)
        grid_values = kernels.pair_discord_grid(axes, axes, r1, r2, tmat, base)
        value_of = kernels.pair_discord_value

    def fun(x):
        ua, ta, pa = _angle_point(x[0], x[1])
        ub, tb, pb = _angle_point(x[2], x[3])
        value, grad = value_of(ua, ub, r1, r2, tmat, base)
        return value, _angle_gradient(grad[:3], ta, pa) + _angle_gradient(grad[3:], tb, pb)

    return _search(grid_values, axes, thetas, phis, fun, cfg)


def witness_pair_for_pure(psi: DensityMatrix) -> tuple[ProjectiveBasis, ProjectiveBasis]:
    """Observable pair certifying zero nonlocality for a bipartite pure state.

    Returns (Schmidt basis on side A, Fourier partner of the Schmidt basis on
    side B); nonlocality evaluated on this pair vanishes identically, no
    optimization involved.
    """
    form = schmidt_decompose(psi)
    return form.basis_a, fourier_of(form.basis_b)
