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
start converges when its gradient falls to ``refine_tolerance`` in every
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

The projector-dephasing (matrix) route's one-sided drop has one engine,
``_drop_scan``.  Only :func:`brute_force_single` uses it, avoiding the kernels
by design: the independent oracle for every layout :func:`minimize_single` takes.

The two pair objectives share their costliest part, the entropy of the state
dephased on both sides.  A thread that minimizes both on each state (the
sweep rows and the bounds suite do) computes it once per state after its
first: the kernels keep a thread's joint grid when its calls repeat a state.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import DensityMatrix, partial_trace
from .measures import ZERO_EIGENVALUE, entropy, mutual_information
from .observables import ProjectiveBasis, fourier_of, qubit_basis, schmidt_decompose

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
# Matrix entries of dephased states per chunk of the matrix-route scan: it
# runs in chunks of SCAN_CHUNK_ENTRIES // dim**2 points (1,024 for two
# qubits) and keeps only each point's basis and spectrum, so its memory does
# not grow with the scan.
SCAN_CHUNK_ENTRIES = 2**14


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid size per side, most refinement starts, and the gradient tolerance.

    Each side's grid has ``grid_points_theta`` thetas from pole to pole and
    ``grid_points_phi`` phis on the equator row; rows nearer the poles hold
    fewer (see :func:`qreality.kernels.axis_grid`).

    ``refine_starts`` is at most this many BFGS starts, one per basin among
    the lowest grid cells (see the module docstring).
    """

    grid_points_theta: int = 25
    grid_points_phi: int = 24
    refine_starts: int = 5
    refine_tolerance: float = 1e-7

    def __post_init__(self):
        for name in ("grid_points_theta", "grid_points_phi", "refine_starts"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.grid_points_theta, self.grid_points_phi, self.refine_starts) < 1:
            raise ValueError("optimizer config fields must be positive")
        # A bool is no tolerance, NaN would make every start run all
        # MAX_REFINE_ITERATIONS, and inf would stop every start where it began.
        tol = self.refine_tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
            raise ValueError(f"refine_tolerance must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class OptimizationResult:
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


def _half_spacing(cfg: OptimizerConfig) -> tuple[float, float]:
    d_theta = math.pi / max(cfg.grid_points_theta - 1, 1) / 2.0
    d_phi = math.pi / cfg.grid_points_phi / 2.0
    return d_theta, d_phi


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
    # gradient falls to refine_tolerance in every coordinate, False at
    # MAX_REFINE_ITERATIONS or when no step length decreases the value.
    tol = cfg.refine_tolerance
    first_step = min(_half_spacing(cfg))
    n = len(x)
    f, g = fun(x)
    nfev = 1
    h = None
    for _ in range(MAX_REFINE_ITERATIONS):
        g_max = max(abs(gk) for gk in g)
        if g_max <= tol:
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
    # BFGS from each start; returns (x, value, nfev, success) of the best
    # start (the first of equal values), with nfev summed over all starts.
    best_x, best_val = None, math.inf
    nfev = 0
    best_success = False
    for x0 in starts:
        x, value, calls, success = _bfgs(fun, [float(v) for v in x0], cfg)
        nfev += calls
        if value < best_val:
            best_val, best_x, best_success = value, np.array(x), success
    return best_x, best_val, nfev, best_success


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
    # start, the first, passed the gradient test at its first evaluation, the
    # refinement's first, and so stopped there without moving.
    cells = _start_cells(grid_values, axes, cfg.refine_starts)
    grid_best = float(grid_values.flat[cells[0]])
    sides = np.unravel_index(cells, grid_values.shape)
    starts = np.stack([a for i in sides for a in (thetas[i], phis[i])], axis=1)
    first_gradient = []

    def noted(x):
        out = fun(x)
        if not first_gradient:
            first_gradient.append(out[1])
        return out

    best_x, best_val, nfev, success = _refine(noted, starts, cfg)

    if best_val <= grid_best:
        value, argmin_x, converged = best_val, best_x, success
    else:
        stationary = bool(first_gradient) and (
            max(abs(g) for g in first_gradient[0]) <= cfg.refine_tolerance)
        value, argmin_x, converged = grid_best, starts[0], stationary
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


def _spectral_entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with 0 ln 0 = 0 below ZERO_EIGENVALUE."""
    kept = np.where(spectra > ZERO_EIGENVALUE, spectra, 1.0)
    return -np.sum(kept * np.log(kept), axis=-1)


def _check_qubit_side(rho: DensityMatrix, subsystem: int, task: str) -> None:
    if len(rho.dims) != 2:
        raise ValueError(f"{task} needs a bipartite state, got {rho.dims}")
    if subsystem not in (0, 1):
        raise ValueError(f"subsystem must be 0 or 1, got {subsystem}")
    if rho.dims[subsystem] != 2:
        raise ValueError("the optimized subsystem must be a qubit")


def _drop_scan(rho: DensityMatrix, subsystem: int):
    # The matrix route's one-sided drop I(rho) - I(Ph rho) on one state.  The
    # state data are taken once, here: the marginal rho_q of the scanned
    # qubit, S of the other marginal, which dephasing the scanned side leaves
    # unchanged, and I(rho).  Returns scan(angles), which reads (theta, phi)
    # pairs lazily and yields the drops of each chunk of at most
    # SCAN_CHUNK_ENTRIES // dim**2 points.  Each point builds one basis and
    # makes one dephase call, whose spectrum gives S(Ph rho); neither is
    # validated again (the basis of finite angles is unitary to rounding, and
    # the dephased state is a map of the validated rho).  The dephased
    # marginal of the scanned qubit is sum_j p_j |b_j><b_j| with
    # p_j = <b_j| rho_q |b_j>, so its spectrum is p: one einsum over the
    # chunk's stacked bases.
    from .measures import dephase  # resolved per engine: a rebound measures.dephase is used

    rho_q = partial_trace(rho, subsystem)
    s_other = entropy(partial_trace(rho, 1 - subsystem))
    mi = entropy(rho_q) + s_other - entropy(rho)
    chunk = max(1, SCAN_CHUNK_ENTRIES // rho.dim**2)

    def scan(angles):
        angles = iter(angles)
        vecs = np.empty((chunk, 2, 2), dtype=complex)
        spectra = np.empty((chunk, rho.dim))
        while points := list(itertools.islice(angles, chunk)):
            for k, (theta, phi) in enumerate(points):
                basis = qubit_basis(theta, phi)
                vecs[k] = basis.vectors
                spectra[k] = dephase(rho, basis, subsystem).eigenvalues
            n = len(points)
            p = np.einsum("nxj,xy,nyj->nj", vecs[:n].conj(), rho_q.mat, vecs[:n]).real
            yield mi - (_spectral_entropies(p) + s_other - _spectral_entropies(spectra[:n]))

    return scan


def brute_force_single(
    rho: DensityMatrix,
    subsystem: int,
    n_theta: int = 200,
    n_phi: int = 200,
) -> tuple[float, tuple[float, float]]:
    """Dense grid scan of the one-sided drop through the matrix route.

    Independent of the kernels by construction: it builds ``_drop_scan``,
    the matrix route's one drop engine (projector dephasing plus
    eigendecompositions), once, and is the oracle for :func:`minimize_single`
    on every layout.  The first point in (theta, phi) order with the lowest
    drop wins; a NaN never does.  ``subsystem`` is checked as
    :func:`minimize_single` checks it, before any work.
    """
    _check_qubit_side(rho, subsystem, "oracle scan")
    for name, points in (("n_theta", n_theta), ("n_phi", n_phi)):
        if points < 1:
            raise ValueError(f"{name} must be at least 1, got {points}")
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    best = math.inf
    best_angles = (0.0, 0.0)
    start = 0
    for drops in _drop_scan(rho, subsystem)(itertools.product(thetas, phis)):
        drops[np.isnan(drops)] = math.inf
        k = int(np.argmin(drops))
        if drops[k] < best:
            best = float(drops[k])
            i, j = divmod(start + k, n_phi)
            best_angles = (float(thetas[i]), float(phis[j]))
        start += drops.size
    return best, best_angles
