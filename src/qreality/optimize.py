"""Derivative-free minimization over one or two parameterized qubit bases.

Strategy: exhaustive scan of a fixed (theta, phi) grid per optimized side,
followed by Nelder-Mead refinement started from the best grid cells.  The
objective landscapes are smooth but multimodal, so the grid bounds how far a
global optimum can hide and the simplex sharpens the best cells to tolerance.
The refinement is an in-house Nelder-Mead on plain Python floats that repeats
the arithmetic of scipy's ``minimize(method="Nelder-Mead")`` step for step, so
its iterates match scipy's bit for bit and the package needs only numpy.
Everything is deterministic on a given machine: fixed grid order, ties broken
by lowest linear grid index, fixed initial simplexes.  Vertex order within the
simplex is ``np.argsort``'s.  When the values are distinct every sort gives
that order, so it comes from Python's sort, or from moving the one new vertex
into place; ties (``+0.0`` against ``-0.0`` among them) and NaN go to
``np.argsort`` itself, whose order for tied values is not stable and can
differ between numpy builds and CPUs.  Where the objective ties at simplex
vertices (the Bell-diagonal werner and alpha landscapes) the refinement path
is therefore the same as scipy's on the same machine, not across machines.

Two-qubit states are evaluated through the closed-form Bloch kernels in
:mod:`qreality.kernels`; :func:`brute_force_single` deliberately avoids them
and walks the projector-dephasing route instead, serving as the independent
oracle for the fast path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import kernels
from .linalg import DensityMatrix, partial_trace
from .measures import discord_like, entropy, mutual_information
from .observables import ProjectiveBasis, fourier_of, qubit_basis, schmidt_decompose

OBJECTIVE_NONLOCALITY = "nonlocality"
OBJECTIVE_DISCORD = "discord"

# Largest pair grid minimize_pair accepts, in cells: about 64 MB per float64
# grid.  The default 25 x 24 grid per side is 360,000 cells.
MAX_PAIR_GRID_CELLS = 2**23
# Largest side grid minimize_single accepts, in grid points: its (points, 3)
# float64 axis array is 48 MB, within one pair grid's size.
MAX_SIDE_GRID_POINTS = 2**21


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_theta: int = 25
    grid_points_phi: int = 24
    refine_starts: int = 5
    refine_tolerance: float = 1e-7
    max_refine_iterations: int = 500

    def __post_init__(self):
        if min(self.grid_points_theta, self.grid_points_phi, self.refine_starts,
               self.max_refine_iterations) < 1:
            raise ValueError("optimizer config fields must be positive")
        # NaN would make every start run all max_refine_iterations, and inf
        # would stop every start at its first simplex.
        if not (0.0 < self.refine_tolerance < math.inf):
            raise ValueError(
                f"refine_tolerance must be positive and finite, got {self.refine_tolerance}")


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
    x, y, z = kernels.axis_from_angles(theta, phi)
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
    # Only cells at or below a bound on the k-th value are sorted.  The bound
    # is the k-th smallest row minimum: k rows have a cell at or below it, so
    # the k-th value is too.  Taking it from the row minima spares a
    # partition of a full-size copy of the grid.
    flat = values.reshape(-1)
    if k >= flat.size:
        return np.argsort(flat, kind="stable")
    row_min = values.reshape(values.shape[0], -1).min(axis=1)
    bound = np.partition(row_min, k - 1)[k - 1] if k <= row_min.size else math.nan
    if bound != bound:  # too few rows, or NaN rows: the k-th value itself
        bound = np.partition(flat, k - 1)[k - 1]
    candidates = np.flatnonzero(flat <= bound)
    order = np.lexsort((candidates, flat[candidates]))
    return candidates[order[:k]]


def _python_order(fsim):
    # The permutation that sorts fsim when its values are distinct and none is
    # NaN (then every sort, np.argsort included, gives it), else None.
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    for j, k in zip(order, order[1:]):
        if not fsim[j] < fsim[k]:
            return None
    return order


def _insertion_index(fsim):
    # With fsim[:-1] strictly increasing: the index the last value takes in
    # np.argsort order, or None when it is NaN or equals one of the others.
    f = fsim[-1]
    head = len(fsim) - 1
    k = bisect_left(fsim, f, 0, head)
    if f != f or (k < head and fsim[k] == f):
        return None
    return k


def _by_value(sim, fsim):
    # Vertices in np.argsort order of their values, and whether the values are
    # distinct.
    order = _python_order(fsim)
    distinct = order is not None
    if not distinct:
        order = np.array(fsim).argsort().tolist()
    return [sim[k] for k in order], [fsim[k] for k in order], distinct


def _nelder_mead(fun, simplex, cfg: OptimizerConfig):
    # scipy.optimize.minimize(method="Nelder-Mead") with adaptive=False, no
    # bounds, no maxfev, xatol = fatol = refine_tolerance and maxiter =
    # max_refine_iterations, replayed on lists of floats: the same
    # coefficients written the same way, the centroid as a sum of rows from
    # 0.0 divided by N, the same stopping test, and vertices reordered in
    # np.argsort order (not a stable sort), so every iterate matches scipy's.
    # When only the worst vertex changed and the others are distinct, it is
    # moved to its place instead of sorting all of them.
    # Returns (x, value, nfev, success).
    tol, maxiter = cfg.refine_tolerance, cfg.max_refine_iterations
    n = len(simplex) - 1
    sim = [list(vertex) for vertex in simplex]
    fsim = [fun(vertex) for vertex in sim]
    nfev = n + 1
    for _ in range(2):  # scipy sorts the starting simplex twice
        sim, fsim, distinct = _by_value(sim, fsim)
    iterations = 1
    while iterations < maxiter:
        s0, f0 = sim[0], fsim[0]
        # scipy tests the x-spread first; both are side-effect free, and the
        # f-spread is cheaper and usually the one that fails.
        if (all(abs(f0 - f) <= tol for f in fsim[1:])
                and all(abs(x - x0) <= tol for row in sim[1:] for x, x0 in zip(row, s0))):
            break
        xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [2 * b - 1 * w for b, w in zip(xbar, worst)]
        fxr = fun(xr)
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            fxe = fun(xe)
            nfev += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
            fxc = fun(xc)
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
            fxcc = fun(xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [x0 + 0.5 * (x - x0) for x, x0 in zip(sim[j], s0)]
                fsim[j] = fun(sim[j])
            nfev += n
        iterations += 1
        k = None if shrink or not distinct else _insertion_index(fsim)
        if k is None:
            sim, fsim, distinct = _by_value(sim, fsim)
        elif k < n:
            sim.insert(k, sim.pop())
            fsim.insert(k, fsim.pop())
    return sim[0], float(np.min(fsim)), nfev, iterations < maxiter


def _refine(fun, starts, cfg: OptimizerConfig):
    # Nelder-Mead from each start; returns (x, value, nfev, success) of the
    # best start, with nfev summed over all starts.
    d_theta, d_phi = _half_spacing(cfg)
    steps = [d_theta if k % 2 == 0 else d_phi for k in range(len(starts[0]))]
    best_x, best_val = None, math.inf
    nfev = 0
    best_success = False
    for x0 in starts:
        x0 = [float(x) for x in x0]
        simplex = [x0] + [[x + (step if i == k else 0.0) for i, x in enumerate(x0)]
                          for k, step in enumerate(steps)]
        x, value, calls, success = _nelder_mead(fun, simplex, cfg)
        nfev += calls
        if value < best_val:
            best_val, best_x, best_success = value, np.array(x), success
    return best_x, best_val, nfev, best_success


def _two_qubit_data(rho: DensityMatrix):
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    s_rho = entropy(rho)
    s1 = entropy(partial_trace(rho, 0))
    s2 = entropy(partial_trace(rho, 1))
    mi = mutual_information(rho)
    return r1, r2, tmat, s_rho, s1, s2, mi


def minimize_single(
    rho: DensityMatrix,
    subsystem: int,
    objective: str = OBJECTIVE_DISCORD,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptimizationResult:
    """Minimize the one-sided discord-like drop over bases on one subsystem."""
    if objective != OBJECTIVE_DISCORD:
        raise ValueError(f"unsupported single-basis objective '{objective}'")
    if len(rho.dims) != 2:
        raise ValueError(f"optimization needs a bipartite state, got {rho.dims}")
    if subsystem not in (0, 1):
        raise ValueError(f"subsystem must be 0 or 1, got {subsystem}")
    if rho.dims[subsystem] != 2:
        raise ValueError("the optimized subsystem must be a qubit")
    grid_points = cfg.grid_points_theta * cfg.grid_points_phi
    if grid_points > MAX_SIDE_GRID_POINTS:
        raise ValueError(
            f"side grid of {grid_points} points exceeds the budget of "
            f"{MAX_SIDE_GRID_POINTS} points; lower the grid points per side")

    axes, thetas, phis = kernels.axis_grid(cfg.grid_points_theta, cfg.grid_points_phi)

    if rho.dims == (2, 2):
        r1, r2, tmat, _, s1, s2, mi = _two_qubit_data(rho)
        if subsystem == 1:
            r1, r2 = r2, r1
            tmat = np.ascontiguousarray(tmat.T)
            env_entropy = s1
        else:
            env_entropy = s2
        grid_values = kernels.single_discord_grid(axes, r1, r2, tmat, mi, env_entropy)

        def fun(x):
            axis = kernels.axis_from_angles(x[0], x[1])
            return kernels.single_discord_value(axis, r1, r2, tmat, mi, env_entropy)
    else:
        # Qubit basis against a higher-dimensional partner: walk the matrix route.
        def fun(x):
            return discord_like(rho, [(qubit_basis(x[0], x[1]), subsystem)])

        grid_values = np.array([fun((t, p)) for t, p in zip(thetas, phis)])

    cells = _lowest_cells(grid_values, cfg.refine_starts)
    grid_best = float(grid_values[cells[0]])
    starts = [(thetas[k], phis[k]) for k in cells]
    best_x, best_val, nfev, success = _refine(fun, starts, cfg)

    if best_val <= grid_best:
        value, argmin_x, converged = best_val, best_x, success
    else:
        value, argmin_x, converged = grid_best, np.array(starts[0]), False
    return OptimizationResult(
        value=value,
        argmin=(_canonical_angles(argmin_x[0], argmin_x[1]),),
        grid_best=grid_best,
        evaluations=int(grid_values.size + nfev),
        converged=converged,
    )


def minimize_pair(
    rho: DensityMatrix,
    objective: str,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptimizationResult:
    """Minimize nonlocality or the two-sided discord-like drop over basis pairs."""
    if objective not in (OBJECTIVE_NONLOCALITY, OBJECTIVE_DISCORD):
        raise ValueError(f"unsupported pair objective '{objective}'")
    if rho.dims != (2, 2):
        raise ValueError(f"pair optimization needs two qubits, got {rho.dims}")
    grid_cells = (cfg.grid_points_theta * cfg.grid_points_phi) ** 2
    if grid_cells > MAX_PAIR_GRID_CELLS:
        raise ValueError(
            f"pair grid of {grid_cells} cells exceeds the budget of "
            f"{MAX_PAIR_GRID_CELLS} cells; lower the grid points per side")

    r1, r2, tmat, s_rho, _, _, mi = _two_qubit_data(rho)
    axes, thetas, phis = kernels.axis_grid(cfg.grid_points_theta, cfg.grid_points_phi)

    if objective == OBJECTIVE_NONLOCALITY:
        grid_values = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, s_rho)

        def fun(x):
            ua = kernels.axis_from_angles(x[0], x[1])
            ub = kernels.axis_from_angles(x[2], x[3])
            return kernels.nonlocality_value(ua, ub, r1, r2, tmat, s_rho)
    else:
        grid_values = kernels.pair_discord_grid(axes, axes, r1, r2, tmat, mi)

        def fun(x):
            ua = kernels.axis_from_angles(x[0], x[1])
            ub = kernels.axis_from_angles(x[2], x[3])
            return kernels.pair_discord_value(ua, ub, r1, r2, tmat, mi)

    cells = _lowest_cells(grid_values, cfg.refine_starts)
    grid_best = float(grid_values.flat[cells[0]])
    n_axes = axes.shape[0]
    starts = []
    for k in cells:
        i, j = divmod(int(k), n_axes)
        starts.append((thetas[i], phis[i], thetas[j], phis[j]))
    best_x, best_val, nfev, success = _refine(fun, starts, cfg)

    if best_val <= grid_best:
        value, argmin_x, converged = best_val, best_x, success
    else:
        value, argmin_x, converged = grid_best, np.array(starts[0]), False
    return OptimizationResult(
        value=value,
        argmin=(
            _canonical_angles(argmin_x[0], argmin_x[1]),
            _canonical_angles(argmin_x[2], argmin_x[3]),
        ),
        grid_best=grid_best,
        evaluations=int(grid_values.size + nfev),
        converged=converged,
    )


def witness_pair_for_pure(psi: DensityMatrix) -> tuple[ProjectiveBasis, ProjectiveBasis]:
    """Observable pair certifying zero nonlocality for a bipartite pure state.

    Returns (Schmidt basis on side A, Fourier partner of the Schmidt basis on
    side B); nonlocality evaluated on this pair vanishes identically, no
    optimization involved.
    """
    form = schmidt_decompose(psi)
    return form.basis_a, fourier_of(form.basis_b)


def brute_force_single(
    rho: DensityMatrix,
    subsystem: int,
    n_theta: int = 200,
    n_phi: int = 200,
) -> tuple[float, tuple[float, float]]:
    """Dense grid scan of the one-sided drop through the matrix route.

    Independent of the Bloch kernels by construction (projector dephasing plus
    eigendecompositions); used as the oracle for :func:`minimize_single`.
    """
    from .measures import dephase  # local import keeps module load light

    if len(rho.dims) != 2:
        raise ValueError(f"oracle scan needs a bipartite state, got {rho.dims}")
    s1 = entropy(partial_trace(rho, 0))
    s2 = entropy(partial_trace(rho, 1))
    mi = s1 + s2 - entropy(rho)
    best = math.inf
    best_angles = (0.0, 0.0)
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, math.pi, n_phi, endpoint=False):
            basis = qubit_basis(theta, phi)
            dephased = dephase(rho, basis, subsystem)
            s_local = entropy(partial_trace(dephased, subsystem))
            s_other = s2 if subsystem == 0 else s1
            drop = mi - (s_local + s_other - entropy(dephased))
            if drop < best:
                best = drop
                best_angles = (float(theta), float(phi))
    return best, best_angles
