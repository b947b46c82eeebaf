"""Derivative-free minimization over one or two parameterized qubit bases.

Strategy: exhaustive scan of a fixed (theta, phi) grid per optimized side,
followed by Nelder-Mead refinement started from the best grid cells.  The
objective landscapes are smooth but multimodal, so the grid bounds how far a
global optimum can hide and the simplex sharpens the best cells to tolerance.
Everything is deterministic: fixed grid order, ties broken by lowest linear
grid index, fixed initial simplexes.

Two-qubit states are evaluated through the closed-form Bloch kernels in
:mod:`qreality.kernels`; :func:`brute_force_single` deliberately avoids them
and walks the projector-dephasing route instead, serving as the independent
oracle for the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _nelder_mead

from . import kernels
from .linalg import DensityMatrix, partial_trace
from .measures import discord_like, entropy, mutual_information
from .observables import ProjectiveBasis, fourier_of, qubit_basis, schmidt_decompose

OBJECTIVE_NONLOCALITY = "nonlocality"
OBJECTIVE_DISCORD = "discord"


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
        if self.refine_tolerance <= 0.0:
            raise ValueError("refine_tolerance must be positive")


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
    # np.partition finds the k-th value; only cells at or below it are sorted.
    flat = values.reshape(-1)
    if k >= flat.size:
        return np.argsort(flat, kind="stable")
    kth = np.partition(flat, k - 1)[k - 1]
    candidates = np.flatnonzero(flat <= kth)
    order = np.lexsort((candidates, flat[candidates]))
    return candidates[order[:k]]


def _refine(fun, starts, cfg: OptimizerConfig):
    # Nelder-Mead from each start; returns (x, value, nfev, success) of the
    # best start, with nfev summed over all starts.
    d_theta, d_phi = _half_spacing(cfg)
    steps = [d_theta if k % 2 == 0 else d_phi for k in range(len(starts[0]))]
    best_x, best_val = None, math.inf
    nfev = 0
    best_success = False
    for x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        simplex = np.vstack([x0] + [x0 + step * basis for step, basis in
                                    zip(steps, np.eye(len(x0)))])
        res = _nelder_mead(
            fun, x0, method="Nelder-Mead",
            options={
                "xatol": cfg.refine_tolerance,
                "fatol": cfg.refine_tolerance,
                "maxiter": cfg.max_refine_iterations,
                "initial_simplex": simplex,
            },
        )
        nfev += int(res.nfev)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = np.asarray(res.x, dtype=float)
            best_success = bool(res.success)
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
