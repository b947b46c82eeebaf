import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qreality import kernels, optimize
from qreality.linalg import DensityMatrix, partial_trace, tensor_product
from qreality.measures import entropy, nonlocality
from qreality.optimize import (
    OptimizerConfig,
    _lowest_cells,
    _refine,
    brute_force_single,
    minimize_pair,
    minimize_single,
    witness_pair_for_pure,
)
from qreality.states import (
    alpha_state,
    pure_from_amplitudes,
    random_density,
    singlet,
    werner,
)

# Coarse but adequate settings keep the unit tests quick; acceptance runs the
# defaults.
FAST = OptimizerConfig(grid_points_theta=9, grid_points_phi=8, refine_starts=3)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points_theta=0)
    with pytest.raises(ValueError):
        OptimizerConfig(refine_tolerance=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_refine_tolerance(tol):
    with pytest.raises(ValueError, match="finite"):
        OptimizerConfig(refine_tolerance=tol)


def test_objective_and_layout_validation():
    with pytest.raises(ValueError):
        minimize_single(singlet(), 2)
    with pytest.raises(ValueError):
        minimize_pair(singlet(), "entropy")
    trio = random_density(8, 8, 0, dims=(2, 2, 2))
    with pytest.raises(ValueError):
        minimize_single(trio, 0)
    qutrit_pair = random_density(9, 9, 0, dims=(3, 3))
    with pytest.raises(ValueError):
        minimize_pair(qutrit_pair, "nonlocality")
    with pytest.raises(ValueError):
        minimize_single(qutrit_pair, 0)


def test_product_state_minima_vanish():
    rng = np.random.default_rng(201)
    a, b = random_density(2, 2, rng), random_density(2, 2, rng)
    product = DensityMatrix(tensor_product(a.mat, b.mat), (2, 2))
    assert abs(minimize_single(product, 0, cfg=FAST).value) <= 1e-9
    assert abs(minimize_pair(product, "nonlocality", cfg=FAST).value) <= 1e-9
    assert abs(minimize_pair(product, "discord", cfg=FAST).value) <= 1e-9


def test_uncorrelated_state_has_zero_minimum():
    flat = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert abs(minimize_pair(flat, "nonlocality", cfg=FAST).value) <= 1e-12


def test_pure_states_reach_zero_nonlocality():
    for psi in (singlet(), alpha_state(1.0)):
        res = minimize_pair(psi, "nonlocality", cfg=FAST)
        assert res.value <= 1e-4
        assert res.value >= -1e-9


def test_determinism():
    rho = random_density(4, 4, 7, dims=(2, 2))
    first = minimize_pair(rho, "nonlocality", cfg=FAST)
    second = minimize_pair(rho, "nonlocality", cfg=FAST)
    assert first == second
    assert minimize_single(rho, 1, cfg=FAST) == minimize_single(rho, 1, cfg=FAST)


def test_refinement_never_worse_than_grid():
    rng = np.random.default_rng(203)
    for _ in range(5):
        rho = random_density(4, 4, rng, dims=(2, 2))
        res = minimize_single(rho, 0, cfg=FAST)
        assert res.value <= res.grid_best + 1e-12
        pair = minimize_pair(rho, "discord", cfg=FAST)
        assert pair.value <= pair.grid_best + 1e-12
        assert pair.evaluations > 0


def test_argmin_is_canonical_and_usable():
    rng = np.random.default_rng(207)
    rho = random_density(4, 4, rng, dims=(2, 2))
    res = minimize_pair(rho, "nonlocality", cfg=FAST)
    from qreality.observables import qubit_basis

    (ta, pa), (tb, pb) = res.argmin
    for theta, phi in res.argmin:
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi < math.pi or phi == pytest.approx(math.pi, abs=1e-9)
    replay = nonlocality(qubit_basis(ta, pa), qubit_basis(tb, pb), rho)
    assert replay == pytest.approx(res.value, abs=1e-6)


def test_werner_oracle_agreement_coarse():
    # The dense scan is the oracle; the isotropic state's landscape is flat,
    # so even a coarse scan pins the value.
    for f in (0.2, 0.8):
        rho = werner(f)
        fast = minimize_single(rho, 0, cfg=FAST)
        slow, _ = brute_force_single(rho, 0, n_theta=40, n_phi=40)
        assert fast.value == pytest.approx(slow, abs=1e-4)


def test_optimizer_at_least_as_good_as_coarse_scan():
    rng = np.random.default_rng(211)
    for _ in range(3):
        rho = random_density(4, 4, rng, dims=(2, 2))
        res = minimize_single(rho, 0, cfg=FAST)
        scan, _ = brute_force_single(rho, 0, n_theta=30, n_phi=30)
        assert res.value <= scan + 1e-9


def test_single_against_qutrit_partner_uses_matrix_route():
    rho = random_density(6, 6, 5, dims=(2, 3))
    res = minimize_single(rho, 0, cfg=OptimizerConfig(grid_points_theta=7,
                                                      grid_points_phi=6,
                                                      refine_starts=2))
    assert res.value >= -1e-9
    assert res.value <= res.grid_best + 1e-12


def test_witness_pair_for_pure():
    rng = np.random.default_rng(213)
    cases = [singlet(), pure_from_amplitudes([1, 0, 0, 0], (2, 2))]
    cases += [random_density(4, 1, rng, dims=(2, 2)) for _ in range(10)]
    for psi in cases:
        basis_a, basis_b = witness_pair_for_pure(psi)
        assert abs(nonlocality(basis_a, basis_b, psi)) <= 1e-9
    with pytest.raises(ValueError, match="mixed"):
        witness_pair_for_pure(werner(0.5))


def test_minimize_pair_matches_closed_form_for_werner():
    # Oracle: with r1 = r2 = 0 and T = -f I the pair value depends only on the
    # axis alignment; the minimum sits at orthogonal axes.
    f = 0.5
    s_side = -2 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - 2 * ((1 + f) / 4) * math.log((1 + f) / 4)
    s_rho = -3 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - ((1 + 3 * f) / 4) * math.log((1 + 3 * f) / 4)
    expected_n = 2 * s_side - math.log(4.0) - s_rho
    res = minimize_pair(werner(f), "nonlocality")
    assert res.value == pytest.approx(expected_n, abs=1e-7)

    expected_d = s_side - s_rho  # joint dephasing entropy is minimal on matched axes
    res_d = minimize_pair(werner(f), "discord")
    assert res_d.value == pytest.approx(expected_d, abs=1e-7)


def _stable_head(values, k):
    return np.argsort(values.reshape(-1), kind="stable")[:k]


def test_lowest_cells_is_head_of_stable_sort():
    rng = np.random.default_rng(217)
    random_grid = rng.normal(size=(37, 41))
    for k in (1, 2, 5, 40):
        assert np.array_equal(_lowest_cells(random_grid, k), _stable_head(random_grid, k))

    # Exact ties straddling the k-th value, scattered out of index order.
    tied = rng.integers(0, 4, size=(20, 30)).astype(float)
    tied.flat[[599, 3, 250, 17]] = -1.0
    for k in (1, 3, 4, 5, 6, 80, 599):
        assert np.array_equal(_lowest_cells(tied, k), _stable_head(tied, k))

    # k at or above the cell count returns the full stable order.
    for k in (tied.size, tied.size + 7):
        assert np.array_equal(_lowest_cells(tied, k), _stable_head(tied, tied.size))

    side = rng.normal(size=600)
    side[[5, 77, 300]] = side.min() - 1.0
    assert np.array_equal(_lowest_cells(side, 5), _stable_head(side, 5))

    # The bound comes from row minima: rows holding several of the lowest
    # cells, NaN cells (sorted last, as np.argsort does) and NaN rows.
    clustered = rng.normal(size=(30, 40))
    clustered[7, [3, 9, 20, 21, 38]] = -10.0 - np.arange(5)
    clustered[7, 0] = np.nan
    for k in (1, 3, 5, 6, 30):
        assert np.array_equal(_lowest_cells(clustered, k), _stable_head(clustered, k))
    clustered[10:, 0] = np.nan
    for k in (5, 10, 11, 25):
        assert np.array_equal(_lowest_cells(clustered, k), _stable_head(clustered, k))


@pytest.mark.parametrize("rho", [werner(0.5), alpha_state(0.3)], ids=["werner", "alpha"])
def test_lowest_cells_on_tied_bell_diagonal_grids(rho):
    # The Bell-diagonal landscapes have many exactly tied cells.
    axes, _, _ = kernels.axis_grid(25, 24)
    r1, r2, tmat = kernels.bloch_correlations(rho.mat)
    grid = kernels.nonlocality_grid(axes, axes, r1, r2, tmat, entropy(rho))
    assert np.sum(grid == grid.min()) > 1
    for k in (1, 5, 17):
        assert np.array_equal(_lowest_cells(grid, k), _stable_head(grid, k))


def test_lowest_cells_on_a_constant_grid_copies_no_grid():
    # werner(0)'s pair grids are constant: every cell ties with the bound.
    grid = np.full((553, 553), 0.25)
    tracemalloc.start()
    try:
        got = _lowest_cells(grid, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _stable_head(grid, 5))
    assert peak < 1_000_000


NAN = math.nan


@pytest.mark.parametrize("values, distinct", [
    ([0.3, -1.2, 5.0, 0.1, 2.2], True),
    ([4.0, 3.0, 2.0, 1.0, 0.0], True),
    ([-math.inf, 1e300, -1e-300, 1e-300, math.inf], True),
    ([1.0, 1.0, 0.0, 2.0, 1.0], False),
    ([0.5, 0.5, 0.5, 0.5, 0.5], False),
    ([0.0, -0.0, 1.0, -1.0, 0.0], False),
    ([-0.0, 0.0, -0.0], False),
    ([NAN, 1.0, 0.0, NAN, -1.0], False),
    ([2.0, NAN, 1.0], False),
    ([NAN], True),  # one value is trivially in order
])
def test_vertex_order_is_argsort(values, distinct):
    # The refinement starts are the lowest grid vertices in stable argsort
    # order (signed zeros tie, NaN sorts last), for every number of starts.
    grid = np.array(values)
    want = _stable_head(grid, grid.size).tolist()
    for k in range(1, grid.size + 1):
        assert _lowest_cells(grid, k).tolist() == want[:k]
    in_order = [values[k] for k in want]
    assert all(a < b for a, b in zip(in_order, in_order[1:])) is distinct
    if distinct:
        # Without ties the order cannot depend on the index tie-break.
        assert [grid.size - 1 - k for k in _lowest_cells(grid[::-1], grid.size)] == want

    # Each start stops at once on its own value: the first of the lowest
    # values wins, and a NaN never does.
    def fun(x):
        return values[int(x[0])], [0.0]

    x, value, nfev, success = _refine(fun, [(float(k),) for k in range(grid.size)],
                                      OptimizerConfig())
    assert nfev == grid.size and success is (x is not None)
    if values[want[0]] == values[want[0]]:
        assert int(x[0]) == want[0] and value.hex() == values[want[0]].hex()
    else:  # only NaN: no start wins, and the caller keeps the grid best
        assert x is None and value == math.inf


def test_vertex_order_is_argsort_on_random_values():
    rng = np.random.default_rng(229)
    for size in (3, 5):
        for _ in range(200):
            values = rng.choice([-0.0, 0.0, 1.0, -1.0, NAN, 0.5], size)
            if rng.random() < 0.5:
                values = rng.normal(size=size)
            for k in range(1, size + 1):
                assert np.array_equal(_lowest_cells(values, k), _stable_head(values, k))


def test_converged_reports_the_winning_start(monkeypatch):
    # The first start sits on a plateau, where the gradient is zero, and
    # converges at once; the second lies on a steep slope, finds the lower
    # values and runs out of iterations.
    monkeypatch.setattr(optimize, "MAX_REFINE_ITERATIONS", 2)
    cfg = OptimizerConfig()

    def fun(x):
        if x[0] < 1.0:
            return 0.0, [0.0, 0.0]
        return -1000.0 * x[0], [-1000.0, 0.0]

    x, value, nfev, converged = _refine(fun, [(0.0, 0.0), (2.0, 0.0)], cfg)
    assert value < -2000.0 and x[0] > 2.0
    assert nfev == 1 + 3
    assert converged is False
    assert _refine(fun, [(0.0, 0.0)], cfg)[3] is True


def test_refine_stops_when_no_step_decreases_the_value():
    # A gradient that points the wrong way: every trial step goes uphill,
    # the line search halves the step until it gives up, and the start
    # keeps its value without claiming convergence.
    def fun(x):
        return x[0], [-1.0, 0.0]

    x, value, nfev, converged = _refine(fun, [(0.5, 0.5)], OptimizerConfig())
    assert list(x) == [0.5, 0.5] and value == 0.5
    assert nfev == 1 + optimize.LINE_SEARCH_HALVINGS
    assert converged is False

    # A plateau whose gradient, like rounding noise, is above the tolerance
    # but too small to change the value: steps of equal value are no
    # decrease, so the start ends at once instead of walking for every
    # iteration.
    def plateau(x):
        return 1.0, [1e-12, -1e-12]

    x, value, nfev, converged = _refine(plateau, [(0.5, 0.5)],
                                        OptimizerConfig(refine_tolerance=1e-13))
    assert list(x) == [0.5, 0.5] and value == 1.0
    assert nfev == 1 + optimize.LINE_SEARCH_HALVINGS
    assert converged is False


def test_refine_converges_on_a_quadratic():
    # An ill-scaled quadratic bowl: BFGS reaches the tolerance test within a
    # few dozen evaluations.
    def fun(x):
        a, b = x[0] - 0.3, x[1] + 0.2
        return 50.0 * a * a + 0.5 * b * b, [100.0 * a, b]

    x, value, nfev, converged = _refine(fun, [(1.0, 1.0)], OptimizerConfig())
    assert converged is True
    assert abs(x[0] - 0.3) <= 1e-8 and abs(x[1] + 0.2) <= 1e-6
    assert value <= 1e-13
    assert nfev <= 40


def test_converged_is_false_when_the_grid_best_wins(monkeypatch):
    # A refinement that ends above the grid best (and claims success) loses
    # to the grid cell, which no refinement converged on.
    from qreality import optimize

    def worse_refine(fun, starts, cfg):
        return np.array(starts[0]), math.inf, 0, True

    monkeypatch.setattr(optimize, "_refine", worse_refine)
    rho = random_density(4, 3, 11, dims=(2, 2))
    for res in (minimize_pair(rho, "nonlocality", cfg=FAST), minimize_single(rho, 0, cfg=FAST)):
        assert res.value == res.grid_best
        assert res.converged is False


def test_brute_force_makes_one_basis_and_one_dephase_per_point(monkeypatch):
    from qreality import measures, optimize

    # Each matrix is diagonalized once, when it is validated: the dephased
    # state and its marginal per point, and the two marginals at set-up.
    calls = {"qubit_basis": 0, "dephase": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimize, "qubit_basis", counted("qubit_basis", optimize.qubit_basis))
    monkeypatch.setattr(measures, "dephase", counted("dephase", measures.dephase))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    rho = random_density(4, 3, 41, dims=(2, 2))
    for subsystem in (0, 1):
        calls.update(qubit_basis=0, dephase=0, eigvalsh=0)
        brute_force_single(rho, subsystem, n_theta=4, n_phi=5)
        assert calls == {"qubit_basis": 20, "dephase": 20, "eigvalsh": 2 * 20 + 2}


def test_minimizers_compute_only_the_state_data_their_objective_reads(monkeypatch):
    # S(rho) for nonlocality, I(rho) for the pair discord, and I(rho) plus the
    # unoptimized marginal's entropy for the one-sided drop: each once, and
    # no partial trace beyond the one that marginal needs.
    calls = {"entropy": 0, "mutual_information": 0, "partial_trace": 0}

    def counted(name):
        fn = getattr(optimize, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(optimize, name, counted(name))
    rho = random_density(4, 3, 47, dims=(2, 2))
    for run, want in (
        (lambda: minimize_pair(rho, "nonlocality", FAST),
         {"entropy": 1, "mutual_information": 0, "partial_trace": 0}),
        (lambda: minimize_pair(rho, "discord", FAST),
         {"entropy": 0, "mutual_information": 1, "partial_trace": 0}),
        (lambda: minimize_single(rho, 0, cfg=FAST),
         {"entropy": 1, "mutual_information": 1, "partial_trace": 1}),
        (lambda: minimize_single(rho, 1, cfg=FAST),
         {"entropy": 1, "mutual_information": 1, "partial_trace": 1}),
    ):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls == want


def _result_hex(res):
    return (res.value.hex(), [(t.hex(), p.hex()) for t, p in res.argmin],
            res.grid_best.hex(), res.evaluations, res.converged)


def test_shared_joint_entropy_leaves_minimize_pair_bitwise_unchanged():
    # 133 axes per side: three joint blocks, the last one partial.
    cfg = OptimizerConfig(grid_points_theta=13, grid_points_phi=12)
    rng = np.random.default_rng(163)
    states = [random_density(4, 1 + k % 4, rng, dims=(2, 2)) for k in range(8)]
    states += [werner(0.0), werner(0.6), werner(1.0), alpha_state(0.0), alpha_state(0.4)]
    joint = kernels.JointEntropy()  # cleared and refilled for every state
    for rho in states:
        want = {obj: _result_hex(minimize_pair(rho, obj, cfg))
                for obj in ("nonlocality", "discord")}
        for order in (("nonlocality", "discord"), ("discord", "nonlocality")):
            joint.clear()
            for obj in order:
                assert _result_hex(minimize_pair(rho, obj, cfg, joint=joint)) == want[obj]


def test_minimize_pair_rejects_a_holder_of_another_state():
    joint = kernels.JointEntropy()
    minimize_pair(werner(0.5), "nonlocality", FAST, joint=joint)
    with pytest.raises(ValueError, match="other Bloch data or axes"):
        minimize_pair(alpha_state(0.5), "discord", FAST, joint=joint)
    finer = OptimizerConfig(grid_points_theta=10, grid_points_phi=8, refine_starts=3)
    with pytest.raises(ValueError, match="other Bloch data or axes"):
        minimize_pair(werner(0.5), "discord", finer, joint=joint)


def test_sweep_and_bounds_run_one_joint_pass_per_state(monkeypatch):
    from qreality.sweep import SweepSpec, sweep_rows
    from qreality.verify import run_suite

    runs = []
    blocks = kernels._joint_entropy_blocks

    def counted(*args):
        runs.append(1)
        return blocks(*args)

    monkeypatch.setattr(kernels, "_joint_entropy_blocks", counted)
    rows = sweep_rows(SweepSpec("alpha", points=3, optimizer=FAST))
    assert len(rows) == 3 and len(runs) == 3
    runs.clear()
    assert run_suite("bounds", 5, 2, FAST).ok
    assert len(runs) == 2
    runs.clear()
    minimize_pair(werner(0.5), "nonlocality", FAST)
    minimize_pair(werner(0.5), "discord", FAST)
    assert len(runs) == 2


def test_sweep_and_bounds_keep_one_joint_holder_per_thread():
    from qreality.sweep import SweepSpec, sweep_rows
    from qreality.verify import run_suite

    holder = kernels.JointEntropy.for_this_thread()
    sweep_rows(SweepSpec("werner", points=2, optimizer=FAST))
    buffer = holder._values
    assert buffer is not None
    sweep_rows(SweepSpec("alpha", points=2, optimizer=FAST))
    assert run_suite("bounds", 5, 1, FAST).ok
    assert kernels.JointEntropy.for_this_thread() is holder and holder._values is buffer
    other = []
    thread = threading.Thread(target=lambda: other.append(kernels.JointEntropy.for_this_thread()))
    thread.start()
    thread.join()
    assert other[0] is not holder and other[0]._values is None


def test_sweeps_in_threads_keep_their_holders_apart():
    # More threads than cores, switching often: a holder shared between
    # threads would serve one thread's S_AB to another's state and raise.
    from qreality.sweep import SweepSpec, sweep_rows

    specs = [SweepSpec(family, points=3, optimizer=FAST)
             for family in ("werner", "alpha", "werner", "alpha")]
    want = [sweep_rows(spec) for spec in specs]
    got = [None] * len(specs)

    def run(k):
        got[k] = sweep_rows(specs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_minimize_pair_rejects_grids_over_the_budget(monkeypatch):
    from qreality import optimize

    # A 6 x 6 grid per side is 36**2 = 1296 pair cells.
    monkeypatch.setattr(optimize, "MAX_PAIR_GRID_CELLS", 1295)

    def no_work(*args):
        raise AssertionError("the budget check must come before any grid work")

    monkeypatch.setattr(kernels, "bloch_correlations", no_work)
    cfg = OptimizerConfig(grid_points_theta=6, grid_points_phi=6, refine_starts=2)
    with pytest.raises(ValueError, match=r"1296 cells exceeds the budget of 1295"):
        minimize_pair(werner(0.5), "nonlocality", cfg)
    monkeypatch.undo()
    monkeypatch.setattr(optimize, "MAX_PAIR_GRID_CELLS", 1296)
    assert minimize_pair(werner(0.5), "nonlocality", cfg).value >= -1e-9


def test_minimize_single_rejects_grids_over_the_side_budget(monkeypatch):
    from qreality import optimize

    # A 6 x 6 side grid is 36 points.
    monkeypatch.setattr(optimize, "MAX_SIDE_GRID_POINTS", 35)

    def no_grid(*args):
        raise AssertionError("the budget check must come before the side grid")

    monkeypatch.setattr(kernels, "axis_grid", no_grid)
    cfg = OptimizerConfig(grid_points_theta=6, grid_points_phi=6, refine_starts=2)
    for subsystem in (0, 1):
        with pytest.raises(ValueError, match=r"36 points exceeds the budget of 35"):
            minimize_single(werner(0.5), subsystem, cfg=cfg)
    monkeypatch.undo()
    monkeypatch.setattr(optimize, "MAX_SIDE_GRID_POINTS", 36)
    assert minimize_single(werner(0.5), 0, cfg=cfg).value >= -1e-9


DATA = Path(__file__).resolve().parent / "data"


def test_minima_match_the_nelder_mead_reference():
    # data/make_refine_reference.py wrote these minima with the Nelder-Mead
    # refinement this BFGS replaced.  No minimum may end more than 1e-12
    # above its reference, nor more than 1e-9 away from it.
    spec = importlib.util.spec_from_file_location(
        "make_refine_reference", DATA / "make_refine_reference.py")
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    import qreality

    entries = json.loads((DATA / "refine_reference.json").read_text())
    assert len(entries) == len(list(maker.cases()))
    problems = []
    for entry in entries:
        value = maker.minimize(qreality, maker.build_state(qreality, entry["state"]), entry).value
        ref = float.fromhex(entry["value"])
        if not (value <= ref + 1e-12 and abs(value - ref) <= 1e-9):
            problems.append((entry, value - ref))
    assert not problems


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import qreality, sys; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
