"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  All entropic tolerances are in nats.
"""

import math
import time

import numpy as np

from qreality.measures import nonlocality
from qreality.observables import qubit_basis
from qreality.optimize import OptimizerConfig, minimize_pair
from qreality.oracle import pure_state_minima, t_state_minima
from qreality.states import alpha_state, random_density, singlet, werner
from qreality.sweep import SweepSpec, sweep_rows
from qreality.verify import run_suite

DEFAULT_CFG = OptimizerConfig()


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


def _suite_ok(num: int, description: str, name: str, seed: int,
              count: int | None = None, max_seconds: float | None = None) -> None:
    start = time.monotonic()
    result = run_suite(name, seed=seed, count=count, cfg=DEFAULT_CFG)
    elapsed = time.monotonic() - start
    ok = result.ok and (max_seconds is None or elapsed <= max_seconds)
    detail = f"{result.cases} cases, {len(result.failures)} failures, {elapsed:.1f}s"
    if result.failures:
        worst = max(result.failures, key=lambda f: f[1])
        detail += f"; worst: {worst[0]} residual {worst[1]:.3e}"
    _report(num, description, ok, detail)


def test_criterion_01_decomposition_identity():
    # total irreality = local + correlated within 1e-9 on 200 seeded states;
    # runtime < 10 s.
    _suite_ok(1, "irreality decomposition identity (200 cases, <10s)",
              "decomposition", seed=7, count=200, max_seconds=10.0)


def test_criterion_02_nonlocality_nonnegative_and_forms_agree():
    _suite_ok(2, "nonlocality >= -1e-9 and both forms agree (200 cases)",
              "nonnegativity", seed=7, count=200)


def test_criterion_03_minimum_sandwich():
    # 0 - 1e-6 <= N_min <= pair discord + 1e-6 on 50 states, default config,
    # runtime < 5 min.
    _suite_ok(3, "minimal nonlocality sandwiched by pair discord (50 cases, <5min)",
              "bounds", seed=7, count=50, max_seconds=300.0)


def test_criterion_04_pure_state_minimum_vanishes():
    # N_min <= 1e-4 for singlet, alpha(1) and 20 random pure states; the
    # witness pair certifies N <= 1e-9 without optimization.
    _suite_ok(4, "pure states: N_min <= 1e-4 and witness pair N <= 1e-9",
              "pure", seed=7, count=20)


def test_criterion_05_singlet_axis_table():
    _suite_ok(5, "singlet axis table: N = ln2 on matched axes, 0 otherwise",
              "singlet", seed=7)


def test_criterion_06_schmidt_pair_identity():
    _suite_ok(6, "Schmidt-pair nonlocality equals entanglement entropy (50 cases)",
              "schmidt", seed=7, count=50)


def test_criterion_07_incompatible_pair_identity():
    _suite_ok(7, "unbiased-pair identity and double-dephasing flattening (100 cases)",
              "mub", seed=7, count=100)


def test_criterion_08_remote_unitary_invariance():
    _suite_ok(8, "remote unitaries never shift irreality (100 cases, 1e-10)",
              "remote", seed=7, count=100)


def test_criterion_09_dephasing_algebra():
    start = time.monotonic()
    algebra = run_suite("dephasing", seed=7, count=100, cfg=DEFAULT_CFG)
    dilation = run_suite("dilation", seed=7, count=100, cfg=DEFAULT_CFG)
    elapsed = time.monotonic() - start
    ok = algebra.ok and dilation.ok
    detail = (f"idempotence+reality {algebra.cases} cases, "
              f"dilation {dilation.cases} cases, {elapsed:.1f}s")
    _report(9, "dephasing algebra: idempotent, dilation-equal, reality-preserving",
            ok, detail)


def test_criterion_10_measurement_kills_nonlocality():
    _suite_ok(10, "no nonlocality once either observable is real (100 cases)",
              "premeasured", seed=7, count=100)


def test_criterion_11_werner_closed_form_anchor():
    f = 0.5
    first = -2 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - 2 * ((1 + f) / 4) * math.log((1 + f) / 4)
    second = -3 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - ((1 + 3 * f) / 4) * math.log((1 + 3 * f) / 4)
    expected = first - second
    zb = qubit_basis(0.0, 0.0)
    got = nonlocality(zb, zb, werner(f))
    residual = abs(got - expected)
    _report(11, "werner f=0.5 matched-axis value equals the closed form",
            residual <= 1e-10, f"value {got:.12f}, residual {residual:.2e}")


def test_criterion_12_sweep_reproduction():
    start = time.monotonic()
    werner_rows = sweep_rows(SweepSpec(family="werner", points=51,
                                       optimizer=DEFAULT_CFG))
    alpha_rows = sweep_rows(SweepSpec(family="alpha", points=51,
                                      optimizer=DEFAULT_CFG))
    elapsed = time.monotonic() - start

    problems = []
    worst = {"d12": 0.0, "n_min": 0.0}
    for label, rows, build in (("werner", werner_rows, werner),
                               ("alpha", alpha_rows, alpha_state)):
        for row in rows:
            if not row.n_min <= row.d12 + 1e-6:
                problems.append(f"{label} param {row.param}: N_min above pair discord")
            want_n, want_d = t_state_minima(build(row.param))
            for name, got, want in (("d12", row.d12, want_d), ("n_min", row.n_min, want_n)):
                gap = abs(got - want)
                worst[name] = max(worst[name], gap)
                if not gap <= 1e-9:
                    problems.append(f"{label} param {row.param}: {name} {got!r} != "
                                    f"closed form {want!r}")
    for row in werner_rows:
        if row.param <= 1 / 3 and row.concurrence != 0.0:
            problems.append(f"concurrence nonzero at f={row.param}")
        if 0.05 <= row.param <= 1 / 3 and not row.n_zz > 1e-3:
            problems.append(f"n_zz not above 1e-3 at f={row.param}")
    if not abs(werner_rows[-1].n_min) <= 1e-4:
        problems.append("werner N_min not ~0 at f=1")
    if not abs(alpha_rows[-1].n_min) <= 1e-4:
        problems.append("alpha N_min not ~0 at alpha=1")
    first = werner_rows[0]
    for name, value in (("n_min", first.n_min), ("d12", first.d12),
                        ("concurrence", first.concurrence)):
        if not abs(value) <= 1e-6:
            problems.append(f"werner {name} not 0 at f=0")
    if elapsed > 600.0:
        problems.append(f"sweeps took {elapsed:.0f}s")

    _report(12, "both sweeps reproduce the curve ordering, endpoints, pair discord and N_min",
            not problems,
            f"2x51 points, {elapsed:.1f}s, worst d12 gap {worst['d12']:.1e}, "
            f"worst N_min gap {worst['n_min']:.1e}"
            + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_13_slit_curve():
    _suite_ok(13, "slit curve: monotone local irreality, constant global ln2",
              "slit", seed=7)


def test_criterion_14_optimizer_oracle():
    _suite_ok(14, "default optimizer within 1e-4 of the 200x200 dense scan",
              "oracle", seed=7)


def test_criterion_15_nonlocality_without_entanglement():
    # The abstract's claim: N_min > 0 on separable states.  The partial
    # transpose decides two-qubit separability exactly (Horodecki, Horodecki
    # & Horodecki, PLA 223, 1 (1996)); at f = 1/3 its smallest eigenvalue is
    # 5.6e-17, hence the -1e-12 floor.
    problems = []
    lowest, worst, values = math.inf, 0.0, []
    for f in (0.05, 0.1, 0.2, 0.3, 1 / 3):
        rho = werner(f)
        transposed = rho.mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        smallest = float(np.linalg.eigvalsh(transposed)[0])
        lowest = min(lowest, smallest)
        n_min = minimize_pair(rho, "nonlocality", DEFAULT_CFG).value
        gap = abs(n_min - t_state_minima(rho)[0])
        worst = max(worst, gap)
        values.append(f"{n_min:.3g}")
        if not smallest >= -1e-12:
            problems.append(f"f={f:.3g}: partial transpose has eigenvalue {smallest:.3e}")
        if not (n_min > 0.0 and gap <= 1e-9):
            problems.append(f"f={f:.3g}: N_min {n_min!r}, {gap:.1e} from the closed form")
    _report(15, "separable werner states have N_min > 0",
            not problems,
            f"lowest partial-transpose eigenvalue {lowest:.1e}, N_min {', '.join(values)}, "
            f"worst N_min gap {worst:.1e}" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_16_pure_state_minima_are_exact():
    # On pure states both pair minima have a closed form (Henderson & Vedral
    # 2001): N_min = 0 and the pair discord is the entanglement entropy E.
    # The default minimizer must meet both within 1e-12 on the singlet,
    # alpha(1) and 20 seeded pure two-qubit states.
    states = [("singlet", singlet()), ("alpha(1)", alpha_state(1.0))]
    states += [(f"seed {seed}", random_density(4, 1, seed, dims=(2, 2)))
               for seed in range(1600, 1620)]
    problems, worst_n, worst_d = [], 0.0, 0.0
    for name, rho in states:
        want_n, want_d = pure_state_minima(rho)
        gap_n = abs(minimize_pair(rho, "nonlocality", DEFAULT_CFG).value - want_n)
        gap_d = abs(minimize_pair(rho, "discord", DEFAULT_CFG).value - want_d)
        worst_n, worst_d = max(worst_n, gap_n), max(worst_d, gap_d)
        if not (gap_n <= 1e-12 and gap_d <= 1e-12):
            problems.append(f"{name}: N_min {gap_n:.1e}, pair discord {gap_d:.1e} from the form")
    _report(16, "pure states: N_min = 0 and pair discord = E within 1e-12 (22 states)",
            not problems,
            f"worst N_min gap {worst_n:.1e}, worst pair-discord gap {worst_d:.1e}"
            + ("; " + "; ".join(problems) if problems else ""))
