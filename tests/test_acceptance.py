"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  All entropic tolerances are in nats.
"""

import math
import time

import numpy as np

from qreality.measures import entropy, mutual_information, nonlocality
from qreality.observables import qubit_basis
from qreality.optimize import OptimizerConfig
from qreality.states import alpha_state, werner
from qreality.sweep import SweepSpec, sweep_rows
from qreality.verify import run_suite

LN2 = math.log(2.0)
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


def _binary_entropy_of_bias(x: float) -> float:
    # H(x): Shannon entropy of the weights (1 + x)/2 and (1 - x)/2, in nats.
    return -sum(p * math.log(p) for p in ((1 + x) / 2, (1 - x) / 2) if p > 0.0)


def _bell_diagonal_pair_discord(rho, c) -> float:
    # Minimal two-sided discord-like drop of a Bell-diagonal state
    # (r1 = r2 = 0, T = diag(c)): I(rho) - ln 2 + H(max |c_i|), after Luo,
    # PRA 77, 042303 (2008).  No kernel or optimizer is involved.
    return mutual_information(rho) - LN2 + _binary_entropy_of_bias(max(abs(x) for x in c))


def _bell_diagonal_nonlocality(rho, c) -> float:
    """Minimal nonlocality of a Bell-diagonal state: H(|c|_(1)) + H(|c|_(2)) - S(rho).

    |c|_(1) >= |c|_(2) are the two largest |c_i|.  With r1 = r2 = 0 and
    T = diag(c), dephasing A along the axis u leaves the four weights
    (1 +/- |T u|)/4, each twice, so S(Ph_u rho) = ln 2 + H(|T u|); B alike
    along v.  Dephasing both sides leaves (1 +/- u.T v)/4, each twice, so
    S(Ph_u Ph_v rho) = ln 2 + H(u.T v).  Hence

        N(u, v) = ln 2 + H(|T u|) + H(|T v|) - H(u.T v) - S(rho).

    At u and v the axes of |c|_(1) and |c|_(2), |T u| = |c|_(1),
    |T v| = |c|_(2) and u.T v = 0, where H(0) = ln 2 cancels the leading
    term.  That this pair is the minimum is not derived here: the criterion
    compares the value with the optimizer's N_min at every sweep point.  No
    kernel or optimizer is involved.
    """
    first, second = sorted((abs(x) for x in c), reverse=True)[:2]
    return _binary_entropy_of_bias(first) + _binary_entropy_of_bias(second) - entropy(rho)


def _sweep_correlations(label: str, param: float) -> tuple[float, float, float]:
    # The diagonal of T for each sweep family.
    if label == "werner":
        return (-param, -param, -param)
    return (param, -param, 2 * param - 1)


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
            rho = build(row.param)
            c = _sweep_correlations(label, row.param)
            for name, got, want in (("d12", row.d12, _bell_diagonal_pair_discord(rho, c)),
                                    ("n_min", row.n_min, _bell_diagonal_nonlocality(rho, c))):
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
