import re

import numpy as np
import pytest

from qreality.optimize import OptimizerConfig
from qreality.verify import SUITES, VerifySuiteResult, run_all, run_suite

FAST = OptimizerConfig(grid_steps=6, refine_starts=2)


def test_registry_covers_every_suite():
    assert set(SUITES) == {
        "tensor", "states", "observables", "dephasing", "faithfulness",
        "decomposition", "mub", "nonnegativity", "perpair", "premeasured",
        "remote", "dilation", "singlet", "schmidt", "pure", "bounds",
        "slit", "oracle",
    }


@pytest.mark.parametrize("name", sorted(set(SUITES) - {"oracle", "bounds"}))
def test_each_suite_passes_small(name):
    # singlet and slit have fixed case sets and take no count.
    count = None if SUITES[name][1] is None else 3
    result = run_suite(name, seed=11, count=count, cfg=FAST)
    assert result.cases > 0
    assert result.ok, result.failures


def test_bounds_suite_small():
    result = run_suite("bounds", seed=11, count=2, cfg=FAST)
    assert result.ok, result.failures


@pytest.mark.parametrize("name", ["tensor", "states", "observables", "faithfulness", "perpair"])
def test_suite_passes_at_its_default_count(name):
    # The suites no acceptance criterion runs, at the CLI's default seed and
    # each suite's own case count.
    result = run_suite(name, seed=7)
    assert result.cases > 0
    assert result.ok, result.failures


def test_refined_minimum_meets_a_scan_the_coarse_grid_best_misses():
    # keep the unit-test scan coarse; acceptance runs the dense one.  The
    # oracle suite's first state at seed 11 is mixed, and its coarse grid
    # best alone loses to the 30 x 30 scan, so only a refined minimum agrees
    # with it.
    from qreality.optimize import minimize_single
    from qreality.oracle import brute_force_single
    from qreality.states import random_density

    rho = random_density(4, 2, np.random.default_rng(11), dims=(2, 2))
    fast = minimize_single(rho, 0, cfg=FAST)
    slow, _ = brute_force_single(rho, 0, n_theta=30, n_phi=30)
    assert fast.grid_best > slow + 1e-4
    assert abs(fast.value - slow) <= 1e-4


def test_unknown_suite():
    with pytest.raises(ValueError) as exc:
        run_suite("nope")
    assert str(exc.value) == f"unknown suite 'nope' (known: {', '.join(sorted(SUITES))})"


def test_run_all_aggregates_every_suite(monkeypatch):
    # Probes stand in for the suites: run_all's bookkeeping is one result per
    # registered suite, in registry order, each run with the given seed,
    # count and cfg.  Criterion 14 runs the oracle suite itself.
    from qreality import verify as verify_mod

    seen = []

    def probe(name):
        def run(result, rng, count, cfg):
            seen.append((name, result.suite, rng.integers(0, 2**31), count, cfg))
            result.case()
        return run

    names = ["first", "second", "third"]
    monkeypatch.setattr(verify_mod, "SUITES", {name: (probe(name), 4) for name in names})
    results = run_all(seed=11, count=2, cfg=FAST)
    expected = int(np.random.default_rng(11).integers(0, 2**31))
    assert seen == [(name, name, expected, 2, FAST) for name in names]
    assert results == [VerifySuiteResult(suite=name, cases=1) for name in names]


@pytest.mark.parametrize("name", ["singlet", "slit"])
def test_fixed_suites_refuse_a_count(name):
    # Their cases are fixed, so a count would be ignored: it is refused.
    assert SUITES[name][1] is None
    with pytest.raises(ValueError, match=f"suite '{name}' has a fixed case set and takes no count"):
        run_suite(name, count=2)


def test_run_all_passes_its_count_only_to_suites_that_take_one(monkeypatch):
    from qreality import verify as verify_mod

    seen = []

    def probe(result, rng, count, cfg):
        seen.append((result.suite, count))
        result.case()

    monkeypatch.setattr(verify_mod, "SUITES", {"counted": (probe, 4), "fixed": (probe, None)})
    run_all(seed=11, count=2, cfg=FAST)
    assert seen == [("counted", 2), ("fixed", None)]


def test_result_failure_semantics():
    good = VerifySuiteResult(suite="demo", cases=3)
    assert good.ok
    bad = VerifySuiteResult(suite="demo", cases=3,
                            failures=[("case", 1.0, 1e-9)])
    assert not bad.ok
    assert "demo" in bad.summary() and "1 failures" in bad.summary()

    recorded = VerifySuiteResult(suite="demo", cases=0)
    recorded.case()
    recorded.check("within", 1e-12, 1e-9)
    recorded.check_true("holds", True)
    assert recorded.ok and recorded.cases == 1
    recorded.check("nan residual", float("nan"), 1e-9)
    recorded.check_true("broken", False)
    assert [f[0] for f in recorded.failures] == ["nan residual", "broken"]


def test_run_suite_builds_the_result_and_generator(monkeypatch):
    from qreality import verify as verify_mod

    seen = []

    def probe(result, rng, count, cfg):
        seen.append((result.suite, result.cases, rng.integers(0, 2**31), count, cfg))
        result.case()

    monkeypatch.setitem(verify_mod.SUITES, "probe", (probe, 4))
    result = run_suite("probe", seed=5, cfg=FAST)
    expected = int(np.random.default_rng(5).integers(0, 2**31))
    assert seen == [("probe", 0, expected, 4, FAST)]
    assert result == VerifySuiteResult(suite="probe", cases=1)


def test_determinism_of_suites():
    a = run_suite("decomposition", seed=5, count=5)
    b = run_suite("decomposition", seed=5, count=5)
    assert a == b


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_count_below_one_is_rejected(count):
    # A suite that checks no case must not report success, and a float or
    # bool is no count.
    message = (rf"at least 1, got {count}" if type(count) is int
               else rf"count must be an integer, got {count!r}")
    with pytest.raises(ValueError, match=message):
        run_suite("dephasing", count=count)
    with pytest.raises(ValueError, match=rf"got {count}"):
        run_all(count=count)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "7", None])
def test_seed_must_be_a_non_negative_integer(seed):
    # True ran as seed 1, 2.5 raised numpy's TypeError, and -1 numpy's
    # ValueError without naming the argument.  The messages are the shared
    # integer check's.
    message = (r"seed must be at least 0, got -1" if type(seed) is int
               else rf"seed must be an integer, got {re.escape(repr(seed))}")
    with pytest.raises(ValueError, match=message):
        run_suite("dephasing", seed=seed, count=1)
    with pytest.raises(ValueError, match=message):
        run_all(seed=seed, count=1)


def test_numpy_integer_seeds_are_seeds():
    want = run_suite("decomposition", seed=5, count=2)
    assert run_suite("decomposition", seed=np.int64(5), count=2) == want
    assert run_suite("decomposition", seed=np.uint32(0), count=2) == run_suite(
        "decomposition", seed=0, count=2)
