import pytest

from qreality.optimize import OptimizerConfig
from qreality.verify import SUITES, VerifySuiteResult, run_all, run_suite

FAST = OptimizerConfig(grid_points_theta=7, grid_points_phi=6, refine_starts=2)


def test_registry_covers_every_suite():
    assert set(SUITES) == {
        "tensor", "states", "observables", "dephasing", "faithfulness",
        "decomposition", "mub", "nonnegativity", "perpair", "premeasured",
        "remote", "dilation", "singlet", "schmidt", "pure", "bounds",
        "slit", "oracle",
    }


@pytest.mark.parametrize("name", sorted(set(SUITES) - {"oracle", "bounds"}))
def test_each_suite_passes_small(name):
    result = run_suite(name, seed=11, count=3, cfg=FAST)
    assert result.cases > 0
    assert result.ok, result.failures


def test_bounds_suite_small():
    result = run_suite("bounds", seed=11, count=2, cfg=FAST)
    assert result.ok, result.failures


def test_oracle_suite_scales_with_cfg():
    # keep the unit-test scan coarse; acceptance runs the dense one
    from qreality.optimize import brute_force_single, minimize_single
    from qreality.states import werner

    rho = werner(0.5)
    fast = minimize_single(rho, 0, cfg=FAST).value
    slow, _ = brute_force_single(rho, 0, n_theta=30, n_phi=30)
    assert abs(fast - slow) <= 1e-4


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_run_all_aggregates_every_suite():
    names = [r.suite for r in run_all(seed=11, count=1, cfg=FAST)]
    assert names == list(SUITES)


def test_result_failure_semantics():
    good = VerifySuiteResult(suite="demo", cases=3)
    assert good.ok
    bad = VerifySuiteResult(suite="demo", cases=3,
                            failures=[("case", 1.0, 1e-9)])
    assert not bad.ok
    assert "demo" in bad.summary() and "1 failures" in bad.summary()


def test_determinism_of_suites():
    a = run_suite("decomposition", seed=5, count=5)
    b = run_suite("decomposition", seed=5, count=5)
    assert a == b


@pytest.mark.parametrize("count", [0, -3])
def test_count_below_one_is_rejected(count):
    # A suite that checks no case must not report success.
    with pytest.raises(ValueError, match=rf"at least 1, got {count}"):
        run_suite("dephasing", count=count)
    with pytest.raises(ValueError, match=rf"got {count}"):
        run_all(count=count)
