"""The benchmark's four workloads: inputs from the seed, one op, its check.

Every workload is a closed loop with one client.  ``spec(i)`` derives the
i-th op's input from (seed, i) alone, so the same seed gives the same ops in
the same order.  The program receives only these inputs: seeds, ranks,
family names, grid indices and suite names.  Each op builds its own states
through ``qreality.states``.  ``cycle`` is the period of the op mix (rank x
objective, family alternation, suite order); a timed run stops only at a
cycle boundary, so every run sees the same mix.

Importing this module imports qreality, so the caller times it as set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from qreality import cli, measures, observables, optimize, states, sweep, verify

HERE = Path(__file__).resolve().parent

AGREEMENT_TOL = 1e-9
NONNEGATIVE_TOL = 1e-6
ORACLE_TOL = 1e-6

# Scan resolution of the oracle workload: enough points that one op does
# hundreds of matrix-route evaluations, few enough that a run holds 100+ ops.
ORACLE_SCAN = 20

# Suites with minimizer work are left out of `verify`, so that it stays the
# no-change workload for minimizer changes.
VERIFY_EXCLUDED = ("pure", "bounds", "oracle")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed,) + stream)


def _state_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _two_qubit(state_seed: int, rank: int):
    return states.random_density(4, rank, state_seed, dims=(2, 2))


class PairMin:
    """One ``minimize_pair`` on a fresh random two-qubit state."""

    name = "pair_min"
    cycle = 8  # 2 objectives x ranks 1-4

    def __init__(self, seed: int):
        self.seed = seed

    def spec(self, i: int):
        objective = (optimize.OBJECTIVE_NONLOCALITY, optimize.OBJECTIVE_DISCORD)[i % 2]
        return _state_seed(_rng(self.seed, 1, i)), 1 + (i // 2) % 4, objective

    def warmup_spec(self):
        return _state_seed(_rng(self.seed, 0)), 4, optimize.OBJECTIVE_NONLOCALITY

    def run(self, spec):
        state_seed, rank, objective = spec
        rho = _two_qubit(state_seed, rank)
        return rho, optimize.minimize_pair(rho, objective)

    def key(self, out):
        _, result = out
        return result.value, result.argmin, result.evaluations

    def check(self, spec, out):
        _, _, objective = spec
        rho, result = out
        (ta, pa), (tb, pb) = result.argmin
        basis_a = observables.qubit_basis(ta, pa)
        basis_b = observables.qubit_basis(tb, pb)
        if objective == optimize.OBJECTIVE_NONLOCALITY:
            matrix_route = measures.nonlocality(basis_a, basis_b, rho)
            if result.value < -NONNEGATIVE_TOL:
                return f"negative minimal nonlocality {result.value!r}"
        else:
            matrix_route = measures.discord_like(rho, [(basis_a, 0), (basis_b, 1)])
        gap = abs(matrix_route - result.value)
        if not gap <= AGREEMENT_TOL:
            return f"argmin re-evaluates to {matrix_route!r}, result says {result.value!r}"
        return None

    def expected_calls(self, spec):
        return {"optimize.minimize_pair": 1, "kernels.pair_grid": 1,
                "kernels.bloch": 1, "states.build": 1, "measures.dephase": 0}


class Sweep:
    """One ``sweep_rows`` call over two points of a 51-point family grid.

    ``SweepSpec`` needs at least two points, so the smallest call computes
    two rows: four ``minimize_pair`` calls plus ``concurrence`` and ``n_zz``
    twice.  The endpoints of ``linspace`` are exact, so both parameters equal
    grid points of the reference bit for bit.
    """

    name = "sweep"
    cycle = 2  # werner, alpha
    families = ("werner", "alpha")

    def __init__(self, seed: int):
        self.seed = seed
        reference = json.loads((HERE / "sweep_reference.json").read_text())
        self.points = reference["points"]
        self.grid = np.linspace(0.0, 1.0, self.points)
        self.reference = {f: reference[f] for f in self.families}

    def _pair(self, rng, family):
        i, j = sorted(int(k) for k in rng.choice(self.points, size=2, replace=False))
        return family, i, j

    def spec(self, i: int):
        return self._pair(_rng(self.seed, 1, i), self.families[i % 2])

    def warmup_spec(self):
        return self._pair(_rng(self.seed, 0), "werner")

    def run(self, spec):
        family, i, j = spec
        return sweep.sweep_rows(sweep.SweepSpec(
            family, start=float(self.grid[i]), stop=float(self.grid[j]), points=2))

    def key(self, out):
        return tuple((r.param, r.n_min, r.d12, r.concurrence, r.n_zz) for r in out)

    def check(self, spec, out):
        family, i, j = spec
        if len(out) != 2:
            return f"expected 2 rows, got {len(out)}"
        for row, k in zip(out, (i, j)):
            want = self.reference[family][k]
            if row.param != want[0]:
                return f"{family} row {k}: param {row.param!r} != {want[0]!r}"
            got = (row.n_min, row.d12, row.concurrence, row.n_zz)
            for column, g, w in zip(("n_min", "d12", "concurrence", "n_zz"), got, want[1:]):
                if not abs(g - w) <= AGREEMENT_TOL:
                    return f"{family} row {k}: {column} {g!r} != reference {w!r}"
        return None

    def expected_calls(self, spec):
        return {"sweep.row": 1, "optimize.minimize_pair": 4, "kernels.pair_grid": 4,
                "measures.concurrence": 2, "measures.nonlocality": 2,
                "states.build": 2}


class Verify:
    """One in-process ``qreality verify <suite> --seed <n>`` at default counts."""

    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed
        self.suites = [s for s in verify.SUITES if s not in VERIFY_EXCLUDED]
        self.cycle = len(self.suites)

    def spec(self, i: int):
        cycle, slot = divmod(i, self.cycle)
        order = _rng(self.seed, 1, cycle).permutation(self.cycle)
        suite_seed = int(_rng(self.seed, 2, i).integers(0, 2**31))
        return self.suites[int(order[slot])], suite_seed

    def warmup_spec(self):
        return "dephasing", int(_rng(self.seed, 0).integers(0, 2**31))

    def run(self, spec):
        suite, suite_seed = spec
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["verify", suite, "--seed", str(suite_seed)])
        return code, text.getvalue()

    def key(self, out):
        return out

    def check(self, spec, out):
        suite, _ = spec
        code, text = out
        if code != 0:
            return f"verify {suite} exited {code}: {text.strip()}"
        if not text.startswith(f"suite {suite}: ") or " 0 failures" not in text:
            return f"verify {suite} printed {text.strip()!r}"
        return None

    def expected_calls(self, spec):
        return {"cli.main": 1, "verify.run_suite": 1, "optimize.minimize_pair": 0,
                "optimize.minimize_single": 0, "kernels.value": 0}


class Oracle:
    """``minimize_single`` plus the ``brute_force_single`` scan on a mixed state."""

    name = "oracle"
    cycle = 6  # ranks 2-4 x subsystem 0, 1

    def __init__(self, seed: int):
        self.seed = seed

    def spec(self, i: int):
        return _state_seed(_rng(self.seed, 1, i)), 2 + i % 3, (i // 3) % 2

    def warmup_spec(self):
        return _state_seed(_rng(self.seed, 0)), 4, 0

    def run(self, spec):
        state_seed, rank, subsystem = spec
        rho = _two_qubit(state_seed, rank)
        fast = optimize.minimize_single(rho, subsystem)
        scan = optimize.brute_force_single(rho, subsystem, ORACLE_SCAN, ORACLE_SCAN)
        return fast, scan

    def key(self, out):
        fast, scan = out
        return fast.value, fast.argmin, fast.evaluations, scan

    def check(self, spec, out):
        fast, (scan_min, _) = out
        if not scan_min >= fast.value - ORACLE_TOL:
            return f"scan minimum {scan_min!r} below minimize_single {fast.value!r}"
        return None

    def expected_calls(self, spec):
        points = ORACLE_SCAN * ORACLE_SCAN
        return {"optimize.minimize_single": 1, "optimize.brute_force": 1,
                "kernels.side_grid": 1, "states.build": 1,
                "measures.dephase": points, "observables.qubit_basis": points}


WORKLOADS = {w.name: w for w in (PairMin, Sweep, Verify, Oracle)}
