"""Count the minima that the default optimizer misses, against a finer run.

Run from the repository root, optionally pointing ``--src`` at the ``src``
directory of another checkout to census that version instead:

    python3 tests/data/miss_census.py
    python3 tests/data/miss_census.py --src path/to/other/checkout/src

Each seed in ``SEED_BLOCKS`` names the two-qubit state
``random_density(4, 1 + seed % 4, seed, dims=(2, 2))``.  On it both pair
objectives are minimized, and the one-sided drop on each subsystem, at the
default configuration and at the reference configuration, ``REFERENCE_STEPS``
= 48 grid steps per side (49 thetas by 48 phis) with 10 refinement starts.
The reference minimum is the lower of two frames: the state itself and a
copy rotated by seeded local unitaries, which has the same minima over bases
but lays other bases on the grid.  So a start
rule that misses a basin on one frame does not hide that miss in the
reference too.  A miss is a default minimum more than ``MISS_TOL`` above the
reference one.

A qubit against a qutrit takes the qubit-qudit kernels of
``qreality.kernels`` in ``minimize_single``, and the matrix-route engine in
``brute_force_single``, so the two are independent there too.  Each seed in
``QUDIT_SEEDS`` names two such states of rank 1 + seed % 6,
``random_density(6, rank, seed, dims=(2, 3))`` scanned on side 0 and
``random_density(6, rank, seed, dims=(3, 2))`` on side 1.  Their
reference is the ``brute_force_single`` scan on ``ORACLE_GRID``, and a miss
is a default minimum more than ``MISS_TOL`` above the scan's.

The script prints every miss, then for each kind of call the number of calls
and misses, the mean number of refinement evaluations per default call and
the seconds the block took.  It exits 1 when any call missed, else 0, so it
can gate a change.  The whole census takes about 2.5 minutes on one core,
the two-qubit block about two of them.  pytest does not collect it.

Only names that ``qreality`` exports are used, and ``qreality.kernels.axis_grid``
for the number of grid axes per side, so any version of the package that
has them and ``OptimizerConfig.grid_steps`` can be censused.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_BLOCKS = (range(70000, 70300), range(90000, 90300))
QUDIT_SEEDS = range(80000, 80150)
ORACLE_GRID = (64, 64)
MISS_TOL = 1e-9
REFERENCE_STEPS = 48
REFERENCE_STARTS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(HERE.parents[1] / "src"),
                        help="the src directory whose qreality is censused")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    import qreality
    import qreality.kernels

    default = qreality.OptimizerConfig()
    # Axes on one side of the default grid, as the minimizers scan them.
    side_points = len(qreality.kernels.axis_grid(default.grid_steps)[0])
    reference = qreality.OptimizerConfig(grid_steps=REFERENCE_STEPS,
                                         refine_starts=REFERENCE_STARTS)
    # Each case names a minimizer and its calls: (label, minimize(state, cfg)).
    cases = [(f"pair {objective}",
              lambda state, cfg, objective=objective:
              qreality.minimize_pair(state, objective, cfg))
             for objective in ("nonlocality", "discord")]
    cases += [(f"single side {side}",
               lambda state, cfg, side=side: qreality.minimize_single(state, side, cfg))
              for side in (0, 1)]
    # calls, misses, refinement evaluations, seconds
    tally = {"pair": [0, 0, 0, 0.0], "single": [0, 0, 0, 0.0], "qudit": [0, 0, 0, 0.0]}

    def record(kind, label, seed, rank, got, want, grid):
        counts = tally[kind]
        counts[0] += 1
        counts[2] += got.evaluations - grid
        gap = got.value - want
        if gap > MISS_TOL:
            counts[1] += 1
            print(f"miss: seed {seed} rank {rank} {label}: "
                  f"{got.value!r} vs reference {want!r} (+{gap:.2e})", flush=True)

    for block in SEED_BLOCKS:
        for seed in block:
            rank = 1 + seed % 4
            rho = qreality.random_density(4, rank, seed, dims=(2, 2))
            local = qreality.tensor_product(qreality.random_unitary(2, (seed, 0)),
                                            qreality.random_unitary(2, (seed, 1)))
            rotated = qreality.DensityMatrix(local @ rho.mat @ local.conj().T, (2, 2))
            for label, minimize in cases:
                kind = label.split()[0]
                start = time.perf_counter()
                got = minimize(rho, default)
                want = min(minimize(state, reference).value for state in (rho, rotated))
                tally[kind][3] += time.perf_counter() - start
                record(kind, label, seed, rank, got, want,
                       side_points ** (2 if kind == "pair" else 1))
    for seed in QUDIT_SEEDS:
        rank = 1 + seed % 6
        for dims, side in (((2, 3), 0), ((3, 2), 1)):
            rho = qreality.random_density(6, rank, seed, dims=dims)
            start = time.perf_counter()
            got = qreality.minimize_single(rho, side, default)
            want, _ = qreality.brute_force_single(rho, side, *ORACLE_GRID)
            tally["qudit"][3] += time.perf_counter() - start
            record("qudit", f"{dims} side {side}", seed, rank, got, want, side_points)
    for kind, (calls, misses, evaluations, seconds) in tally.items():
        print(f"{kind}: {calls} calls, {misses} misses, "
              f"{evaluations / calls:.1f} refinement evaluations per default call, "
              f"{seconds:.1f} s")
    return 1 if any(counts[1] for counts in tally.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
