"""Regenerate sweep_reference.json, the expected rows of the `sweep` workload.

Run from the repository root:

    python3 perfbench/make_reference.py

It evaluates the 51-point werner and alpha sweeps at the default optimizer
configuration and stores, for every grid point, the parameter and the four
values the benchmark checks (n_min, d12, concurrence, n_zz).  Argmin angles
are not stored: Bell-diagonal states have tied grid minima, so the angles are
not a stable output.  Regenerate only from code whose sweep values are known
to be right; the file is the correctness reference for later changes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qreality import sweep  # noqa: E402

FAMILIES = ("werner", "alpha")
POINTS = 51
COLUMNS =["param", "n_min", "d12", "concurrence", "n_zz"]


def dump(tables: dict) -> str:
    """JSON with one row per line; floats keep every digit (repr round-trips)."""
    parts = [f' "points": {POINTS}', f' "columns": {json.dumps(COLUMNS)}']
    for family in FAMILIES:
        rows = ",\n  ".join(json.dumps(row) for row in tables[family])
        parts.append(f' "{family}": [\n  {rows}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    tables = {}
    for family in FAMILIES:
        rows = sweep.sweep_rows(sweep.SweepSpec(family, points=POINTS))
        tables[family] = [[r.param, r.n_min, r.d12, r.concurrence, r.n_zz] for r in rows]
    (HERE / "sweep_reference.json").write_text(dump(tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
