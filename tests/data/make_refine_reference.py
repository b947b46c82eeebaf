"""Regenerate refine_reference.json, the minimizer values the refinement must keep.

Run from the repository root, pointing ``--src`` at the ``src`` directory of
the code whose minima are the reference:

    python3 tests/data/make_refine_reference.py --src path/to/other/checkout/src

``--src`` is required: the reference is frozen, and this checkout's code is
what the test holds to it, so writing it from this checkout would compare
the code with itself.

The file was written from the last commit that refined with Nelder-Mead.  It
stores, as ``float.hex``, the value of every minimization in ``CASES`` at the
default optimizer configuration: both pair objectives and both
``minimize_single`` sides for seeded random two-qubit states of ranks 1-4 and
for werner and alpha points, plus ``minimize_single`` on two qubit-qutrit
states, which the qubit-qudit kernels serve.  ``tests/test_optimize.py``
rebuilds each state from its recipe and holds the current minimizer to it.
Only public names of ``qreality`` are used, so any version of the package can
write the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RANDOM_STATES = 64
WERNER = (0.1, 0.4, 0.7, 0.9)
ALPHA = (0.2, 0.45, 0.6, 0.8)


def cases():
    """(state recipe, task) for every reference entry, in file order."""
    recipes = [{"family": "random", "rank": 1 + k % 4, "seed": 9000 + k}
               for k in range(RANDOM_STATES)]
    recipes += [{"family": "werner", "param": f} for f in WERNER]
    recipes += [{"family": "alpha", "param": a} for a in ALPHA]
    for recipe in recipes:
        for objective in ("nonlocality", "discord"):
            yield recipe, {"task": "pair", "objective": objective}
        for subsystem in (0, 1):
            yield recipe, {"task": "single", "subsystem": subsystem}
    # A qubit against a qutrit, on either side: the qubit-qudit kernels.
    yield {"family": "random", "rank": 4, "seed": 9100, "dims": [2, 3]}, \
        {"task": "single", "subsystem": 0}
    yield {"family": "random", "rank": 3, "seed": 9101, "dims": [3, 2]}, \
        {"task": "single", "subsystem": 1}


def build_state(qreality, recipe):
    family = recipe["family"]
    if family == "werner":
        return qreality.werner(recipe["param"])
    if family == "alpha":
        return qreality.alpha_state(recipe["param"])
    dims = tuple(recipe.get("dims", (2, 2)))
    return qreality.random_density(dims[0] * dims[1], recipe["rank"], recipe["seed"], dims=dims)


def minimize(qreality, rho, task):
    if task["task"] == "pair":
        return qreality.minimize_pair(rho, task["objective"])
    return qreality.minimize_single(rho, task["subsystem"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="the src directory whose qreality writes the reference")
    parser.add_argument("--output", default=str(HERE / "refine_reference.json"))
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    import qreality

    entries = []
    for recipe, task in cases():
        result = minimize(qreality, build_state(qreality, recipe), task)
        entries.append({"state": recipe, **task, "value": result.value.hex()})
    lines = ",\n".join(" " + json.dumps(entry) for entry in entries)
    Path(args.output).write_text("[\n" + lines + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
