"""Digest every result family, to tell "the same numbers" in one command.

Run from the repository root.  Alone, the script prints one sha256 per
result family of this checkout's ``qreality``; given another checkout with
``--src`` (its root or its ``src`` directory), it also prints that
checkout's digests and, per family, how many values changed and the largest
|delta| between the two.  The minimizer families, the oracle scans and the
sweep CSVs also print that count and |delta| per kind of value, so a tied
argmin that moved is told from a moved value:

- values: a minimum, the grid best, a scan minimum, and a CSV's numeric
  columns;
- argmins: the argmin angles, and a CSV's ``argmin_params``;
- counts and flags: the evaluations and ``converged`` (and a CLI exit code).

Against another checkout each family also gets a verdict on all its values:
``bitwise``, ``within <tolerance>`` with the largest |delta|, or ``moved``
when some value changed by more than ``--tolerance`` (default 0, so any
change but a signed zero's is ``moved``).  The exit status is 1 when any
family moved, else 0.  A minimizer result whose argmin moved is judged by
value: its objective at this checkout's argmin, through the other
checkout's matrix route (``nonlocality``, or ``discord_like`` in
``qubit_basis`` bases), must be within the tolerance of the other
checkout's minimum.  A moved argmin elsewhere (an oracle scan's, a CSV's)
is judged by its angles.  In a split family a changed count or flag always
counts as moved, and the verdict names each kind that moved.

    python3 tests/data/result_digest.py
    python3 tests/data/result_digest.py --src path/to/other/checkout
    python3 tests/data/result_digest.py --src path/to/other/checkout --tolerance 1e-12

The oldest checkout it can digest is commit b5cf709, the first with both
``OptimizerConfig.grid_steps`` and ``qreality.oracle``.

The states are the 110 seeded random two-qubit states
``random_density(4, 1 + k % 4, RANDOM_SEED + k, dims=(2, 2))`` and the 102
points of the 51-point ``werner`` and ``alpha`` sweeps, and for the
qubit-qudit family the ``QUDIT_STATES`` states
``random_density(6, 1 + k % 6, QUDIT_SEED + k, dims=dims)`` with dims (2, 3)
scanned on side 0 and (3, 2) on side 1.  The families:

- pair grids, fresh: ``nonlocality_grid`` and ``pair_discord_grid`` on every
  state and axis layout, in a new thread, no call on the inputs of the call
  before it;
- pair grids, repeated: both grids on each state in turn, in either order,
  in a new thread, as a caller that minimizes both objectives asks for them;
- side grids: ``single_discord_grid`` on both sides of every state;
- minimize_pair: both objectives on every state in turn, in a new thread;
- minimize_single: both sides of every state;
- qubit-qudit side grids: the side grid ``minimize_single`` scans on each
  qubit-qudit state, ``kernels.qudit_drop_grid``;
- qubit-qudit minimize: ``minimize_single`` on each qubit-qudit state;
- oracle scans: ``brute_force_single`` at ``ORACLE_SCANS`` points on both
  sides of the first ``ORACLE_STATES`` two-qubit states and on the first
  ``ORACLE_STATES`` qubit-qudit states, as its minimum and argmin;
- pair scan: ``brute_force_pair`` at ``PAIR_SCANS`` points per angle on the
  first ``ORACLE_STATES`` two-qubit states;
- dephase: the matrix and spectrum of ``dephase`` on every subsystem of
  the ``DEPHASE_STATES`` states ``random_density(n, 1 + k % n,
  DEPHASE_SEED + k, dims=dims)`` of each layout in ``DEPHASE_LAYOUTS``, in
  a ``qubit_basis`` on a qubit and a ``random_unitary`` basis on a larger
  subsystem;
- the 51-point ``qreality sweep`` werner and alpha CSVs, and the output of
  ``qreality verify all --seed 7``;
- measure records: ``qreality measure <spec> <bases> --format records`` for
  each of ``MEASURES``, the README's ``singlet`` and ``werner:f=0.5`` lines
  and an ``alpha`` and a ``slit`` state;
- matrix-route measures: on each of the 110 seeded random states, with the
  two ``qubit_basis`` drawn from ``MATRIX_ROUTE_SEED + k``, its
  ``mutual_information``, the ``relative_entropy`` to the product of its
  marginals, the one-sided ``discord_like`` of each basis and the
  two-sided one of both, both ``nonlocality_forms`` and the
  ``irreality_decomposition`` of the first basis on subsystem 0.

A grid or result is digested by the bytes of its float64 values (a result as
value, argmin angles, grid best, evaluations and converged), a text by its
bytes; a text's values are the numbers in it.  Two runs on one tree print
the same digests.  Both checkouts are imported in this process under
different package names and run family by family in lockstep, so no grid is
held longer than its comparison.  Each checkout takes about 17 s on one
core.  pytest does not collect this script.

Only ``qreality``'s exports, its ``kernels`` grids, ``cli.main`` and
``oracle.brute_force_pair`` are used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import math
import os
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

# One BLAS thread, set before numpy loads, as the Tier-1 job runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
RANDOM_SEED = 20000
RANDOM_STATES = 110
SWEEP_POINTS = 51
QUDIT_SEED = 21000
QUDIT_STATES = 12
ORACLE_STATES = 8
ORACLE_SCANS = ((9, 8), (20, 20))
PAIR_SCANS = (8, 16)
DEPHASE_SEED = 22000
DEPHASE_STATES = 12
DEPHASE_LAYOUTS = ((2, 2), (2, 3), (3, 2), (2, 2, 2))
MATRIX_ROUTE_SEED = 23000
MEASURES = (
    ("singlet", "zbasis@0", "zbasis@1"),
    ("werner:f=0.5", "bloch:theta=1.57,phi=0@0"),
    ("alpha:a=0.7", "xbasis@0", "ybasis@1"),
    ("slit:x=0.3", "zbasis@0"),
)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:inf|nan)\b")


def _load(src: Path, name: str):
    # The qreality package under src, imported as the package ``name``; its
    # modules import each other relatively, so two checkouts can coexist.
    init = src / "qreality" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("kernels", "cli"):
        importlib.import_module(f"{name}.{module}")
    return package


def _states(q):
    states = [q.random_density(4, 1 + k % 4, RANDOM_SEED + k, dims=(2, 2))
              for k in range(RANDOM_STATES)]
    for family in (q.werner, q.alpha_state):
        states += [family(float(x)) for x in np.linspace(0.0, 1.0, SWEEP_POINTS)]
    return states


def _layouts(q):
    default, a10, a12 = (q.kernels.axis_grid(steps)[0] for steps in (24, 10, 12))
    return [(default, default), (a10, a12), (a10, a12[-7:])]


def _pair_inputs(q):
    # (axes_a, axes_b, r1, r2, tmat, S(rho), I(rho)) per layout and state.
    data = [(*q.kernels.bloch_correlations(rho.mat), q.entropy(rho),
             q.mutual_information(rho)) for rho in _states(q)]
    return [(axes_a, axes_b, *d) for axes_a, axes_b in _layouts(q) for d in data]


def _grids(q, inputs, which):
    axes_a, axes_b, r1, r2, tmat, s_rho, mi = inputs
    if which == 0:
        return q.kernels.nonlocality_grid(axes_a, axes_b, r1, r2, tmat, s_rho)
    return q.kernels.pair_discord_grid(axes_a, axes_b, r1, r2, tmat, mi)


def pair_grids_fresh(q):
    inputs = _pair_inputs(q)
    for which in (0, 1):
        for case in inputs:
            yield _grids(q, case, which)


def pair_grids_repeated(q):
    inputs = _pair_inputs(q)
    for order in ((0, 1), (1, 0)):
        for case in inputs:
            for which in order:
                yield _grids(q, case, which)


def side_grids(q):
    axes = q.kernels.axis_grid(24)[0]
    for rho in _states(q):
        r1, r2, tmat = q.kernels.bloch_correlations(rho.mat)
        mi = q.mutual_information(rho)
        for side, (here, there, m) in enumerate(
                ((r1, r2, tmat), (r2, r1, np.ascontiguousarray(tmat.T)))):
            env = q.entropy(q.partial_trace(rho, 1 - side))
            yield q.kernels.single_discord_grid(axes, here, there, m, mi, env)


class Minimum(NamedTuple):
    # A minimizer result as value, argmin angles, grid best, evaluations and
    # converged, and its objective at given argmin angles through the
    # matrix route of the checkout that found it.
    values: np.ndarray
    at: Callable


def _minimum(q, res, rho, sides, objective="discord") -> Minimum:
    # res of minimizing the objective of rho over bases on sides.
    values = np.array([res.value, *(x for pair in res.argmin for x in pair),
                       res.grid_best, res.evaluations, res.converged], dtype=float)

    def at(angles):
        bases = [q.qubit_basis(angles[2 * k], angles[2 * k + 1]) for k in range(len(sides))]
        if objective == "nonlocality":
            return q.nonlocality(*bases, rho)
        return q.discord_like(rho, list(zip(bases, sides)))

    return Minimum(values, at)


def minimize_pair(q):
    for rho in _states(q):
        for objective in ("nonlocality", "discord"):
            yield _minimum(q, q.minimize_pair(rho, objective), rho, (0, 1), objective)


def minimize_single(q):
    for rho in _states(q):
        for side in (0, 1):
            yield _minimum(q, q.minimize_single(rho, side), rho, (side,))


def _qudit_states(q):
    for k in range(QUDIT_STATES):
        for dims, side in (((2, 3), 0), ((3, 2), 1)):
            yield q.random_density(6, 1 + k % 6, QUDIT_SEED + k, dims=dims), side


def qudit_side_grids(q):
    axes = q.kernels.axis_grid(24)[0]
    for rho, side in _qudit_states(q):
        data = q.kernels.qudit_partner_data(rho.mat, 3, side)
        env = q.entropy(q.partial_trace(rho, 1 - side))
        yield q.kernels.qudit_drop_grid(axes, *data, q.mutual_information(rho), env)


def qudit_minimize_single(q):
    for rho, side in _qudit_states(q):
        yield _minimum(q, q.minimize_single(rho, side), rho, (side,))


def oracle_scans(q):
    cases = [(rho, side) for rho in _states(q)[:ORACLE_STATES] for side in (0, 1)]
    cases += list(_qudit_states(q))[:ORACLE_STATES]
    for rho, side in cases:
        for n_theta, n_phi in ORACLE_SCANS:
            value, argmin = q.brute_force_single(rho, side, n_theta, n_phi)
            yield np.array([value, *argmin])


def pair_scan(q):
    for rho in _states(q)[:ORACLE_STATES]:
        for n in PAIR_SCANS:
            yield np.array(q.oracle.brute_force_pair(rho, n))


def dephased_states(q):
    for dims in DEPHASE_LAYOUTS:
        n = math.prod(dims)
        for k in range(DEPHASE_STATES):
            rho = q.random_density(n, 1 + k % n, DEPHASE_SEED + k, dims=dims)
            theta, phi = np.random.default_rng(DEPHASE_SEED + k).uniform(0.0, math.pi, 2)
            for side, d in enumerate(dims):
                basis = (q.qubit_basis(theta, phi) if d == 2 else
                         q.ProjectiveBasis(q.random_unitary(d, DEPHASE_SEED + k)))
                out = q.dephase(rho, basis, side)
                yield np.concatenate([out.mat.real, out.mat.imag, out.eigenvalues[None]])


def matrix_route_measures(q):
    for k, rho in enumerate(_states(q)[:RANDOM_STATES]):
        angles = np.random.default_rng(MATRIX_ROUTE_SEED + k).uniform(0.0, math.pi, 4)
        ba, bb = q.qubit_basis(*angles[:2]), q.qubit_basis(*angles[2:])
        product = q.DensityMatrix(q.tensor_product(q.partial_trace(rho, 0).mat,
                                                   q.partial_trace(rho, 1).mat), rho.dims)
        yield np.array([
            q.mutual_information(rho), q.relative_entropy(rho, product),
            q.discord_like(rho, [(ba, 0)]), q.discord_like(rho, [(bb, 1)]),
            q.discord_like(rho, [(ba, 0), (bb, 1)]), *q.nonlocality_forms(ba, bb, rho),
            *q.irreality_decomposition(ba, 0, rho)])


def _cli_output(q, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        code = q.cli.main([*argv, "--output", path])
        return f"exit {code}\n" + Path(path).read_text()


def sweep_werner(q):
    yield _cli_output(q, ["sweep", "--family", "werner", "--points", str(SWEEP_POINTS)])


def sweep_alpha(q):
    yield _cli_output(q, ["sweep", "--family", "alpha", "--points", str(SWEEP_POINTS)])


def verify_all(q):
    yield _cli_output(q, ["verify", "all", "--seed", "7"])


def measure_records(q):
    for argv in MEASURES:
        yield _cli_output(q, ["measure", *argv, "--format", "records"])


FAMILIES = {
    "pair grids, fresh": pair_grids_fresh,
    "pair grids, repeated": pair_grids_repeated,
    "side grids": side_grids,
    "minimize_pair": minimize_pair,
    "minimize_single": minimize_single,
    "qubit-qudit side grids": qudit_side_grids,
    "qubit-qudit minimize": qudit_minimize_single,
    "oracle scans": oracle_scans,
    "pair scan": pair_scan,
    "dephase": dephased_states,
    "werner sweep CSV": sweep_werner,
    "alpha sweep CSV": sweep_alpha,
    "verify all --seed 7": verify_all,
    "measure records": measure_records,
    "matrix-route measures": matrix_route_measures,
}


def _values(chunk) -> np.ndarray:
    if isinstance(chunk, str):
        return np.array([float(x) for x in NUMBER.findall(chunk)])
    if isinstance(chunk, Minimum):
        chunk = chunk.values
    return np.ascontiguousarray(chunk, dtype=float).reshape(-1)


def _bytes(chunk) -> bytes:
    return chunk.encode() if isinstance(chunk, str) else _values(chunk).tobytes()


def _changed(a: np.ndarray, b: np.ndarray) -> tuple[int, float]:
    # Values whose bits differ, and the largest |a - b| among them (inf
    # where one side is not finite and the other differs).
    if a.shape != b.shape:
        return max(a.size, b.size), math.inf
    differ = a.view(np.uint64) != b.view(np.uint64)
    if not differ.any():
        return 0, 0.0
    with np.errstate(invalid="ignore"):
        delta = np.abs(a[differ] - b[differ])
    return int(differ.sum()), float(np.nan_to_num(delta, nan=math.inf).max())


VALUES, ARGMINS, COUNTS = "values", "argmins", "counts and flags"
KINDS = (VALUES, ARGMINS, COUNTS)


def _result_kinds(chunk) -> list[str]:
    # value, the (theta, phi) of each side, grid best, evaluations, converged
    return [VALUES] + [ARGMINS] * (_values(chunk).size - 4) + [VALUES, COUNTS, COUNTS]


def _scan_kinds(chunk) -> list[str]:
    # the scan minimum, then its (theta, phi)
    return [VALUES] + [ARGMINS] * (len(chunk) - 1)


def _csv_kinds(text: str) -> list[str]:
    # "exit <code>", then the CSV header and rows; the numbers of each field
    # in text order, which is the order NUMBER finds them in the whole text.
    lines = text.splitlines()
    argmin_column = lines[1].split(",").index("argmin_params")
    kinds = []
    for row, line in enumerate(lines):
        for column, field in enumerate(line.split(",")):
            kind = COUNTS if row == 0 else ARGMINS if column == argmin_column else VALUES
            kinds += [kind] * len(NUMBER.findall(field))
    return kinds


# The families whose values are split into KINDS, and the kinds of a chunk.
SPLIT = {
    "minimize_pair": _result_kinds,
    "minimize_single": _result_kinds,
    "qubit-qudit minimize": _result_kinds,
    "oracle scans": _scan_kinds,
    "werner sweep CSV": _csv_kinds,
    "alpha sweep CSV": _csv_kinds,
}


def _changed_by_kind(kinds, a: np.ndarray, b: np.ndarray) -> list[tuple[int, float]]:
    # _changed of the values of each kind in KINDS; kinds labels a's values.
    # Arrays of different shapes count as changed in every kind.
    if a.shape != b.shape:
        return [_changed(a, b)] * len(KINDS)
    kinds = np.array(kinds)
    return [_changed(a[kinds == kind], b[kinds == kind]) for kind in KINDS]


def _verdict(changed: int, largest: float, tolerance: float) -> str:
    # A family's verdict from its count of changed values and largest |delta|.
    if changed == 0:
        return "bitwise"
    if largest <= tolerance:
        return f"within {tolerance:g}, largest |delta| {largest:.3g}"
    return f"moved, largest |delta| {largest:.3g}"


def _split_verdict(by_kind, gap, tolerance: float) -> str:
    # A split family's verdict from its (changed, largest |delta|) per kind
    # in KINDS.  gap is the largest distance of the other checkout's
    # objective at a moved argmin from its minimum, or None where argmins
    # are judged by their angles.  A changed count or flag always moved.
    (n_val, d_val), (n_arg, d_arg), (n_cnt, d_cnt) = by_kind
    if n_val + n_arg + n_cnt == 0:
        return "bitwise"
    off = d_arg if gap is None else gap
    moved = [kind for kind, n, d in ((VALUES, n_val, d_val), (ARGMINS, n_arg, off),
                                     (COUNTS, n_cnt, math.inf)) if n and d > tolerance]
    largest = max(d_val, d_cnt, d_arg if gap is None else 0.0)
    text = f"moved ({', '.join(moved)})" if moved else f"within {tolerance:g}"
    text += f", largest |delta| {largest:.3g}"
    if gap is not None:
        text += f", argmins by value {gap:.3g}"
    return text


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _run_family(packages, family):
    # Each package's family runs on a new thread of its own, all its steps
    # on that thread; the chunks come back in lockstep.
    pools = [ThreadPoolExecutor(max_workers=1) for _ in packages]
    try:
        its = [pool.submit(family, q).result() for pool, q in zip(pools, packages)]
        while True:
            chunks = [pool.submit(next, it, None).result() for pool, it in zip(pools, its)]
            if all(chunk is None for chunk in chunks):
                return
            yield chunks
    finally:
        for pool in pools:
            pool.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="another checkout (or its src directory) to compare with")
    parser.add_argument("--tolerance", type=_tolerance, default=0.0,
                        help="largest |delta| a family may show and not be moved (default 0)")
    args = parser.parse_args(argv)
    sources = [HERE.parents[1] / "src"]
    if args.src:
        other = Path(args.src).resolve()
        sources.append(other / "src" if (other / "src" / "qreality").is_dir() else other)
    packages = [_load(src, f"qreality_digest_{k}") for k, src in enumerate(sources)]
    moved = []
    for name, family in FAMILIES.items():
        hashes = [hashlib.sha256() for _ in packages]
        count = 0
        # (changed, largest |delta|) in all, then per kind when split
        tally = [(0, 0.0)] * (1 + len(KINDS) * (name in SPLIT))
        # minimizer results whose argmin moved, and the largest |other's
        # objective at this checkout's argmin - other's minimum| among them
        judged, gap = 0, None
        for chunks in _run_family(packages, family):
            for h, chunk in zip(hashes, chunks):
                h.update(_bytes(chunk))
            values = [_values(chunk) for chunk in chunks]
            count += values[0].size
            if len(values) == 2:
                found = [_changed(*values)]
                if name in SPLIT:
                    kinds = SPLIT[name](chunks[0])
                    split = _changed_by_kind(kinds, *values)
                    found += split
                    if isinstance(chunks[1], Minimum) and split[KINDS.index(ARGMINS)][0]:
                        angles = values[0][np.array(kinds) == ARGMINS]
                        off = abs(chunks[1].at(angles) - values[1][0])
                        judged += 1
                        gap = max(gap or 0.0, math.inf if math.isnan(off) else off)
                tally = [(n + m, max(d, e)) for (n, d), (m, e) in zip(tally, found)]
        line = f"{name:<22} {hashes[0].hexdigest()}  {count} values"
        if len(hashes) == 2:
            (n, d), *by_kind = tally
            line += (f"\n{'':<22} {hashes[1].hexdigest()}  other: {n} changed, "
                     f"largest |delta| {d:.3g}")
            for kind, (n, d) in zip(KINDS, by_kind):
                line += f"\n{'':<24}{kind}: {n} changed, largest |delta| {d:.3g}"
            if gap is not None:
                line += (f"\n{'':<24}argmins by value: {judged} moved, "
                         f"largest gap to the other minimum {gap:.3g}")
            verdict = (_split_verdict(by_kind, gap, args.tolerance) if by_kind
                       else _verdict(*tally[0], args.tolerance))
            line += f"\n{'':<22} verdict: {verdict}"
            if verdict.startswith("moved"):
                moved.append(name)
        print(line, flush=True)
    if args.src:
        print(f"{len(moved)} of {len(FAMILIES)} families moved beyond {args.tolerance:g}"
              + "".join(f"\n  {name}" for name in moved), flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
