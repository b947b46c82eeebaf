"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each qreality module (plus the two
private entry points the per-layer metrics need: the Nelder-Mead refinement
loop and ``DensityMatrix`` validation) and rebinds every module-level name
and module-level dict entry that holds one of them.  That matters because
several callers bind names at import time: ``optimize`` imports ``entropy``,
``mutual_information`` and ``discord_like`` from ``measures``; ``sweep``
binds ``minimize_pair``, ``nonlocality``, ``concurrence`` and the state
constructors in ``FAMILIES``; ``cli`` binds ``run_suite``.  Calls that
resolve a name at call time (``kernels.<fn>``, ``measures.<fn>``, the local
``from .measures import dephase`` in ``brute_force_single``) see the wrapper
through the module attribute.

Installing is strict: a target that no longer exists raises, so a renamed
function cannot silently read as zero.  ``uninstall`` restores every
binding, so untraced ops run the unmodified program.

A span's self time is its duration minus the time covered by its child
spans.  Nested spans of the same name (``werner`` calling ``singlet``) count
once in calls and inclusive time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _grid_cells(tracer, out):
    tracer.counts["kernels.grid_cells"] += int(out.size)


def _refine_nfev(tracer, out):
    tracer.counts["optimize.refine_nfev"] += int(out[2])


def _evaluations(tracer, out):
    tracer.counts["optimize.evaluations"] += int(out.evaluations)


def _cases(tracer, out):
    tracer.counts["verify.cases"] += int(out.cases)


# (span name, module, attribute, observer of the result)
TARGETS = (
    ("kernels.bloch", "qreality.kernels", "bloch_correlations", None),
    ("kernels.pair_grid", "qreality.kernels", "nonlocality_grid", _grid_cells),
    ("kernels.pair_grid", "qreality.kernels", "pair_discord_grid", _grid_cells),
    ("kernels.side_grid", "qreality.kernels", "single_discord_grid", _grid_cells),
    ("kernels.value", "qreality.kernels", "nonlocality_value", None),
    ("kernels.value", "qreality.kernels", "pair_discord_value", None),
    ("kernels.value", "qreality.kernels", "single_discord_value", None),
    ("optimize.minimize_pair", "qreality.optimize", "minimize_pair", _evaluations),
    ("optimize.minimize_single", "qreality.optimize", "minimize_single", _evaluations),
    ("optimize.refine", "qreality.optimize", "_refine", _refine_nfev),
    ("optimize.brute_force", "qreality.optimize", "brute_force_single", None),
    ("measures.dephase", "qreality.measures", "dephase", None),
    ("measures.entropy", "qreality.measures", "entropy", None),
    ("measures.nonlocality", "qreality.measures", "nonlocality", None),
    ("measures.mutual_information", "qreality.measures", "mutual_information", None),
    ("measures.discord_like", "qreality.measures", "discord_like", None),
    ("measures.concurrence", "qreality.measures", "concurrence", None),
    ("linalg.density_matrix", "qreality.linalg", "DensityMatrix.__post_init__", None),
    ("linalg.partial_trace", "qreality.linalg", "partial_trace", None),
    ("observables.qubit_basis", "qreality.observables", "qubit_basis", None),
    ("observables.lift", "qreality.observables", "lift", None),
    ("states.build", "qreality.states", "singlet", None),
    ("states.build", "qreality.states", "werner", None),
    ("states.build", "qreality.states", "alpha_state", None),
    ("states.build", "qreality.states", "floating_slit", None),
    ("states.build", "qreality.states", "pure_from_amplitudes", None),
    ("states.build", "qreality.states", "random_density", None),
    ("states.build", "qreality.states", "random_unitary", None),
    ("sweep.row", "qreality.sweep", "sweep_rows", None),
    ("verify.run_suite", "qreality.verify", "run_suite", _cases),
    ("cli.main", "qreality.cli", "main", None),
)


class Tracer:
    """Spans and counters for one op at a time; ``take`` returns and clears them."""

    def __init__(self):
        self._undo = []
        self._open = Counter()
        self._stack = []
        self.clear()

    def clear(self):
        self.total = Counter()   # inclusive seconds, outermost span of a name only
        self.self_s = Counter()  # seconds not covered by child spans
        self.calls = Counter()   # outermost spans of a name
        self.counts = Counter()  # work counters reported by the observers

    def take(self) -> dict:
        record = {"total": self.total, "self": self.self_s,
                  "calls": self.calls, "counts": self.counts}
        self.clear()
        return record

    def _wrap(self, name, fn, observe):
        perf = time.perf_counter
        stack = self._stack
        open_names = self._open

        def span(*args, **kwargs):
            outermost = open_names[name] == 0
            open_names[name] += 1
            children = [0.0]
            stack.append(children)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                open_names[name] -= 1
                self.self_s[name] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
                if outermost:
                    self.total[name] += dt
                    self.calls[name] += 1
            if observe is not None:
                observe(self, out)
            return out

        return span

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, module_name, attr, observe in TARGETS:
            owner = sys.modules[module_name]
            owner_path, _, leaf = attr.rpartition(".")
            if owner_path:
                owner = getattr(owner, owner_path)
            fn = getattr(owner, leaf)
            wrapper = self._wrap(name, fn, observe)
            wrappers[id(fn)] = (fn, wrapper)
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name != "qreality" and not module_name.startswith("qreality."):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, key, value))
                    setattr(module, key, hit[1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._undo.append((value, k, v))
                            value[k] = hit[1]

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        if self._stack:
            raise RuntimeError("tracer uninstalled inside an open span")


def cross_check(record: dict, expected_calls: dict) -> list[str]:
    """Count identities every traced op must satisfy; returns the violations.

    The refinement objective is one scalar kernel value per Nelder-Mead
    evaluation, and every minimizer result counts its grid cells plus its
    refinement evaluations, so the three counts tie together exactly.  The
    workload adds the calls its op must make on each layer; a binding the
    tracer missed shows up here as a zero.
    """
    calls, counts = record["calls"], record["counts"]
    problems = []
    value_calls = calls["kernels.value"]
    from_results = counts["optimize.evaluations"] - counts["kernels.grid_cells"]
    if value_calls != from_results:
        problems.append(f"kernels.value_calls {value_calls} != "
                        f"sum(evaluations - grid_cells) {from_results}")
    if counts["optimize.refine_nfev"] != value_calls:
        problems.append(f"optimize.refine_nfev {counts['optimize.refine_nfev']} != "
                        f"kernels.value_calls {value_calls}")
    if calls["kernels.pair_grid"] != calls["optimize.minimize_pair"]:
        problems.append("pair grids != minimize_pair calls")
    if calls["kernels.side_grid"] != calls["optimize.minimize_single"]:
        problems.append("side grids != minimize_single calls")
    for name, want in expected_calls.items():
        if calls[name] != want:
            problems.append(f"{name} calls {calls[name]} != expected {want}")
    return problems
