"""Parameter sweeps and the slit curve as CSV text, plus a plot script."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_integer, partial_trace
from .measures import concurrence, entanglement_entropy, irreality, nonlocality
from .observables import qubit_basis
from .optimize import (
    OBJECTIVE_DISCORD,
    OBJECTIVE_NONLOCALITY,
    OptimizerConfig,
    minimize_pair,
)
from .states import alpha_state, floating_slit, werner

FAMILIES = {"werner": werner, "alpha": alpha_state, "slit": floating_slit}

SWEEP_HEADER = "param,n_min,d12,concurrence,n_zz,argmin_params"
SLIT_HEADER = "x,local_irreality,global_irreality,entanglement"


def _fmt(x: float) -> str:
    # 12 significant digits round-trips doubles well enough for plotting and
    # regression diffing.
    return f"{x:.12g}"


def _check_points(points: int) -> None:
    _check_integer("points", points)
    if points < 2:
        raise ValueError("points must be at least 2")


@dataclass(frozen=True)
class SweepSpec:
    family: str
    start: float = 0.0
    stop: float = 1.0
    points: int = 51
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown state family '{self.family}'")
        for name in ("start", "stop"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(
                f"start and stop must be finite, got {self.start} and {self.stop}")
        if self.start > self.stop:
            raise ValueError("start must not exceed stop")
        _check_points(self.points)


@dataclass(frozen=True)
class SweepRow:
    param: float
    n_min: float
    d12: float
    concurrence: float
    n_zz: float
    argmin_params: str


def sweep_rows(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point, ascending parameter order."""
    build = FAMILIES[spec.family]
    zbasis = qubit_basis(0.0, 0.0)
    rows = []
    for param in np.linspace(spec.start, spec.stop, spec.points):
        state = build(float(param))
        n_res = minimize_pair(state, OBJECTIVE_NONLOCALITY, spec.optimizer)
        d_res = minimize_pair(state, OBJECTIVE_DISCORD, spec.optimizer)
        (ta, pa), (tb, pb) = n_res.argmin
        rows.append(SweepRow(
            param=float(param),
            n_min=n_res.value,
            d12=d_res.value,
            concurrence=concurrence(state),
            n_zz=nonlocality(zbasis, zbasis, state),
            argmin_params=f"ta={_fmt(ta)};pa={_fmt(pa)};tb={_fmt(tb)};pb={_fmt(pb)}",
        ))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r.param), _fmt(r.n_min), _fmt(r.d12),
            _fmt(r.concurrence), _fmt(r.n_zz), r.argmin_params,
        ]))
    return "\n".join(lines) + "\n"


def plot_script(csv_path: str, family: str) -> str:
    """gnuplot script rendering the three sweep curves; generated, never run."""
    xlabel = {"werner": "f", "alpha": "alpha", "slit": "x"}.get(family, "param")
    return "\n".join([
        f"# gnuplot script for the {family} sweep",
        "set datafile separator ','",
        f"set xlabel '{xlabel}'",
        "set ylabel 'value (nats)'",
        "set key top left",
        f"plot '{csv_path}' skip 1 using 1:2 with lines lw 3 lc rgb 'black' "
        "title 'minimal nonlocality', \\",
        "     '' skip 1 using 1:3 with lines lc rgb 'blue' "
        "title 'pair-dephasing discord', \\",
        "     '' skip 1 using 1:4 with lines dt 2 lc rgb 'red' "
        "title 'concurrence'",
        "",
    ])


def slit_rows(points: int = 21) -> list[tuple[float, float, float, float]]:
    """(x, local irreality, global irreality, entanglement) over x in [0, 1]."""
    _check_points(points)
    zbasis = qubit_basis(0.0, 0.0)
    rows = []
    for x in np.linspace(0.0, 1.0, points):
        psi = floating_slit(float(x))
        local = irreality(zbasis, 0, partial_trace(psi, 0))
        total = irreality(zbasis, 0, psi)
        rows.append((float(x), local, total, entanglement_entropy(psi)))
    return rows


def slit_csv(rows) -> str:
    lines = [SLIT_HEADER]
    for x, local, total, ent in rows:
        lines.append(",".join([_fmt(x), _fmt(local), _fmt(total), _fmt(ent)]))
    return "\n".join(lines) + "\n"
