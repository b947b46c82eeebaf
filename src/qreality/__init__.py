"""Reality, discord-like correlations and nonlocality for quantum states.

Core objects: validated :class:`DensityMatrix` values with a subsystem layout,
:class:`ProjectiveBasis` observables, the unread-measurement (dephasing) map,
and the scalar quantifiers built on it — irreality, its local/correlated
split, discord-like drops, the nonlocality of an observable pair and its
minimum over pairs.
"""

from .errors import SpecParseError, StateValidationError
from .linalg import (
    DensityMatrix,
    frobenius_distance,
    partial_trace,
    tensor_product,
)
from .measures import (
    MeasureReport,
    available_information,
    concurrence,
    dephase,
    dilation_dephase,
    discord_like,
    entanglement_entropy,
    entropy,
    irreality,
    irreality_decomposition,
    is_real,
    mutual_information,
    nonlocality,
    nonlocality_forms,
    relative_entropy,
    remote_unitary_invariance,
    shannon_entropy,
)
from .observables import (
    ProjectiveBasis,
    SchmidtForm,
    computational_basis,
    fourier_basis,
    is_mub,
    lift,
    parse_basis_spec,
    qubit_basis,
    schmidt_decompose,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    minimize_pair,
    minimize_single,
)
from .oracle import brute_force_single, witness_pair_for_pure
from .statefile import load_state, save_state
from .states import (
    alpha_state,
    floating_slit,
    parse_state_spec,
    pure_from_amplitudes,
    random_density,
    random_unitary,
    singlet,
    werner,
)
from .sweep import SweepSpec, slit_rows, sweep_rows
from .verify import VerifySuiteResult, run_all, run_suite

__all__ = [
    "DensityMatrix", "MeasureReport", "OptimizationResult",
    "OptimizerConfig", "ProjectiveBasis", "SchmidtForm", "SpecParseError",
    "StateValidationError", "SweepSpec", "VerifySuiteResult",
    "alpha_state", "available_information", "brute_force_single",
    "computational_basis", "concurrence", "dephase", "dilation_dephase",
    "discord_like", "entanglement_entropy", "entropy", "floating_slit",
    "fourier_basis", "frobenius_distance",
    "irreality", "irreality_decomposition", "is_mub", "is_real", "lift",
    "load_state", "minimize_pair", "minimize_single", "mutual_information",
    "nonlocality", "nonlocality_forms", "parse_basis_spec",
    "parse_state_spec", "partial_trace", "pure_from_amplitudes",
    "qubit_basis", "random_density", "random_unitary", "relative_entropy",
    "remote_unitary_invariance", "run_all", "run_suite", "save_state",
    "schmidt_decompose", "shannon_entropy", "singlet", "slit_rows",
    "sweep_rows", "tensor_product", "werner", "witness_pair_for_pure",
]

__version__ = "0.1.0"
