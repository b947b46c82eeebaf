"""Constructors for named two-qubit states and seeded random states."""

from __future__ import annotations

import math

import numpy as np

from .errors import SpecParseError, StateValidationError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, _check_integer, tensor_product
from .observables import _spec_params
from .statefile import load_state


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed must be a non-negative integer, a sequence of them "
                         f"or a numpy Generator, got {seed!r}") from exc


def pure_from_amplitudes(amps, dims: tuple[int, ...]) -> DensityMatrix:
    """Normalized projector |psi><psi| from an amplitude vector."""
    vec = np.asarray(amps, dtype=complex).reshape(-1)
    if vec.size != math.prod(dims):
        raise ValueError(
            f"amplitude vector of length {vec.size} does not match dims {dims}"
        )
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("amplitude vector must be nonzero")
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def singlet() -> DensityMatrix:
    """Projector onto (|01> - |10>)/sqrt(2) on a 2x2 layout."""
    return pure_from_amplitudes([0.0, 1.0, -1.0, 0.0], (2, 2))


def werner(fidelity: float) -> DensityMatrix:
    """Isotropic mixture (1-f)/4 * I + f * singlet, f the singlet fidelity."""
    f = float(fidelity)
    if not 0.0 <= f <= 1.0:
        raise StateValidationError(
            "werner-fidelity-range", max(0.0 - f, f - 1.0),
            f"f={f} outside [0, 1]",
        )
    mat = (1.0 - f) / 4.0 * np.eye(4, dtype=complex) + f * singlet().mat
    return DensityMatrix(mat, (2, 2))


def alpha_state(alpha: float) -> DensityMatrix:
    """Two-qubit Pauli-expansion state

        I(x)I/4 + (a/4)(sx(x)sx - sy(x)sy) + ((2a-1)/4) sz(x)sz.

    The admissible range is whatever passes the positive-semidefiniteness
    check; out-of-range values raise with the most negative eigenvalue.
    """
    a = float(alpha)
    mat = (
        np.eye(4, dtype=complex) / 4.0
        + (a / 4.0) * (tensor_product(SIGMA_X, SIGMA_X) - tensor_product(SIGMA_Y, SIGMA_Y))
        + ((2.0 * a - 1.0) / 4.0) * tensor_product(SIGMA_Z, SIGMA_Z)
    )
    return DensityMatrix(mat, (2, 2))


def floating_slit(overlap: float) -> DensityMatrix:
    """Particle-plus-slit pure state with slit-state overlap ``x``.

    The particle (subsystem 0) carries orthonormal velocity states |0>, |1>;
    the two slit recoil states are embedded in a qubit as
    cos(g)|0> +/- sin(g)|1> with cos(2g) = x, so their real overlap is exactly
    ``x`` and it is the only free parameter.
    """
    x = float(overlap)
    if not 0.0 <= x <= 1.0:
        raise StateValidationError(
            "slit-overlap-range", max(0.0 - x, x - 1.0),
            f"x={x} outside [0, 1]",
        )
    gamma = math.acos(x) / 2.0
    c, s = math.cos(gamma), math.sin(gamma)
    amps = np.array([c, s, c, -s], dtype=complex) / math.sqrt(2.0)
    return pure_from_amplitudes(amps, (2, 2))


def random_density(dim: int, rank: int, seed, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Ginibre-construction random state G G^dag / Tr(G G^dag).

    ``seed`` may be an integer or a ``numpy.random.Generator`` (consumed in
    place, for drawing sequences). ``rank=dim`` gives full support under the
    Hilbert-Schmidt measure; ``rank=1`` gives a random pure state.
    """
    _check_integer("dim", dim, minimum=1)
    _check_integer("rank", rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = _rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityMatrix(mat, dims if dims is not None else (dim,))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    _check_integer("dim", dim, minimum=1)
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


# The one-parameter spec forms: (head, key) -> constructor.
_NAMED_STATES = {("werner", "f"): werner, ("alpha", "a"): alpha_state,
                 ("slit", "x"): floating_slit}


def parse_state_spec(text: str) -> DensityMatrix:
    """Build a state from CLI syntax.

    Recognized forms: ``singlet``, ``werner:f=0.5``, ``alpha:a=0.7``,
    ``slit:x=0.3``, ``file:<path>``.  Whitespace around the head and around
    a key is ignored, and a repeated key is named, as in basis specs.
    """
    spec = text.strip()
    if spec == "singlet":
        return singlet()
    if ":" not in spec:
        raise SpecParseError(f"unrecognized state spec '{text}'")
    head, _, arg = spec.partition(":")
    head = head.strip()
    if head == "file":
        if not arg:
            raise SpecParseError("file: spec requires a path")
        return load_state(arg)

    params = _spec_params(text, arg, float, "parameter", kind="state")
    if not all(map(math.isfinite, params.values())):
        raise SpecParseError(f"state spec '{text}' has a non-finite parameter")
    build = _NAMED_STATES.get((head, *params))
    if build is None:
        raise SpecParseError(f"unrecognized state spec '{text}'")
    return build(*params.values())
