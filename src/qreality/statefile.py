"""On-disk density-matrix format used by the CLI.

A state file is a JSON document with two fields:

    dims    list of positive integers (subsystem dimensions)
    matrix  row-major list of rows; every entry is a two-element [re, im] pair

Numbers must be JSON numbers: ``true`` and ``false`` are rejected, not read
as 1 and 0.  A number beyond the float range, such as ``1e400`` or an
integer of 400 digits, reads as infinite and fails validation as a
non-finite entry.

Loading validates the full set of density-matrix invariants; violations raise
:class:`StateValidationError` naming the invariant and its measured residual,
while structural problems raise :class:`SpecParseError`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import SpecParseError
from .linalg import DensityMatrix


def _is_number(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _entry(value, row: int, col: int) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise SpecParseError(
            f"matrix entry [{row}][{col}] must be a two-element [re, im] pair"
        )
    return complex(_real(value[0]), _real(value[1]))


def _real(value) -> float:
    # An integer beyond the float range reads as infinite, as the literal
    # 1e400 does, so that validation rejects it as a non-finite entry.
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def loads_state(text: str) -> DensityMatrix:
    """Parse a state document from a string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise SpecParseError("state file must be an object with 'dims' and 'matrix'")

    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d > 0
                   for d in dims)
    ):
        raise SpecParseError("'dims' must be a nonempty list of positive integers")

    rows = doc["matrix"]
    dim = math.prod(dims)
    if not isinstance(rows, list) or len(rows) != dim:
        raise SpecParseError(f"'matrix' must be a list of {dim} rows")
    mat = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SpecParseError(f"matrix row {i} must have {dim} entries")
        for j, value in enumerate(row):
            mat[i, j] = _entry(value, i, j)
    return DensityMatrix(mat, tuple(dims))


def load_state(path: str | Path) -> DensityMatrix:
    """Read and validate a density matrix from a JSON state file."""
    return loads_state(Path(path).read_text())


def dumps_state(rho: DensityMatrix) -> str:
    """Serialize a density matrix to the JSON state format."""
    matrix = [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in rho.mat
    ]
    return json.dumps({"dims": list(rho.dims), "matrix": matrix})


def save_state(rho: DensityMatrix, path: str | Path) -> None:
    Path(path).write_text(dumps_state(rho) + "\n")
