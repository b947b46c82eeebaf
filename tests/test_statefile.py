import json

import numpy as np
import pytest

from qreality.errors import SpecParseError, StateValidationError
from qreality.statefile import dumps_state, load_state, loads_state, save_state
from qreality.states import random_density, singlet, werner


def test_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    for rho in (singlet(), werner(0.3), random_density(4, 3, rng, dims=(2, 2))):
        path = tmp_path / "state.json"
        save_state(rho, path)
        back = load_state(path)
        assert back.dims == rho.dims
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-15)


def test_document_shape():
    doc = json.loads(dumps_state(singlet()))
    assert doc["dims"] == [2, 2]
    assert len(doc["matrix"]) == 4
    assert doc["matrix"][1][2] == pytest.approx([-0.5, 0.0])


def test_rejects_malformed_json():
    with pytest.raises(SpecParseError, match="valid JSON"):
        loads_state("{not json")


def test_rejects_missing_fields():
    with pytest.raises(SpecParseError, match="dims"):
        loads_state('{"matrix": []}')
    with pytest.raises(SpecParseError, match="dims"):
        loads_state('{"dims": [2, 0], "matrix": []}')


def test_rejects_bad_matrix_shape():
    with pytest.raises(SpecParseError, match="2 rows"):
        loads_state('{"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]]]}')
    with pytest.raises(SpecParseError, match="entries"):
        loads_state('{"dims": [2], "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}')
    with pytest.raises(SpecParseError, match=r"\[re, im\]"):
        loads_state('{"dims": [2], "matrix": [[1.0, 0.0], [0.0, 0.0]]}')


@pytest.mark.parametrize("doc, match", [
    ('{"dims": [2, true], "matrix": []}', "dims"),
    ('{"dims": [true], "matrix": [[[1.0, 0.0]]]}', "dims"),
    ('{"dims": [2], "matrix": [[[true, 0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}',
     r"\[re, im\]"),
    ('{"dims": [2], "matrix": [[[0.5, false], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}',
     r"\[re, im\]"),
])
def test_rejects_json_booleans(doc, match):
    # bool is an int in Python; true must not be read as 1.
    with pytest.raises(SpecParseError, match=match):
        loads_state(doc)


def test_rejects_invariant_violations_with_diagnostic():
    bad_trace = '{"dims": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}'
    with pytest.raises(StateValidationError) as err:
        loads_state(bad_trace)
    assert err.value.invariant == "unit-trace"
    assert err.value.residual == pytest.approx(0.1)

    not_hermitian = '{"dims": [2], "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'
    with pytest.raises(StateValidationError) as err:
        loads_state(not_hermitian)
    assert err.value.invariant == "hermiticity"

    negative = '{"dims": [2], "matrix": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]}'
    with pytest.raises(StateValidationError) as err:
        loads_state(negative)
    assert err.value.invariant == "positive-semidefinite"
    assert err.value.residual == pytest.approx(-0.2)
