import math

import numpy as np
import pytest

from qreality.errors import SpecParseError, StateValidationError
from qreality.linalg import frobenius_distance, partial_trace
from qreality.measures import entanglement_entropy, entropy
from qreality.statefile import save_state
from qreality.states import (
    alpha_state,
    floating_slit,
    parse_state_spec,
    pure_from_amplitudes,
    random_density,
    random_unitary,
    singlet,
    werner,
)

LN2 = math.log(2.0)


def test_singlet_basics():
    s = singlet()
    assert abs(np.trace(s.mat) - 1.0) <= 1e-12
    assert abs(s.purity() - 1.0) <= 1e-12
    for keep in (0, 1):
        np.testing.assert_allclose(partial_trace(s, keep).mat, np.eye(2) / 2, atol=1e-12)
    assert entanglement_entropy(s) == pytest.approx(LN2, abs=1e-12)


def test_werner_endpoints():
    np.testing.assert_allclose(werner(0.0).mat, np.eye(4) / 4, atol=1e-15)
    assert frobenius_distance(werner(1.0).mat, singlet().mat) <= 1e-15


def test_werner_spectrum_closed_form():
    for f in np.linspace(0.0, 1.0, 11):
        expected = np.sort([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4])
        got = np.linalg.eigvalsh(werner(f).mat)
        np.testing.assert_allclose(got, expected, atol=1e-10)
    got = np.linalg.eigvalsh(werner(0.5).mat)
    np.testing.assert_allclose(got, [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_werner_range_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(StateValidationError) as err:
            werner(bad)
        assert err.value.invariant == "werner-fidelity-range"


def test_alpha_state_is_bell_at_one():
    # Oracle: expanding the four Pauli terms entrywise leaves exactly the
    # projector onto (|00> + |11>)/sqrt(2).
    bell = pure_from_amplitudes([1.0, 0.0, 0.0, 1.0], (2, 2))
    assert frobenius_distance(alpha_state(1.0).mat, bell.mat) <= 1e-12


def test_alpha_state_is_classical_at_zero():
    np.testing.assert_allclose(
        alpha_state(0.0).mat, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15
    )
    from qreality.measures import concurrence

    assert concurrence(alpha_state(0.0)) == 0.0


def test_alpha_state_admissible_range_is_psd_enforced():
    alpha_state(0.0)
    alpha_state(1.0)
    with pytest.raises(StateValidationError) as err:
        alpha_state(1.2)
    assert err.value.invariant == "positive-semidefinite"
    # Spectrum is {0, a, (1-a)/2 twice}: most negative eigenvalue is (1-a)/2.
    assert err.value.residual == pytest.approx((1 - 1.2) / 2, abs=1e-12)
    with pytest.raises(StateValidationError):
        alpha_state(-0.05)


def test_floating_slit_endpoints():
    psi0 = floating_slit(0.0)
    np.testing.assert_allclose(partial_trace(psi0, 0).mat, np.eye(2) / 2, atol=1e-12)
    assert entanglement_entropy(psi0) == pytest.approx(LN2, abs=1e-12)

    psi1 = floating_slit(1.0)
    assert partial_trace(psi1, 0).purity() == pytest.approx(1.0, abs=1e-12)
    assert entanglement_entropy(psi1) == pytest.approx(0.0, abs=1e-9)


def test_floating_slit_marginal_spectrum():
    for x in np.linspace(0.0, 1.0, 11):
        reduced = partial_trace(floating_slit(x), 0)
        expected = np.sort([(1 - x) / 2, (1 + x) / 2])
        np.testing.assert_allclose(np.linalg.eigvalsh(reduced.mat), expected, atol=1e-10)


def test_floating_slit_overlap_is_x():
    # The two conditional slit states must have real inner product x.
    for x in (0.0, 0.25, 0.7, 1.0):
        mat = floating_slit(x).mat
        vals, vecs = np.linalg.eigh(mat)
        ket = vecs[:, -1].reshape(2, 2)
        up = ket[0] / np.linalg.norm(ket[0])
        down = ket[1] / np.linalg.norm(ket[1])
        assert abs(np.vdot(up, down)) == pytest.approx(x, abs=1e-10)


def test_floating_slit_range_errors():
    for bad in (-0.2, 1.01):
        with pytest.raises(StateValidationError):
            floating_slit(bad)


def test_random_density_determinism_and_purity():
    a = random_density(4, 2, 123, dims=(2, 2))
    b = random_density(4, 2, 123, dims=(2, 2))
    assert frobenius_distance(a.mat, b.mat) == 0.0

    pure = random_density(4, 1, 9, dims=(2, 2))
    assert pure.purity() == pytest.approx(1.0, abs=1e-10)

    rng = np.random.default_rng(0)
    for rank in (1, 2, 3, 4):
        rho = random_density(4, rank, rng, dims=(2, 2))  # construction validates
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12


def test_random_density_rank_errors():
    with pytest.raises(ValueError):
        random_density(4, 0, 1)
    with pytest.raises(ValueError):
        random_density(4, 5, 1)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_random_constructors_name_a_non_integer_dimension_or_rank(bad):
    # 2.5 and 2.0 raised numpy's TypeError, and True ran as 1.  numpy
    # integers are dimensions and ranks.
    with pytest.raises(ValueError, match=rf"rank must be an integer, got {bad!r}"):
        random_density(4, bad, 1)
    with pytest.raises(ValueError, match=rf"dim must be an integer, got {bad!r}"):
        random_density(bad, 1, 1)
    with pytest.raises(ValueError, match=rf"dim must be an integer, got {bad!r}"):
        random_unitary(bad, 1)
    want = random_density(4, 2, 1)
    assert np.array_equal(random_density(np.int64(4), np.uint8(2), 1).mat, want.mat)
    assert np.array_equal(random_unitary(np.int32(3), 1), random_unitary(3, 1))


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(21)
    for dim in (2, 3, 4):
        u = random_unitary(dim, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12


def test_pure_from_amplitudes_examples():
    p00 = pure_from_amplitudes([1, 0, 0, 0], (2, 2))
    np.testing.assert_allclose(p00.mat, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    plus = pure_from_amplitudes([1, 1], (2,))
    np.testing.assert_allclose(plus.mat, np.full((2, 2), 0.5), atol=1e-15)

    s = pure_from_amplitudes([0, 1, -1, 0], (2, 2))
    assert frobenius_distance(s.mat, singlet().mat) <= 1e-15


def test_pure_from_amplitudes_errors():
    with pytest.raises(ValueError, match="nonzero"):
        pure_from_amplitudes([0, 0], (2,))
    with pytest.raises(ValueError, match="does not match"):
        pure_from_amplitudes([1, 0, 0], (2, 2))


def test_parse_state_spec(tmp_path):
    assert frobenius_distance(parse_state_spec("singlet").mat, singlet().mat) == 0.0
    assert frobenius_distance(parse_state_spec("werner:f=0.5").mat, werner(0.5).mat) == 0.0
    assert frobenius_distance(parse_state_spec("alpha:a=0.7").mat, alpha_state(0.7).mat) == 0.0
    assert frobenius_distance(parse_state_spec("slit:x=0.3").mat, floating_slit(0.3).mat) == 0.0

    path = tmp_path / "rho.json"
    save_state(werner(0.25), path)
    loaded = parse_state_spec(f"file:{path}")
    assert frobenius_distance(loaded.mat, werner(0.25).mat) <= 1e-15

    for bad in ("nope", "werner:g=1", "werner:f=abc", "werner:f=nan", "file:",
                "alpha", "slit:x="):
        with pytest.raises(SpecParseError):
            parse_state_spec(bad)


def test_parse_state_spec_ignores_whitespace_around_keys():
    for spec, want in (("werner: f=0.5", werner(0.5)), ("alpha:a =0.7", alpha_state(0.7)),
                       ("slit: x = 0.3", floating_slit(0.3))):
        assert np.array_equal(parse_state_spec(spec).mat, want.mat)
    with pytest.raises(SpecParseError, match="unrecognized state spec 'werner: g=0.5'"):
        parse_state_spec("werner: g=0.5")


def test_constructors_pass_entropy_sanity():
    assert entropy(werner(0.0)) == pytest.approx(math.log(4.0), abs=1e-12)
    assert entropy(singlet()) <= 1e-10
