import math

import numpy as np
import pytest

from qreality.linalg import (
    ZERO_WEIGHT,
    DensityMatrix,
    embed_operator,
    frobenius_distance,
    partial_trace,
    tensor_product,
)
from qreality.measures import (
    MeasureReport,
    _blocks,
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
from qreality.observables import (
    ProjectiveBasis,
    computational_basis,
    fourier_basis,
    lift,
    qubit_basis,
    schmidt_decompose,
)
from qreality.states import (
    alpha_state,
    floating_slit,
    pure_from_amplitudes,
    random_density,
    random_unitary,
    singlet,
    werner,
)
from qreality.sweep import slit_rows

LN2 = math.log(2.0)
ZB = qubit_basis(0.0, 0.0)
XB = qubit_basis(math.pi / 2, 0.0)


def _h2(p: float) -> float:
    return shannon_entropy(np.array([p, 1.0 - p]))


def _random_basis(rng):
    return qubit_basis(rng.uniform(0, math.pi), rng.uniform(0, math.pi))


def _plus() -> DensityMatrix:
    return pure_from_amplitudes([1.0, 1.0], (2,))


# --- entropy -----------------------------------------------------------------

def test_shannon_zero_convention():
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([1.0, 1e-16, -1e-17])) == 0.0


def test_entropy_examples():
    assert entropy(singlet()) <= 1e-10
    assert entropy(DensityMatrix(np.eye(2) / 2, (2,))) == pytest.approx(LN2, abs=1e-12)
    # Oracle: plug the closed-form spectrum into the entropy sum.
    expected = -3 * 0.125 * math.log(0.125) - 0.625 * math.log(0.625)
    assert entropy(werner(0.5)) == pytest.approx(expected, abs=1e-12)


# --- relative entropy ---------------------------------------------------------

def test_relative_entropy_examples():
    rho = random_density(4, 4, 0, dims=(2, 2))
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    ket0 = pure_from_amplitudes([1, 0], (2,))
    mixed = DensityMatrix(np.eye(2) / 2, (2,))
    assert relative_entropy(ket0, mixed) == pytest.approx(LN2, abs=1e-12)

    ket1 = pure_from_amplitudes([0, 1], (2,))
    assert relative_entropy(ket0, ket1) == math.inf

    with pytest.raises(ValueError):
        relative_entropy(ket0, singlet())


# --- dephasing ----------------------------------------------------------------

def test_dephase_plus_state():
    np.testing.assert_allclose(dephase(_plus(), ZB, 0).mat, np.eye(2) / 2, atol=1e-12)


def test_dephase_in_own_eigenbasis_is_identity_map():
    rho = random_density(4, 4, 10, dims=(4,))
    basis = ProjectiveBasis(np.linalg.eigh(rho.mat)[1])
    assert frobenius_distance(dephase(rho, basis, 0).mat, rho.mat) <= 1e-10


def test_dephase_werner_diagonal_pattern():
    # Oracle: the singlet coherences sit on the |01><10| entries; either local
    # computational dephasing kills exactly those, leaving the stated diagonal.
    for f in (0.2, 0.5, 0.9):
        expected = np.diag([(1 - f) / 4, (1 + f) / 4, (1 + f) / 4, (1 - f) / 4])
        for side in (0, 1):
            got = dephase(werner(f), ZB, side)
            np.testing.assert_allclose(got.mat, expected, atol=1e-12)


def test_dephase_trace_and_idempotence():
    rng = np.random.default_rng(14)
    for _ in range(25):
        rho = random_density(4, 4, rng, dims=(2, 2))
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        once = dephase(rho, basis, side)
        assert abs(np.trace(once.mat) - 1.0) <= 1e-12
        twice = dephase(once, basis, side)
        assert frobenius_distance(once.mat, twice.mat) <= 1e-12


def _lifted_dephase(rho, basis, subsystem):
    # sum_j P_j rho P_j through lift's full-space projectors.
    return sum(proj @ rho.mat @ proj for proj in lift(basis, subsystem, rho.dims))


def test_dephase_matches_the_lifted_projector_sum():
    rng = np.random.default_rng(83)
    for dims in ((2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)):
        n = math.prod(dims)
        for _ in range(4):
            rho = random_density(n, int(rng.integers(1, n + 1)), rng, dims=dims)
            for subsystem, d in enumerate(dims):
                bases = [fourier_basis(d)]
                if d == 2:
                    bases += [ZB, _random_basis(rng)]
                for basis in bases:
                    got = dephase(rho, basis, subsystem)
                    assert isinstance(got, DensityMatrix) and got.dims == dims
                    lifted = _lifted_dephase(rho, basis, subsystem)
                    assert frobenius_distance(got.mat, lifted) <= 1e-14


def test_blocks_are_the_projected_state_read_through_lift():
    # _blocks(rho, vecs, k)[j] is <b_j| rho |b_j>: P_j rho P_j, with P_j from
    # lift, read through the isometry I x |b_j> x I.  One basis as its (d, d)
    # vectors, and a stack of three as (3, d, d), on every subsystem.
    rng = np.random.default_rng(29)
    for dims in ((2, 2), (2, 3), (3, 2), (2, 3, 2)):
        n = math.prod(dims)
        rho = random_density(n, 2, rng, dims=dims)
        for subsystem, d in enumerate(dims):
            left, right = math.prod(dims[:subsystem]), math.prod(dims[subsystem + 1:])
            bases = [_random_basis(rng) if d == 2 else ProjectiveBasis(random_unitary(d, rng))
                     for _ in range(3)]
            stack = _blocks(rho, np.stack([basis.vectors for basis in bases]), subsystem)
            assert stack.shape == (3, d, left, right, left, right)
            for basis, stacked in zip(bases, stack):
                blocks = _blocks(rho, basis.vectors, subsystem)
                assert blocks.shape == (d, left, right, left, right)
                assert np.abs(blocks - stacked).max() <= 1e-15
                for j, proj in enumerate(lift(basis, subsystem, dims)):
                    iso = np.kron(np.kron(np.eye(left), basis.vectors[:, [j]]), np.eye(right))
                    read = iso.conj().T @ proj @ rho.mat @ proj @ iso
                    assert np.abs(blocks[j].reshape(left * right, -1) - read).max() <= 1e-14


def test_dephase_rejects_a_misplaced_basis_with_lifts_messages():
    rho = random_density(6, 2, 3, dims=(2, 3))
    # A bool or float subsystem is no index, even where int() would make one.
    for basis, subsystem, message in ((ZB, 2, "out of range"), (ZB, -1, "out of range"),
                                      (ZB, 1, "does not match"),
                                      (fourier_basis(3), 0, "does not match"),
                                      (ZB, True, "subsystem must be an integer"),
                                      (ZB, 1.0, "subsystem must be an integer")):
        with pytest.raises(ValueError, match=message) as lifted:
            lift(basis, subsystem, rho.dims)
        with pytest.raises(ValueError) as dephased:
            dephase(rho, basis, subsystem)
        with pytest.raises(ValueError) as discorded:
            discord_like(rho, [(basis, subsystem)])
        assert str(dephased.value) == str(lifted.value) == str(discorded.value)
    np.testing.assert_array_equal(dephase(rho, ZB, np.int64(0)).mat, dephase(rho, ZB, 0).mat)


def test_dephase_and_partial_trace_skip_the_einsum_wrapper(monkeypatch):
    # The matrix route's hot path calls numpy's c_einsum directly: with
    # np.einsum patched to raise, dephase on every subsystem of each layout,
    # partial_trace on every keep set and a 4 x 4 oracle scan still run, and
    # give the unpatched results bit for bit.
    import itertools

    from qreality.oracle import brute_force_single

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    def calls():
        out = []
        for dims in ((2,), (2, 2), (2, 3), (3, 2), (2, 2, 2)):
            rho = random_density(math.prod(dims), 2, 43, dims=dims)
            for subsystem, d in enumerate(dims):
                basis = qubit_basis(0.3, 0.7) if d == 2 else fourier_basis(d)
                state = dephase(rho, basis, subsystem)
                out += [state.mat, state.eigenvalues]
            for size in range(1, len(dims) + 1):
                for keep in itertools.combinations(range(len(dims)), size):
                    state = partial_trace(rho, keep)
                    out += [state.mat, state.eigenvalues]
        value, angles = brute_force_single(random_density(4, 2, 44, dims=(2, 2)), 0, 4, 4)
        return out + [np.array([value, *angles])]

    want = calls()

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum was called")

    monkeypatch.setattr(np, "einsum", refuse)
    got = calls()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(bits(g), bits(w))


# --- reality predicate ----------------------------------------------------------

def test_is_real_examples():
    diag = DensityMatrix(np.diag([0.3, 0.7]), (2,))
    assert is_real(ZB, 0, diag, tol=1e-9)
    assert not is_real(ZB, 0, _plus(), tol=1e-9)

    rng = np.random.default_rng(1)
    rho = random_density(4, 4, rng, dims=(2, 2))
    basis = _random_basis(rng)
    assert is_real(basis, 1, dephase(rho, basis, 1), tol=1e-9)


def test_reality_faithfulness_both_directions():
    rng = np.random.default_rng(40)
    for _ in range(20):
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        real_state = dephase(random_density(4, 4, rng, dims=(2, 2)), basis, side)
        assert irreality(basis, side, real_state) <= 1e-9
        assert is_real(basis, side, real_state, tol=1e-6)

        plus = (basis.vectors[:, 0] + basis.vectors[:, 1]) / math.sqrt(2)
        coherent = np.outer(plus, plus.conj())
        env = random_density(2, 2, rng).mat
        full = tensor_product(coherent, env) if side == 0 else tensor_product(env, coherent)
        unreal = DensityMatrix(full, (2, 2))
        assert irreality(basis, side, unreal) > 1e-9
        assert not is_real(basis, side, unreal, tol=1e-6)


# --- irreality ------------------------------------------------------------------

def test_irreality_plus_state():
    assert irreality(ZB, 0, _plus()) == pytest.approx(LN2, abs=1e-12)


def test_irreality_slit_global_is_ln2_for_every_overlap():
    for x in np.linspace(0.0, 1.0, 11):
        assert irreality(ZB, 0, floating_slit(x)) == pytest.approx(LN2, abs=1e-10)


def test_irreality_werner_closed_form():
    f = 0.5
    dephased = -2 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - 2 * ((1 + f) / 4) * math.log((1 + f) / 4)
    base = -3 * ((1 - f) / 4) * math.log((1 - f) / 4) \
        - ((1 + 3 * f) / 4) * math.log((1 + 3 * f) / 4)
    assert irreality(ZB, 0, werner(f)) == pytest.approx(dephased - base, abs=1e-10)


def test_irreality_raw_nonnegative():
    rng = np.random.default_rng(77)
    for _ in range(30):
        rho = random_density(4, int(rng.integers(1, 5)), rng, dims=(2, 2))
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        raw = entropy(dephase(rho, basis, side)) - entropy(rho)
        assert raw >= -1e-9
        assert irreality(basis, side, rho) >= 0.0


# --- mutual information ----------------------------------------------------------

def test_mutual_information_examples():
    rng = np.random.default_rng(2)
    a, b = random_density(2, 2, rng), random_density(2, 2, rng)
    product = DensityMatrix(tensor_product(a.mat, b.mat), (2, 2))
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-10)

    assert mutual_information(singlet()) == pytest.approx(2 * LN2, abs=1e-10)

    expected = 2 * LN2 - entropy(werner(0.5))
    assert mutual_information(werner(0.5)) == pytest.approx(expected, abs=1e-10)

    with pytest.raises(ValueError):
        mutual_information(random_density(8, 8, 1, dims=(2, 2, 2)))


def test_mutual_information_diagonalizes_each_matrix_once(monkeypatch):
    # One _spectrum per validated matrix (two marginals and their product),
    # none through np.linalg.eigvalsh, and one eigh for the relative-entropy
    # cross-check's sigma.
    from qreality import linalg

    rho = random_density(4, 4, 19, dims=(2, 2))
    modules = {"_spectrum": linalg, "eigvalsh": np.linalg, "eigh": np.linalg}
    calls = dict.fromkeys(modules, 0)
    for name, module in modules.items():
        fn = getattr(module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    mutual_information(rho)
    assert calls == {"_spectrum": 3, "eigvalsh": 0, "eigh": 1}


# --- discord-like drops -----------------------------------------------------------

def test_discord_product_state_vanishes():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = random_density(2, 2, rng), random_density(2, 2, rng)
        product = DensityMatrix(tensor_product(a.mat, b.mat), (2, 2))
        basis = _random_basis(rng)
        assert abs(discord_like(product, [(basis, 0)])) <= 1e-9
        assert abs(discord_like(product, [(basis, 0), (_random_basis(rng), 1)])) <= 1e-9


def test_discord_classical_state_in_its_own_basis():
    rng = np.random.default_rng(9)
    blocks = [random_density(2, 2, rng).mat, random_density(2, 2, rng).mat]
    mat = 0.3 * tensor_product(np.diag([1.0, 0.0]), blocks[0]) \
        + 0.7 * tensor_product(np.diag([0.0, 1.0]), blocks[1])
    classical = DensityMatrix(mat, (2, 2))
    assert abs(discord_like(classical, [(ZB, 0)])) <= 1e-9

    flat = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert abs(discord_like(flat, [(ZB, 0)])) <= 1e-12


def test_discord_singlet():
    assert discord_like(singlet(), [(ZB, 0)]) == pytest.approx(LN2, abs=1e-10)


def test_discord_argument_validation():
    with pytest.raises(ValueError):
        discord_like(singlet(), [])
    with pytest.raises(ValueError):
        discord_like(singlet(), [(ZB, 0), (XB, 0)])


# --- decomposition ---------------------------------------------------------------

def test_decomposition_product_state():
    rng = np.random.default_rng(13)
    a, b = random_density(2, 2, rng), random_density(2, 2, rng)
    product = DensityMatrix(tensor_product(a.mat, b.mat), (2, 2))
    basis = _random_basis(rng)
    total, local, correlated = irreality_decomposition(basis, 0, product)
    assert abs(correlated) <= 1e-9
    assert total == pytest.approx(local, abs=1e-9)


def test_decomposition_singlet():
    total, local, correlated = irreality_decomposition(ZB, 0, singlet())
    assert local == pytest.approx(0.0, abs=1e-10)  # marginal I/2 is z-diagonal
    assert total == pytest.approx(LN2, abs=1e-10)
    assert correlated == pytest.approx(LN2, abs=1e-10)


def test_decomposition_slit_local_definiteness():
    psi = floating_slit(0.0)
    _, local, _ = irreality_decomposition(ZB, 0, psi)
    assert local <= 1e-12


def test_decomposition_closure_random():
    rng = np.random.default_rng(19)
    for _ in range(50):
        rho = random_density(4, 4, rng, dims=(2, 2))
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        total, local, correlated = irreality_decomposition(basis, side, rho)
        assert abs(total - local - correlated) <= 1e-9


# --- available information --------------------------------------------------------

def test_available_information_examples():
    for d in (2, 3, 4):
        flat = DensityMatrix(np.eye(d) / d, (d,))
        assert available_information(flat) == pytest.approx(0.0, abs=1e-12)
    assert available_information(_plus()) == pytest.approx(LN2, abs=1e-12)

    skew = DensityMatrix(np.diag([0.75, 0.25]), (2,))
    assert available_information(skew) == pytest.approx(LN2 - _h2(0.75), abs=1e-12)

    with pytest.raises(ValueError):
        available_information(singlet())


# --- nonlocality -------------------------------------------------------------------

def test_nonlocality_schmidt_pair_gives_entanglement_entropy():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = random_density(4, 1, rng, dims=(2, 2))
        form = schmidt_decompose(psi)
        n = nonlocality(form.basis_a, form.basis_b, psi)
        assert n == pytest.approx(entanglement_entropy(psi), abs=1e-9)


def test_nonlocality_forms_agree_and_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(30):
        rho = random_density(4, int(rng.integers(1, 5)), rng, dims=(2, 2))
        symmetric, sequential = nonlocality_forms(_random_basis(rng), _random_basis(rng), rho)
        assert abs(symmetric - sequential) <= 1e-9
        assert symmetric >= -1e-9


def test_nonlocality_raises_when_its_forms_disagree(monkeypatch):
    # No state makes the two forms disagree, so a disagreement is forced:
    # beyond FORM_AGREEMENT_TOL it is an ArithmeticError, within it the
    # symmetric form is returned.
    from qreality import measures

    monkeypatch.setattr(measures, "nonlocality_forms", lambda *args: (0.5, 0.5 + 2e-9))
    with pytest.raises(ArithmeticError, match="nonlocality forms disagree: 0.5 vs"):
        nonlocality(ZB, XB, singlet())
    monkeypatch.setattr(measures, "nonlocality_forms", lambda *args: (0.5, 0.5 + 5e-10))
    assert nonlocality(ZB, XB, singlet()) == 0.5


def test_nonlocality_dephases_each_side_of_rho_once(monkeypatch):
    # Phi_A rho, Phi_B rho, and Phi_A of Phi_B rho for the unread-measurement
    # form; the symmetric form's joint term is one Kraus pass of its own.
    from qreality import measures

    calls = []
    fn = measures.dephase

    def counted(*args):
        calls.append(args[1:])
        return fn(*args)

    monkeypatch.setattr(measures, "dephase", counted)
    rng = np.random.default_rng(31)
    ba, bb = _random_basis(rng), _random_basis(rng)
    nonlocality(ba, bb, random_density(4, 4, rng, dims=(2, 2)))
    assert sorted(calls, key=lambda c: c[1]) == [(ba, 0), (ba, 0), (bb, 1)]


def test_nonlocality_symmetry_under_side_swap():
    rng = np.random.default_rng(37)
    for _ in range(10):
        rho = random_density(4, 4, rng, dims=(2, 2))
        ba, bb = _random_basis(rng), _random_basis(rng)
        forward = nonlocality(ba, bb, rho)
        swapped = nonlocality(bb, ba, rho, subsystem_a=1, subsystem_b=0)
        assert abs(forward - swapped) <= 1e-10


def test_measurement_kills_nonlocality():
    rng = np.random.default_rng(41)
    for _ in range(15):
        rho = random_density(4, 4, rng, dims=(2, 2))
        ba, bb = _random_basis(rng), _random_basis(rng)
        for side, basis in ((0, ba), (1, bb)):
            measured = dephase(rho, basis, side)
            assert abs(nonlocality(ba, bb, measured)) <= 1e-9


def test_per_pair_bound():
    rng = np.random.default_rng(43)
    for _ in range(20):
        rho = random_density(4, 4, rng, dims=(2, 2))
        ba, bb = _random_basis(rng), _random_basis(rng)
        d_a = discord_like(rho, [(ba, 0)])
        d_b = discord_like(rho, [(bb, 1)])
        d_ab = discord_like(rho, [(ba, 0), (bb, 1)])
        assert d_a + d_b <= 2 * d_ab + 1e-9
        assert nonlocality(ba, bb, rho) <= d_ab + 1e-9


def test_nonlocality_subsystem_collision():
    with pytest.raises(ValueError):
        nonlocality(ZB, XB, singlet(), subsystem_a=0, subsystem_b=0)


# --- incompatible-pair identity ------------------------------------------------------

def test_incompatible_pair_identity_and_flattening():
    comp = computational_basis(2)
    four = fourier_basis(2)
    rng = np.random.default_rng(47)
    for _ in range(20):
        rho = random_density(4, 4, rng, dims=(2, 2))
        measured = dephase(rho, comp, 0)
        lhs = irreality(four, 0, measured)
        rhs = mutual_information(measured) + available_information(
            partial_trace(measured, 0)
        )
        assert abs(lhs - rhs) <= 1e-9

        flattened = dephase(measured, four, 0)
        expected = tensor_product(np.eye(2) / 2, partial_trace(rho, 1).mat)
        assert frobenius_distance(flattened.mat, expected) <= 1e-10


# --- concurrence ----------------------------------------------------------------------

def test_concurrence_examples():
    assert concurrence(singlet()) == pytest.approx(1.0, abs=1e-10)
    # Oracle: standard evaluation of the spin-flip spectrum for the isotropic
    # mixture gives max(0, (3f-1)/2).
    for f in np.linspace(0.0, 1.0, 11):
        assert concurrence(werner(f)) == pytest.approx(
            max(0.0, (3 * f - 1) / 2), abs=1e-10
        )
    rng = np.random.default_rng(53)
    for _ in range(5):
        a, b = random_density(2, 1, rng), random_density(2, 2, rng)
        product = DensityMatrix(tensor_product(a.mat, b.mat), (2, 2))
        assert concurrence(product) <= 1e-8
    with pytest.raises(ValueError):
        concurrence(random_density(4, 4, 1, dims=(4,)))


# --- entanglement entropy --------------------------------------------------------------

def test_entanglement_entropy_examples():
    assert entanglement_entropy(singlet()) == pytest.approx(LN2, abs=1e-10)
    product = pure_from_amplitudes([1, 0, 0, 0], (2, 2))
    assert entanglement_entropy(product) == pytest.approx(0.0, abs=1e-10)
    for x in np.linspace(0.0, 1.0, 11):
        assert entanglement_entropy(floating_slit(x)) == pytest.approx(
            _h2((1 + x) / 2), abs=1e-10
        )
    with pytest.raises(ValueError, match="mixed"):
        entanglement_entropy(werner(0.5))


def test_entanglement_entropy_raises_when_the_marginals_disagree(monkeypatch):
    # A pure state's two marginals have one spectrum, so a disagreement is
    # forced: the second marginal's entropy is read 2e-9 high.
    from qreality import measures

    read = []

    def skewed(rho):
        read.append(rho.dims)
        return entropy(rho) + 2e-9 * (len(read) - 1)

    monkeypatch.setattr(measures, "entropy", skewed)
    with pytest.raises(ArithmeticError, match="marginal entropies disagree"):
        entanglement_entropy(singlet())
    assert read == [(2,), (2,)]


# --- dilation ---------------------------------------------------------------------------

def test_dilation_examples():
    out = dilation_dephase(_plus(), ZB, 0)
    np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    diag = DensityMatrix(np.diag([0.3, 0.7]), (2,))
    assert frobenius_distance(dilation_dephase(diag, ZB, 0).mat, diag.mat) <= 1e-12


def test_dilation_equals_dephasing():
    rng = np.random.default_rng(59)
    for _ in range(20):
        rho = random_density(4, 4, rng, dims=(2, 2))
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        assert frobenius_distance(
            dilation_dephase(rho, basis, side).mat, dephase(rho, basis, side).mat
        ) <= 1e-10
    # explicit named case: x-basis on subsystem 1
    rho = random_density(4, 4, 61, dims=(2, 2))
    assert frobenius_distance(
        dilation_dephase(rho, XB, 1).mat, dephase(rho, XB, 1).mat
    ) <= 1e-10


def test_dilation_beyond_qubits():
    rng = np.random.default_rng(67)
    rho = random_density(6, 6, rng, dims=(3, 2))
    basis = fourier_basis(3)
    assert frobenius_distance(
        dilation_dephase(rho, basis, 0).mat, dephase(rho, basis, 0).mat
    ) <= 1e-10


def test_double_dilation_entropy_identities():
    # Store both observables into separate ancillas through controlled shifts;
    # the reductions of the four-party state must reproduce the dephased
    # entropies, which is exactly why nonlocality is nonnegative (strong
    # subadditivity applied to this extension).
    rng = np.random.default_rng(71)
    shift = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for _ in range(5):
        rho = random_density(4, 4, rng, dims=(2, 2))
        basis_a, basis_b = _random_basis(rng), _random_basis(rng)
        dims = (2, 2, 2, 2)  # system 0, system 1, ancilla for 0, ancilla for 1
        anc = np.zeros((2, 2), dtype=complex)
        anc[0, 0] = 1.0
        start = tensor_product(tensor_product(rho.mat, anc), anc)

        u_a = sum(
            embed_operator(basis_a.projector(k), 0, dims)
            @ embed_operator(np.linalg.matrix_power(shift, k), 2, dims)
            for k in range(2)
        )
        u_b = sum(
            embed_operator(basis_b.projector(k), 1, dims)
            @ embed_operator(np.linalg.matrix_power(shift, k), 3, dims)
            for k in range(2)
        )
        evolved = DensityMatrix(u_a @ u_b @ start @ u_b.conj().T @ u_a.conj().T, dims)

        s_full = entropy(evolved)
        s_system = entropy(partial_trace(evolved, (0, 1)))
        s_with_anc_b = entropy(partial_trace(evolved, (0, 1, 3)))
        s_with_anc_a = entropy(partial_trace(evolved, (0, 1, 2)))

        phi_a = dephase(rho, basis_a, 0)
        phi_b = dephase(rho, basis_b, 1)
        phi_ab = dephase(phi_a, basis_b, 1)
        assert abs(s_full - entropy(rho)) <= 1e-9
        assert abs(s_system - entropy(phi_ab)) <= 1e-9
        assert abs(s_with_anc_b - entropy(phi_a)) <= 1e-9
        assert abs(s_with_anc_a - entropy(phi_b)) <= 1e-9
        # strong subadditivity of the extension = nonnegativity of the pair value
        assert s_with_anc_a + s_with_anc_b - s_full - s_system >= -1e-9


# --- remote unitary invariance -------------------------------------------------------------

def test_remote_unitary_examples():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert abs(remote_unitary_invariance(ZB, 0, hadamard, 1, singlet())) <= 1e-10
    rho = random_density(4, 4, 5, dims=(2, 2))
    assert remote_unitary_invariance(ZB, 0, np.eye(2, dtype=complex), 1, rho) == 0.0


def test_remote_unitary_random():
    rng = np.random.default_rng(73)
    for _ in range(20):
        rho = random_density(4, int(rng.integers(1, 5)), rng, dims=(2, 2))
        shift = remote_unitary_invariance(
            _random_basis(rng), 0, random_unitary(2, rng), 1, rho
        )
        assert abs(shift) <= 1e-10


def test_remote_unitary_validation():
    with pytest.raises(ValueError, match="unitary"):
        remote_unitary_invariance(ZB, 0, np.diag([1.0, 2.0]), 1, singlet())
    with pytest.raises(ValueError):
        remote_unitary_invariance(ZB, 0, np.eye(2, dtype=complex), 0, singlet())


# --- reports -------------------------------------------------------------------------------

def test_measure_report_record_format():
    report = MeasureReport("nonlocality", LN2, "singlet; zbasis@0; zbasis@1",
                           {"form_gap": 0.0})
    line = report.record()
    assert line.startswith("name=nonlocality value=0.69314718055994")
    assert 'inputs="singlet; zbasis@0; zbasis@1"' in line
    assert "residual.form_gap=0" in line


def test_entropy_is_never_negative():
    # A pure state's one weight can round just above 1, as the slit's
    # marginal does at x = 1, where -p ln p < 0.
    assert min(entropy(random_density(4, 1, k)) for k in range(2000)) >= 0.0
    assert all(row[3] >= 0.0 for row in slit_rows(21))


def test_shannon_entropy_matches_numpy_scalar_loop_bitwise():
    # The reference loops over numpy float64 scalars, as the sum once did.
    rng = np.random.default_rng(31)
    for size in (2, 4, 9):
        for _ in range(50):
            probs = rng.dirichlet(np.ones(size))
            probs[rng.integers(size)] = rng.choice([0.0, 1e-16, -1e-17])
            reference = 0.0
            for p in probs:
                if p > ZERO_WEIGHT:
                    reference -= p * math.log(p)
            assert shannon_entropy(probs).hex() == float(reference).hex()


@pytest.mark.parametrize("call, message", [
    (lambda q: MeasureReport("entropy", math.nan, "singlet"),
     "report 'entropy' has non-finite value nan"),
    (lambda q: MeasureReport("entropy", -math.inf, "singlet"),
     "report 'entropy' has non-finite value -inf"),
    (lambda q: discord_like(q, [(ZB, 0)]), r"discord needs a bipartite layout, got \(2,\)"),
    (lambda q: irreality_decomposition(ZB, 0, q),
     r"decomposition needs a bipartite layout, got \(2,\)"),
    (lambda q: entanglement_entropy(q), r"entanglement entropy needs a bipartite layout, got \(2,\)"),
    (lambda q: schmidt_decompose(q), r"schmidt decomposition needs a bipartite layout, got \(2,\)"),
    # Both pure-state callers refuse a mixed bipartite state alike.
    (lambda q: entanglement_entropy(werner(0.5)), r"state is mixed \(purity 0.437500\)"),
    (lambda q: schmidt_decompose(werner(0.5)), r"state is mixed \(purity 0.437500\)"),
])
def test_measures_reject_a_non_finite_report_or_a_non_bipartite_state(call, message):
    qubit = DensityMatrix(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError, match=message) as exc:
        call(qubit)
    assert type(exc.value) is ValueError
