"""Seeded property suites behind the ``verify`` CLI command.

Each suite draws its instances from one deterministic generator, checks a
family of identities or bounds at fixed tolerances, and reports every
violation as (case description, measured residual, tolerance).  A suite is a
runner ``(result, rng, count, cfg)`` that records its cases and checks on the
result it is given; ``run_suite`` builds that result and the seeded generator
for it.  ``run_all`` executes the complete registry; a suite missing from it
is a defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .linalg import (
    DensityMatrix,
    _check_integer,
    _is_integer,
    frobenius_distance,
    partial_trace,
    tensor_product,
)
from .observables import (
    SchmidtForm,
    computational_basis,
    fourier_basis,
    is_mub,
    qubit_basis,
    schmidt_decompose,
)
from .optimize import (
    OBJECTIVE_DISCORD,
    OBJECTIVE_NONLOCALITY,
    OptimizerConfig,
    minimize_pair,
    minimize_single,
    witness_pair_for_pure,
)
from .oracle import brute_force_single
from .states import (
    alpha_state,
    floating_slit,
    random_density,
    random_unitary,
    singlet,
    werner,
)

LN2 = math.log(2.0)


@dataclass
class VerifySuiteResult:
    suite: str
    cases: int
    failures: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"suite {self.suite}: {self.cases} cases, {len(self.failures)} failures"

    def case(self):
        self.cases += 1

    def check(self, description: str, residual: float, tol: float):
        # A NaN residual fails.
        if not (residual <= tol):
            self.failures.append((description, float(residual), tol))

    def check_true(self, description: str, condition: bool):
        if not condition:
            self.failures.append((description, 1.0, 0.0))


def _random_two_qubit(rng, rank: int = 4) -> DensityMatrix:
    return random_density(4, rank, rng, dims=(2, 2))


def _random_basis(rng):
    return qubit_basis(rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi))


def _reduced_basis_check(psi: DensityMatrix, form: SchmidtForm) -> float:
    # Reconstruction residual of a Schmidt form against its source state.
    da, db = psi.dims
    ket = np.zeros(da * db, dtype=complex)
    for k, lam in enumerate(form.coefficients):
        ket += math.sqrt(max(lam, 0.0)) * np.kron(
            form.basis_a.vectors[:, k], form.basis_b.vectors[:, k]
        )
    fidelity = float(np.real(ket.conj() @ psi.mat @ ket))
    return 1.0 - fidelity


def suite_tensor(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = random_density(8, 8, rng, dims=(2, 2, 2))
        one_step = partial_trace(rho, 0)
        two_step = partial_trace(partial_trace(rho, (0, 1)), 0)
        other_way = partial_trace(partial_trace(rho, (0, 2)), 0)
        c.check(f"reduction order (case {k})",
                frobenius_distance(one_step.mat, two_step.mat), 1e-12)
        c.check(f"reduction order alt (case {k})",
                frobenius_distance(one_step.mat, other_way.mat), 1e-12)

        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        residual = abs(np.trace(tensor_product(a, b)) - np.trace(a) * np.trace(b))
        c.check(f"kron trace multiplicativity (case {k})", residual, 1e-12)

        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        herm = (g + g.conj().T) / 2.0
        values, vectors = np.linalg.eigh(herm)
        rebuilt = (vectors * values) @ vectors.conj().T
        norm = max(1.0, float(np.linalg.norm(herm)))
        c.check(f"eigensystem reconstruction (case {k})",
                float(np.linalg.norm(herm - rebuilt)) / norm, 1e-9)
        unitarity = float(np.max(np.abs(
            vectors.conj().T @ vectors - np.eye(6))))
        c.check(f"eigenvector unitarity (case {k})", unitarity, 1e-10)


def suite_states(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for f in np.linspace(0.0, 1.0, 11):
        c.case()
        expected = np.sort(np.array([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4]))
        got = werner(f).eigenvalues
        c.check(f"werner spectrum f={f:.1f}",
                float(np.max(np.abs(got - expected))), 1e-10)
    for x in np.linspace(0.0, 1.0, 11):
        c.case()
        reduced = partial_trace(floating_slit(x), 0)
        expected = np.sort(np.array([(1 - x) / 2, (1 + x) / 2]))
        got = reduced.eigenvalues
        c.check(f"slit marginal spectrum x={x:.1f}",
                float(np.max(np.abs(got - expected))), 1e-10)
    for k in range(count):
        c.case()
        seed_k = int(rng.integers(0, 2**31))
        rho = random_density(4, 1 + k % 4, seed_k, dims=(2, 2))
        again = random_density(4, 1 + k % 4, seed_k, dims=(2, 2))
        c.check(f"random state determinism (case {k})",
                frobenius_distance(rho.mat, again.mat), 0.0)
        if k % 4 == 0:
            c.check(f"rank-1 purity (case {k})", abs(rho.purity() - 1.0), 1e-10)


def suite_observables(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for d in (2, 3, 4, 5):
        c.case()
        c.check_true(f"fourier/computational unbiased d={d}",
                     is_mub(computational_basis(d), fourier_basis(d), 1e-10))
    for k in range(count):
        c.case()
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, math.pi)
        rho = _random_two_qubit(rng)
        direct = measures.dephase(rho, qubit_basis(theta, phi), 0)
        antipode = measures.dephase(
            rho, qubit_basis(math.pi - theta, phi + math.pi), 0)
        c.check(f"antipodal redundancy (case {k})",
                frobenius_distance(direct.mat, antipode.mat), 1e-10)

        psi = random_density(4, 1, rng, dims=(2, 2))
        form = schmidt_decompose(psi)
        c.check(f"schmidt reconstruction (case {k})",
                _reduced_basis_check(psi, form), 1e-9)
        c.check(f"schmidt coefficients vs marginal (case {k})",
                float(np.max(np.abs(form.coefficients - partial_trace(psi, 0).eigenvalues[::-1]))),
                1e-9)


def suite_dephasing(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        once = measures.dephase(rho, basis, side)
        twice = measures.dephase(once, basis, side)
        c.check(f"idempotence (case {k})",
                frobenius_distance(once.mat, twice.mat), 1e-12)
        c.check(f"trace preservation (case {k})",
                abs(float(np.trace(once.mat).real) - 1.0), 1e-12)
        c.check_true(f"reality preservation (case {k})",
                     measures.is_real(basis, side, once, tol=1e-6))


def suite_faithfulness(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        real_state = measures.dephase(_random_two_qubit(rng), basis, side)
        c.check(f"real state irreality (case {k})",
                measures.irreality(basis, side, real_state), 1e-9)
        c.check_true(f"real state is_real (case {k})",
                     measures.is_real(basis, side, real_state, tol=1e-6))

        # Coherent in the basis by construction: equal superposition of the
        # two basis vectors, tensored with a random partner.
        plus = (basis.vectors[:, 0] + basis.vectors[:, 1]) / math.sqrt(2.0)
        env = random_density(2, 2, rng)
        mat = np.outer(plus, plus.conj())
        full = (
            tensor_product(mat, env.mat) if side == 0 else tensor_product(env.mat, mat)
        )
        unreal_state = DensityMatrix(full, (2, 2))
        c.check_true(f"coherent state not real (case {k})",
                     measures.irreality(basis, side, unreal_state) > 1e-9)
        c.check_true(f"coherent state fails is_real (case {k})",
                     not measures.is_real(basis, side, unreal_state, tol=1e-6))


def suite_decomposition(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        basis = _random_basis(rng)
        side = int(rng.integers(0, 2))
        total, local, correlated = measures.irreality_decomposition(basis, side, rho)
        c.check(f"total = local + correlated (case {k})",
                abs(total - local - correlated), 1e-9)


def suite_mub(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    comp = computational_basis(2)
    four = fourier_basis(2)
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        measured = measures.dephase(rho, comp, 0)
        lhs = measures.irreality(four, 0, measured)
        rhs = measures.mutual_information(measured) + measures.available_information(
            partial_trace(measured, 0))
        c.check(f"incompatible-pair identity (case {k})", abs(lhs - rhs), 1e-9)

        flattened = measures.dephase(measured, four, 0)
        expected = tensor_product(np.eye(2, dtype=complex) / 2.0,
                                  partial_trace(rho, 1).mat)
        c.check(f"double dephasing flattens (case {k})",
                frobenius_distance(flattened.mat, expected), 1e-10)


def suite_nonnegativity(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        symmetric, sequential = measures.nonlocality_forms(
            _random_basis(rng), _random_basis(rng), rho)
        c.check(f"nonlocality >= 0 (case {k})", -symmetric, 1e-9)
        c.check(f"form agreement (case {k})", abs(symmetric - sequential), 1e-9)


def suite_perpair(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        ba, bb = _random_basis(rng), _random_basis(rng)
        d_a = measures.discord_like(rho, [(ba, 0)])
        d_b = measures.discord_like(rho, [(bb, 1)])
        d_ab = measures.discord_like(rho, [(ba, 0), (bb, 1)])
        c.check(f"one-sided drops bounded by joint (case {k})",
                d_a + d_b - 2.0 * d_ab, 1e-9)
        n = measures.nonlocality(ba, bb, rho)
        c.check(f"nonlocality bounded by joint drop (case {k})", n - d_ab, 1e-9)


def suite_premeasured(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        ba, bb = _random_basis(rng), _random_basis(rng)
        for side, basis in ((0, ba), (1, bb)):
            measured = measures.dephase(rho, basis, side)
            n = measures.nonlocality(ba, bb, measured)
            c.check(f"measurement kills nonlocality side {side} (case {k})",
                    abs(n), 1e-9)


def suite_remote(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        shift = measures.remote_unitary_invariance(
            _random_basis(rng), 0, random_unitary(2, rng), 1, rho)
        c.check(f"remote unitary invariance (case {k})", abs(shift), 1e-10)


def suite_dilation(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        if k % 4 == 3:
            rho = random_density(8, 8, rng, dims=(2, 2, 2))
            side = int(rng.integers(0, 3))
        else:
            rho = _random_two_qubit(rng)
            side = int(rng.integers(0, 2))
        basis = _random_basis(rng)
        dilated = measures.dilation_dephase(rho, basis, side)
        direct = measures.dephase(rho, basis, side)
        c.check(f"dilation equals dephasing (case {k})",
                frobenius_distance(dilated.mat, direct.mat), 1e-10)


def suite_singlet(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    state = singlet()
    axes = {
        "x": qubit_basis(math.pi / 2.0, 0.0),
        "y": qubit_basis(math.pi / 2.0, math.pi / 2.0),
        "z": qubit_basis(0.0, 0.0),
    }
    for ra, basis_a in axes.items():
        for rb, basis_b in axes.items():
            c.case()
            n = measures.nonlocality(basis_a, basis_b, state)
            expected = LN2 if ra == rb else 0.0
            c.check(f"singlet axis table ({ra},{rb})", abs(n - expected), 1e-9)


def suite_schmidt(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        psi = random_density(4, 1, rng, dims=(2, 2))
        form = schmidt_decompose(psi)
        n = measures.nonlocality(form.basis_a, form.basis_b, psi)
        c.check(f"schmidt-pair nonlocality equals entanglement (case {k})",
                abs(n - measures.entanglement_entropy(psi)), 1e-9)


def suite_pure(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    states = [("singlet", singlet()), ("alpha(1)", alpha_state(1.0))]
    states += [(f"random pure {k}", random_density(4, 1, rng, dims=(2, 2)))
               for k in range(count)]
    for label, psi in states:
        c.case()
        basis_a, basis_b = witness_pair_for_pure(psi)
        c.check(f"witness pair nonlocality [{label}]",
                abs(measures.nonlocality(basis_a, basis_b, psi)), 1e-9)
        res = minimize_pair(psi, OBJECTIVE_NONLOCALITY, cfg)
        c.check(f"minimal nonlocality vanishes [{label}]", abs(res.value), 1e-4)


def suite_bounds(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    for k in range(count):
        c.case()
        rho = _random_two_qubit(rng)
        n_min = minimize_pair(rho, OBJECTIVE_NONLOCALITY, cfg).value
        d_pair = minimize_pair(rho, OBJECTIVE_DISCORD, cfg).value
        c.check(f"lower bound (case {k})", -n_min, 1e-6)
        c.check(f"upper bound (case {k})", n_min - d_pair, 1e-6)


def suite_slit(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    zb = qubit_basis(0.0, 0.0)
    grid = np.linspace(0.0, 1.0, 21)
    previous = -math.inf
    for x in grid:
        c.case()
        psi = floating_slit(x)
        local = measures.irreality(zb, 0, partial_trace(psi, 0))
        total = measures.irreality(zb, 0, psi)
        c.check(f"global irreality is ln2 (x={x:.2f})", abs(total - LN2), 1e-10)
        c.check_true(f"local irreality strictly increasing (x={x:.2f})",
                     local > previous)
        previous = local
    c.case()
    c.check("local irreality zero at x=0",
            measures.irreality(zb, 0, partial_trace(floating_slit(0.0), 0)), 1e-12)
    c.case()
    c.check("local irreality ln2 at x=1",
            abs(measures.irreality(zb, 0, partial_trace(floating_slit(1.0), 0)) - LN2),
            1e-10)


def suite_oracle(c: VerifySuiteResult, rng, count: int, cfg: OptimizerConfig) -> None:
    # Rank-2 states, whose landscapes the grid best alone can miss by more
    # than the tolerance: two qubits on either side, a qubit against a qutrit.
    for k in range(count):
        dims, side = (((2, 2), 0), ((2, 2), 1), ((2, 3), 0))[k % 3]
        c.case()
        rho = random_density(math.prod(dims), 2, rng, dims=dims)
        fast = minimize_single(rho, side, cfg=cfg).value
        slow, _ = brute_force_single(rho, side, n_theta=200, n_phi=200)
        c.check(f"grid oracle agreement {dims} side {side}", abs(fast - slow), 1e-4)


# suite name -> (runner, default case count)
SUITES = {
    "tensor": (suite_tensor, 50),
    "states": (suite_states, 50),
    "observables": (suite_observables, 50),
    "dephasing": (suite_dephasing, 100),
    "faithfulness": (suite_faithfulness, 100),
    "decomposition": (suite_decomposition, 200),
    "mub": (suite_mub, 100),
    "nonnegativity": (suite_nonnegativity, 200),
    "perpair": (suite_perpair, 100),
    "premeasured": (suite_premeasured, 100),
    "remote": (suite_remote, 100),
    "dilation": (suite_dilation, 100),
    "singlet": (suite_singlet, 9),
    "schmidt": (suite_schmidt, 50),
    "pure": (suite_pure, 20),
    "bounds": (suite_bounds, 50),
    "slit": (suite_slit, 21),
    "oracle": (suite_oracle, 3),
}


def run_suite(
    name: str,
    seed: int = 7,
    count: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> VerifySuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}' (known: {', '.join(sorted(SUITES))})")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if count is not None:
        _check_integer("count", count)
        if count < 1:
            raise ValueError(f"suite case count must be at least 1, got {count}")
    runner, default_count = SUITES[name]
    result = VerifySuiteResult(suite=name, cases=0)
    runner(result, np.random.default_rng(seed),
           default_count if count is None else count, cfg)
    return result


def run_all(
    seed: int = 7,
    count: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[VerifySuiteResult]:
    return [run_suite(name, seed=seed, count=count, cfg=cfg) for name in SUITES]
