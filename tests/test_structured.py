"""Structured test operators against a dense oracle for d <= 8.

The oracle rebuilds every test the direct way, as the dense sum over
supported outcomes of |u_j><u_j| x |v_j><v_j| (factors swapped for B -> A)
with the conditional kets recomputed from the target, and mixes the tests
with their probabilities.  The package forms the same operators as Gram
products of stacked pair vectors and must agree to round-off.
"""

import numpy as np
import pytest

from biverify import (
    Direction,
    RandomizedDiagonalTest,
    WeightedBasisSet,
    beta_nu,
    build_strategy,
    closed_form_beta,
    exact_pass_rate,
    fourier_basis,
    make_schmidt_state,
    roy_scott_set,
    standard_basis,
    two_qubit_state,
    verify_2design,
    worst_case_state,
)
from biverify import bases, linalg, strategies
from biverify.bases import is_prime, min_design_size, next_prime
from biverify.errors import DesignMismatchError, OutOfRangeError

ATOL = 1e-12
KINDS = ("I", "II", "III", "IV", "V", "VI")


def _targets():
    rng = np.random.default_rng(2019)
    out = {"d2": two_qubit_state(0.3)}
    for d in range(3, 9):
        out[f"d{d}-random"] = make_schmidt_state(rng.random(d) + 0.05)
    out["d4-zero-tail"] = make_schmidt_state([3.0, 2.0, 1.0, 0.0])
    out["d6-zero-tail"] = make_schmidt_state([4.0, 3.0, 2.0, 1.0, 0.0, 0.0])
    out["d7-zero-tail"] = make_schmidt_state([1.0, 1.0, 1.0, 0.5, 0.5, 0.0, 0.0])
    return out


TARGETS = _targets()


def dense_test(state, test):
    """The test's operator built densely from its basis and the target."""
    if isinstance(test, RandomizedDiagonalTest):
        return np.diag(test.acceptance.ravel()).astype(complex)
    d = state.d
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        u = test.measured_basis.vectors[:, j]
        v = state.coeffs * u.conj()
        weight = float(np.vdot(v, v).real)
        if weight <= 1e-12:
            continue
        v = v / np.sqrt(weight)
        p_u, p_v = np.outer(u, u.conj()), np.outer(v, v.conj())
        if test.direction is Direction.A_TO_B:
            out += np.kron(p_u, p_v)
        else:
            out += np.kron(p_v, p_u)
    return out


def expected_test_count(kind, d):
    if kind == "I":
        return 2
    if kind == "II":
        d = next_prime(d)
    m = d + 1 if is_prime(d) else min_design_size(d)
    return 1 + (2 if kind in ("IV", "VI") else 1) * (m - 1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_strategy_matches_dense_oracle(name, kind):
    target = TARGETS[name]
    strat = build_strategy(target, kind)
    state = strat.state
    assert state.d == (next_prime(target.d) if kind == "II" else target.d)
    assert len(strat.tests) == expected_test_count(kind, target.d)
    # building never materializes a test matrix
    assert all("matrix" not in vars(t) for _, t in strat.tests)

    dense = [dense_test(state, t) for _, t in strat.tests]
    omega = sum(q * m for (q, _), m in zip(strat.tests, dense))
    assert np.abs(strat.omega - omega).max() <= ATOL
    for (_, t), m in zip(strat.tests, dense):
        assert np.abs(t.matrix - m).max() <= ATOL

    w = np.linalg.eigvalsh(omega)[::-1]
    assert abs(strat.beta - w[1]) <= ATOL
    assert abs(strat.nu - (1.0 - w[1])) <= ATOL


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("name", ["d4-zero-tail", "d5-random", "d6-random"])
def test_design_residual_matches_dense_oracle(name, direction):
    state = TARGETS[name]
    design = strategies.design_for_dimension(state.d)
    avg = sum(
        w * dense_test(state, strategies.test_projector(state, b, direction))
        for b, w in zip(design.bases[1:], design.weights[1:])
    )
    pi = strategies.pi_operator(state, direction=direction)
    expected = np.abs(avg - pi * state.d / (state.d + 1)).max()
    tests = [
        (w, strategies.test_projector(state, b, direction))
        for b, w in zip(design.bases[1:], design.weights[1:])
    ]
    residual = strategies._design_residual(
        state, strategies._mix(state.d, tests), direction
    )
    assert residual <= 1e-10
    assert abs(residual - expected) <= ATOL


def test_custom_mixture_matches_dense_oracle():
    state = TARGETS["d4-zero-tail"]
    tests = [
        (0.3, strategies.standard_test(state)),
        (0.25, strategies.test_projector(state, fourier_basis(state.d))),
        (0.25, strategies.test_projector(state, fourier_basis(state.d), Direction.B_TO_A)),
        (0.2, strategies.two_way_diagonal_test(state, 0.9)),
    ]
    strat = strategies.assemble_strategy(state, tests)
    omega = sum(q * dense_test(state, t) for q, t in tests)
    assert np.abs(strat.omega - omega).max() <= ATOL


def test_lopsided_design_is_rejected(monkeypatch):
    """The design identity is still checked at build time: a basis set whose
    weights are not a 2-design fails it."""
    d = 4
    honest = roy_scott_set(d)
    tilt = np.arange(1.0, honest.m)
    weights = np.concatenate([[honest.weights[0]], tilt / tilt.sum() * (1 - honest.weights[0])])
    lopsided = WeightedBasisSet(bases=honest.bases, weights=weights)
    monkeypatch.setattr(strategies, "design_for_dimension", lambda d, m=None: lopsided)
    state = TARGETS["d4-random"]
    for kind in ("III", "IV", "V", "VI"):
        with pytest.raises(DesignMismatchError, match="design average"):
            build_strategy(state, kind)


def test_build_runs_one_design_check(monkeypatch):
    """A kind-II build certifies its design once, through the test average,
    and never runs the basis set's 2-design check."""
    calls = {"verify_2design": 0, "_design_residual": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(bases, "verify_2design")
    spy(strategies, "_design_residual")
    build_strategy(make_schmidt_state([3.0, 2.0, 1.0, 1.0, 0.5]), "II")
    assert calls == {"verify_2design": 0, "_design_residual": 1}


@pytest.mark.parametrize(
    "basis_set",
    [
        WeightedBasisSet(bases=(standard_basis(5), fourier_basis(5)), weights=[0.5, 0.5]),
        roy_scott_set(6),
    ],
    ids=["two-bases", "phase-design"],
)
def test_2design_residual_matches_dense_oracle(basis_set):
    d = basis_set.d
    lhs = np.zeros((d * d, d * d), dtype=complex)
    for basis, w in zip(basis_set.bases, basis_set.weights):
        for j in range(d):
            pair = np.kron(basis.vectors[:, j], basis.vectors[:, j].conj())
            lhs += w * np.outer(pair, pair.conj())
    phi = np.zeros(d * d)
    phi[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    rhs = (np.eye(d * d) + d * np.outer(phi, phi)) / (d + 1)
    _, residual = verify_2design(basis_set)
    assert abs(residual - np.abs(lhs - rhs).max()) <= ATOL


def swap_operator(d):
    """SWAP on C^d x C^d as a permutation matrix: |jk> -> |kj>."""
    idx = np.arange(d * d).reshape(d, d).T.ravel()
    return np.eye(d * d)[idx]


@pytest.mark.parametrize("kind", ["IV", "VI"])
@pytest.mark.parametrize(
    "name", [n for n in sorted(TARGETS) if TARGETS[n].d <= 8]
)
def test_two_way_tests_are_swapped_twins(name, kind):
    """Each B -> A design test follows its A -> B twin and is that test with
    the parties swapped: the same factors, and SWAP P SWAP as an operator."""
    state = TARGETS[name]
    strat = build_strategy(state, kind)
    design = strat.tests[1:]
    assert len(design) % 2 == 0
    swap = swap_operator(strat.state.d)
    for (q_ab, ab), (q_ba, ba) in zip(design[::2], design[1::2]):
        assert (ab.direction, ba.direction) == (Direction.A_TO_B, Direction.B_TO_A)
        assert q_ab == q_ba
        assert ba.measured_basis is ab.measured_basis
        assert np.array_equal(ba.supported, ab.supported)
        assert np.array_equal(ba.conditional_kets, ab.conditional_kets)
        assert np.abs(ba.matrix - swap @ ab.matrix @ swap).max() <= ATOL


@pytest.mark.parametrize("kind", ["II", "III", "IV", "V", "VI"])
def test_design_strategy_forms_one_gram_and_no_dense_eigensolve(kind, monkeypatch):
    """The A -> B design tests enter one Gram product, once each; the B -> A
    twins never enter one; the spectrum comes from the d x d block."""
    state = TARGETS["d5-random"]
    grams, uses, eig_dims = [], [], []
    gram, eig = linalg.weighted_gram, linalg.eig_hermitian
    pair_vectors = strategies.ConditionalProjectorTest.pair_vectors

    def counting_gram(blocks, dim):
        grams.append(dim)
        return gram(blocks, dim)

    def recording_pair_vectors(test):
        uses.append((id(test), len(grams)))
        return pair_vectors(test)

    def recording_eig(h):
        eig_dims.append(np.shape(h)[0])
        return eig(h)

    monkeypatch.setattr(linalg, "weighted_gram", counting_gram)
    monkeypatch.setattr(linalg, "eig_hermitian", recording_eig)
    monkeypatch.setattr(
        strategies.ConditionalProjectorTest, "pair_vectors", recording_pair_vectors
    )
    strat = build_strategy(state, kind)
    design = [t for _, t in strat.tests[1:]]
    forward = [id(t) for t in design if t.direction is Direction.A_TO_B]
    backward = {id(t) for t in design if t.direction is Direction.B_TO_A}
    assert len(backward) == (len(forward) if kind in ("IV", "VI") else 0)
    design_uses = [(i, g) for i, g in uses if i in set(forward) | backward]
    assert sorted(i for i, _ in design_uses) == sorted(forward)
    assert len({g for _, g in design_uses}) == 1
    assert eig_dims == [state.d]


def test_max_eig_dim_limits_only_the_dense_path(monkeypatch):
    """With the dense eigensolver capped below d^2, the design kinds still
    build from the d x d block, and kind I, which has no such block, raises."""
    monkeypatch.setattr(linalg, "MAX_EIG_DIM", 64)
    state = make_schmidt_state([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    for kind in ("III", "IV", "VI"):
        strat = build_strategy(state, kind)
        expected = closed_form_beta(strat.state, kind, strat.p)
        assert abs(strat.beta - expected) <= 1e-10
        beta, nu = beta_nu(strat)
        assert abs(beta - expected) <= 1e-10
        for eps in (0.3, 0.01):
            sigma = worst_case_state(state, strat, eps)
            assert abs(exact_pass_rate(strat, sigma) - (1.0 - nu * eps)) <= 1e-10
    with pytest.raises(OutOfRangeError, match="exceeds supported maximum"):
        build_strategy(state, "I")
