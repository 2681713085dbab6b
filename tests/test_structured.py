"""Structured test operators against a dense oracle for d <= 8.

The oracle rebuilds every test the direct way, as the dense sum over
supported outcomes of |u_j><u_j| x |v_j><v_j| (factors swapped for B -> A)
with the conditional kets recomputed from the target, and mixes the tests
with their probabilities.  The package forms the same operators from their
factors (custom mixtures as Gram products of stacked pair vectors) or from
their closed form as shift-class blocks (kind I, and the design part of
kinds II-VI, which the design's table certificate licenses), and must agree
to round-off.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biverify import (
    Direction,
    RandomizedDiagonalTest,
    WeightedBasisSet,
    build_strategy,
    closed_form_beta,
    density_operator,
    embed_state,
    exact_pass_rate,
    fourier_basis,
    make_schmidt_state,
    random_unbiased_basis,
    roy_scott_set,
    standard_basis,
    state_vector,
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
    chi = strat.beta_vector
    assert np.abs(omega @ chi - strat.beta * chi).max() <= ATOL
    assert strat.beta == closed_form_beta(state, kind, strat.p)


def design_blocks(state, design):
    """The shift blocks of a built-in design's A -> B average, read from its
    row-phase table: on class delta, in the kets |a, a-delta>, a test is
    |w><w| with w[a] = c_{a-delta} row[a] conj(row[a-delta])."""
    d = state.d
    a = np.arange(d)
    blocks = np.empty((d, d, d), dtype=complex)
    for delta in range(d):
        b = (a - delta) % d
        w = state.coeffs[b][:, None] * (design.rows * design.rows[:, b].conj()).T
        blocks[delta] = (w * design.weights[1:]) @ w.conj().T
    return blocks


def dense_design_average(state, design, direction):
    """sum_{l>=1} w_l P_l over a design's tests in one direction, each test
    built densely with np.kron from the design's bases."""
    basis_set = design.basis_set
    return sum(
        w * dense_test(state, strategies.test_projector(state, b, direction))
        for b, w in zip(basis_set.bases[1:], basis_set.weights[1:])
    )


def scattered(blocks, direction):
    """The d^2 x d^2 operator whose shift class delta is blocks[delta], on the
    kets |a, a-delta> (A -> B) or their swaps |a-delta, a> (B -> A)."""
    d = blocks.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for delta in range(d):
        for a in range(d):
            for a2 in range(d):
                if direction is Direction.A_TO_B:
                    row, col = a * d + (a - delta) % d, a2 * d + (a2 - delta) % d
                else:
                    row, col = (a - delta) % d * d + a, (a2 - delta) % d * d + a2
                out[row, col] = blocks[delta, a, a2]
    return out


def perturbed(design):
    """The design with one phase of its row table off by 0.1 rad: still
    orthonormal bases, no longer a 2-design."""
    rows = design.rows.copy()
    rows[1, 2] *= np.exp(0.1j)
    return replace(design, rows=rows)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("name", ["d4-zero-tail", "d5-random", "d6-random"])
def test_design_residual_matches_dense_oracle(name, direction):
    """The table certificate is the dense 2-design residual, and d c_0^2
    times it bounds the dense miss of the design average from d/(d+1) Pi in
    either direction (the B -> A average is a permutation of the A -> B
    one): the design passes both, a perturbed copy fails both."""
    state = TARGETS[name]
    d = state.d
    for design, holds in ((bases._design(d), True), (perturbed(bases._design(d)), False)):
        residual = design.residual()
        assert abs(residual - verify_2design(design.basis_set)[1]) <= ATOL
        avg = dense_design_average(state, design, direction)
        pi = strategies.pi_operator(state, direction=direction)
        miss = np.abs(avg - pi * d / (d + 1)).max()
        assert miss <= d * state.coeffs[0] ** 2 * residual + ATOL
        assert (residual <= 1e-10) is holds and bool(miss <= 1e-10) is holds


def _block_oracle_cases():
    rng = np.random.default_rng(8)
    return {
        "d3-random": (make_schmidt_state(rng.random(3) + 0.05), None),
        "d4-zero-tail": (TARGETS["d4-zero-tail"], None),
        "d6-zero-tail": (TARGETS["d6-zero-tail"], None),
        "d9-zero-tail": (make_schmidt_state([5.0, 4.0, 3.0, 2.0, 2.0, 1.0, 0, 0, 0]), None),
        "d11-mub": (make_schmidt_state(rng.random(11) + 0.05), None),
        "d12-random": (make_schmidt_state(rng.random(12) + 0.05), None),
        # kind II's embedding: a d=10 target padded into the d=11 MUB set
        "d10-embedded": (make_schmidt_state(rng.random(10) + 0.05), 11),
    }


BLOCK_ORACLE_CASES = _block_oracle_cases()


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("name", sorted(BLOCK_ORACLE_CASES))
def test_shift_blocks_match_dense_kron_oracle(name, direction):
    """The shift blocks of the design average, scattered onto their classes,
    are the dense np.kron average of the design tests: nothing lies outside
    the classes, and the B -> A average sits on the swapped classes."""
    state, embed_in = BLOCK_ORACLE_CASES[name]
    if embed_in is not None:
        state = embed_state(state, embed_in)
        design = bases._design(embed_in)
    else:
        design = bases._design(state.d)
    blocks = design_blocks(state, design)
    dense = dense_design_average(state, design, direction)
    assert np.abs(scattered(blocks, direction) - dense).max() <= ATOL


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
    """The design identity is still checked at build time: a design source
    whose weights are not a 2-design fails it."""
    d = 4
    honest = bases._design(d)
    tilt = np.arange(1.0, honest.weights.size)
    weights = np.concatenate([[honest.weights[0]], tilt / tilt.sum() * (1 - honest.weights[0])])
    lopsided = replace(honest, weights=weights)
    monkeypatch.setattr(strategies, "_design", lambda d, m=None: lopsided)
    state = TARGETS["d4-random"]
    for kind in ("III", "IV", "V", "VI"):
        with pytest.raises(DesignMismatchError, match="2-design identity"):
            build_strategy(state, kind)


def test_build_runs_one_design_check(monkeypatch):
    """A kind-II build certifies its design once, from the row table, and
    never runs the dense 2-design check of the basis set."""
    calls = {"verify_2design": 0, "residual": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(bases, "verify_2design")
    spy(bases._Design, "residual")
    build_strategy(make_schmidt_state([3.0, 2.0, 1.0, 1.0, 0.5]), "II")
    assert calls == {"verify_2design": 0, "residual": 1}


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


@pytest.mark.parametrize("kind", KINDS)
def test_design_strategy_calls_no_gram_and_no_eigensolver(kind, monkeypatch):
    """Each B -> A design test shares its A -> B twin's basis and target; no
    built-in build calls weighted_gram (kind I's Fourier test and the design
    part come from shift blocks, the head test from its diagonal) or an
    eigensolver (the spectrum is the closed form)."""
    state = TARGETS["d5-random"]
    grams, eig_dims = [], []
    gram, eig = linalg.weighted_gram, linalg.eig_hermitian

    def counting_gram(blocks, dim):
        grams.append(dim)
        return gram(blocks, dim)

    def recording_eig(h):
        eig_dims.append(np.shape(h)[0])
        return eig(h)

    monkeypatch.setattr(linalg, "weighted_gram", counting_gram)
    monkeypatch.setattr(linalg, "eig_hermitian", recording_eig)
    strat = build_strategy(state, kind)
    design = [t for _, t in strat.tests[1:]]
    assert all(t.state is strat.state for t in design)
    if kind in ("IV", "VI"):
        assert len(design) % 2 == 0
        for ab, ba in zip(design[::2], design[1::2]):
            assert (ab.direction, ba.direction) == (Direction.A_TO_B, Direction.B_TO_A)
            assert ba.measured_basis is ab.measured_basis and ba.state is ab.state
    else:
        assert all(t.direction is Direction.A_TO_B for t in design)
    assert grams == []
    assert eig_dims == []


def _phase_row_cases():
    cases = [(d, None) for d in (2, 3, 5, 7, 11, 13)]  # complete MUB sets
    for d in (3, 4, 6, 9, 12):  # Roy-Scott: the bound and one size above it
        cases += [(d, min_design_size(d)), (d, min_design_size(d) + 5)]
    return cases


@pytest.mark.parametrize("d, m", _phase_row_cases())
def test_design_bases_are_the_averaged_phase_rows(d, m, monkeypatch):
    """Every design basis a build tests is diag(row) F / sqrt(d) bit for bit,
    for the row of the table the build certifies, and satisfies
    d^2 B[k,j] conj(B[0,j]) conj(B[k,0]) B[0,0] = omega^{jk}: the structure
    that the table certificate rests on."""
    tables = []
    residual = bases._Design.residual

    def recording_residual(design):
        tables.append(design.rows)
        return residual(design)

    monkeypatch.setattr(bases._Design, "residual", recording_residual)
    strat = build_strategy(make_schmidt_state(np.arange(d, 0, -1.0)), "III", m=m)
    (rows,) = tables
    design = [test.measured_basis.vectors for _, test in strat.tests[1:]]
    assert len(design) == len(rows)
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * (np.outer(k, k) % d) / d)
    for row, b in zip(rows, design):
        assert np.array_equal(b, fourier * row[:, None] / np.sqrt(d))
        product = d * d * b * b[:1, :].conj() * b[:, :1].conj() * b[0, 0]
        assert np.abs(product - fourier).max() <= 1e-15


def test_design_tests_hold_few_basis_stacks():
    """Each design test is its basis and the target, and the certificate
    reads only the row-phase table: at d=24 kind VI, with the design's bases
    built beforehand, the traced peak of _design_tests stays within half a
    stack of size (m-1) d^2 complex entries, with the returned tests
    included.  No basis stack or stored conditional ket is formed, and
    _design_tests allocates no Omega: the build forms it from the closed
    form."""
    d = 24
    state = make_schmidt_state(np.arange(d, 0, -1.0))
    design = bases._design(d)
    n_bases = design.basis_set.m  # the bases are built here, before tracing
    stack_bytes = (n_bases - 1) * d * d * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        strategies._design_tests(state, design, 0.5, two_way=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * stack_bytes


def p_cases(state, kind):
    """The default p, 0.9, p = 0 for II-IV and the lower bound for V and VI,
    which between them reach both branches of the closed-form beta."""
    c2 = state.coeffs**2
    cases = [None, 0.9]
    if kind in ("II", "III", "IV"):
        cases.append(0.0)
    elif kind == "V":
        cases.append(float(c2[0] / (1.0 + c2[0])))
    elif kind == "VI":
        cases.append(float((c2[0] + c2[1]) / (2.0 + c2[0] + c2[1])))
    return cases


@pytest.mark.parametrize("kind", KINDS)
def test_worst_case_state_solves_no_eigenproblem(kind, monkeypatch):
    """Over every target and p case, the build keeps a unit beta eigenvector
    orthogonal to the target (kind II on the embedded target), with beta the
    second eigenvalue of the dense Omega, and worst_case_state mixes it in
    without calling an eigensolver."""
    strats = [
        build_strategy(state, kind, p=p)
        for state in TARGETS.values()
        for p in p_cases(state, kind)
    ]
    for strat in strats:
        chi, psi = strat.beta_vector, state_vector(strat.state)
        assert not chi.flags.writeable
        assert abs(np.linalg.norm(chi) - 1.0) <= ATOL and abs(psi.conj() @ chi) <= ATOL
        assert abs(strat.beta - np.linalg.eigvalsh(strat.omega)[-2]) <= ATOL
        assert np.abs(strat.omega @ chi - strat.beta * chi).max() <= ATOL
    calls = []
    eig = linalg.eig_hermitian

    def counting_eig(h):
        calls.append(np.shape(h))
        return eig(h)

    monkeypatch.setattr(linalg, "eig_hermitian", counting_eig)
    for strat in strats:
        worst_case_state(strat, 0.1)
    assert calls == []


def test_max_eig_dim_limits_only_the_dense_path(monkeypatch):
    """With the dense eigensolver capped below d^2, every built-in kind still
    builds from its shift-class blocks, and a custom mixture raises before
    its d^2 x d^2 Gram product is formed."""
    monkeypatch.setattr(linalg, "MAX_EIG_DIM", 64)
    grams = []
    gram = linalg.weighted_gram

    def counting_gram(blocks, dim):
        grams.append(dim)
        return gram(blocks, dim)

    monkeypatch.setattr(linalg, "weighted_gram", counting_gram)
    state = make_schmidt_state([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    for kind in ("I", "III", "IV", "VI"):
        strat = build_strategy(state, kind)
        assert strat.beta == closed_form_beta(strat.state, kind, strat.p)
        for eps in (0.3, 0.01):
            sigma = worst_case_state(strat, eps)
            assert abs(exact_pass_rate(strat, sigma) - (1.0 - strat.nu * eps)) <= 1e-10
    fourier = strategies.test_projector(state, fourier_basis(9))
    tests = [(0.5, strategies.standard_test(state)), (0.5, fourier)]
    with pytest.raises(OutOfRangeError, match="exceeds supported maximum"):
        strategies.assemble_strategy(state, tests)
    assert grams == []


@pytest.mark.parametrize("kind", KINDS)
def test_strategy_holds_shift_blocks_not_omega(kind):
    """Every built-in kind holds Omega as d real d x d shift-class blocks on
    the kets |a, a - delta>; building it, checking its homogeneity and
    reading an exact pass rate never form the dense Omega."""
    strat = build_strategy(TARGETS["d6-zero-tail"], kind)
    d = strat.state.d
    a = np.arange(d)
    assert strat.blocks.shape == (d, d, d) and strat.blocks.dtype == np.float64
    assert np.array_equal(strat.index, a * d + (a - a[:, None]) % d)
    strategies.is_homogeneous(strat)
    exact_pass_rate(strat, worst_case_state(strat, 0.1))
    assert "omega" not in vars(strat)


def test_kind_i_at_d70_solves_no_eigenproblem(monkeypatch):
    """Kind I reads beta = max(p, 1 - p) off the closed form, so it builds at
    d = 70, where d^2 is above MAX_EIG_DIM, without an eigensolve."""
    calls = []
    eig = linalg.eig_hermitian

    def counting_eig(h):
        calls.append(np.shape(h))
        return eig(h)

    monkeypatch.setattr(linalg, "eig_hermitian", counting_eig)
    strat = build_strategy(make_schmidt_state(np.arange(70, 0, -1.0)), "I")
    assert strat.beta == 0.5 and strat.nu == 0.5
    assert strat.blocks.shape == (70, 70, 70)
    assert calls == []


def _random_sigma(dim, rng):
    """A random full-rank density operator."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = x @ x.conj().T + 0.1 * np.eye(dim)
    return density_operator(m / np.trace(m).real)


@pytest.mark.parametrize("kind", KINDS + ("custom",))
def test_exact_pass_rate_matches_dense_trace(kind):
    """The block sum of exact_pass_rate is tr(Omega sigma) on a random
    full-rank sigma, for every kind and for a one-block custom mixture."""
    state = TARGETS["d5-random"]
    if kind == "custom":
        basis = random_unbiased_basis(5, np.random.default_rng(5))
        b_to_a = strategies.test_projector(state, basis, Direction.B_TO_A)
        tests = [(0.3, strategies.standard_test(state)), (0.7, b_to_a)]
        strat = strategies.assemble_strategy(state, tests)
        assert strat.blocks.shape == (1, 25, 25)
    else:
        strat = build_strategy(state, kind)
    sigma = _random_sigma(strat.state.dim, np.random.default_rng(7))
    dense = float(np.einsum("ij,ji->", strat.omega, sigma.matrix).real)
    assert abs(exact_pass_rate(strat, sigma) - dense) <= 1e-14


def test_exact_pass_rate_reads_a_custom_block_without_copying_sigma():
    """A custom mixture's one block is Omega on every ket in order, so its
    trace against sigma matches tr(Omega sigma) and copies no d^2 x d^2
    matrix out of sigma."""
    d = 16
    state = make_schmidt_state(np.arange(d, 0, -1.0))
    tests = [
        (0.4, strategies.standard_test(state)),
        (0.6, strategies.test_projector(state, fourier_basis(d))),
    ]
    strat = strategies.assemble_strategy(state, tests)
    sigma = _random_sigma(d * d, np.random.default_rng(16))
    tracemalloc.start()
    try:
        rate = exact_pass_rate(strat, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = float(np.trace(strat.omega @ sigma.matrix).real)
    assert abs(rate - dense) <= 1e-12
    assert peak <= 0.1 * sigma.matrix.nbytes
