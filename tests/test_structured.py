"""Structured test operators against the dense oracle (``dense_oracle``)
for d <= 12.

The oracle rebuilds every test the direct way, as the dense sum over the
outcomes supported above ``SUPPORT_CUTOFF`` of |u_j><u_j| x |v_j><v_j|
(factors swapped for B -> A) with the conditional kets recomputed from the
target, and mixes the tests with their probabilities.  The package holds
the same operators only as factors (a test's pair vectors, a custom
mixture's Gram product of them) or as closed-form shift-class blocks (kind
I, and the design part of kinds II-VI, which the design's table certificate
licenses), and must agree to round-off, near-product targets included.
"""

import ast
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biverify import (
    ConditionalProjectorTest,
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
from biverify import bases, designs, linalg, strategies
from biverify.bases import is_prime, min_design_size, next_prime
from biverify.errors import DesignMismatchError, OutOfRangeError
from biverify.states import SUPPORT_CUTOFF

import dense_oracle as dense

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
    # near-product tails with squares far below 1e-12, every outcome still supported
    out["d3-near-product"] = make_schmidt_state([1.0, 6.25e-7, 1e-9])
    out["d5-near-product"] = make_schmidt_state([1.0, 1e-7, 1e-12, 1e-50, 1e-100])
    return out


TARGETS = _targets()


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

    operators = [dense.operator(t) for _, t in strat.tests]
    for (_, t), m in zip(strat.tests, operators):
        if isinstance(t, ConditionalProjectorTest):
            assert dense.factor_miss(m, t.pair_vectors()) <= ATOL
    omega = sum(q * m for (q, _), m in zip(strat.tests, operators))
    assert np.abs(dense.scattered(strat.index, strat.blocks) - omega).max() <= ATOL

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
        rows = bases._rows(design)
        w = state.coeffs[b][:, None] * (rows * rows[:, b].conj()).T
        blocks[delta] = (w * bases._weights(design)[1:]) @ w.conj().T
    return blocks


def perturbed(design):
    """The design with one exponent changed so that g_1(2) = e(2) - e(1)
    equals g_1(1): still orthonormal bases, no longer a 2-design."""
    e = list(design.exponents)
    e[2] = (2 * e[1] - e[0]) % design.modulus
    return replace(design, exponents=tuple(e))


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("name", ["d4-zero-tail", "d5-random", "d6-random"])
def test_design_residual_matches_dense_oracle(name, direction):
    """The exact table certificate is the dense 2-design residual, and
    d c_0^2 times it bounds the dense miss of the design average from
    d/(d+1) Pi in either direction (the B -> A average is a permutation of
    the A -> B one): the design passes both, a perturbed copy fails both."""
    state = TARGETS[name]
    d = state.d
    for design, holds in ((designs._design(d), True), (perturbed(designs._design(d)), False)):
        residual = design.residual()
        basis_set = bases._basis_set(design)
        assert abs(residual - verify_2design(basis_set)[1]) <= ATOL
        miss = dense.design_miss(state, basis_set, direction)
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
    are the oracle's dense average of the design tests: nothing lies outside
    the classes, and the B -> A average sits on the swapped classes."""
    state, embed_in = BLOCK_ORACLE_CASES[name]
    if embed_in is not None:
        state = embed_state(state, embed_in)
        design = designs._design(embed_in)
    else:
        design = designs._design(state.d)
    d = state.d
    a, shifted = np.arange(d), (np.arange(d) - np.arange(d)[:, None]) % d
    # class delta's kets |a, a-delta>, or their swaps |a-delta, a> for B -> A
    index = a * d + shifted if direction is Direction.A_TO_B else shifted * d + a
    average = dense.design_average(state, bases._basis_set(design), direction)
    assert np.abs(dense.scattered(index, design_blocks(state, design)) - average).max() <= ATOL


def test_custom_mixture_matches_dense_oracle():
    state = TARGETS["d4-zero-tail"]
    tests = [
        (0.3, strategies.standard_test(state)),
        (0.25, strategies.test_projector(state, fourier_basis(state.d))),
        (0.25, strategies.test_projector(state, fourier_basis(state.d), Direction.B_TO_A)),
        (0.2, strategies.two_way_diagonal_test(state, 0.9)),
    ]
    strat = strategies.assemble_strategy(state, tests)
    omega = dense.scattered(strat.index, strat.blocks)
    assert np.abs(omega - dense.mixture(tests)).max() <= ATOL


def test_dense_oracle_reads_no_package_internals():
    """The oracle shares nothing with the code it checks: it names no
    ``_``-prefixed package name, module or attribute, and never reads a
    test's own factors (``pair_vectors``, ``conditional_kets``,
    ``supported``) in place of recomputing them."""
    tree = ast.parse(open(dense.__file__).read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.update((getattr(node, "module", None) or "").split("."))
    assert {"biverify", "SUPPORT_CUTOFF"} <= names
    assert not {name for name in names if name.startswith("_")}
    assert not names & {"pair_vectors", "conditional_kets", "supported"}


def test_lopsided_design_is_rejected(monkeypatch):
    """The design identity is still checked at build time: a design source
    that drops one multiplier, spreading the weight over the rest of its
    bases, fails it."""
    honest = designs._design(4)
    lopsided = replace(honest, multipliers=honest.multipliers[:-1])
    monkeypatch.setattr(designs, "_design", lambda d, m=None: lopsided)
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
    spy(designs._Design, "residual")
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


@pytest.mark.parametrize("kind", ["IV", "VI"])
@pytest.mark.parametrize(
    "name", [n for n in sorted(TARGETS) if TARGETS[n].d <= 8]
)
def test_two_way_tests_are_swapped_twins(name, kind):
    """Each B -> A design test follows its A -> B twin and is that test with
    the parties swapped: the same factors, with the pair vectors' two
    indices exchanged, so SWAP P SWAP as an operator."""
    state = TARGETS[name]
    strat = build_strategy(state, kind)
    d = strat.state.d
    design = strat.tests[1:]
    assert len(design) % 2 == 0
    for (q_ab, ab), (q_ba, ba) in zip(design[::2], design[1::2]):
        assert (ab.direction, ba.direction) == (Direction.A_TO_B, Direction.B_TO_A)
        assert q_ab == q_ba
        assert ba.measured_basis is ab.measured_basis
        assert np.array_equal(ba.supported, ab.supported)
        assert np.array_equal(ba.conditional_kets, ab.conditional_kets)
        swapped = ab.pair_vectors().reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, -1)
        assert np.array_equal(ba.pair_vectors(), swapped)


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
    residual = designs._Design.residual

    def recording_residual(design):
        tables.append(bases._rows(design))
        return residual(design)

    monkeypatch.setattr(designs._Design, "residual", recording_residual)
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
    """Each design test is its basis and the target: at d=24 kind VI, the
    traced peak of the first read of ``tests`` stays within 1.5 times the
    bytes of the design's own bases, m d^2 complex entries for its m phase
    bases, with the returned tests included.  No basis stack or stored
    conditional ket is formed, and no Omega: the build formed it from the
    closed form."""
    d = 24
    state = make_schmidt_state(np.arange(d, 0, -1.0))
    strat = build_strategy(state, "VI")
    n_bases = len(designs._design(d).multipliers)
    bases_bytes = n_bases * d * d * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        tests = strat.tests
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tests) == 1 + 2 * n_bases
    assert peak <= 1.5 * bases_bytes


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
        omega = dense.scattered(strat.index, strat.blocks)
        assert abs(strat.beta - np.linalg.eigvalsh(omega)[-2]) <= ATOL
        assert np.abs(omega @ chi - strat.beta * chi).max() <= ATOL
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


@pytest.mark.parametrize("kind", KINDS)
def test_analysis_forms_no_tests(kind):
    """Building a strategy, checking its homogeneity, reading an exact pass
    rate and mixing its worst-case state never read the tests, so they are
    not formed."""
    strat = build_strategy(TARGETS["d6-zero-tail"], kind)
    strategies.is_homogeneous(strat)
    exact_pass_rate(strat, worst_case_state(strat, 0.1))
    assert "tests" not in vars(strat)


def _count_constructions(monkeypatch):
    """Count every Basis, ConditionalProjectorTest and RandomizedDiagonalTest
    formed from now on."""
    classes = (bases.Basis, strategies.ConditionalProjectorTest, RandomizedDiagonalTest)
    counts = dict.fromkeys(classes, 0)
    for cls in classes:

        def counted(self, *args, _real=cls.__init__, _cls=cls, **kwargs):
            counts[_cls] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("kind", KINDS)
def test_design_build_forms_only_its_head(kind, monkeypatch):
    """A build forms no basis and no test, not even the head test (standard
    for I-IV, diagonal for V and VI), whose diagonal enters Omega in closed
    form; the first read of ``tests`` forms them all, once."""
    state = TARGETS["d5-random"]
    counts = _count_constructions(monkeypatch)
    strat = build_strategy(state, kind)
    assert list(counts.values()) == [0, 0, 0]
    tests = strat.tests
    assert strat.tests is tests
    if kind == "I":  # the standard and Fourier tests with their bases
        assert list(counts.values()) == [2, 2, 0]
        return
    head = 1 if kind in ("II", "III", "IV") else 0
    design = designs._design(strat.state.d)
    n_design = len(design.multipliers) * (2 if kind in ("IV", "VI") else 1)
    assert len(tests) == 1 + n_design
    # one basis per design row, shared by its two directions for IV and VI
    n_bases = len(design.multipliers)
    assert list(counts.values()) == [head + n_bases, head + n_design, 1 - head]


@st.composite
def head_targets(draw):
    """Random, zero-tail or near-product targets at 2 <= d <= 8; the near
    product's tail is 10^-k [0.05, 1] c_0 with 4 <= k <= 100, so its squares
    stay normal doubles, supported by the package and the oracle alike."""
    d = draw(st.integers(2, 8))
    raw = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)), reverse=True)
    family = draw(st.sampled_from(["random", "zero-tail", "near-product"]))
    if family == "near-product":
        scale = 10.0 ** -draw(st.integers(4, 100))
        raw = [1.0] + [scale * r for r in raw[1:]]
    if family == "zero-tail":
        zeros = draw(st.integers(0, d - 2))
        raw = raw[: d - zeros] + [0.0] * zeros
    return make_schmidt_state(raw)


@settings(max_examples=60, deadline=None)
@given(head_targets(), st.sampled_from(KINDS), st.one_of(st.none(), st.floats(0.5, 0.95)))
def test_closed_form_head_is_the_formed_head(state, kind, p):
    """The head that a build mixes into Omega and ``tests`` forms
    (``_head``) is the oracle's diagonal of the formed head test: the
    standard test for I-IV, 1 on its supported |jj>, and for V and VI a table
    that is 1 - (1/p - 1) diag(Pi) off |jj>, with the oracle's Pi, averaged
    over both directions for VI."""
    strat = build_strategy(state, kind, p)
    state, p = strat.state, strat.p
    head_p, table = strategies._head(state, strat._record)
    q, test = strat.tests[0]
    assert q == head_p == p
    if table is None:  # the standard test
        assert kind in ("I", "II", "III", "IV")
        table = np.diag((state.coeffs**2 > SUPPORT_CUTOFF).astype(float))
    head = table.ravel()
    assert np.abs(head - np.diag(dense.operator(test)).real).max() <= 2.3e-16
    if kind in ("V", "VI"):
        directions = list(Direction)[: 2 if kind == "VI" else 1]
        pi = np.mean([np.diag(dense.pi(state, x)) for x in directions], axis=0)
        off = np.ones(state.d**2, dtype=bool)
        off[:: state.d + 1] = False
        assert np.abs(head - (1.0 - (1.0 / p - 1.0) * pi))[off].max() <= 2.3e-16


def _test_contents(strat):
    """Each test's weight, and its direction, measured kets, support and
    conditional kets, or its acceptance table."""
    out = []
    for q, t in strat.tests:
        if isinstance(t, RandomizedDiagonalTest):
            out.append((q, t.acceptance.tobytes()))
        else:
            out.append((
                q, t.direction, t.measured_basis.vectors.tobytes(),
                t.supported.tobytes(), t.conditional_kets.tobytes(),
            ))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_strategy_pickles_before_and_after_reading_tests(kind):
    """A strategy whose tests are not yet formed pickles, and its copy forms
    the same tests; so does one whose tests are formed."""
    strat = build_strategy(TARGETS["d4-zero-tail"], kind)
    fresh = pickle.loads(pickle.dumps(strat))
    assert "tests" not in vars(fresh)
    assert np.array_equal(fresh.blocks, strat.blocks) and fresh.beta == strat.beta
    expected = _test_contents(strat)
    assert _test_contents(fresh) == expected
    assert _test_contents(pickle.loads(pickle.dumps(strat))) == expected


def test_design_build_allocates_no_design_tests():
    """build_strategy at d=24 kind VI forms only the row table, the shift
    blocks and the diagonal test: its traced peak stays under 2 MiB, where
    forming its 794 design tests and their bases would take 7.3 MiB."""
    state = make_schmidt_state(np.arange(24, 0, -1.0))
    build_strategy(state, "VI")  # warm up imports and caches before tracing
    tracemalloc.start()
    try:
        build_strategy(state, "VI")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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
    omega = dense.scattered(strat.index, strat.blocks)
    trace = float(np.einsum("ij,ji->", omega, sigma.matrix).real)
    assert abs(exact_pass_rate(strat, sigma) - trace) <= 1e-14


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
    trace = float(np.trace(dense.scattered(strat.index, strat.blocks) @ sigma.matrix).real)
    assert abs(rate - trace) <= 1e-12
    assert peak <= 0.1 * sigma.matrix.nbytes
