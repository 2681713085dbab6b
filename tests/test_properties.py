"""Property tests of conditional tests over random bases (2 <= d <= 8), of
the built strategies at small d, and of the design strategies at large d
(20 <= d <= 32).

A built-in design's exact certificate, read from its integer table in
Python integers, is checked against the dense second-moment identity on
random small tables, and against its numpy formulation, one sort per shift
class, on built-in and corrupted tables up to d = 40.

A conditional test is a projector only because its measured basis is
orthonormal, which ``Basis`` certifies and the build does not re-check; the
first property checks that fact on the dense oracle (``dense_oracle``), and
that the test's pair vectors are an orthonormal basis of its range.  At
large d, builds take a fraction of a second, but the dense worst-case
state's positivity check costs an O(d^6) eigensolve, so the "large-d"
hypothesis profile runs few examples.

Every built-in kind forms Omega from its closed form as shift-class blocks,
not from the tests, so the large-d property checks both sides: Omega is
exactly zero outside the shift classes delta = a - b mod d, and the tests
realize it, on a random vector, through their own factors.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biverify import (
    Basis,
    ConditionalProjectorTest,
    Direction,
    build_strategy,
    closed_form_beta,
    embed_state,
    exact_pass_rate,
    fidelity,
    fidelity_from_pass_rate,
    make_schmidt_state,
    random_state_at_fidelity,
    random_unbiased_basis,
    state_vector,
    test_projector,
    worst_case_state,
)
from biverify.bases import _basis_set, is_prime, min_design_size, verify_2design
from biverify.designs import _Design, _design

import dense_oracle as dense

KINDS = ("I", "II", "III", "IV", "V", "VI")

settings.register_profile("large-d", max_examples=3, deadline=None)
LARGE_D = settings.get_profile("large-d")
ATOL = 1e-10


@st.composite
def schmidt_vectors(draw, d):
    """Raw Schmidt amplitudes of length d: random, with a zero tail, or near
    product (1, c_1, ...) with 1e-12 <= c_1 <= 1e-7 (c_0 rounds to 1 for the
    smaller c_1)."""
    family = draw(st.sampled_from(["random", "zero-tail", "near-product"]))
    raw = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)), reverse=True)
    if family == "near-product":
        c1 = 10.0 ** -draw(st.floats(7.0, 12.0))
        raw = [1.0] + [c1 * r / raw[1] for r in raw[1:]]
    if family != "random":
        zeros = draw(st.integers(0, d - 2))
        raw = raw[: d - zeros] + [0.0] * zeros
    return raw


@st.composite
def large_targets(draw):
    """Schmidt vectors at 20 <= d <= 32 (kind II embeds a zero-tailed
    composite d into the next prime), some with a degenerate top pair."""
    raw = draw(st.integers(20, 32).flatmap(schmidt_vectors))
    if draw(st.booleans()):
        raw[1] = raw[0]
    return make_schmidt_state(raw)


@st.composite
def measurement_bases(draw, d):
    """A random unitary basis (QR of a complex Gaussian matrix) or a random
    basis unbiased with the standard one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_unbiased_basis(d, rng)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Basis(d=d, vectors=q)


@st.composite
def targets_and_bases(draw):
    d = draw(st.integers(2, 8))
    return make_schmidt_state(draw(schmidt_vectors(d))), draw(measurement_bases(d))


@given(targets_and_bases(), st.sampled_from(list(Direction)))
def test_conditional_test_is_a_projector_the_target_passes(target_basis, direction):
    """P^2 = P with eigenvalues in [0, 1], <Psi|P|Psi> = 1, and the pair
    vectors are an orthonormal basis of P's range."""
    state, basis = target_basis
    test = test_projector(state, basis, direction)
    p = dense.operator(test)
    assert np.abs(p @ p - p).max() <= 1e-9
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1e-9 and w.max() <= 1.0 + 1e-9
    psi = state_vector(state)
    assert abs((psi.conj() @ p @ psi).real - 1.0) <= 1e-10
    assert dense.factor_miss(p, test.pair_vectors()) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(schmidt_vectors), st.integers(1, 3))
def test_embedding_preserves_the_gap(raw, extra):
    """Zero-padding the target into a larger local dimension leaves every
    kind's nu unchanged."""
    state = make_schmidt_state(raw)
    embedded = embed_state(state, state.d + extra)
    for kind in KINDS:
        nu = build_strategy(state, kind).nu
        assert abs(build_strategy(embedded, kind).nu - nu) <= 1e-12, kind


@given(
    st.integers(2, 8).flatmap(schmidt_vectors),
    st.sampled_from(["V", "VI"]),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
def test_fidelity_round_trip(raw, kind, fid, seed):
    """A homogeneous strategy's exact pass rate inverts to the fidelity."""
    state = make_schmidt_state(raw)
    strat = build_strategy(state, kind)
    sigma = random_state_at_fidelity(state, fid, np.random.default_rng(seed))
    estimate = fidelity_from_pass_rate(exact_pass_rate(strat, sigma), strat.beta)
    assert abs(estimate.fidelity - fidelity(sigma, state)) <= 1e-12


@st.composite
def integer_tables(draw):
    """A design table at 2 <= d <= 7: a built-in one, or random exponents
    mod M <= 16 with a contiguous run of n <= M multipliers."""
    d = draw(st.integers(2, 7))
    if draw(st.booleans()):
        if is_prime(d) and draw(st.booleans()):
            return _design(d)
        return _design(max(d, 3), min_design_size(max(d, 3)) + draw(st.integers(0, 3)))
    modulus = draw(st.integers(1, 16))
    exponents = draw(st.lists(st.integers(0, modulus - 1), min_size=d, max_size=d))
    n = draw(st.integers(1, modulus))
    start = draw(st.integers(0, modulus))
    return _Design("random", tuple(exponents), modulus, range(start, start + n))


@settings(max_examples=80, deadline=None)
@given(integer_tables())
def test_table_certificate_matches_the_dense_check(design):
    """The exact certificate's verdict is the dense second-moment check's on
    the derived basis set, and for a table whose multipliers span the full
    period M its value is the dense residual too."""
    residual = design.residual()
    ok, dense_residual = verify_2design(_basis_set(design))
    assert (residual == 0.0) is ok
    if len(design.multipliers) == design.modulus:
        assert abs(residual - dense_residual) <= 1e-12


@st.composite
def corrupted_tables(draw):
    """A built-in table at 3 <= d <= 40, as built, with one exponent
    redrawn, or with its multipliers cut to a shorter run."""
    d = draw(st.integers(3, 40))
    if is_prime(d) and draw(st.booleans()):
        design = _design(d)
    else:
        design = _design(d, min_design_size(d) + draw(st.integers(0, 50)))
    change = draw(st.sampled_from(["none", "exponent", "multipliers"]))
    if change == "exponent":
        e = list(design.exponents)
        e[draw(st.integers(0, d - 1))] = draw(st.integers(0, design.modulus - 1))
        return replace(design, exponents=tuple(e))
    if change == "multipliers":
        n = draw(st.integers(1, len(design.multipliers)))
        return replace(design, multipliers=range(1, 1 + n))
    return design


def sorted_class_residual(design):
    """The certificate as numpy reads it: per shift class, sort g = e -
    e(. - delta) mod M and look for a repeat or a value off g[0] mod the
    period."""
    e, modulus = np.array(design.exponents), design.modulus
    period = modulus // math.gcd(len(design.multipliers), modulus)
    for delta in range(1, e.size):
        g = np.sort((e - np.roll(e, delta)) % modulus)
        if np.any(g[1:] == g[:-1]) or np.any(g % period != g[0] % period):
            return 1.0 / (e.size + 1)
    return 0.0


@settings(max_examples=150, deadline=None)
@given(integer_tables() | corrupted_tables())
def test_table_certificate_matches_its_numpy_form(design):
    """The integer certificate decides every table as the numpy sort does,
    with the same value."""
    assert design.residual() == sorted_class_residual(design)


@LARGE_D
@given(
    large_targets(),
    st.sampled_from(KINDS),
    st.floats(0.01, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_large_d_design_strategy_invariants(target, kind, eps, seed):
    """Omega is held on the shift classes (zero outside them), the tests
    realize it (x^dagger Omega x is the q-weighted sum of each test's pass
    probability on a random unit x, read from the test's factors in
    O(m d^3)), top eigenvalue 1 on the target, beta at its closed form, and
    the worst-case state passing with probability exactly 1 - nu * eps."""
    strat = build_strategy(target, kind)
    state = strat.state
    d = state.d
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    x /= np.linalg.norm(x)
    realized = sum(
        q * float(np.sum(np.abs(test.pair_vectors().conj().T @ x) ** 2))
        if isinstance(test, ConditionalProjectorTest)
        else q * float(test.acceptance.ravel() @ np.abs(x) ** 2)
        for q, test in strat.tests
    )
    a = np.arange(d)
    assert np.array_equal(strat.index, a * d + (a - a[:, None]) % d)
    omega = dense.scattered(strat.index, strat.blocks)
    assert abs((x.conj() @ omega @ x).real - realized) <= ATOL
    psi = state_vector(state)
    assert np.abs(omega @ psi - psi).max() <= ATOL
    w = np.sort(np.linalg.eigvalsh(strat.blocks).ravel())[::-1]
    assert abs(w[0] - 1.0) <= ATOL
    assert abs(w[1] - strat.beta) <= ATOL
    assert abs(strat.beta - closed_form_beta(state, kind, strat.p)) <= ATOL
    sigma = worst_case_state(strat, eps)
    assert abs(exact_pass_rate(strat, sigma) - (1.0 - strat.nu * eps)) <= ATOL
