"""Property tests of conditional tests over random bases (2 <= d <= 8), of
the built strategies at small d, and of the design strategies at large d
(20 <= d <= 32).

A built-in design's exact certificate, read from its integer table, is
checked against the dense second-moment identity on random small tables.

A conditional test is a projector only because its measured basis is
orthonormal, which ``Basis`` certifies and the build does not re-check; the
first property checks that fact on the dense matrix.  At large d, builds take
a fraction of a second, but the dense worst-case state's positivity check
costs an O(d^6) eigensolve, so the "large-d" hypothesis profile runs few
examples.

Every built-in kind forms Omega from its closed form as shift-class blocks,
not from the tests, so the large-d property checks both sides: Omega is
exactly zero outside the shift classes delta = a - b mod d, and the tests
realize it, on a random vector, through their own factors.  The spectrum is
read independently of the package, from the dense Omega's d blocks of size
d x d.
"""

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
from biverify.bases import _Design, _design, is_prime, min_design_size, verify_2design

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
    """P^2 = P with eigenvalues in [0, 1], and <Psi|P|Psi> = 1."""
    state, basis = target_basis
    p = test_projector(state, basis, direction).matrix
    assert np.abs(p @ p - p).max() <= 1e-9
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1e-9 and w.max() <= 1.0 + 1e-9
    psi = state_vector(state)
    assert abs((psi.conj() @ p @ psi).real - 1.0) <= 1e-10


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
    return _Design("random", np.array(exponents), modulus, range(start, start + n))


@settings(max_examples=80, deadline=None)
@given(integer_tables())
def test_table_certificate_matches_the_dense_check(design):
    """The exact certificate's verdict is the dense second-moment check's on
    the derived basis set, and for a table whose multipliers span the full
    period M its value is the dense residual too."""
    residual = design.residual()
    ok, dense = verify_2design(design.basis_set)
    assert (residual == 0.0) is ok
    if len(design.multipliers) == design.modulus:
        assert abs(residual - dense) <= 1e-12


def shift_class_spectrum(omega, d):
    """Eigenvalues of Omega, descending, from its d shift-class blocks; Omega
    must be exactly zero outside them."""
    a = np.arange(d)
    index = np.arange(d * d)
    shift = (index // d - index % d) % d
    assert not omega[shift[:, None] != shift[None, :]].any()
    w = [np.linalg.eigvalsh(omega[np.ix_(k, k)]) for k in (a * d + (a - delta) % d for delta in a)]
    return np.sort(np.concatenate(w))[::-1]


@LARGE_D
@given(
    large_targets(),
    st.sampled_from(KINDS),
    st.floats(0.01, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_large_d_design_strategy_invariants(target, kind, eps, seed):
    """Omega is exactly zero outside the shift classes, the tests realize it
    (x^dagger Omega x is the q-weighted sum of each test's pass probability
    on a random unit x, read from the test's factors in O(m d^3)), top
    eigenvalue 1 on the target, beta at its closed form, and the worst-case
    state passing with probability exactly 1 - nu * eps."""
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
    assert abs((x.conj() @ strat.omega @ x).real - realized) <= ATOL
    psi = state_vector(state)
    assert np.abs(strat.omega @ psi - psi).max() <= ATOL
    w = shift_class_spectrum(strat.omega, d)
    assert abs(w[0] - 1.0) <= ATOL
    assert abs(w[1] - strat.beta) <= ATOL
    assert abs(strat.beta - closed_form_beta(state, kind, strat.p)) <= ATOL
    sigma = worst_case_state(strat, eps)
    assert abs(exact_pass_rate(strat, sigma) - (1.0 - strat.nu * eps)) <= ATOL
