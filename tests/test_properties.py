"""Property tests of the design strategies at large d (20 <= d <= 32).

Builds take a fraction of a second there, but the dense worst-case state
costs an O(d^6) eigensolve, so the "large-d" hypothesis profile runs few
examples.  The spectrum is read independently of the package: Omega must
vanish outside the shift classes delta = a - b mod d, and then its
eigenvalues are those of its d blocks of size d x d.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biverify import (
    build_strategy,
    closed_form_beta,
    exact_pass_rate,
    make_schmidt_state,
    state_vector,
    worst_case_state,
)

settings.register_profile("large-d", max_examples=3, deadline=None)
LARGE_D = settings.get_profile("large-d")
ATOL = 1e-10


@st.composite
def large_targets(draw):
    """Random Schmidt vectors at 20 <= d <= 32, some with a zero tail (kind
    II then embeds a composite d into the next prime) or a degenerate top
    pair."""
    d = draw(st.integers(20, 32))
    raw = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)), reverse=True)
    zeros = draw(st.integers(0, d - 2))
    raw = raw[: d - zeros] + [0.0] * zeros
    if draw(st.booleans()):
        raw[1] = raw[0]
    return make_schmidt_state(raw)


def shift_class_spectrum(omega, d):
    """Eigenvalues of Omega, descending, from its d shift-class blocks; Omega
    must vanish outside them."""
    a = np.arange(d)
    index = np.arange(d * d)
    shift = (index // d - index % d) % d
    assert np.abs(omega[shift[:, None] != shift[None, :]]).max(initial=0.0) <= 1e-13
    w = [np.linalg.eigvalsh(omega[np.ix_(k, k)]) for k in (a * d + (a - delta) % d for delta in a)]
    return np.sort(np.concatenate(w))[::-1]


@LARGE_D
@given(
    large_targets(),
    st.sampled_from(["II", "III", "IV", "V", "VI"]),
    st.floats(0.01, 0.5),
)
def test_large_d_design_strategy_invariants(target, kind, eps):
    """Top eigenvalue 1 on the target, beta at its closed form, and the
    worst-case state passing with probability exactly 1 - nu * eps."""
    strat = build_strategy(target, kind)
    state = strat.state
    psi = state_vector(state)
    assert np.abs(strat.omega @ psi - psi).max() <= ATOL
    w = shift_class_spectrum(strat.omega, state.d)
    assert abs(w[0] - 1.0) <= ATOL
    assert abs(w[1] - strat.beta) <= ATOL
    assert abs(strat.beta - closed_form_beta(state, kind, strat.p)) <= ATOL
    sigma = worst_case_state(state, strat, eps)
    assert abs(exact_pass_rate(strat, sigma) - (1.0 - strat.nu * eps)) <= ATOL
