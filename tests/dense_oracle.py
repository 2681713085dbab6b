"""Dense d^2 x d^2 operators written from the paper's formulas alone, the
one reference the tests check the package's factored operators against.

A conditional test is sum_j |u_j><u_j| x |v_j><v_j| (factors swapped for
B -> A) over its measured basis u_j, with each conditional ket recomputed
from the target's Schmidt coefficients c as v_j = c o conj(u_j) / sqrt(w_j),
w_j = sum_k c_k^2 |u_kj|^2; outcome j counts only when w_j is above
``SUPPORT_CUTOFF``, the package's stated support rule.  A diagonal test is
its acceptance table on the diagonal.  Pi is |Psi><Psi| + I x rho_B -
sum_k c_k^2 |kk><kk| (rho_A x I for B -> A), and Omega is the q-weighted sum
of the tests.  Only the records' public fields are read (a test's direction,
measured basis, target and table, a basis set's bases and weights, a
strategy's index, blocks, beta and target), so the oracle shares no helper
with the code it checks.
"""

import numpy as np

from biverify import ConditionalProjectorTest, Direction, RandomizedDiagonalTest
from biverify.states import SUPPORT_CUTOFF


def outcome_kets(test):
    """For each outcome j of a conditional test, u_j and the conditional ket
    v_j, None for an outcome whose weight w_j is not above
    ``SUPPORT_CUTOFF``."""
    c = test.state.coeffs
    for u in test.measured_basis.vectors.T:
        v = c * u.conj()
        weight = float(np.vdot(v, v).real)
        yield u, (v / np.sqrt(weight) if weight > SUPPORT_CUTOFF else None)


def _pair(test, first, second):
    """first x second, swapped for B -> A."""
    return np.kron(first, second) if test.direction is Direction.A_TO_B else np.kron(second, first)


def operator(test):
    """The test's operator: the sum of its outcome terms |u_j><u_j| x
    |v_j><v_j| (swapped for B -> A), or the diagonal test's table on the
    diagonal."""
    if isinstance(test, RandomizedDiagonalTest):
        return np.diag(test.acceptance.ravel()).astype(complex)
    return sum(
        np.outer(x, x.conj())
        for x in (_pair(test, u, v) for u, v in outcome_kets(test) if v is not None)
    )


def pass_probability(test, rho):
    """The test's pass probability on the density matrix ``rho``, outcome
    by outcome: sum_j tr[(M_j x |v_j><v_j|) rho] = <u_j v_j|rho|u_j v_j>
    (M_j = |u_j><u_j| the measuring party's projector; |v_j u_j> for
    B -> A) over the outcomes with a term; for a diagonal test, the
    diagonal of ``rho`` against the table."""
    if isinstance(test, RandomizedDiagonalTest):
        return float(np.diag(rho).real @ test.acceptance.ravel())
    return sum(
        float(np.vdot(x, rho @ x).real)
        for x in (_pair(test, u, v) for u, v in outcome_kets(test) if v is not None)
    )


def pi(state, direction=Direction.A_TO_B):
    """Pi = |Psi><Psi| + I x rho_B - sum_k c_k^2 |kk><kk| for A -> B, with
    rho_A x I in place of I x rho_B for B -> A; |Psi> = sum_k c_k |kk> and
    rho_A = rho_B = diag(c^2)."""
    c = state.coeffs
    d = len(c)
    psi = np.zeros(d * d)
    psi[:: d + 1] = c
    rho = np.diag(c**2)
    local = np.kron(np.eye(d), rho) if direction is Direction.A_TO_B else np.kron(rho, np.eye(d))
    return np.outer(psi, psi) + local - np.diag(psi**2)


def mixture(tests):
    """Omega = sum_l q_l P_l over ``(q_l, test)`` pairs."""
    return sum(q * operator(test) for q, test in tests)


def scattered(index, blocks):
    """The dense Omega of a strategy held as ``blocks[i]`` on the |jk>
    indices ``index[i]``, zero between the index sets."""
    out = np.zeros((index.size, index.size), dtype=complex)
    for idx, block in zip(index, blocks):
        out[np.ix_(idx, idx)] = block
    return out


def homogeneity_miss(strategy):
    """Max-norm distance of a strategy's dense Omega from the homogeneous
    |Psi><Psi| + beta (I - |Psi><Psi|), |Psi> = sum_k c_k |kk>."""
    c = strategy.state.coeffs
    d = len(c)
    psi = np.zeros(d * d)
    psi[:: d + 1] = c
    proj = np.outer(psi, psi)
    model = proj + strategy.beta * (np.eye(d * d) - proj)
    return float(np.abs(scattered(strategy.index, strategy.blocks) - model).max())


def design_average(state, basis_set, direction=Direction.A_TO_B):
    """sum_{l>=1} w_l P_l over a weighted basis set's bases after the first
    (the standard one), the tests made for ``state`` in ``direction``."""
    return mixture(
        (w, ConditionalProjectorTest(direction, b, state))
        for b, w in zip(basis_set.bases[1:], basis_set.weights[1:])
    )


def design_miss(state, basis_set, direction=Direction.A_TO_B):
    """Max-norm distance of the design average from d/(d+1) Pi."""
    average = design_average(state, basis_set, direction)
    return float(np.abs(average - pi(state, direction) * state.d / (state.d + 1)).max())


def factor_miss(m, x):
    """How far the columns of ``x`` are from an orthonormal basis of the
    range of the positive operator ``m``, read without forming x x^dagger:
    if x^dagger x = I_r, x^dagger m x = I_r and tr m = r, then m vanishes
    off span(x) and m = x x^dagger."""
    r = x.shape[1]
    return max(
        np.abs(x.conj().T @ x - np.eye(r)).max(),
        np.abs(x.conj().T @ m @ x - np.eye(r)).max(),
        abs(np.trace(m).real - r),
    )
