"""Each tolerance check sits at its stated value: a defect of half the
tolerance is accepted and one of twice the tolerance is refused, with its
error class and message.

The values are written out here, 1e-12 for a scalar that an exact formula
makes 1, 1e-10 for an entry of a matrix identity and 1e-8 for an
eigensolver's top pair, so a change to the package's tolerance table shows
as a failure.
"""

import math

import numpy as np
import pytest

from biverify import (
    Basis,
    DensityOperator,
    RandomizedDiagonalTest,
    SchmidtState,
    WeightedBasisSet,
    assemble_strategy,
    density_operator,
    fourier_basis,
    is_unbiased,
    make_schmidt_state,
    standard_basis,
    standard_test,
    test_projector,
)
from biverify.errors import DesignMismatchError, OutOfRangeError, TopEigenvalueError

S2 = make_schmidt_state([2.0, 1.0])
D = 8
# mostly on |00>, so the target passes with row 0's squared norm
S8 = make_schmidt_state([1.0, 1e-3] + [0.0] * (D - 2))


def _unit_square_sum(defect):
    """Two equal coefficients whose squares sum to 1 + defect."""
    return SchmidtState(2, np.full(2, math.sqrt((1.0 + defect) / 2.0)))


def _long_ket(defect):
    """Ket 0 of squared norm 1 + defect, the Gram matrix otherwise exact."""
    return Basis(2, np.diag([math.sqrt(1.0 + defect), 1.0]))


def _skew_kets(defect):
    """Kets (1, 0) and (defect, 1): the Gram matrix's off-diagonal entry is
    the defect and its diagonal rounds to 1."""
    return Basis(2, [[1.0, defect], [0.0, 1.0]])


def _weights(defect):
    return WeightedBasisSet((standard_basis(2), fourier_basis(2)), [0.5, 0.5 + defect])


def _test_probabilities(defect):
    return assemble_strategy(
        S2, [(0.5, standard_test(S2)), (0.5 + defect, test_projector(S2, fourier_basis(2)))]
    )


def _dense_trace(defect):
    return density_operator(np.diag([0.5 + defect / 2.0, 0.5 + defect / 2.0, 0.0, 0.0]))


def _factored_trace(defect):
    return DensityOperator._factored(4, np.full(4, (1.0 + defect) / 4.0), np.zeros((4, 0), complex))


def _target_pass(defect):
    """F (I + e (J - I)) at d = 8, e = defect / 14: its Gram defect is 2 e,
    within the basis check, and its row 0 has squared norm (1 + 7 e)^2, so
    the target, mostly on |00>, passes with probability about 1 + 14 e."""
    skew = np.eye(D) + defect / (2 * (D - 1)) * (np.ones((D, D)) - np.eye(D))
    return test_projector(S8, Basis(D, fourier_basis(D).vectors @ skew))


def _top_eigenvalue(defect):
    """Kind I with the standard test's acceptance lowered by defect / p on
    every |jj>: the target stays the top eigenvector, at 1 - defect."""
    p = 0.5
    table = np.diag(np.full(2, 1.0 - defect / p))
    return assemble_strategy(
        S2,
        [(p, RandomizedDiagonalTest(table)), (1.0 - p, test_projector(S2, fourier_basis(2)))],
    )


EDGES = {
    "schmidt-norm": (1e-12, _unit_square_sum, OutOfRangeError,
                     "Schmidt coefficients must have unit square sum"),
    "basis-unit-norm": (1e-12, _long_ket, OutOfRangeError, "basis kets must have unit norm"),
    "basis-set-weights": (1e-12, _weights, OutOfRangeError, "weights must sum to 1, got 1.0000"),
    "test-probabilities": (1e-12, _test_probabilities, OutOfRangeError,
                           "test probabilities sum to 1.0000"),
    "basis-orthogonality": (1e-10, _skew_kets, OutOfRangeError,
                            "basis kets must be pairwise orthogonal"),
    "dense-trace": (1e-10, _dense_trace, OutOfRangeError, "trace must be 1, got 1.0000000002"),
    "factored-trace": (1e-10, _factored_trace, OutOfRangeError,
                       "trace must be 1, got 1.0000000002"),
    "target-pass": (1e-10, _target_pass, DesignMismatchError, "target pass probability 1.0000"),
    "top-eigenvalue": (1e-8, _top_eigenvalue, TopEigenvalueError,
                       "top eigenvalue is 0.99999998, expected 1"),
}


@pytest.mark.parametrize("tolerance, make, error, message", EDGES.values(), ids=EDGES.keys())
def test_defect_at_half_the_tolerance_passes_and_at_twice_is_refused(
    tolerance, make, error, message
):
    make(0.5 * tolerance)
    with pytest.raises(error, match=message.replace(".", r"\.")):
        make(2.0 * tolerance)


def test_default_unbiasedness_tolerance():
    """``is_unbiased``'s default tolerance is 1e-10: a rotation whose
    squared overlaps with the standard basis are 1/2 +- 0.5e-10 is unbiased
    with it, and one at 1/2 +- 2e-10 is not."""

    def rotated(defect):
        theta = math.acos(math.sqrt(0.5 + defect))
        c, s = math.cos(theta), math.sin(theta)
        return Basis(2, [[c, -s], [s, c]])

    assert is_unbiased(standard_basis(2), rotated(0.5e-10))
    assert not is_unbiased(standard_basis(2), rotated(2e-10))
