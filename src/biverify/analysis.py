"""Sample-complexity and fidelity-estimation formulas.

The number of tests needed to certify infidelity below epsilon at
significance delta is ceil(ln delta / ln(1 - nu*epsilon)) for an i.i.d.
source; for adversarially prepared states the high-precision asymptotic
ln(1/delta) / (beta * epsilon * ln(1/beta)) applies instead, minimized at
beta = 1/e.  For a homogeneous strategy, pass rate and fidelity determine
each other through rate = (1 - beta) F + beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bases import _integer_arg
from .errors import OutOfRangeError


def _check_unit_interval(name: str, value: float, lo_open=True, hi_open=True) -> float:
    value = float(value)
    lo_ok = value > 0.0 if lo_open else value >= 0.0
    hi_ok = value < 1.0 if hi_open else value <= 1.0
    if not (lo_ok and hi_ok):
        lo = "(" if lo_open else "["
        hi = ")" if hi_open else "]"
        raise OutOfRangeError(f"{name} must be in {lo}0, 1{hi}, got {value}")
    return value


@dataclass(frozen=True)
class VerificationBudget:
    """A verification plan: infidelity threshold, significance, test count."""

    epsilon: float
    delta: float
    n_tests: int

    def __post_init__(self):
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        object.__setattr__(self, "n_tests", _integer_arg("n_tests", self.n_tests, 1))

    @classmethod
    def plan(cls, nu: float, epsilon: float, delta: float) -> "VerificationBudget":
        """Budget sized for a strategy with spectral gap nu (i.i.d. source)."""
        return cls(epsilon=epsilon, delta=delta, n_tests=tests_needed(nu, epsilon, delta))


def tests_needed(nu: float, epsilon: float, delta: float) -> int:
    """Number of tests for an i.i.d. source: ceil(ln delta / ln(1 - nu*eps))."""
    nu = _check_unit_interval("nu", nu, hi_open=False)
    epsilon = _check_unit_interval("epsilon", epsilon)
    delta = _check_unit_interval("delta", delta)
    if nu * epsilon >= 1.0:
        raise OutOfRangeError("nu * epsilon must be below 1")
    if 1.0 - nu * epsilon == 1.0:
        raise OutOfRangeError(f"1 - nu*epsilon rounds to 1 at nu*epsilon = {nu * epsilon:.3g}")
    return math.ceil(math.log(delta) / math.log(1.0 - nu * epsilon))


def tests_needed_adversarial(beta: float, epsilon: float, delta: float) -> float:
    """Asymptotic number of tests against an adversarial source.

    Returns ln(1/delta) / (beta * epsilon * ln(1/beta)) as a real number (the
    exact finite-size count is not available at this level of analysis).  The
    formula is singular at beta = 0, which is excluded.
    """
    beta = _check_unit_interval("beta", beta)
    epsilon = _check_unit_interval("epsilon", epsilon)
    delta = _check_unit_interval("delta", delta)
    count = math.log(1.0 / delta) / (beta * epsilon * math.log(1.0 / beta))
    if not 0.0 < count < math.inf:
        raise OutOfRangeError(f"adversarial test count {count} is not finite and positive")
    return count


def plm_nu(theta: float) -> float:
    """Spectral gap 1/(2 + cos(theta) sin(theta)) of the reference nonadaptive
    two-qubit strategy used for comparison, for theta in (0, pi/4]."""
    if not 0.0 < theta <= math.pi / 4:
        raise OutOfRangeError(f"theta must be in (0, pi/4], got {theta}")
    return 1.0 / (2.0 + math.cos(theta) * math.sin(theta))


def worst_case_pass_prob(nu: float, epsilon: float) -> float:
    """Largest average pass probability over states of fidelity <= 1 - epsilon."""
    nu = _check_unit_interval("nu", nu, lo_open=False, hi_open=False)
    epsilon = _check_unit_interval("epsilon", epsilon, lo_open=False, hi_open=False)
    return 1.0 - nu * epsilon


class FidelityFromRate(NamedTuple):
    """Inverted fidelity estimate; ``physical`` flags rate within [beta, 1]."""

    fidelity: float
    physical: bool


def fidelity_from_pass_rate(rate: float, beta: float) -> FidelityFromRate:
    """Invert rate = (1 - beta) F + beta.

    Empirical rates outside [beta, 1] are allowed; the estimate is returned
    unclamped (consumers need the raw value for unbiasedness) with
    ``physical=False``.
    """
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise OutOfRangeError(f"beta must be in [0, 1), got {beta}")
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise OutOfRangeError(f"pass rate must be in [0, 1], got {rate}")
    fid = (rate - beta) / (1.0 - beta)
    return FidelityFromRate(fidelity=fid, physical=beta <= rate <= 1.0)


class Figure1Row(NamedTuple):
    """Required test counts for the two-qubit target cos(theta)|00> + sin(theta)|11>."""

    theta: float
    n_plm: int
    n_i: int
    n_ii: int
    n_iv: int
    n_v: float
    n_vi: float


def figure1_table(theta_grid, epsilon: float, delta: float) -> list[Figure1Row]:
    """Test counts versus theta for the built-in two-qubit strategies.

    Kinds PLM/I/II/IV use the i.i.d. count with their closed-form gaps; V and
    VI use the adversarial asymptotic at beta = max(1/e, cos^2/(1+cos^2)) and
    beta = 1/e respectively.
    """
    rows = []
    for theta in theta_grid:
        theta = float(theta)
        if not 0.0 < theta <= math.pi / 4:
            raise OutOfRangeError(f"theta must be in (0, pi/4], got {theta}")
        c2 = math.cos(theta) ** 2
        beta_v = max(1.0 / math.e, c2 / (1.0 + c2))
        rows.append(
            Figure1Row(
                theta=theta,
                n_plm=tests_needed(plm_nu(theta), epsilon, delta),
                n_i=tests_needed(0.5, epsilon, delta),
                n_ii=tests_needed(1.0 / (1.0 + c2), epsilon, delta),
                n_iv=tests_needed(2.0 / 3.0, epsilon, delta),
                n_v=tests_needed_adversarial(beta_v, epsilon, delta),
                n_vi=tests_needed_adversarial(1.0 / math.e, epsilon, delta),
            )
        )
    return rows


def figure1_grid(grid_size: int) -> list[float]:
    """Uniform grid over (0, pi/4] with the endpoint included."""
    grid_size = _integer_arg("grid size", grid_size, 1)
    return [(i + 1) * math.pi / 4 / grid_size for i in range(grid_size)]
