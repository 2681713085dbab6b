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

from .errors import OutOfRangeError, _integer_arg, _real_arg


@dataclass(frozen=True)
class VerificationBudget:
    """A verification plan: infidelity threshold, significance, test count."""

    epsilon: float
    delta: float
    n_tests: int

    def __post_init__(self):
        epsilon, delta = _error_bounds(self.epsilon, self.delta)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "n_tests", _integer_arg("n_tests", self.n_tests, 1))

    @classmethod
    def plan(cls, nu: float, epsilon: float, delta: float) -> "VerificationBudget":
        """Budget sized for a strategy with spectral gap nu (i.i.d. source)."""
        return cls(epsilon=epsilon, delta=delta, n_tests=tests_needed(nu, epsilon, delta))


def _error_bounds(epsilon, delta) -> tuple[float, float]:
    """``epsilon`` and ``delta`` as floats, each checked to lie in (0, 1)."""
    return (
        _real_arg("epsilon", epsilon, 0.0, 1.0, lo_open=True, hi_open=True),
        _real_arg("delta", delta, 0.0, 1.0, lo_open=True, hi_open=True),
    )


def tests_needed(nu: float, epsilon: float, delta: float) -> int:
    """Number of tests for an i.i.d. source: ceil(ln delta / ln(1 - nu*eps))."""
    nu = _real_arg("nu", nu, 0.0, 1.0, lo_open=True)
    return _iid_count(nu, *_error_bounds(epsilon, delta))


def _iid_count(nu: float, epsilon: float, delta: float) -> int:
    """``tests_needed`` on checked arguments."""
    if 1.0 - nu * epsilon == 1.0:
        raise OutOfRangeError(f"1 - nu*epsilon rounds to 1 at nu*epsilon = {nu * epsilon:.3g}")
    return math.ceil(math.log(delta) / math.log(1.0 - nu * epsilon))


def tests_needed_adversarial(beta: float, epsilon: float, delta: float) -> float:
    """Asymptotic number of tests against an adversarial source.

    Returns ln(1/delta) / (beta * epsilon * ln(1/beta)) as a real number (the
    exact finite-size count is not available at this level of analysis).  The
    formula is singular at beta = 0, which is excluded.
    """
    beta = _real_arg("beta", beta, 0.0, 1.0, lo_open=True, hi_open=True)
    return _adversarial_count(beta, *_error_bounds(epsilon, delta))


def _adversarial_count(beta: float, epsilon: float, delta: float) -> float:
    """``tests_needed_adversarial`` on checked arguments."""
    denominator = beta * epsilon * math.log(1.0 / beta)  # may underflow to 0
    count = math.log(1.0 / delta) / denominator if denominator else math.inf
    if not 0.0 < count < math.inf:
        raise OutOfRangeError(f"adversarial test count {count} is not finite and positive")
    return count


def plm_nu(theta: float) -> float:
    """Spectral gap 1/(2 + cos(theta) sin(theta)) of the reference nonadaptive
    two-qubit strategy used for comparison, for theta in (0, pi/4]."""
    theta = _real_arg("theta", theta, 0.0, math.pi / 4, lo_open=True)
    return 1.0 / (2.0 + math.cos(theta) * math.sin(theta))


def worst_case_pass_prob(nu: float, epsilon: float) -> float:
    """Largest average pass probability over states of fidelity <= 1 - epsilon."""
    nu = _real_arg("nu", nu, 0.0, 1.0)
    epsilon = _real_arg("epsilon", epsilon, 0.0, 1.0)
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
    beta = _real_arg("beta", beta, 0.0, 1.0, hi_open=True)
    rate = _real_arg("pass rate", rate, 0.0, 1.0)
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


def _closed_form(kind: str, c0sq: float, c1sq: float, p=None) -> tuple[float, float, float]:
    """(s/(1 + s), p, beta) of a built-in strategy kind from its target's
    c_0^2 and c_1^2, with p defaulting to the kind's default.

    s, the largest entry of Pi's diagonal off |jj>, is c_0^2, or the mean of
    c_0^2 and c_1^2 for the two-way kinds IV and VI.  s/(1 + s) is the
    optimal p of II-IV and the lowest p that keeps V and VI's acceptance
    table in [0, 1].  The default p is 1/2 for I, max(1/e, s/(1 + s)) for V
    and 1/e for VI.  beta, the second eigenvalue, is max(p, 1 - p) for I,
    max(p, (1 - p) s) for II-IV and p for V and VI.  A given p must be a
    real number; the caller checks its range, which depends on the kind.
    """
    two_way = kind == "IV" or kind == "VI"
    lowest = (c0sq + c1sq) / (2.0 + c0sq + c1sq) if two_way else c0sq / (1.0 + c0sq)
    if p is not None:
        p = _real_arg("mixing probability p", p)
    elif kind == "I":
        p = 0.5
    elif kind == "V" or kind == "VI":
        p = 1.0 / math.e if kind == "VI" else max(1.0 / math.e, lowest)
    else:
        p = lowest
    if kind == "V" or kind == "VI":
        return lowest, p, p
    if kind == "I":
        return lowest, p, max(p, 1.0 - p)
    return lowest, p, max(p, (1.0 - p) * (c0sq + c1sq) / 2 if two_way else (1.0 - p) * c0sq)


def figure1_table(theta_grid, epsilon: float, delta: float) -> list[Figure1Row]:
    """Test counts versus theta for the built-in two-qubit strategies.

    Each kind's beta is its closed form (``_closed_form``) at its default p,
    with c_0^2 = cos^2 theta and c_1^2 = sin^2 theta.  Kinds I/II/IV use the
    i.i.d. count at nu = 1 - beta, as does PLM at its own gap; V and VI use
    the adversarial asymptotic at beta.
    """
    epsilon, delta = _error_bounds(epsilon, delta)
    rows = []
    for theta in theta_grid:
        theta = _real_arg("theta", theta, 0.0, math.pi / 4, lo_open=True)
        c0sq, c1sq = math.cos(theta) ** 2, math.sin(theta) ** 2
        rows.append(
            Figure1Row(
                theta=theta,
                n_plm=_iid_count(plm_nu(theta), epsilon, delta),
                n_i=_iid_count(1.0 - _closed_form("I", c0sq, c1sq)[2], epsilon, delta),
                n_ii=_iid_count(1.0 - _closed_form("II", c0sq, c1sq)[2], epsilon, delta),
                n_iv=_iid_count(1.0 - _closed_form("IV", c0sq, c1sq)[2], epsilon, delta),
                n_v=_adversarial_count(_closed_form("V", c0sq, c1sq)[2], epsilon, delta),
                n_vi=_adversarial_count(_closed_form("VI", c0sq, c1sq)[2], epsilon, delta),
            )
        )
    return rows


def figure1_grid(grid_size: int) -> list[float]:
    """Uniform grid over (0, pi/4] with the endpoint included, of at most
    10**6 points: ``figure1_table`` takes about 12 us and 340 bytes a row
    (2-core VM), and a larger grid shows no more of figure 1."""
    grid_size = _integer_arg("grid size", grid_size, 1, 10**6)
    return [(i + 1) * math.pi / 4 / grid_size for i in range(grid_size)]
