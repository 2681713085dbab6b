"""Sample-complexity and fidelity-estimation formulas.

The number of tests needed to certify infidelity below epsilon at
significance delta is ceil(ln delta / ln(1 - nu*epsilon)) for an i.i.d.
source; for adversarially prepared states the high-precision asymptotic
ln(1/delta) / (beta * epsilon * ln(1/beta)) applies instead, minimized at
beta = 1/e.  For a homogeneous strategy, pass rate and fidelity determine
each other through rate = (1 - beta) F + beta.

The module is also the scalar half of a built-in strategy, with no numpy:
the target's normalized Schmidt coefficients (``_unit_amplitudes``) and
each kind's closed forms (``_closed_form``), checks and distance from the
homogeneous form, gathered into one record (``_strategy_record``) that
``analyze`` prints and ``strategies.build_strategy`` builds from.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import designs
from .errors import (
    DesignMismatchError,
    DimensionMismatchError,
    NegativeCoefficientError,
    OutOfRangeError,
    SeparableStateError,
    Tolerance,
    ZeroVectorError,
    _integer_arg,
    _real_arg,
)

STRATEGY_KINDS = ("I", "II", "III", "IV", "V", "VI")
# support weights below the smallest normal double lose the unit conditional ket
SUPPORT_CUTOFF = sys.float_info.min


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
    real number; ``_check_p`` checks its range, which depends on the kind.
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


def _normalize_kind(kind) -> str:
    label = str(kind).strip().upper()
    if label not in STRATEGY_KINDS:
        raise OutOfRangeError(
            f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}"
        )
    return label


def _unit_amplitudes(amplitudes, d: int | None = None) -> list[float]:
    """Raw non-negative amplitudes, ``d`` of them if given, as Schmidt
    coefficients: sorted in decreasing order and L2-normalized, exact zeros
    kept.  They are first scaled by the power of two that brings the
    largest into [1/2, 1), which is exact, so the square sum neither
    overflows nor underflows and a finite input keeps its bits."""
    c = [float(x) for x in amplitudes]
    d = len(c) if d is None else _integer_arg("local dimension", d, 2)
    if len(c) != d:
        raise DimensionMismatchError(f"expected {d} amplitudes, got {len(c)}")
    if not all(map(math.isfinite, c)):
        raise OutOfRangeError("amplitudes must be finite")
    if any(x < 0.0 for x in c):
        raise NegativeCoefficientError("amplitudes must be >= 0")
    shift = -math.frexp(max(c, default=0.0))[1]
    c = sorted((math.ldexp(x, shift) for x in c), reverse=True)
    norm = math.hypot(*c)
    if norm == 0.0:
        raise ZeroVectorError("amplitudes are all zero")
    _integer_arg("local dimension", d, 2)  # a lone amplitude, after the zero check
    return [x / norm for x in c]


def _two_qubit_amplitudes(theta) -> list[float]:
    """``_unit_amplitudes`` of cos(theta)|00> + sin(theta)|11>, 0 < theta < pi/2."""
    theta = _real_arg("theta", theta, 0.0, math.pi / 2, lo_open=True, hi_open=True)
    return _unit_amplitudes([math.cos(theta), math.sin(theta)])


def _check_p(kind: str, p: float, c0sq: float, c1sq: float) -> None:
    """Refuse a mixing probability outside built-in ``kind``'s range: [0, 1)
    for I-IV; for V and VI [s/(1 + s), 1) to ``Tolerance.SCALAR``
    (``_closed_form``), where the diagonal test's lowest acceptance
    1 - (1/p - 1) s must also stay in [0, 1] to ``Tolerance.SCALAR``, s
    being Pi's largest diagonal entry off |jj> (its highest acceptance is 1,
    on |jj>)."""
    if kind != "V" and kind != "VI":
        if not 0.0 <= p < 1.0:
            raise OutOfRangeError(f"p must be in [0, 1) for kind {kind}, got {p}")
        return
    lowest = _closed_form(kind, c0sq, c1sq)[0]
    if not lowest - Tolerance.SCALAR <= p < 1.0:
        raise OutOfRangeError(
            f"mixing probability p={p} outside [{lowest:.12g}, 1): acceptance "
            "probabilities would leave [0, 1]"
        )
    s = (c0sq + c1sq) / 2.0 if kind == "VI" else c0sq
    if 1.0 - (1.0 / p - 1.0) * s < -Tolerance.SCALAR:
        raise OutOfRangeError("acceptance probabilities must lie in [0, 1]")


def _homogeneity_deviation(kind: str, c: list[float], p: float, beta: float) -> float:
    """Max-norm distance of a built-in strategy's Omega from |Psi><Psi| +
    beta (I - |Psi><Psi|), in O(d) from its sorted coefficients ``c``.

    Omega is d blocks, one per shift class of kets |a, a - delta>
    (``strategies.build_strategy``).  On class 0, the kets |aa>, it is
    (1 - p) c c^T + p diag(h), h_a = 1 where the head test accepts |aa>
    (always for V and VI, on a supported outcome for I-IV), and the model is
    (1 - beta) c c^T + beta I: they differ by (beta - p) c_a c_b, largest at
    c_0 c_1, and by (beta - p) c_a^2 + p h_a - beta on the diagonal.  Off
    class 0 the model is beta I, and Omega is (1 - p) c_delta c_delta^T for
    kind I (entries (1 - p) c_a c_b, diagonal (1 - p) c_k^2 over every k),
    the diagonal (1 - p) c_k^2 for II and III, (1 - p)(c_j^2 + c_k^2)/2
    over j != k for IV, extreme at the two largest and the two smallest c,
    and p for V and VI, whose diagonal test cancels Pi there up to
    rounding (and the clip of a p within ``Tolerance.SCALAR`` below its
    lowest).
    """
    w = 1.0 - p
    homogeneous = kind == "V" or kind == "VI"
    terms = [abs(beta - p) * c[0] * c[1]]
    terms += [
        abs((beta - p) * x * x + (p if homogeneous or x * x > SUPPORT_CUTOFF else 0.0) - beta)
        for x in c
    ]
    if kind in ("I", "II", "III"):
        terms += [abs(x * x * w - beta) for x in c]
    if kind == "I":
        terms.append(c[0] * c[1] * w)
    elif kind == "IV":
        for a, b in ((c[0], c[1]), (c[-2], c[-1])):
            terms.append(abs((a * a + b * b) / 2.0 * w - beta))
    return max(terms)


class _StrategyRecord(NamedTuple):
    """A built-in strategy's scalars (``_strategy_record``): its kind, its
    local dimension d (after kind II's embedding), its mixing probability p
    and the kind's default, beta, the max-norm distance of Omega from the
    homogeneous form (``_homogeneity_deviation``) and the certified design
    (None for kind I)."""

    label: str
    d: int
    p: float
    optimal_p: float
    beta: float
    deviation: float
    design: designs._Design | None


def _strategy_record(kind, coeffs: list[float], p=None, m=None) -> _StrategyRecord:
    """The record of built-in strategy ``kind`` for the target whose Schmidt
    coefficients ``coeffs`` are Python floats, sorted and normalized
    (``_unit_amplitudes``), with no numpy and no operator formed.

    It makes every check of a build, in this order: the kind; a target of
    Schmidt rank >= 2 (c_1^2 above ``SUPPORT_CUTOFF``); no m for kinds I and
    II; kind II's zero-padding into the next prime; p's type; the design's
    dimension and size (``designs._design``); p's range (``_check_p``); the
    design's exact certificate (``designs._Design.residual``); and a gap,
    beta < 1.  p defaults to the kind's default (``_closed_form``).
    """
    kind = _normalize_kind(kind)
    if not coeffs[1] * coeffs[1] > SUPPORT_CUTOFF:
        raise SeparableStateError(
            f"target has Schmidt rank 1 to double precision (c_1 = {coeffs[1]:.3g}); "
            "the standard test alone verifies it"
        )
    if m is not None and kind in ("I", "II"):
        raise OutOfRangeError("the design size m does not apply to kinds I and II")
    d = len(coeffs)
    if kind == "II" and not designs.is_prime(d):
        d = _integer_arg("target dimension", designs.next_prime(d), d, designs._MAX_DIMENSION)
        coeffs = coeffs + [0.0] * (d - len(coeffs))
    c0sq, c1sq = coeffs[0] * coeffs[0], coeffs[1] * coeffs[1]
    _, p, beta = _closed_form(kind, c0sq, c1sq, p)
    # kind II refuses m and has a prime d here: the complete MUB set
    design = None if kind == "I" else designs._design(d, m)
    _check_p(kind, p, c0sq, c1sq)
    residual = 0.0 if design is None else design.residual()
    if residual:
        raise DesignMismatchError(f"design misses the 2-design identity by {residual:.3e}")
    # no gap: kind I where 1 - p rounds to 1, II and III at p = 0 where c_0^2 does
    if not beta < 1.0:
        raise OutOfRangeError(
            f"p = {p} leaves no spectral gap for kind {kind}: beta = {beta:.17g} is not below 1"
        )
    return _StrategyRecord(
        kind, d, p, _closed_form(kind, c0sq, c1sq)[1], beta,
        _homogeneity_deviation(kind, coeffs, p, beta), design,
    )


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
