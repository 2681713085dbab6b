"""The built-in 2-designs as integer tables, certified exactly, with no numpy.

Both design families are phase-dressed Fourier bases diag(row) F by their
formulas (Wootters and Fields, 1989; Roy and Scott, 2007): ``_design`` picks
the design for (d, m) and holds its table of integer root-of-unity exponents,
and ``_Design.residual`` decides the 2-design identity from that table in
Python integers.  ``check-design``, ``analyze`` and every strategy build read
it here; ``bases`` forms the table's complex rows, weights and bases with
numpy when a command needs them.  The primality helpers that pick the
design live here too.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import OutOfRangeError, TooFewBasesError, _integer_arg

# max-norm residual up to which the 2-design second-moment identity counts
# as holding
DESIGN_ATOL = 1e-10
# the largest design size m and local dimension d (``_design``)
_MAX_DESIGN_SIZE, _MAX_DIMENSION = math.isqrt(2**63 - 1), 63635
# the largest n ``is_prime`` takes: trial division of a prime near it takes
# 0.1 s (2-core VM), and its cost grows as sqrt(n) above
_MAX_PRIME_CANDIDATE = 2**42


def is_prime(n: int) -> bool:
    """True iff n is prime, for 0 <= n <= 2**42, by trial division."""
    n = _integer_arg("n", n, 0, _MAX_PRIME_CANDIDATE)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n, for n <= 2**40, where trial division takes 0.1 s
    (2-core VM); its cost grows as sqrt(n) above."""
    k = max(_integer_arg("n", n, 0, 2**40), 2)
    while not is_prime(k):
        k += 1
    return k


def min_design_size(d: int) -> int:
    """Smallest number of bases for which the phase-basis design exists."""
    d = _integer_arg("dimension", d, 2)
    return (3 * (d - 1) ** 2 + 3) // 4 + 1


@dataclass(frozen=True, eq=False)
class _Design:
    """A built-in design as its integer table: basis 0 is the standard basis,
    each l in the contiguous ``multipliers`` gives diag(row_l) F, F the
    Fourier basis, row_l[a] = zeta^{l e(a)} with zeta = exp(2 pi i/M), e =
    ``exponents`` and M = ``modulus``.  ``name`` is for ``check-design``."""

    name: str
    exponents: tuple[int, ...]
    modulus: int
    multipliers: range

    def residual(self) -> float:
        """Max-norm residual of the 2-design identity, decided exactly from
        the integer table in O(d^2) time.

        The second moment maps |ab> only into the class delta = a - b mod d.
        Its entry (a, b != a) in class delta != 0, in the kets |a, a-delta>,
        is (w/d) sum_l zeta^{l x}, x = g(a) - g(b), g(a) = e(a) - e(a-delta),
        w the phase weight; the rest matches (I + d|Phi><Phi|)/(d+1) for any
        table.  For n contiguous l the sum vanishes iff x != 0 and n x = 0
        mod M.  So this is 0.0 if every g is injective mod M and constant mod
        M/gcd(n, M), else 1/(d+1), the residual of any failing n = M table.
        One class at a time, g's values mod M go into a set.
        """
        e, modulus = self.exponents, self.modulus
        d = len(e)
        period = modulus // math.gcd(len(self.multipliers), modulus)
        for delta in range(1, d):
            g = set(map(modulus.__rmod__, map(operator.sub, e, e[-delta:] + e[:-delta])))
            if len(g) < d or period > 1 and len({x % period for x in g}) > 1:
                return 1.0 / (d + 1)
        return 0.0


def _design(d: int, m: int | None = None) -> _Design:
    """The built-in design for (d, m): the complete MUB set when d is prime
    and m is None (``bases.prime_mub_set``: e(a) = a^2 mod d, l = 1..d; at
    d = 2, e = (0, 1) mod 4, l = 0, 1), the Roy-Scott design of m bases
    otherwise (``bases.roy_scott_set``: e(a) = C(a, 2) mod m-1, l = 1..m-1, m
    defaulting to ``min_design_size(d)``).  At d = 2 m is refused.  The
    complex row table (``bases._rows``) takes the products l e(a) as int64,
    each factor below m (d for the MUB set), so m is at most
    isqrt(2**63 - 1), and d at most 63635, the largest d whose smallest
    design fits; every basis and embedding takes d up to that bound, where
    one d x d complex table takes 65 GB."""
    d = _integer_arg("dimension", d, 2, _MAX_DIMENSION)
    if m is None and is_prime(d):
        if d == 2:
            return _Design("complete MUB set d=2", (0, 1), 4, range(2))
        return _Design(f"complete MUB set d={d}", tuple(a * a % d for a in range(d)), d,
                       range(1, d + 1))
    if d == 2:
        raise OutOfRangeError(
            "the design size m does not apply at d = 2, which always uses the "
            "complete MUB set"
        )
    bound = min_design_size(d)
    m = bound if m is None else _integer_arg("design size m", m, 1, _MAX_DESIGN_SIZE)
    if m < bound:
        raise TooFewBasesError(f"need at least {bound} bases for d={d}, got {m}")
    return _Design(
        f"phase-basis design d={d} m={m}",
        tuple(a * (a - 1) // 2 % (m - 1) for a in range(d)),
        m - 1,
        range(1, m),
    )
