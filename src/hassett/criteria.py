"""Arithmetic predicates on discriminants.

Two arithmetic conditions recur throughout the toolkit:

* condition (*): ``d >= 8`` and ``d = 0 or 2 (mod 6)``, the classical
  nonemptiness and irreducibility condition for a divisor of discriminant d;
* condition (**): ``d = 6*m**2`` or ``d = 6*m**2 + 2`` with ``m >= 2``.
  Products of prime squares over a nonempty multiset are exactly the squares
  ``m**2`` with ``m >= 2``, so (**) is implemented as a perfect-square test.

A divisor admits an associated polarized K3 surface when ``4 ∤ d``,
``9 ∤ d``, and no odd prime ``p = 2 (mod 3)`` divides d.  ``factorize``
decides this by trial division alone, complete for d <= ``MAX_D`` = 10**12.

Every conjecture-shaped d = 6 * 4^k * s^2 + 2 (k >= 1, s >= 2) is
K3-admissible.  Write d = 2 n with n = 3x^2 + 1 and x = 2^k s, so
n = 12t^2 + 1 for x = 2t, and n = 1 (mod 12): 2 divides d once and 3 never.
A prime p >= 5 divides 12t^2 + 1 iff (6t)^2 = -3 (mod p), so only when -3
is a square mod p.  For every prime p = 2 (mod 3) up to B = isqrt(n) of its
last row, ``conjecture_sweep`` checks Euler's criterion (Ireland-Rosen, *A
Classical Introduction to Modern Number Theory*, ch. 5): (-3)^((p-1)/2) = -1
(mod p), so -3 is no square and p divides no row.  Then each row's
prime factors up to B are 1 (mod 3), their product m is 1 (mod 3), and n/m,
which is 1 or the one prime factor above B, is 1 (mod 3) too.  So
``_k3_allows`` admits every prime power of every row.  A check that fails
raises ``ArithmeticError`` naming its prime instead of giving a verdict.

This module is the arithmetic of d alone and imports no other part of the
package; the lattice checks a witness must pass live in ``verifier``.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import index
from typing import NamedTuple

MAX_D = 10**12  # the largest discriminant and sweep limit; factorize is complete up to it
_TRIAL_LIMIT = math.isqrt(MAX_D)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs in increasing order.

    Trial division by 2, 3 and every 6k +- 1 up to ``_TRIAL_LIMIT``, stopped
    once f^2 exceeds what is left: the remainder is then 1 or a proven prime,
    so every n <= MAX_D factors completely.  Otherwise ``ValueError`` names
    the cofactor left; no factor is returned that has not been proved prime.
    """
    n = index(n)
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= _TRIAL_LIMIT:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if f * f <= n:
        raise ValueError(f"cofactor {n} has no prime factor below {f} and is not proved prime")
    if n > 1:
        out[n] = 1
    return sorted(out.items())


def satisfies_star(d: int) -> bool:
    """Condition (*): d >= 8 and d = 0 or 2 (mod 6)."""
    d = index(d)
    return d >= 8 and d % 6 in (0, 2)


def satisfies_double_star(d: int) -> int | None:
    """Condition (**): the witness m >= 2 with d = 6m^2 or 6m^2 + 2, else None."""
    d = index(d)
    for shift in (0, 2):
        q, r = divmod(d - shift, 6)
        if r == 0 and q >= 4:
            m = math.isqrt(q)
            if m * m == q:
                return m
    return None


def _k3_allows(p: int, e: int) -> bool:
    """Whether p^e, exactly dividing d, permits an associated K3.

    2 and 3 may divide d only once; no other prime p = 2 (mod 3) may divide
    it.  d is K3-admissible iff every prime power of its factorization is
    allowed.
    """
    return e == 1 if p in (2, 3) else p % 3 != 2


def has_associated_k3(d: int) -> bool:
    """Whether a divisor of discriminant d has an associated polarized K3.

    True iff 4 does not divide d, 9 does not divide d, and no odd prime
    p = 2 (mod 3) divides d.  Decided for every d <= MAX_D; ``factorize``
    raises ``ValueError`` on a d it cannot finish.
    """
    return discriminant_report(d).k3_admissible


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n (sieve of Eratosthenes)."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), flags))


def _divides_no_row(p: int) -> bool:
    """Whether Euler's criterion proves the prime p >= 5 divides no 12 t^2 + 1.

    True iff (-3)^((p - 1)/2) = -1 (mod p), that is, -3 is not a square mod
    p, so (6t)^2 = -3 has no root.
    """
    return pow(p - 3, (p - 1) // 2, p) == p - 1


def _certify_family(count: int) -> list[int]:
    """The primes proved to divide no n_t = 12 t^2 + 1, t = 2 .. count + 1.

    These are all primes p = 2 (mod 3) with 5 <= p <= isqrt(n_last), each
    checked by ``_divides_no_row``; a prime that fails raises
    ArithmeticError.  With them excluded every prime factor of every n_t is
    1 (mod 3) (see the module docstring).
    """
    bound = math.isqrt(12 * (count + 1) ** 2 + 1)
    primes = [p for p in _primes_upto(bound)[2:] if p % 3 == 2]
    for p in primes:
        if not _divides_no_row(p):
            raise ArithmeticError(f"-3 is a square mod {p}, so {p} may divide some 12t^2 + 1")
    return primes


def conjecture_sweep(limit: int) -> list[tuple[int, int, int, bool]]:
    """All conjecture-shaped d <= limit with their K3-admissibility verdicts.

    The shaped values are exactly d = 24 t^2 + 2 with t >= 2, because
    6 * 4^k * s^2 + 2 = 6 x^2 + 2 = 24 t^2 + 2 for x = 2^k s = 2t.
    (k, s) is the decomposition with maximal k, which makes s = 2 or s odd:
    k is the 2-adic valuation of x, one less when x is a power of two (then
    s = 2).  The verdicts rest on ``_certify_family``, which checks every
    prime that could make a row inadmissible and raises ArithmeticError,
    returning no row, when one check fails.  Rows are (d, k, s, admissible)
    in ascending d order.  Limits below the smallest shaped value (98) give
    an empty list.
    """
    if limit < 1:
        raise ValueError("sweep limit must be positive")
    count = math.isqrt(max(limit - 2, 0) // 24) - 1
    _certify_family(count)
    # d = 2 n_t: 2 divides it once, and every prime factor of n_t is
    # 1 (mod 3), which _k3_allows always admits.
    admissible = _k3_allows(2, 1)
    rows = []
    for t in range(2, count + 2):
        k = (t & -t).bit_length()
        s = 2 * t >> k
        if s == 1:
            k, s = k - 1, 2
        rows.append((24 * t * t + 2, k, s, admissible))
    return rows


class DiscriminantReport(NamedTuple):
    """Arithmetic classification of one discriminant."""

    d: int
    star: bool
    double_star: bool
    double_star_witness: int | None
    k3_admissible: bool
    factorization: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "star": self.star,
            "doubleStar": self.double_star,
            "doubleStarWitness": self.double_star_witness,
            "k3Admissible": self.k3_admissible,
            "factorization": [list(pe) for pe in self.factorization],
        }


def discriminant_report(d: int) -> DiscriminantReport:
    d = index(d)
    if d < 1:
        raise ValueError("discriminant must be positive")
    witness = satisfies_double_star(d)
    factors = tuple(factorize(d))
    return DiscriminantReport(
        d=d,
        star=satisfies_star(d),
        double_star=witness is not None,
        double_star_witness=witness,
        k3_admissible=all(_k3_allows(p, e) for p, e in factors),
        factorization=factors,
    )

