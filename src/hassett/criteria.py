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
K3-admissible.  Write d = 2(3x^2 + 1) with x = 2^k s.  As x is even,
3x^2 + 1 is odd, so 4 ∤ d, and it is 1 (mod 3), so 9 ∤ d.  An odd prime p
dividing 3x^2 + 1 has (3x)^2 = -3 (mod p), so -3 is a square mod p and
p = 1 (mod 3).  ``conjecture_sweep`` therefore never finds a counterexample.
It factors every row with a sieve over the family d = 2(12t^2 + 1).  An odd
prime p divides 12t^2 + 1 iff (6t)^2 = -3 (mod p).  For a cube root of unity
w != 1, (2w + 1)^2 = 4(w^2 + w + 1) - 3 = -3, so the roots are
t = +-(2w + 1)/6 with 6^-1 = (5p + 1)/6 mod p, and they exist iff
p = 1 (mod 3) (Ireland-Rosen, *A Classical Introduction to Modern Number
Theory*, 9.1).  The sieve divides each such p out of its two root classes
and decides each verdict from the resulting factorization with the same
predicate as ``has_associated_k3``; the lemma's conclusion serves only as a
test oracle.

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


def _family_root(p: int) -> int:
    """One root r of 12 t^2 = -1 (mod p) for a prime p = 1 (mod 3); p - r is the other.

    For a cube root of unity w != 1, (2w + 1)^2 = 4(w^2 + w + 1) - 3 = -3,
    so t = (2w + 1)/6 has (6t)^2 = -3.  Such a w is a^((p - 1)/3) for the
    first a >= 2 that is not a cube, and 6^-1 = (5p + 1)/6 as p = 1 (mod 6).
    """
    a, w = 2, 1
    while w == 1:
        w, a = pow(a, (p - 1) // 3, p), a + 1
    return (2 * w + 1) * ((5 * p + 1) // 6) % p


def _sieve_family(count: int) -> tuple[list[int], bytearray]:
    """Factor d_t = 2 n_t, n_t = 12 t^2 + 1, for t = 2 .. count + 1 at once.

    Returns, per row, the residual of n_t after every prime up to
    isqrt(n_last) is divided out, which is 1 or a prime, and a flag that
    stays 1 while ``_k3_allows`` accepts every prime power divided out of
    d_t.  n_t is odd and 1 (mod 3), so 2 divides d_t exactly once and 3
    never.  Only primes p = 1 (mod 3) divide an n_t (see the module
    docstring); each is divided out of the rows in its two root classes
    t = +-(2w + 1)/6 from ``_family_root``.  A row in a class that p does not
    divide raises ArithmeticError.
    """
    rest = [12 * t * t + 1 for t in range(2, count + 2)]
    ok = bytearray([_k3_allows(2, 1)]) * count
    for p in _primes_upto(math.isqrt(12 * (count + 1) ** 2 + 1)):
        if p % 3 != 1:
            continue
        r, allowed = _family_root(p), _k3_allows(p, 1)
        for root in (r, p - r):
            for i in range((root - 2) % p, count, p):
                q, m = divmod(rest[i], p)
                if m:
                    raise ArithmeticError(f"{p} does not divide 12*{i + 2}^2 + 1")
                e = 1
                while q % p == 0:
                    q, e = q // p, e + 1
                rest[i] = q
                if not (allowed if e == 1 else _k3_allows(p, e)):
                    ok[i] = 0
    return rest, ok


def conjecture_sweep(limit: int) -> list[tuple[int, int, int, bool]]:
    """All conjecture-shaped d <= limit with their K3-admissibility verdicts.

    The shaped values are exactly d = 24 t^2 + 2 with t >= 2, because
    6 * 4^k * s^2 + 2 = 6 x^2 + 2 = 24 t^2 + 2 for x = 2^k s = 2t.
    (k, s) is the decomposition with maximal k, which makes s = 2 or s odd:
    k is the 2-adic valuation of x, one less when x is a power of two (then
    s = 2).  Every
    row is factored by ``_sieve_family``, so the verdict is computed, not
    read off the lemma in the module docstring.  Rows are (d, k, s,
    admissible) in ascending d order.  Limits below the smallest shaped
    value (98) give an empty list.
    """
    if limit < 1:
        raise ValueError("sweep limit must be positive")
    count = max(math.isqrt(max(limit - 2, 0) // 24) - 1, 0)
    rest, ok = _sieve_family(count)
    rows = []
    for i in range(count):
        t = i + 2
        k = (t & -t).bit_length()
        s = 2 * t >> k
        if s == 1:
            k, s = k - 1, 2
        admissible = bool(ok[i]) and (rest[i] == 1 or _k3_allows(rest[i], 1))
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

