"""Arithmetic predicates on discriminants and the nonemptiness criterion.

Two arithmetic conditions recur throughout the toolkit:

* condition (*): ``d >= 8`` and ``d = 0 or 2 (mod 6)``, the classical
  nonemptiness and irreducibility condition for a divisor of discriminant d;
* condition (**): ``d = 6*m**2`` or ``d = 6*m**2 + 2`` with ``m >= 2``.
  Products of prime squares over a nonempty multiset are exactly the squares
  ``m**2`` with ``m >= 2``, so (**) is implemented as a perfect-square test.

A divisor admits an associated polarized K3 surface when ``4 ∤ d``,
``9 ∤ d``, and no odd prime ``p = 2 (mod 3)`` divides d.

Every conjecture-shaped d = 6 * 4^k * s^2 + 2 (k >= 1, s >= 2) is
K3-admissible.  Write d = 2(3x^2 + 1) with x = 2^k s.  As x is even,
3x^2 + 1 is odd, so 4 ∤ d, and it is 1 (mod 3), so 9 ∤ d.  An odd prime p
dividing 3x^2 + 1 has (3x)^2 = -3 (mod p), so -3 is a square mod p and
p = 1 (mod 3).  ``conjecture_sweep`` therefore never finds a counterexample;
it still computes every verdict, and the lemma serves as its test oracle.

The lattice-level certification a witness must pass has four checks:
contains h2, positive definite, saturated in the ambient lattice, and no
nonzero vector of norm below 3.  ``criterion_report`` is the one place that
runs them and decides the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import NotPositiveDefinite, minimum
from .linalg import IntMatrix

_TRIAL_LIMIT = 10**6


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed witness set)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """One nontrivial factor of an odd composite n (deterministic schedule)."""
    if n % 2 == 0:
        return 2
    for seed in range(1, 100):
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to factor {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs in increasing order.

    Trial division up to a fixed bound, then Miller-Rabin plus Pollard-Brent
    for any remaining cofactor, so inputs far beyond the CLI's 10**12 cap
    still factor.
    """
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
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _pollard_brent(m)
        stack.extend((g, m // g))
    return sorted(out.items())


def satisfies_star(d: int) -> bool:
    """Condition (*): d >= 8 and d = 0 or 2 (mod 6)."""
    return d >= 8 and d % 6 in (0, 2)


def satisfies_double_star(d: int) -> int | None:
    """Condition (**): the witness m >= 2 with d = 6m^2 or 6m^2 + 2, else None."""
    for shift in (0, 2):
        q, r = divmod(d - shift, 6)
        if r == 0 and q >= 4:
            m = math.isqrt(q)
            if m * m == q:
                return m
    return None


def has_associated_k3(d: int) -> bool:
    """Whether a divisor of discriminant d has an associated polarized K3.

    True iff 4 does not divide d, 9 does not divide d, and no odd prime
    p = 2 (mod 3) divides d.
    """
    if d < 1:
        raise ValueError("discriminant must be positive")
    if d % 4 == 0 or d % 9 == 0:
        return False
    return all(p == 2 or p % 3 != 2 for p, _ in factorize(d))


def conjecture_shape(d: int) -> tuple[int, int] | None:
    """Decompose d as 6 * 4^k * s^2 + 2 with k >= 1 and s >= 2.

    Returns the decomposition with maximal k (equivalently with s = 2 or s odd),
    or None if no such decomposition exists.
    """
    q, r = divmod(d - 2, 6)
    if r != 0 or q <= 0:
        return None
    best: tuple[int, int] | None = None
    k = 1
    while q % 4**k == 0:
        rest = q // 4**k
        s = math.isqrt(rest)
        if s * s == rest and s >= 2:
            best = (k, s)
        k += 1
    return best


def conjecture_sweep(limit: int) -> list[tuple[int, int, int, bool]]:
    """All conjecture-shaped d <= limit with their K3-admissibility verdicts.

    The shaped values are exactly d = 24 t^2 + 2 with t >= 2, because
    6 * 4^k * s^2 + 2 = 24 (2^(k-1) s)^2 + 2, so one ascending loop over t
    visits each once; (k, s) is the decomposition ``conjecture_shape``
    returns.  Rows are (d, k, s, admissible) in ascending d order.  Limits
    below the smallest shaped value (98) give an empty list.
    """
    if limit < 1:
        raise ValueError("sweep limit must be positive")
    rows = []
    t = 2
    while 24 * t * t + 2 <= limit:
        d = 24 * t * t + 2
        k, s = conjecture_shape(d)
        rows.append((d, k, s, has_associated_k3(d)))
        t += 1
    return rows


@dataclass(frozen=True)
class DiscriminantReport:
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
    if d < 1:
        raise ValueError("discriminant must be positive")
    witness = satisfies_double_star(d)
    return DiscriminantReport(
        d=d,
        star=satisfies_star(d),
        double_star=witness is not None,
        double_star_witness=witness,
        k3_admissible=has_associated_k3(d),
        factorization=tuple(factorize(d)),
    )


@dataclass(frozen=True)
class CriterionReport:
    """Verdicts of the four lattice checks certifying a nonempty intersection."""

    contains_h_squared: bool
    positive_definite: bool
    saturated: bool
    minimum_norm: int | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "containsHSquared": self.contains_h_squared,
            "positiveDefinite": self.positive_definite,
            "saturated": self.saturated,
            "minimumNorm": self.minimum_norm,
            "pass": self.passed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CriterionReport":
        return cls(
            contains_h_squared=bool(data["containsHSquared"]),
            positive_definite=bool(data["positiveDefinite"]),
            saturated=bool(data["saturated"]),
            minimum_norm=None if data["minimumNorm"] is None else int(data["minimumNorm"]),
            passed=bool(data["pass"]),
        )


def criterion_report(
    gram: IntMatrix, invariants: tuple[int, ...], has_h: bool
) -> CriterionReport:
    """Run the four lattice checks on a witness of k basis vectors.

    ``gram`` is its k x k Gram matrix, ``invariants`` the Smith diagonal of
    its 23 x k coordinate matrix (saturated iff there are k entries and all
    are 1), and ``has_h`` whether h2 is an integer combination of the basis.
    An indefinite Gram is reported (positive_definite False, minimum
    omitted), never raised.  The elimination inside ``minimum`` decides
    definiteness, so the Gram is eliminated once.
    """
    try:
        min_norm: int | None = minimum(gram)
    except NotPositiveDefinite:
        min_norm = None
    pd = min_norm is not None
    saturated = len(invariants) == gram.nrows and all(x == 1 for x in invariants)
    return CriterionReport(
        contains_h_squared=has_h,
        positive_definite=pd,
        saturated=saturated,
        minimum_norm=min_norm,
        passed=has_h and pd and saturated and min_norm is not None and min_norm >= 3,
    )
