"""Reference computations that the tests check ``hassett`` against.

Nothing in the package calls these; they live here so that each oracle
reaches its answer by another route than the code it checks, and shares no
code with it.  They use only public ``hassett`` names.

* ``_charpoly`` is the integer Faddeev-LeVerrier recurrence.  ``determinant``,
  ``rational_inverse`` (Cayley-Hamilton) and ``inertia`` (Descartes' rule of
  signs, exact for the real-rooted characteristic polynomial of a symmetric
  matrix) all read off it, so none of them runs the elimination ``_ldl``
  behind ``is_positive_definite``, ``short_vectors`` and ``minimum``.
* ``invariant_factors`` and ``integer_solver`` read the Smith form; the
  solver is the oracle for the column echelon ``span_membership``.
* ``oracle_short_vectors`` walks the whole box that the exact inverse bounds,
  against the Fincke-Pohst enumeration of ``short_vectors``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from hassett import IntMatrix, quadratic_form, smith_normal_form


def from_columns(columns: Sequence[Sequence[int]]) -> IntMatrix:
    """The matrix whose columns are ``columns``."""
    return IntMatrix(zip(*columns))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix product a b."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in matrix product")
    cols = tuple(zip(*b.rows))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows])


def _charpoly(m: IntMatrix) -> tuple[list[int], list[list[int]]]:
    """Faddeev-LeVerrier: coefficients c_0..c_n of det(xI - m), and M_n.

    M_0 = 0, M_k = m M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(m M_k) / k.
    The coefficients are integers, so every division is exact, and
    m M_n = -c_0 I by Cayley-Hamilton.
    """
    if not m.is_square:
        raise ValueError("the characteristic polynomial requires a square matrix")
    n = m.nrows
    a = m.rows
    c = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cols = tuple(zip(*mk))
        mk = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        for i in range(n):
            mk[i][i] += c[n - k + 1]
        trace = sum(x * mk[j][i] for i, row in enumerate(a) for j, x in enumerate(row))
        c[n - k] = -trace // k
    return c, mk


def determinant(m: IntMatrix) -> int:
    """Exact determinant: (-1)^n c_0 of the characteristic polynomial."""
    c, _ = _charpoly(m)
    return c[0] if m.nrows % 2 == 0 else -c[0]


def inertia(g: IntMatrix) -> tuple[int, int, int]:
    """Signs of the eigenvalues of a symmetric matrix: (positive, negative, zero).

    The characteristic polynomial of a symmetric matrix has only real roots,
    so Descartes' rule of signs is exact: the positive count is the number of
    sign changes among its nonzero coefficients, and the zero count is the
    index of its lowest nonzero coefficient.  These are Sylvester inertia,
    not a numerical estimate.
    """
    if not g.is_symmetric():
        raise ValueError("inertia requires a symmetric matrix")
    c, _ = _charpoly(g)
    nzero = next(i for i, x in enumerate(c) if x != 0)
    signs = [x > 0 for x in c if x != 0]
    nplus = sum(s != t for s, t in zip(signs, signs[1:]))
    return nplus, g.nrows - nplus - nzero, nzero


def rational_inverse(g: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse -M_n / c_0 of a nonsingular matrix (``_charpoly``), in lowest terms."""
    c, adj = _charpoly(g)
    if c[0] == 0:
        raise ValueError("singular matrix has no inverse")
    return tuple(tuple(Fraction(-x, c[0]) for x in row) for row in adj)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero Smith normal form diagonal entries, in chain order."""
    _, d, _ = smith_normal_form(m)
    return tuple(d[i][i] for i in range(min(d.nrows, d.ncols)) if d[i][i] != 0)


def integer_solver(
    a: IntMatrix,
) -> tuple[Callable[[Sequence[int]], tuple[int, ...] | None], tuple[int, ...]]:
    """Factor ``a`` once; return ``(solve, invariants)``.

    ``invariants`` is the Smith diagonal of ``a`` (``min(nrows, ncols)``
    entries, zeros included).  ``solve(b)`` is one integer ``x`` with
    ``a x = b``, or ``None`` when ``b`` is not in the image of ``a`` over the
    integers.  A solution that fails ``a x = b`` is a fault of the Smith form
    and raises ``ArithmeticError``.
    """
    u, d, v = smith_normal_form(a)
    nrows, ncols = a.nrows, a.ncols
    invariants = tuple(d[i][i] for i in range(min(nrows, ncols)))

    def solve(b: Sequence[int]) -> tuple[int, ...] | None:
        b = tuple(int(e) for e in b)
        c = u.mul_vector(b)
        z = [0] * ncols
        for i in range(nrows):
            di = invariants[i] if i < len(invariants) else 0
            if di == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % di != 0:
                    return None
                z[i] = c[i] // di
        x = v.mul_vector(z)
        if a.mul_vector(x) != b:
            raise ArithmeticError("Smith form solution does not satisfy a x = b")
        return x

    return solve, invariants


def oracle_short_vectors(g: IntMatrix, c: int) -> list[tuple[int, ...]]:
    """Exhaustive box enumeration of nonzero x with x^T g x <= c.

    Definiteness comes from ``inertia`` and the per-coordinate bounds
    x_i^2 <= c * (g^-1)_ii from ``rational_inverse``, so nothing here runs
    the elimination behind ``short_vectors``.  Output canonicalization
    matches ``short_vectors`` (one representative per +- pair, positive
    first nonzero coordinate, lexicographic order).
    """
    if c < 0:
        raise ValueError("oracle_short_vectors needs a nonnegative bound")
    n = g.nrows
    if inertia(g)[0] != n:
        raise ValueError("oracle_short_vectors requires a positive definite Gram matrix")
    inv = rational_inverse(g)
    bounds = []
    for i in range(n):
        q = c * inv[i][i]
        bounds.append(math.isqrt(q.numerator // q.denominator))
    found = []

    def walk(i: int, x: list[int]) -> None:
        if i == n:
            if any(x) and quadratic_form(g, x) <= c:
                found.append(tuple(x))
            return
        for xi in range(-bounds[i], bounds[i] + 1):
            x.append(xi)
            walk(i + 1, x)
            x.pop()

    walk(0, [])
    canon = set()
    for x in found:
        first = next(v for v in x if v != 0)
        canon.add(x if first > 0 else tuple(-v for v in x))
    return sorted(canon)
