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
* ``bare_ideal_gram`` pairs the bare slot generators with ``gram_of``,
  against the closed form ``ideal_gram`` reads off its base-pairing table.
* ``perturbations_by_cube`` and ``i3_parts_by_cube`` walk the whole I3 cube
  with the ambient form, against the cached box that
  ``constructions._generators`` and ``constructions._i3_parts`` filter.
* ``draw_y_by_sample`` and ``four_squares_by_randint`` make the GOAL draws
  through ``choice``, ``sample`` and ``randint``, against the ``getrandbits``
  stream that ``constructions._draw_y`` reads.
* ``conjecture_shape`` tries every k in turn, against the bit arithmetic
  that gives ``criteria.conjecture_sweep`` its (k, s).
* ``oracle_report`` recomputes a whole ``verify_witness`` report from the
  kernels above: the Gram as a matrix product with ``AMBIENT_GRAM``,
  ``inertia``, ``integer_solver``, ``oracle_short_vectors`` and the 2 x 2
  minors of h2's coordinates.
* ``mul_vector``, ``quadratic_form`` (the value x^T g x), ``gram_delta``
  (the entrywise difference of two Grams) and ``vector_difference`` are
  plain matrix and vector arithmetic that the package does not need.
  ``slipped_all2_value`` is the paper's displayed ``R4_222`` expression,
  slip included, that the tests refute against x^T g x.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from hassett import (
    A1,
    A2,
    AMBIENT_GRAM,
    E8_GRAM,
    H_SQUARED,
    AmbientVector,
    CaseId,
    IntMatrix,
    SlotSpec,
    e_vec,
    gram_of,
    i3_vector,
    inner_product,
    smith_normal_form,
    squares_value,
    t_vec,
)


def from_columns(columns: Sequence[Sequence[int]]) -> IntMatrix:
    """The matrix whose columns are ``columns``."""
    return IntMatrix(zip(*columns))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix product a b."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in matrix product")
    cols = tuple(zip(*b.rows))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows])


def mul_vector(m: IntMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    """The product m vec."""
    if len(vec) != m.ncols:
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in m.rows)


def vector_difference(u: AmbientVector, v: AmbientVector) -> AmbientVector:
    """The ambient vector u - v."""
    return AmbientVector(a - b for a, b in zip(u.coords, v.coords))


def quadratic_form(g: IntMatrix, x: Sequence[int]) -> int:
    """Value ``x^T g x`` of the integral form at an integer point."""
    return sum(a * b for a, b in zip(x, mul_vector(g, x)))


def gram_delta(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The entrywise difference a - b."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("dimension mismatch in matrix difference")
    return IntMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def slipped_all2_value(point: Sequence[int]) -> int:
    """The paper's displayed ``R4_222`` expression at parameters (1, 1, 4), slip included.

    It is the completed squares of ``squares_value`` with the sum
    (x0 + x1)^2 + (x0 + x2)^2 of the first two residue-2 squares replaced by
    their product.
    """
    a, b = (point[0] + point[1]) ** 2, (point[0] + point[2]) ** 2
    return squares_value(CaseId.R4_222, (1, 1, 4), point) - a - b + a * b


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
        c = mul_vector(u, b)
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
        x = mul_vector(v, z)
        if mul_vector(a, x) != b:
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


def slot_base(slot: SlotSpec) -> AmbientVector:
    """The base vector b of a scaled slot, read off its kind: a1, a2 or t^c_i."""
    if slot.kind.startswith("A2_"):
        return (A1, A2)[int(slot.kind[-1]) - 1]
    _, copy, i = slot.kind.split("_")
    return t_vec(int(copy), int(i))


def bare_generator(slot: SlotSpec) -> AmbientVector:
    """e_i + n f_i for a U slot, m b for a scaled one, from the lattice's own vectors."""
    if slot.kind in ("U1", "U2"):
        copy = int(slot.kind[1])
        return e_vec(copy, 1) + slot.n * e_vec(copy, 2)
    return slot.scale * slot_base(slot)


def bare_ideal_gram(slots: Sequence[SlotSpec]) -> IntMatrix:
    """The ideal Gram as ``gram_of`` pairs h2 and the bare generators, plus the forced entries.

    A residue-2 perturbation adds 1 to its h2 entry and to its diagonal.
    """
    g = gram_of([H_SQUARED] + [bare_generator(s) for s in slots]).to_lists()
    for i, s in enumerate(slots, 1):
        if s.residue == 2:
            g[0][i] = g[i][0] = 1
            g[i][i] += 1
    return IntMatrix(g)


def perturbations_by_cube(slot: SlotSpec, bound: int) -> tuple[AmbientVector, ...]:
    """The I3 vectors p in [-bound, bound]^3 with h2.p = 1 and (g + p)^2 = g^2 + 1.

    g is the bare generator; residue-0 slots take none.  The unit vectors
    come first, then the rest, each in lexicographic order of coordinates.
    """
    if slot.residue == 0:
        return ()
    g = bare_generator(slot)
    gg = inner_product(g, g)
    units, rest = [], []
    for p in _h2_dual_cube(bound):
        if inner_product(g + p, g + p) == gg + 1:
            (units if inner_product(p, p) == 1 else rest).append(p)
    return tuple(units + rest)


@functools.lru_cache(maxsize=None)
def _h2_dual_cube(bound: int) -> tuple[AmbientVector, ...]:
    # The I3 vectors of [-bound, bound]^3 with h2.p = 1, in lexicographic order.
    cube = (i3_vector(*p) for p in itertools.product(range(-bound, bound + 1), repeat=3))
    return tuple(p for p in cube if inner_product(p, H_SQUARED) == 1)


def i3_parts_by_cube(slot: SlotSpec) -> tuple[tuple[int, int, int], ...]:
    """The I3 parts x in [-1, 1]^3 with h2.x = r and x orthogonal to the slot base, in order."""
    return tuple(
        x for x in itertools.product((-1, 0, 1), repeat=3)
        if inner_product(i3_vector(*x), H_SQUARED) == slot.residue
        and inner_product(i3_vector(*x), slot_base(slot)) == 0
    )


def four_squares_by_randint(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    """The quadruple draw through ``randint`` and ``choice``, as the witnesses were first drawn."""
    r = math.isqrt(n)
    while True:
        a, b, c = (rng.randint(-r, r) for _ in range(3))
        rest = n - a * a - b * b - c * c
        if rest >= 0 and math.isqrt(rest) ** 2 == rest:
            return a, b, c, rng.choice((1, -1)) * math.isqrt(rest)


def _e8_closed(node: int) -> set[int]:
    # An E8 node 0..15 and its diagram neighbours: its nonzero E8_GRAM entries.
    lo = node - node % 8
    return {lo + j for j in range(8) if E8_GRAM[node % 8][j]}


def draw_y_by_sample(slot: SlotSpec, rng: random.Random) -> AmbientVector:
    """The GOAL draw of y for a scaled slot through ``choice`` and ``sample``.

    y = (m - 1) b + x + sum c_k t_k: an I3 part x in [-1, 1]^3 with h2.x = r
    and x orthogonal to b, chosen uniformly; then, in the order of
    ``sample(range(16), 16)``, the first four E8 nodes that are neither the
    base nor adjacent to it or to a node already taken; then c from
    ``four_squares_by_randint`` of (4m - 2 + r - x.x) / 2.
    """
    base = slot_base(slot)
    m, r = slot.scale, slot.residue
    b = base.i3_part()
    parts = [
        x for x in itertools.product((-1, 0, 1), repeat=3)
        if sum(x) == r and sum(p * q for p, q in zip(x, b)) == 0
    ]
    x = rng.choice(parts)
    half = (4 * m - 2 + r - sum(c * c for c in x)) // 2
    blocked = set().union(*(_e8_closed(i) for i in range(16) if base.coords[i]))
    nodes = []
    for node in rng.sample(range(16), 16):
        if node in blocked:
            continue
        nodes.append(node)
        if len(nodes) == 4:
            break
        blocked |= _e8_closed(node)
    coords = [(m - 1) * c for c in base.coords]
    coords[20:23] = [c + p for c, p in zip(coords[20:23], x)]
    for c, node in zip(four_squares_by_randint(half, rng), nodes):
        coords[node] += c
    return AmbientVector(tuple(coords))


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


def oracle_report(basis: Sequence[AmbientVector], targets: Sequence[int]) -> dict:
    """The ``to_dict`` of ``verify_witness(basis, targets)``, from the oracles above.

    The Gram is B AMBIENT_GRAM B^T.  The Smith form of the columns B^T decides
    independence (k nonzero invariants), saturation (k unit invariants) and
    h2's coordinates x in M; ``inertia`` decides definiteness, and the least
    norm is the least value over ``oracle_short_vectors`` bounded by the
    least diagonal entry, which a basis vector attains.  Labelling i is
    saturated in M when M is independent, holds h2, and the 2 x 2 minors of
    [x e_{i+1}] have gcd 1.  The reasons follow the report's order.
    """
    k = len(basis)
    b = IntMatrix([v.coords for v in basis])
    b_t = from_columns(b.rows)
    gram = matmul(matmul(b, AMBIENT_GRAM), b_t)
    h_pairings = matmul(matmul(IntMatrix([H_SQUARED.coords]), AMBIENT_GRAM), b_t)[0]
    solve, invariants = integer_solver(b_t)
    independent = len(invariants) == k and all(invariants)
    saturated = independent and all(d == 1 for d in invariants)
    x = solve(H_SQUARED.coords)
    if inertia(gram)[0] == k:
        least = min(gram[i][i] for i in range(k))
        min_norm = min(quadratic_form(gram, v) for v in oracle_short_vectors(gram, least))
    else:
        min_norm = None
    criterion = {
        "containsHSquared": x is not None,
        "positiveDefinite": min_norm is not None,
        "saturated": saturated,
        "minimumNorm": min_norm,
    }
    reasons = []
    if basis[0] != H_SQUARED:
        reasons.append("FIRST_BASIS_NOT_H_SQUARED")
    if len(targets) != k - 1:
        reasons.append("TARGET_COUNT_MISMATCH")
    if not independent:
        reasons.append("DEPENDENT_BASIS")
    failed = [
        name for name, ok in zip(
            ("MISSING_H_SQUARED", "NOT_POSITIVE_DEFINITE", "NOT_SATURATED"),
            (x is not None, min_norm is not None, saturated),
        ) if not ok
    ]
    if min_norm is not None and min_norm < 3:
        failed.append(f"MIN_NORM_{min_norm}")
    criterion["pass"] = not failed
    reasons += failed
    labellings = []
    for i, d in enumerate(targets[: k - 1]):
        realized = 3 * gram[i + 1][i + 1] - h_pairings[i + 1] ** 2
        in_m = False
        if independent and x is not None:
            unit = [int(j == i + 1) for j in range(k)]
            pairs = itertools.combinations(range(k), 2)
            in_m = math.gcd(*(x[p] * unit[q] - x[q] * unit[p] for p, q in pairs)) == 1
        labellings.append({"targetD": d, "realizedD": realized, "saturatedInM": in_m})
        if realized != d:
            reasons.append(f"DISC_MISMATCH({i})")
        if not in_m:
            reasons.append(f"LABELLING_NOT_SATURATED({i})")
    return {
        "criterion": criterion,
        "labellings": labellings,
        "gramMatchesReference": None,
        "realizedGram": gram.to_lists(),
        "verdict": "FAIL" if reasons else "PASS",
        "failureReasons": reasons,
    }
