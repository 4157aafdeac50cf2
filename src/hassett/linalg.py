"""Exact integer matrix kernel.

Everything in this module runs on arbitrary-precision Python integers; there
are no rationals and no floating point.  Three computations carry the
module, one per concept.  ``_ldl`` is the one fraction-free symmetric
elimination: it decides positive definiteness and feeds the short-vector
enumeration of ``lattice``.  ``span_membership`` is the one-pass column
echelon the verifier runs on coordinate rows: it decides independence,
saturation and membership of one target together, without a Smith form.  On
the 197 witnesses of the tests' golden pool (ranks 3 to 21, hostile variants
included) its intermediate entries stay below 2^44 and it takes at most 69
Euclid rounds; the corollary witness sets both bounds, with entries up to
1.4e13 and every pivot +-1.  Nothing bounds the entries on arbitrary
coordinates: on the corollary basis after 1000 moves v_i += c v_j, whose
entries have up to 98 bits, they reach 217 bits.  Its column step
``_pivot_row`` also brings the GOAL draws of ``constructions`` to a
triangle.  ``_smith_in_place`` is the one Smith normal form kernel.

The Smith form uses elementary unimodular operations with a smallest-pivot
strategy (Cohen, A Course in Computational Algebraic Number Theory, 2.4.14).
Its diagonal entries are nonnegative and satisfy the divisibility chain
``d1 | d2 | ...``, so results are reproducible byte for byte.  A unit pivot
ends the pivot scan, since no entry is smaller, and needs no divisibility
sweep.  The GOAL glue of ``constructions`` calls the kernel, with an
identity row companion, only on a draw that passes its 2-rank test and whose
echelon has full rank and an index above 1, on the w x 2w presentation of
the group G read off the triangle (entries reduced modulo the index), and
reads D and U; ``smith_normal_form`` also returns V.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable dense integer matrix (row-major, arbitrary precision)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(map(index, row)) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self._rows = data

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        # Rows the package computed (nonempty, rectangular, ints): skip __init__'s checks.
        m = object.__new__(cls)
        m._rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def block_diagonal(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        size = sum(b.nrows for b in blocks)
        out = [[0] * size for _ in range(size)]
        offset = 0
        for b in blocks:
            if b.nrows != b.ncols:
                raise ValueError("block_diagonal expects square blocks")
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[offset + i][offset + j] = b[i][j]
            offset += b.nrows
        return cls(out)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def is_symmetric(self) -> bool:
        return self.is_square and self._rows == tuple(zip(*self._rows))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self._rows)
        return f"IntMatrix[{body}]"


def _smith_in_place(a: list[list[int]], u: list[list[int]] | None = None) -> list[list[int]]:
    """Bring the rows ``a`` to Smith form in place and return the column transform V.

    Every row operation on ``a`` is repeated on ``u`` when it is given, so an
    identity ``u`` ends as the row transform U with U a0 V = a.  The row
    operations never read ``u``, so ``a`` and V are the same either way.
    """
    nrows, ncols = len(a), len(a[0])
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    rows = [a] if u is None else [a, u]

    def add_row(dst: int, src: int, q: int) -> None:
        # row_dst += q * row_src
        for x in rows:
            x[dst] = [e + q * f for e, f in zip(x[dst], x[src])]

    def swap_rows(i: int, j: int) -> None:
        for x in rows:
            x[i], x[j] = x[j], x[i]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in chain(a, v):
            row[dst] += q * row[src]

    def swap_cols(i: int, j: int) -> None:
        for row in chain(a, v):
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # The first entry, row-major, of least nonzero absolute value in the
        # trailing block becomes the pivot; nothing beats a unit, so the scan
        # ends at the first one.
        pivot, least = None, 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = abs(row[j])
                if x and (pivot is None or x < least):
                    pivot, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            if a[t][t] < 0:
                for x in rows:
                    x[t] = [-e for e in x[t]]
            restart = False
            for i in range(nrows):
                if i == t or a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(ncols):
                if j == t or a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            # Pivot must divide the rest of the trailing block for the chain;
            # a unit divides everything.
            d = a[t][t]
            offender = None if d == 1 else next(
                (i for i in range(t + 1, nrows) if any(x % d for x in a[i][t + 1 :])), None
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    return v


# No product code calls this; perfbench/tracing.py binds it by name.
def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``U``, diagonal ``D``, unimodular ``V`` with ``U m V = D``.

    Nonzero diagonal entries are positive and form a divisibility chain.
    """
    a = m.to_lists()
    u = IntMatrix.identity(m.nrows).to_lists()
    v = _smith_in_place(a, u)
    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


# No product code calls this; perfbench/tracing.py binds it by name.
def integer_rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero Smith invariants."""
    a = m.to_lists()
    _smith_in_place(a)
    return sum(1 for i in range(min(m.nrows, m.ncols)) if a[i][i])


def span_membership(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> tuple[bool, bool, tuple[int, ...] | None]:
    """Echelon the lattice M spanned by ``rows``: (independent, saturated, x).

    ``independent`` says the k rows are linearly independent, ``saturated``
    that they are and Z^n / M is torsion-free, and ``x`` is one integer
    vector with ``sum_i x_i rows[i] = target``, or None when ``target`` is
    not in M.

    Unimodular column operations bring the rows, with ``target`` carried
    along, to a lower triangular column echelon L = rows C (Hermite style;
    Cohen, A Course in Computational Algebraic Number Theory, 2.4).  Row by
    row, ``_pivot_row`` runs Euclid's algorithm across the columns beyond the
    pivots found so far until one pivot is left.  C is unimodular, so M is
    saturated iff every pivot is +-1 (|det| of the triangle is the index of
    M in its saturation).  A row that leaves no pivot is dependent; row
    operations fold it into the pivot rows (``_fold``), so the triangle
    still spans M.  ``target`` is in M iff its image vanishes beyond the
    pivots and back-substitution on the triangle divides exactly.  A
    solution that fails the defining equation raises ``ArithmeticError``.
    """
    goal = list(map(index, target))
    n = len(goal)
    a = [list(map(index, row)) for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("rows and target must have the same length")
    t = list(goal)
    k = len(a)
    # trans[i]: row i as a combination of the input rows; None while it is row i itself.
    trans: list[list[int] | None] = [None] * k
    live: list[int] = []  # live[j] is the row whose pivot sits in column j
    for i in range(k):
        if _pivot_row(a[i:] + [t], len(live)):
            live.append(i)
        else:
            _fold(a, trans, live, i)

    p = len(live)
    independent = p == k
    saturated = independent and all(abs(a[i][j]) == 1 for j, i in enumerate(live))
    if any(t[p:]):
        return independent, saturated, None
    y = [0] * p
    for c in range(p - 1, -1, -1):
        s = t[c] - sum(y[j] * a[live[j]][c] for j in range(c + 1, p) if y[j])
        y[c], r = divmod(s, a[live[c]][c])
        if r:
            return independent, saturated, None
    x = [0] * k
    for yj, i in zip(y, live):
        if trans[i] is None:
            x[i] += yj
        else:
            x = [xe + yj * te for xe, te in zip(x, trans[i])]
    combo = [0] * n
    for xe, row in zip(x, rows):
        if xe:
            combo = [ce + xe * e for ce, e in zip(combo, row)]
    if combo != goal:
        raise ArithmeticError("echelon solution does not satisfy x rows = target")
    return independent, saturated, tuple(x)


def _pivot_row(rest: list[list[int]], p: int) -> bool:
    """Leave one pivot of ``rest[0]`` in column p by column operations on every row of ``rest``.

    The nonzero entries of ``rest[0]`` from column p on run Euclid's
    algorithm across their columns: in each round the first smallest, in
    column order, stays where it is and the other columns are reduced by
    the nearest multiple of it, which keeps the entries small.  Only the
    columns left nonzero go on to the next round, and when one is left it
    is swapped into column p.  Rows outside ``rest`` must be zero from
    column p on, so these are column operations on the whole matrix.
    Returns False, changing nothing, when ``rest[0]`` is zero from column p
    on.
    """
    row = rest[0]
    cols = [c for c in range(p, len(row)) if row[c]]
    if not cols:
        return False
    c, least = cols[0], abs(row[cols[0]])
    for d in cols:
        if abs(row[d]) < least:
            c, least = d, abs(row[d])
    while len(cols) > 1:
        pivot = row[c]
        active = [(r, r[c]) for r in rest if r[c]]
        # A reduced entry is at most half the pivot, so the first smallest
        # of them is the next pivot and column c never is.
        live = []
        nxt = c
        for d in cols:
            if d != c:
                q = (2 * row[d] + pivot) // (2 * pivot)  # nearest integer to row[d] / pivot
                for r, f in active:
                    r[d] -= q * f
                x = abs(row[d])
                if not x:
                    continue
                if x < least:
                    nxt, least = d, x
            live.append(d)
        cols, c = live, nxt
    if c != p:
        for r in rest:
            r[p], r[c] = r[c], r[p]
    return True


def _fold(a: list[list[int]], trans: list, live: list[int], i: int) -> None:
    """Fold row i, zero from column len(live) on, into the pivot rows.

    From the last pivot column j down, Euclid's algorithm by row operations
    on (pivot row, row i) leaves their gcd in the pivot row and 0 in row i.
    Both rows are zero beyond column j, so the pivot rows stay triangular,
    span the same lattice, and row i ends zero.  ``trans`` follows the same
    operations.
    """
    k = len(a)
    for m in (i, *live):
        if trans[m] is None:
            trans[m] = [int(j == m) for j in range(k)]
    for j in range(len(live) - 1, -1, -1):
        m = live[j]
        while a[i][j]:
            q = a[m][j] // a[i][j]
            a[m] = [f - q * e for f, e in zip(a[m], a[i])]
            trans[m] = [f - q * e for f, e in zip(trans[m], trans[i])]
            a[m], a[i] = a[i], a[m]
            trans[m], trans[i] = trans[i], trans[m]


def _ldl(g: IntMatrix) -> tuple[list[int], list[list[int]]] | None:
    """Symmetric Bareiss elimination of ``g``: (pivots, rows), or None.

    Returns None at the first pivot that is not positive, so a result means
    ``g`` is positive definite (Sylvester).  Pivot i is the leading
    principal minor p_i of size i + 1, and rows[i][j] = p_i u_ij for
    g = U^T D U with U unit upper triangular and d_i = p_i / p_{i-1}; row i
    is the Schur complement scaled by p_{i-1}, zero left of the diagonal.
    Every intermediate is an integer.
    """
    if not g.is_symmetric():
        raise ValueError("the LDL elimination requires a symmetric matrix")
    n = g.nrows
    a = list(map(list, g.rows))
    piv: list[int] = []
    prev = 1
    for i in range(n):
        row = a[i]
        pivot = row[i]
        if pivot <= 0:
            return None
        row[:i] = [0] * i
        piv.append(pivot)
        for r in range(i + 1, n):
            ar, air = a[r], row[r]
            for c in range(r, n):
                ar[c] = (ar[c] * pivot - air * row[c]) // prev
        prev = pivot
    return piv, a


# No product code calls this; perfbench/tracing.py binds it by name.
def is_positive_definite(g: IntMatrix) -> bool:
    """Exact Sylvester test: every leading principal minor is positive."""
    return _ldl(g) is not None

