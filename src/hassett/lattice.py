"""The ambient rank-23 lattice, its vectors, and the exact kernels of a verdict.

The ambient lattice is the orthogonal direct sum

    E8 (+) E8 (+) U (+) U (+) I3

in that fixed coordinate order, where E8 is the even unimodular rank-8 root
lattice, U is the hyperbolic plane with Gram [[0,1],[1,0]], and I3 is the
standard odd unimodular rank-3 lattice diag(1,1,1).  The distinguished class
``h2`` (the square of the hyperplane class of a cubic fourfold) sits in the
I3 block with coordinates (1,1,1) and has norm 3.  A verdict builds no
vector: the builders' constructors (``t_vec``, ``e_vec``, ``i3_vector``, the
A2 generators) live in ``constructions``, and ``AmbientVector``'s ``+``,
``*`` and ``i3_part`` serve those builders only.

Everything here runs on arbitrary-precision Python integers, with no
rationals and no floating point, and ``verifier`` imports no other module
of the package, so this module and that one are all the code a verdict can
run.  Saturation (the quotient of the ambient lattice by a sublattice being
torsion-free) is read off one column echelon of the k x 23 coordinate rows,
``span_membership``, which decides independence, saturation and membership
of one target together, without a Smith form: the sublattice is saturated
iff the rows are independent and every pivot is +-1.  On the 197 witnesses
of the tests' golden pool (ranks 3 to 21, hostile variants included) its
intermediate entries stay below 2^44 and it takes at most 69 Euclid rounds;
the corollary witness sets both bounds, with entries up to 1.4e13 and every
pivot +-1.  Nothing bounds the entries on arbitrary coordinates: on the
corollary basis after 1000 moves v_i += c v_j, whose entries have up to 98
bits, they reach 217 bits.  Its column step ``_pivot_row`` also brings the
GOAL draws of ``constructions`` to a triangle.  ``inner_product`` and
``gram_of`` share one form image, ``_form_image``: E8 is defined once, by
``E8_GRAM``, whose diagram edges it walks, skipping an all-zero E8 block,
and each pairing is then a dot product; ``gram_of`` sums it over the other
row's nonzero coordinates only.  Short vectors and the minimum come from one
exact enumeration, ``_enumerate``: Fincke-Pohst on the fraction-free
symmetric elimination ``_ldl`` (which also decides positive definiteness),
each level visited centre-first (Schnorr-Euchner order), one vector per +-
pair.  ``short_vectors`` runs it with a fixed bound; ``minimum`` starts from
the least diagonal entry and lowers the bound with every vector it finds.
"""

from __future__ import annotations

from operator import add, index, mul
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


RANK = 23

E8_GRAM = IntMatrix(
    [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, -1, 0, 0, 0],
        [0, 0, -1, 2, 0, 0, 0, 0],
        [0, 0, -1, 0, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ]
)

U_GRAM = IntMatrix([[0, 1], [1, 0]])

I3_GRAM = IntMatrix.identity(3)

AMBIENT_GRAM = IntMatrix.block_diagonal([E8_GRAM, E8_GRAM, U_GRAM, U_GRAM, I3_GRAM])

# Edges of the E8 diagram in 1-based node labels: the nonzero entries above E8_GRAM's diagonal.
E8_EDGES = frozenset((i + 1, j + 1) for i in range(8) for j in range(i + 1, 8) if E8_GRAM[i][j])
# Per E8 block: its first coordinate and its edges (E8_GRAM entries -1) as coordinate pairs.
_E8_BLOCK_EDGES = tuple((lo, tuple((lo + a - 1, lo + b - 1) for a, b in E8_EDGES)) for lo in (0, 8))

_BLOCK_OFFSETS = {"E8_1": 0, "E8_2": 8, "U1": 16, "U2": 18, "I3": 20}

BASIS_LABELS = tuple(
    [f"t1_{i}" for i in range(1, 9)]
    + [f"t2_{i}" for i in range(1, 9)]
    + ["e1_1", "e1_2", "e2_1", "e2_2"]
    + ["i3_1", "i3_2", "i3_3"]
)


class AmbientVector:
    """Immutable element of the ambient lattice in the fixed 23-coordinate basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        coords = tuple(map(index, coords))
        if len(coords) != RANK:
            raise ValueError(f"ambient vectors have {RANK} coordinates")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return AmbientVector, (self.coords,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AmbientVector:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @classmethod
    def _unchecked(cls, coords: tuple[int, ...]) -> "AmbientVector":
        # A tuple of 23 ints the caller has already checked: skip __init__'s index() pass.
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

    def __add__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector._unchecked(tuple(map(add, self.coords, other.coords)))

    def __rmul__(self, k: int) -> "AmbientVector":
        k = index(k)
        return AmbientVector._unchecked(tuple(k * a for a in self.coords))

    def i3_part(self) -> tuple[int, int, int]:
        off = _BLOCK_OFFSETS["I3"]
        return self.coords[off], self.coords[off + 1], self.coords[off + 2]

    def __repr__(self) -> str:
        named = [f"{c}*{l}" for c, l in zip(self.coords, BASIS_LABELS) if c != 0]
        return "AmbientVector(" + (" + ".join(named) if named else "0") + ")"


H_SQUARED = AmbientVector((0,) * 20 + (1, 1, 1))


def _form_image(c: tuple[int, ...]) -> list[int]:
    """Coordinates of AMBIENT_GRAM c: E8 by its edges (skipped if all 0), U by a swap, I3 as is."""
    out = [2 * x for x in c[:16]]
    for lo, edges in _E8_BLOCK_EDGES:
        if any(c[lo : lo + 8]):
            for i, j in edges:
                out[i] -= c[j]
                out[j] -= c[i]
    return out + [c[17], c[16], c[19], c[18], c[20], c[21], c[22]]


def inner_product(u: AmbientVector, v: AmbientVector) -> int:
    """Bilinear form of the ambient lattice: u . v = (AMBIENT_GRAM u) . v."""
    return sum(map(mul, _form_image(u.coords), v.coords))


def norm(v: AmbientVector) -> int:
    return inner_product(v, v)


def gram_of(basis: Sequence[AmbientVector]) -> IntMatrix:
    """Symmetric matrix of pairwise inner products of the given vectors."""
    if not basis:
        raise ValueError("gram_of needs at least one vector")
    coords = [v.coords for v in basis]
    # The nonzero (position, value) pairs of each row.  The witness rows of perfbench's
    # generic and certs ops hold 5.2 of 23 on average, 8 at most; on rows with all 23
    # nonzero this loop is about 10% slower than a full dot product.
    support = [[(p, x) for p, x in enumerate(c) if x] for c in coords]
    k = len(coords)
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        image, row = _form_image(coords[i]), g[i]
        for j in range(i, k):
            s = 0
            for p, x in support[j]:
                s += image[p] * x
            row[j] = g[j][i] = s
    return IntMatrix._unchecked(tuple(map(tuple, g)))


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


# No product code calls this; perfbench/tracing.py binds it by name.
def is_saturated(basis: Sequence[AmbientVector]) -> bool:
    """Whether ``basis`` is independent with a torsion-free ambient quotient.

    That is, the span equals the intersection of its rational span with the
    ambient lattice; ``span_membership`` decides it from the pivots of one
    column echelon of the coordinate rows.
    """
    return span_membership([v.coords for v in basis], (0,) * RANK)[1]


class NotPositiveDefinite(ValueError):
    """Raised by ``short_vectors`` and ``minimum`` when the elimination meets a pivot <= 0."""


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


def _enumerate(
    ldl: tuple[list[int], list[list[int]]], bound: int, shrink: bool
) -> list[tuple[tuple[int, ...], int]]:
    """Pairs (x, x^T g x) for nonzero x of norm at most ``bound``, one x per +- pair.

    Depth first from the last coordinate down, on the elimination ``ldl``
    of a positive definite g (see ``_ldl``).  Each level visits its
    candidates centre-first: the integer nearest the centre -offset, then
    alternately outwards in increasing partial norm, stopping at the first
    one whose partial norm exceeds the bound (Fincke-Pohst with the
    Schnorr-Euchner order).  While every higher
    coordinate is 0 the centre is 0 and only x_i >= 0 is visited, so each
    +- pair is met once, with its last nonzero coordinate positive.

    With ``shrink`` every vector found lowers the bound to its norm minus
    one, so the norms in the list strictly decrease and the last is the
    least norm at most ``bound``.

    The search uses only integers.  With p_i the leading principal minor
    of size i + 1 (p_{-1} = 1), level i adds t^2 / (p_{i-1} p_i) to the
    norm, where t = p_i x_i + sum_{j>i} rows[i][j] x_j.  The norm of the
    levels above i is carried as p_i times itself, an integer because p_i
    times a Schur complement of g is integral; at level -1 that is x^T g x.
    """
    piv, rows = ldl
    n = len(piv)
    x = [0] * n
    found: list[tuple[tuple[int, ...], int]] = []
    c = bound

    def descend(i: int, above: int, free: bool) -> None:
        # above: p_i times the norm of levels > i.  free: those levels are
        # all 0, so only x_i >= 0 is visited.
        nonlocal c
        p, row = piv[i], rows[i]
        prev = piv[i - 1] if i else 1
        s = 0 if free else sum(row[j] * x[j] for j in range(i + 1, n) if x[j])
        up = (p - 2 * s) // (2 * p)  # nearest integer to the centre -s/p
        down = up - 1
        while True:
            t = p * up + s
            step_up = True
            if not free:
                t_down = p * down + s
                if abs(t_down) < abs(t):
                    t, step_up = t_down, False
            below = (prev * above + t * t) // p
            if below > prev * c:
                break
            if step_up:
                x[i] = up
                up += 1
            else:
                x[i] = down
                down -= 1
            if i:
                descend(i - 1, below, free and x[i] == 0)
            elif not (free and x[0] == 0):
                found.append((tuple(x), below))
                if shrink:
                    c = below - 1

    descend(n - 1, 0, True)
    return found


def _canonical(x: Sequence[int]) -> tuple[int, ...]:
    for c in x:
        if c != 0:
            return tuple(x) if c > 0 else tuple(-a for a in x)
    return tuple(x)


def short_vectors(g: IntMatrix, c: int) -> list[tuple[int, ...]]:
    """All nonzero x with x^T g x <= c, one representative per +- pair.

    Representatives have a positive first nonzero coordinate and the list is
    sorted lexicographically.  The vectors come from the exact centre-first
    enumeration that ``minimum`` also runs, here with the fixed bound c; an
    indefinite input is rejected by the same elimination.
    """
    if c < 0:
        raise ValueError("short_vectors needs a nonnegative bound")
    ldl = _ldl(g)
    if ldl is None:
        raise NotPositiveDefinite("short_vectors requires a positive definite Gram matrix")
    return sorted(_canonical(x) for x, _ in _enumerate(ldl, c, shrink=False))


def minimum(g: IntMatrix) -> int:
    """Least nonzero value of a positive definite integral form.

    One elimination, which also rejects an indefinite ``g``, and one
    enumeration.  A unit vector attains the least diagonal entry, so the
    enumeration looks only for strictly smaller norms: its bound starts one
    below that entry, and each vector found lowers it to one below the
    vector's norm.
    """
    ldl = _ldl(g)
    if ldl is None:
        raise NotPositiveDefinite("minimum requires a positive definite Gram matrix")
    least = min(g[i][i] for i in range(g.nrows))
    found = _enumerate(ldl, least - 1, shrink=True)
    return found[-1][1] if found else least
