"""The ambient rank-23 lattice, its vectors, saturation, and short vectors.

The ambient lattice is the orthogonal direct sum

    E8 (+) E8 (+) U (+) U (+) I3

in that fixed coordinate order, where E8 is the even unimodular rank-8 root
lattice, U is the hyperbolic plane with Gram [[0,1],[1,0]], and I3 is the
standard odd unimodular rank-3 lattice diag(1,1,1).  The distinguished class
``h2`` (the square of the hyperplane class of a cubic fourfold) sits in the
I3 block with coordinates (1,1,1) and has norm 3.

The two generators ``a1``, ``a2`` of the hexagonal plane A2 inside the
orthogonal complement of ``h2`` in I3 are pinned to (1,-1,0) and (0,-1,1).
Every integer triple with zero coordinate sum and norm 2 is one of the six
roots of this plane; the chosen pair realizes the Gram [[2,1],[1,2]].

Saturation (the quotient of the ambient lattice by a sublattice being
torsion-free) is read off one column echelon of the k x 23 coordinate rows,
``linalg.span_membership``: the sublattice is saturated iff the rows are
independent and every pivot is +-1.  ``inner_product`` and ``gram_of`` share
one form image, ``_form_image``: E8 is defined once, by ``E8_GRAM``, whose
diagram edges it walks, skipping an all-zero E8 block, and each pairing is
then a dot product; ``gram_of`` sums it over the other row's nonzero
coordinates only.  Short vectors and the minimum come from one exact
enumeration, ``_enumerate``: Fincke-Pohst on the integer LDL elimination
``linalg._ldl`` (which also rejects indefinite forms), each level visited
centre-first (Schnorr-Euchner order), one vector per +- pair.
``short_vectors`` runs it with a fixed bound; ``minimum`` starts from the
least diagonal entry and lowers the bound with every vector it finds.
No floating point is used anywhere.
"""

from __future__ import annotations

from operator import add, index, mul
from typing import Iterable, Sequence

from .linalg import IntMatrix, _ldl, span_membership

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


def _unit(position: int) -> AmbientVector:
    coords = [0] * RANK
    coords[position] = 1
    return AmbientVector(tuple(coords))


def t_vec(copy: int, i: int) -> AmbientVector:
    """Basis vector t^copy_i of one of the two E8 blocks (copy in {1,2}, i in 1..8)."""
    if copy not in (1, 2) or not 1 <= i <= 8:
        raise ValueError("t_vec expects copy in {1,2} and i in 1..8")
    return _unit(_BLOCK_OFFSETS[f"E8_{copy}"] + i - 1)


def e_vec(copy: int, i: int) -> AmbientVector:
    """Basis vector e^copy_i of one of the two hyperbolic planes (i in {1,2})."""
    if copy not in (1, 2) or i not in (1, 2):
        raise ValueError("e_vec expects copy in {1,2} and i in {1,2}")
    return _unit(_BLOCK_OFFSETS[f"U{copy}"] + i - 1)


def i3_vector(x: int, y: int, z: int) -> AmbientVector:
    """Vector (x, y, z) supported in the I3 block."""
    coords = [0] * RANK
    coords[20], coords[21], coords[22] = x, y, z
    return AmbientVector(tuple(coords))


H_SQUARED = i3_vector(1, 1, 1)

A1 = i3_vector(1, -1, 0)
A2 = i3_vector(0, -1, 1)


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


# No product code calls this; perfbench/tracing.py binds it by name.
def is_saturated(basis: Sequence[AmbientVector]) -> bool:
    """Whether ``basis`` is independent with a torsion-free ambient quotient.

    That is, the span equals the intersection of its rational span with the
    ambient lattice; ``linalg.span_membership`` decides it from the pivots
    of one column echelon of the coordinate rows.
    """
    return span_membership([v.coords for v in basis], (0,) * RANK)[1]


class NotPositiveDefinite(ValueError):
    """Raised by ``short_vectors`` and ``minimum`` when the elimination meets a pivot <= 0."""


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
