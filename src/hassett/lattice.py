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
torsion-free) is detected through Smith invariants of the 23 x k coordinate
matrix.  Short vectors and the minimum come from one exact enumeration,
``_enumerate``: Fincke-Pohst on the integer LDL elimination ``_ldl`` (which
also rejects indefinite forms), each level visited centre-first
(Schnorr-Euchner order), one vector per +- pair.  ``short_vectors`` runs it
with a fixed bound; ``minimum`` starts from the least diagonal entry and
lowers the bound with every vector it finds.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import IntMatrix, invariant_factors

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

# Edges of the E8 diagram in 1-based node labels, read off E8_GRAM.
E8_EDGES = frozenset({(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7), (7, 8)})

_BLOCK_OFFSETS = {"E8_1": 0, "E8_2": 8, "U1": 16, "U2": 18, "I3": 20}

BASIS_LABELS = tuple(
    [f"t1_{i}" for i in range(1, 9)]
    + [f"t2_{i}" for i in range(1, 9)]
    + ["e1_1", "e1_2", "e2_1", "e2_2"]
    + ["i3_1", "i3_2", "i3_3"]
)


@dataclass(frozen=True)
class AmbientVector:
    """Element of the ambient lattice in the fixed 23-coordinate basis."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) != RANK:
            raise ValueError(f"ambient vectors have {RANK} coordinates")

    def __add__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AmbientVector":
        return AmbientVector(tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "AmbientVector":
        return AmbientVector(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def i3_part(self) -> tuple[int, int, int]:
        off = _BLOCK_OFFSETS["I3"]
        return self.coords[off], self.coords[off + 1], self.coords[off + 2]

    def __repr__(self) -> str:
        named = [f"{c}*{l}" for c, l in zip(self.coords, BASIS_LABELS) if c != 0]
        return "AmbientVector(" + (" + ".join(named) if named else "0") + ")"


def _unit(index: int) -> AmbientVector:
    coords = [0] * RANK
    coords[index] = 1
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


def i3_unit(i: int) -> AmbientVector:
    """Unit vector of the I3 block (i in 1..3)."""
    if i not in (1, 2, 3):
        raise ValueError("i3_unit expects i in 1..3")
    return _unit(_BLOCK_OFFSETS["I3"] + i - 1)


def i3_vector(x: int, y: int, z: int) -> AmbientVector:
    """Vector (x, y, z) supported in the I3 block."""
    coords = [0] * RANK
    coords[20], coords[21], coords[22] = int(x), int(y), int(z)
    return AmbientVector(tuple(coords))


H_SQUARED = i3_vector(1, 1, 1)

A1 = i3_vector(1, -1, 0)
A2 = i3_vector(0, -1, 1)


def inner_product(u: AmbientVector, v: AmbientVector) -> int:
    """Bilinear form of the ambient lattice, evaluated blockwise."""
    uc, vc = u.coords, v.coords
    total = 0
    for base in (0, 8):
        ub, vb = uc[base : base + 8], vc[base : base + 8]
        if any(ub) and any(vb):
            for i in range(8):
                row = E8_GRAM[i]
                if ub[i]:
                    total += ub[i] * sum(row[j] * vb[j] for j in range(8) if vb[j])
    total += uc[16] * vc[17] + uc[17] * vc[16]
    total += uc[18] * vc[19] + uc[19] * vc[18]
    total += uc[20] * vc[20] + uc[21] * vc[21] + uc[22] * vc[22]
    return total


def norm(v: AmbientVector) -> int:
    return inner_product(v, v)


def gram_of(basis: Sequence[AmbientVector]) -> IntMatrix:
    """Symmetric matrix of pairwise inner products of the given vectors."""
    if not basis:
        raise ValueError("gram_of needs at least one vector")
    k = len(basis)
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g[i][j] = g[j][i] = inner_product(basis[i], basis[j])
    return IntMatrix(g)


def coordinate_matrix(basis: Sequence[AmbientVector]) -> IntMatrix:
    """23 x k matrix whose columns are the coordinates of the given vectors."""
    return IntMatrix.from_columns([v.coords for v in basis])


def is_saturated(basis: Sequence[AmbientVector]) -> bool:
    """Whether the ambient quotient by the span of ``basis`` is torsion-free.

    Equivalent to the 23 x k coordinate matrix having k Smith invariants,
    all 1, i.e. the span equals the intersection of its rational span with
    the ambient lattice.
    """
    factors = invariant_factors(coordinate_matrix(basis))
    return len(factors) == len(basis) and all(f == 1 for f in factors)


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
        raise ValueError("the Gram matrix must be symmetric")
    n = g.nrows
    a = g.to_lists()
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
        x[i] = 0

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
