"""The Smith normal form kernel of the GOAL builder.

``_smith_in_place`` is the one Smith normal form kernel, on
arbitrary-precision Python integers with no rationals and no floating
point.  It uses elementary unimodular operations with a smallest-pivot
strategy (Cohen, A Course in Computational Algebraic Number Theory, 2.4.14).
Its diagonal entries are nonnegative and satisfy the divisibility chain
``d1 | d2 | ...``, so results are reproducible byte for byte.  A unit pivot
ends the pivot scan, since no entry is smaller, and needs no divisibility
sweep.  The GOAL glue of ``constructions`` calls the kernel, with an
identity row companion, only on a draw that passes its 2-rank test and whose
echelon has full rank and an index above 1, on the w x 2w presentation of
the group G read off the triangle (entries reduced modulo the index), and
reads D and U; ``smith_normal_form`` also returns V.

No verdict runs this module: ``verifier`` imports only ``lattice``, which
holds the echelon and the elimination, and imports nothing from here.
"""

from __future__ import annotations

from itertools import chain

from .lattice import IntMatrix, _ldl


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


# No product code calls this; perfbench/tracing.py binds it by name.
def is_positive_definite(g: IntMatrix) -> bool:
    """Exact Sylvester test: every leading principal minor is positive."""
    return _ldl(g) is not None
