import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassett.lattice import AMBIENT_GRAM, E8_GRAM, U_GRAM
from hassett.linalg import (
    IntMatrix,
    _smith_in_place,
    integer_rank,
    is_positive_definite,
    smith_normal_form,
    span_membership,
)
from oracles import (
    determinant,
    from_columns,
    inertia,
    integer_solver,
    invariant_factors,
    matmul,
    mul_vector,
    quadratic_form,
    rational_inverse,
)

A2_GRAM = IntMatrix([[2, 1], [1, 2]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix([]), "at least one row"),
        (lambda: IntMatrix([[]]), "at least one row"),
        (lambda: IntMatrix([[1, 2], [3]]), "ragged rows"),
        (lambda: IntMatrix.block_diagonal([A2_GRAM, IntMatrix([[1, 2]])]), "square blocks"),
    ],
    ids=["no-rows", "no-columns", "ragged", "non-square-block"],
)
def test_int_matrix_rejects_malformed_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def small_matrices(max_dim=4, max_entry=10):
    dims = st.integers(1, max_dim)
    return dims.flatmap(
        lambda r: dims.flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(IntMatrix)
        )
    )


class TestDeterminant:
    def test_e8_is_unimodular(self):
        assert determinant(E8_GRAM) == 1

    def test_hyperbolic_plane(self):
        assert determinant(U_GRAM) == -1

    def test_two_by_two(self):
        assert determinant(IntMatrix([[3, 1], [1, 9]])) == 26

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    @given(small_matrices(max_dim=4, max_entry=6).filter(lambda m: m.is_square))
    @settings(max_examples=150, deadline=None)
    def test_matches_cofactor_expansion(self, m):
        def cofactor(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = 0
            for j in range(n):
                minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
                total += (-1) ** j * rows[0][j] * cofactor(minor)
            return total

        assert determinant(m) == cofactor([list(r) for r in m.rows])


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert invariant_factors(IntMatrix([[2, 0], [0, 3]])) == (1, 6)

    def test_identity(self):
        _, d, _ = smith_normal_form(IntMatrix.identity(3))
        assert d == IntMatrix.identity(3)

    def test_example_2x2(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8.
        assert invariant_factors(IntMatrix([[2, 4], [6, 8]])) == (2, 4)

    @given(small_matrices())
    @settings(max_examples=200, deadline=None)
    def test_decomposition_properties(self, m):
        u, d, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [d[i][i] for i in range(min(d.nrows, d.ncols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        for i in range(d.nrows):
            for j in range(d.ncols):
                if i != j:
                    assert d[i][j] == 0

    @given(small_matrices(max_dim=4, max_entry=8).filter(lambda m: m.is_square))
    @settings(max_examples=150, deadline=None)
    def test_invariant_product_is_abs_determinant(self, m):
        det = determinant(m)
        if det != 0:
            product = 1
            for f in invariant_factors(m):
                product *= f
            assert product == abs(det)


# Reference Smith form, kept verbatim: U always carried along, a full pivot
# scan, a divisibility sweep after every pivot.  The kernel must make the
# same operations, so U, D and V must come out equal.
def _ref_swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _ref_swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _ref_add_row(a, u, dst, src, q):
    # row_dst += q * row_src
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]


def _ref_add_col(a, v, dst, src, q):
    for row in a:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def _reference_smith_normal_form(m):
    nrows, ncols = m.nrows, m.ncols
    a = m.to_lists()
    u = IntMatrix.identity(nrows).to_lists()
    v = IntMatrix.identity(ncols).to_lists()

    t = 0
    while t < min(nrows, ncols):
        # Smallest absolute nonzero entry of the trailing block becomes the pivot.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            _ref_swap_rows(a, u, t, pivot[0])
        if pivot[1] != t:
            _ref_swap_cols(a, v, t, pivot[1])

        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            restart = False
            for i in range(nrows):
                if i == t or a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                _ref_add_row(a, u, i, t, -q)
                if a[i][t] != 0:
                    _ref_swap_rows(a, u, i, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(ncols):
                if j == t or a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                _ref_add_col(a, v, j, t, -q)
                if a[t][j] != 0:
                    _ref_swap_cols(a, v, j, t)
                    restart = True
                    break
            if restart:
                continue
            # Pivot must divide the rest of the trailing block for the chain.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _ref_add_row(a, u, t, offender, 1)
        t += 1

    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


def _smith_pinning_matrices():
    """Seeded matrices of three kinds: (kind, IntMatrix)."""
    from hassett.constructions import _draw_y, _quotient_coords, generic_slots

    rng = random.Random(2024)
    for r in range(1, 9):
        for c in range(1, 9):
            for _ in range(4):
                yield "small", IntMatrix(
                    [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
                )
    # Real GOAL draws: the 18 x k quotient coordinates _glue eliminates.
    for trial in range(10):
        targets = [rng.choice((14, 20, 26, 38, 42, 98)) for _ in range(2)]
        targets += [6 * m * m + rng.choice((0, 2)) for m in rng.choices(range(2, 35), k=18)]
        slots = generic_slots(targets)
        draws = random.Random(trial)
        for k in range(1, 19):
            ys = [_draw_y(s, draws) for s in slots[2 : 2 + k]]
            yield "draw", from_columns([_quotient_coords(y) for y in ys])
    # Scaled columns: pivots above 1, so the divisibility sweep has work.
    for _ in range(150):
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        scales = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(c)]
        yield "scaled", IntMatrix(
            [[rng.randint(-3, 3) * s for s in scales] for _ in range(r)]
        )


class TestSmithKernelTransforms:
    def test_transforms_match_the_reference(self):
        kinds = {"small": 0, "draw": 0, "scaled": 0}
        sweeps = 0
        for kind, m in _smith_pinning_matrices():
            kinds[kind] += 1
            expected = _reference_smith_normal_form(m)
            assert smith_normal_form(m) == expected, (kind, m)
            a = m.to_lists()
            v = _smith_in_place(a)
            assert (IntMatrix(a), IntMatrix(v)) == expected[1:], (kind, m)
            diag = [a[i][i] for i in range(min(m.nrows, m.ncols))]
            sweeps += any(x > 1 for x in diag[:-1] if x)
        assert kinds == {"small": 256, "draw": 180, "scaled": 150}
        # Some non-unit pivot had trailing entries to sweep.
        assert sweeps > 50


class TestInertia:
    def test_hyperbolic_plane(self):
        assert inertia(U_GRAM) == (1, 1, 0)

    def test_ambient_signature(self):
        assert inertia(AMBIENT_GRAM) == (21, 2, 0)

    def test_a2(self):
        assert inertia(A2_GRAM) == (2, 0, 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            inertia(IntMatrix([[1, 2], [3, 4]]))

    def test_zero_block(self):
        assert inertia(IntMatrix([[0, 0], [0, 0]])) == (0, 0, 2)

    def test_counts_sum_to_dimension_and_match_pd(self):
        # Cross-check against is_positive_definite on random symmetric input.
        rng = random.Random(20240811)
        for _ in range(1000):
            n = rng.randint(1, 6)
            entries = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    entries[i][j] = entries[j][i] = rng.randint(-10, 10)
            g = IntMatrix(entries)
            np_, nm, nz = inertia(g)
            assert np_ + nm + nz == n
            assert (nz == 0) == (determinant(g) != 0)
            assert is_positive_definite(g) == (np_ == n)


class TestPositiveDefinite:
    def test_a2(self):
        assert is_positive_definite(A2_GRAM)

    def test_hyperbolic_plane(self):
        assert not is_positive_definite(U_GRAM)

    def test_case_diag(self):
        assert is_positive_definite(IntMatrix([[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]]))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            is_positive_definite(IntMatrix([[1, 2], [0, 1]]))


class TestSolveInteger:
    def test_identity(self):
        assert integer_solver(IntMatrix.identity(3))[0]((5, -7, 2)) == (5, -7, 2)

    def test_parity_obstruction(self):
        assert integer_solver(IntMatrix([[2]]))[0]((1,)) is None

    def test_underdetermined(self):
        x = integer_solver(IntMatrix([[2, 3]]))[0]((1,))
        assert x is not None and 2 * x[0] + 3 * x[1] == 1

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            integer_solver(IntMatrix.identity(2))[0]((1, 2, 3))

    @given(
        small_matrices(max_dim=4, max_entry=5),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_solution_satisfies_system(self, m, coeffs):
        coeffs = (coeffs * 4)[: m.ncols]
        b = mul_vector(m, coeffs)
        x = integer_solver(m)[0](b)
        assert x is not None
        assert mul_vector(m, x) == tuple(b)


def _in_image_oracle(a: IntMatrix, b) -> bool:
    """b is in a Z^n iff [a | b] has a's rank and a's product of invariants (sympy)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    def rank_and_product(rows):
        factors = [int(f) for f in sympy_factors(Matrix(rows), domain=ZZ) if f != 0]
        return len(factors), math.prod(factors)

    rows = a.to_lists()
    return rank_and_product(rows) == rank_and_product(
        [row + [e] for row, e in zip(rows, b)]
    )


class TestIntegerSolver:
    def test_against_smith_form_and_sympy(self):
        rng = random.Random(4242)
        outcomes = set()
        for trial in range(240):
            kind = ("wide", "tall", "square", "deficient")[trial % 4]
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            if kind == "wide":
                ncols = nrows + rng.randint(1, 3)
            elif kind == "tall":
                nrows = ncols + rng.randint(1, 3)
            elif kind == "square":
                ncols = nrows
            if kind == "deficient":
                nrows, ncols = nrows + 1, ncols + 1
                inner = rng.randint(1, min(nrows, ncols) - 1)
                left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
                right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
                a = matmul(IntMatrix(left), IntMatrix(right))
            else:
                a = IntMatrix([[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)])
            if rng.random() < 0.5:
                # Scale one column so that some invariants exceed 1.
                scale, j = rng.randint(2, 4), rng.randrange(ncols)
                rows = a.to_lists()
                for row in rows:
                    row[j] *= scale
                a = IntMatrix(rows)

            solve, invariants = integer_solver(a)
            _, d, _ = smith_normal_form(a)
            assert invariants == tuple(d[i][i] for i in range(min(nrows, ncols)))

            b = mul_vector(a, [rng.randint(-5, 5) for _ in range(ncols)])
            x = solve(b)
            assert x is not None and mul_vector(a, x) == b

            i = rng.randrange(nrows)
            off = tuple(e + (k == i) for k, e in enumerate(b))
            for c in (off, tuple(rng.randint(-6, 6) for _ in range(nrows))):
                expected = _in_image_oracle(a, c)
                y = solve(c)
                assert (y is not None) == expected, (a, c)
                assert y is None or mul_vector(a, y) == c
                outcomes.add(expected)
        assert outcomes == {True, False}


def _combination(x, rows):
    return tuple(sum(c * row[j] for c, row in zip(x, rows)) for j in range(len(rows[0])))


def _seeded_rows(rng: random.Random, kind: str) -> list[list[int]]:
    """k rows of length n: wide (k < n), tall (k > n), square or rank deficient."""
    k, n = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "wide":
        n = k + rng.randint(1, 3)
    elif kind == "tall":
        k = n + rng.randint(1, 3)
    elif kind == "square":
        n = k
    if kind == "deficient":
        k, n = k + 1, n + 1
        inner = rng.randint(1, min(k, n) - 1)
        left = IntMatrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(k)])
        right = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(inner)])
        rows = matmul(left, right).to_lists()
    else:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
    if rng.random() < 0.5:
        # Scale one column so that some invariants exceed 1.
        scale, j = rng.randint(2, 4), rng.randrange(n)
        for row in rows:
            row[j] *= scale
    return rows


def _scrambled_corollary():
    """The corollary basis after 1000 moves v_i += c v_j on v_1..v_20, h2 kept first."""
    from hassett.constructions import corollary20_certificate

    rows = [list(v.coords) for v in corollary20_certificate().basis]
    rng = random.Random(11)
    for _ in range(1000):
        i = rng.randint(1, 20)
        j = rng.choice([m for m in range(21) if m != i])
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


class TestSpanMembership:
    def test_dependent_rows_fold_into_the_span(self):
        # 2 and 3 span Z: dropping the dependent row would lose (1, 0).
        rows = [(2, 0), (3, 0)]
        independent, saturated, x = span_membership(rows, (1, 0))
        assert (independent, saturated) == (False, False)
        assert x is not None and _combination(x, rows) == (1, 0)
        assert span_membership(rows, (0, 1))[2] is None
        assert span_membership(rows, (-7, 0))[2] is not None

    def test_small_cases(self):
        assert span_membership([(1, 2, 3)], (2, 4, 6)) == (True, True, (2,))
        assert span_membership([(2, 4, 6)], (1, 2, 3)) == (True, False, None)
        assert span_membership([(1, 0), (0, 0)], (3, 0))[:2] == (False, False)
        assert span_membership([], (0, 0)) == (True, True, ())
        with pytest.raises(ValueError):
            span_membership([(1, 2)], (1, 2, 3))

    def test_against_integer_solver_and_sympy(self):
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import invariant_factors as sympy_factors

        rng = random.Random(1313)
        outcomes = set()
        for trial in range(240):
            rows = _seeded_rows(rng, ("wide", "tall", "square", "deficient")[trial % 4])
            k, n = len(rows), len(rows[0])
            factors = [int(f) for f in sympy_factors(Matrix(rows), domain=ZZ) if f != 0]
            a = from_columns(rows)
            solve, invariants = integer_solver(a)
            rank = sum(1 for d in invariants if d)
            assert len(factors) == rank

            inside = _combination([rng.randint(-5, 5) for _ in range(k)], rows)
            i = rng.randrange(n)
            off = tuple(e + (j == i) for j, e in enumerate(inside))
            for target in (inside, off, tuple(rng.randint(-6, 6) for _ in range(n))):
                independent, saturated, x = span_membership(rows, target)
                assert independent == (rank == k), rows
                assert saturated == (rank == k and all(f == 1 for f in factors)), rows
                expected = _in_image_oracle(a, target)
                assert (solve(target) is not None) == expected
                assert (x is not None) == expected, (rows, target)
                assert x is None or _combination(x, rows) == target
                outcomes.add((independent, saturated, expected))
        # Every reachable verdict combination was exercised.
        verdicts = ((True, True), (True, False), (False, False))
        assert outcomes == {(i, s, e) for i, s in verdicts for e in (True, False)}

    def test_agrees_with_integer_solver_on_many_seeds(self):
        rng = random.Random(2024)
        for trial in range(2000):
            rows = _seeded_rows(rng, ("wide", "tall", "square", "deficient")[trial % 4])
            k, n = len(rows), len(rows[0])
            solve, invariants = integer_solver(from_columns(rows))
            nonzero = [d for d in invariants if d]
            inside = _combination([rng.randint(-5, 5) for _ in range(k)], rows)
            for target in (inside, tuple(rng.randint(-6, 6) for _ in range(n))):
                independent, saturated, x = span_membership(rows, target)
                assert independent == (len(nonzero) == k)
                assert saturated == (independent and all(d == 1 for d in nonzero))
                assert (x is None) == (solve(target) is None), (rows, target)
            assert span_membership(rows, inside)[2] is not None

    def test_scrambled_corollary_basis(self):
        rows = _scrambled_corollary()
        assert max(abs(e) for row in rows for e in row).bit_length() > 64
        h2 = tuple(rows[0])
        independent, saturated, x = span_membership(rows, h2)
        # h2 is the first of 21 independent rows, so x is the first unit vector.
        assert (independent, saturated, x) == (True, True, (1,) + (0,) * 20)
        solve, invariants = integer_solver(from_columns(rows))
        assert invariants == (1,) * 21 and solve(h2) == x
        # Doubling one row leaves an index-2 sublattice that no longer holds the old row.
        doubled = rows[:5] + [[2 * e for e in rows[5]]] + rows[6:]
        assert span_membership(doubled, tuple(rows[5])) == (True, False, None)


class TestRationalInverse:
    def test_diagonal(self):
        inv = rational_inverse(IntMatrix([[3, 0], [0, 2]]))
        assert inv == ((Fraction(1, 3), 0), (0, Fraction(1, 2)))

    def test_a2(self):
        inv = rational_inverse(A2_GRAM)
        assert inv == (
            (Fraction(2, 3), Fraction(-1, 3)),
            (Fraction(-1, 3), Fraction(2, 3)),
        )

    def test_hyperbolic_self_inverse(self):
        assert rational_inverse(U_GRAM) == ((0, 1), (1, 0))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            rational_inverse(IntMatrix([[1, 2], [2, 4]]))


def _seeded_square(rng: random.Random, kind: str) -> list[list[int]]:
    """A square matrix of size 1..6: general or symmetric, regular or singular."""
    n = rng.randint(1, 6)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    if kind.startswith("symmetric"):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    if kind.endswith("singular") and n > 1:
        # Row i repeats row j; for symmetric input column i repeats column j too.
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
        if kind.startswith("symmetric"):
            for row in rows:
                row[i] = row[j]
    return rows


class TestSympyOracle:
    def test_determinant_inverse_and_inertia(self):
        from sympy import Matrix, Poly, symbols

        x = symbols("x")
        rng = random.Random(1018)
        kinds = ("general", "general singular", "symmetric", "symmetric singular")
        seen = set()
        for trial in range(200):
            kind = kinds[trial % 4]
            rows = _seeded_square(rng, kind)
            m, ref = IntMatrix(rows), Matrix(rows)
            det = determinant(m)
            assert det == ref.det(), rows
            if det == 0:
                with pytest.raises(ValueError):
                    rational_inverse(m)
            else:
                expected = tuple(
                    tuple(Fraction(int(e.p), int(e.q)) for e in ref.inv().row(i))
                    for i in range(m.nrows)
                )
                assert rational_inverse(m) == expected, rows
            if kind.startswith("symmetric"):
                roots = Poly(ref.charpoly(x).as_expr(), x).real_roots()
                assert len(roots) == m.nrows
                signs = (
                    sum(1 for r in roots if r.is_positive),
                    sum(1 for r in roots if r.is_negative),
                    sum(1 for r in roots if r.is_zero),
                )
                assert inertia(m) == signs, rows
                seen.add((signs[0] > 0 and signs[1] > 0, signs[2] > 0))
        # Indefinite input, with and without a kernel, was exercised.
        assert {(True, False), (True, True)} <= seen


class TestRankAndForm:
    def test_isotropic_vector_has_full_coordinate_rank(self):
        # A Gram can be singular while the vectors stay independent.
        assert integer_rank(IntMatrix([[0], [1]])) == 1

    def test_quadratic_form(self):
        assert quadratic_form(A2_GRAM, (1, -1)) == 2
        assert quadratic_form(E8_GRAM, (1, 0, 0, 0, 0, 0, 0, 0)) == 2
