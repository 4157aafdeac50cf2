import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

import hassett.lattice as lattice
import hassett.linalg as linalg
from hassett.lattice import (
    A1,
    A2,
    AMBIENT_GRAM,
    AmbientVector,
    E8_EDGES,
    E8_GRAM,
    H_SQUARED,
    IntMatrix,
    RANK,
    _ldl,
    e_vec,
    gram_of,
    i3_vector,
    inner_product,
    is_saturated,
    minimum,
    norm,
    short_vectors,
    t_vec,
)
from hassett.linalg import is_positive_definite
from oracles import (
    determinant,
    from_columns,
    inertia,
    invariant_factors,
    oracle_short_vectors,
    quadratic_form,
    rational_inverse,
    vector_difference,
)

A2_GRAM = IntMatrix([[2, 1], [1, 2]])


def rank4_000_basis(n1=2, n2=2, m3=2):
    return (
        H_SQUARED,
        e_vec(1, 1) + n1 * e_vec(1, 2),
        e_vec(2, 1) + n2 * e_vec(2, 2),
        m3 * A1,
    )


def random_vector(rng, bound=3):
    return AmbientVector(tuple(rng.randint(-bound, bound) for _ in range(RANK)))


def full_form(u, v):
    """u . v summed over all 23 x 23 entries of AMBIENT_GRAM."""
    return sum(
        u.coords[i] * AMBIENT_GRAM[i][j] * v.coords[j] for i in range(RANK) for j in range(RANK)
    )


def zero_e8_blocks(v, bases):
    """``v`` with the E8 blocks that start at the offsets ``bases`` set to 0."""
    coords = list(v.coords)
    for base in bases:
        coords[base : base + 8] = [0] * 8
    return AmbientVector(tuple(coords))


class TestAmbient:
    def test_ambient_is_unimodular_of_signature_21_2(self):
        assert determinant(AMBIENT_GRAM) == 1
        assert inertia(AMBIENT_GRAM) == (21, 2, 0)

    def test_h_squared_norm(self):
        assert inner_product(H_SQUARED, H_SQUARED) == 3

    def test_unit_vectors_reject_indices_outside_their_block(self):
        for copy, i in [(0, 1), (3, 1), (1, 0), (1, 3), (2, 9)]:
            with pytest.raises(ValueError, match="e_vec expects"):
                e_vec(copy, i)
        for copy, i in [(0, 1), (3, 1), (1, 0), (2, 9)]:
            with pytest.raises(ValueError, match="t_vec expects"):
                t_vec(copy, i)

    def test_hyperbolic_pairings(self):
        for copy in (1, 2):
            assert inner_product(e_vec(copy, 1), e_vec(copy, 2)) == 1
            assert norm(e_vec(copy, 1)) == 0
            assert norm(e_vec(copy, 2)) == 0

    def test_a2_pair(self):
        assert norm(A1) == 2
        assert norm(A2) == 2
        assert inner_product(A1, A2) == 1
        assert inner_product(A1, H_SQUARED) == 0
        assert inner_product(A2, H_SQUARED) == 0

    def test_e8_blocks_are_orthogonal(self):
        assert inner_product(t_vec(1, 3), t_vec(2, 3)) == 0
        assert inner_product(t_vec(1, 1), t_vec(1, 2)) == -1

    def test_e8_edges_are_read_off_the_gram(self):
        assert E8_EDGES == {(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7), (7, 8)}

    def test_inner_product_agrees_with_full_gram(self):
        rng = random.Random(7)
        for _ in range(50):
            u, v = random_vector(rng), random_vector(rng)
            expected = sum(
                u.coords[i] * AMBIENT_GRAM[i][j] * v.coords[j]
                for i in range(RANK)
                for j in range(RANK)
            )
            assert inner_product(u, v) == expected
        # The form image skips an E8 block that is all 0, and gram_of shares
        # it: vectors with one, the other, both or neither E8 block zero.
        vectors = [H_SQUARED] + [
            zero_e8_blocks(random_vector(rng), bases)
            for bases in ((), (0,), (8,), (0, 8))
            for _ in range(4)
        ]
        gram = gram_of(vectors)
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                assert inner_product(u, v) == gram[i][j] == full_form(u, v)

    def test_arithmetic_matches_the_validated_constructor(self):
        # u + v and k * v skip the constructor's index() pass; their results
        # must still equal AmbientVector(...) of the same coordinates.
        rng = random.Random(13)
        for _ in range(20):
            u, v = random_vector(rng), random_vector(rng)
            k = rng.randint(-5, 5)
            for got, coords in (
                (u + v, [a + b for a, b in zip(u.coords, v.coords)]),
                (vector_difference(u, v), [a - b for a, b in zip(u.coords, v.coords)]),
                (k * u, [k * a for a in u.coords]),
            ):
                assert got == AmbientVector(tuple(coords))
                assert type(got.coords) is tuple and {type(c) for c in got.coords} == {int}
        with pytest.raises(TypeError):
            1.5 * u
        assert type(AmbientVector((True,) + (0,) * (RANK - 1)).coords[0]) is int
        with pytest.raises(ValueError):
            AmbientVector((0,) * (RANK - 1))

    def test_vectors_are_immutable_hashable_values(self):
        v = random_vector(random.Random(19))
        w = AmbientVector(list(v.coords))
        assert v == w and hash(v) == hash(w) and len({v, w}) == 1
        assert v != v.coords and v != AmbientVector((0,) * RANK)
        with pytest.raises(AttributeError):
            v.coords = (0,) * RANK
        with pytest.raises(AttributeError):
            del v.coords
        with pytest.raises(AttributeError):
            v.extra = 1
        assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v

    def test_bilinearity_and_symmetry(self):
        rng = random.Random(11)
        for _ in range(40):
            u, v, w = (random_vector(rng) for _ in range(3))
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            assert inner_product(u, v) == inner_product(v, u)
            assert inner_product(a * u + b * v, w) == a * inner_product(
                u, w
            ) + b * inner_product(v, w)


class TestGramOf:
    def test_case_labelling_pair(self):
        g = gram_of([H_SQUARED, e_vec(1, 1) + 2 * e_vec(1, 2)])
        assert g == IntMatrix([[3, 0], [0, 4]])

    def test_single_h_squared(self):
        assert gram_of([H_SQUARED]) == IntMatrix([[3]])

    def test_rejects_an_empty_basis(self):
        with pytest.raises(ValueError, match="at least one vector"):
            gram_of([])

    def test_scaling_law(self):
        assert gram_of([2 * A1]) == IntMatrix([[8]])
        rng = random.Random(3)
        for _ in range(20):
            v = random_vector(rng)
            k = rng.randint(-6, 6)
            assert gram_of([k * v]) == IntMatrix([[k * k * norm(v)]])

    def test_support_only_sums_match_the_full_form(self):
        # gram_of sums each pairing over the nonzero coordinates of one row;
        # full_form sums over all 23 x 23 entries of AMBIENT_GRAM.  Every basis
        # mixes each kind of row below, in seeded order.
        rng = random.Random(43)

        def dense():
            return AmbientVector(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(RANK))

        def huge():
            coords = [0] * RANK
            for p in rng.sample(range(RANK), rng.randint(1, 8)):
                coords[p] = rng.choice((-1, 1)) * rng.randint(2**64, 2**70)
            return AmbientVector(coords)

        kinds = (
            lambda: AmbientVector((0,) * RANK),
            lambda: zero_e8_blocks(random_vector(rng), (0, 8)),
            lambda: zero_e8_blocks(random_vector(rng), (rng.choice((0, 8)),)),
            lambda: random_vector(rng),
            dense,
            huge,
        )
        for _ in range(25):
            picks = list(kinds) + rng.choices(kinds, k=rng.randint(0, 6))
            rng.shuffle(picks)
            vectors = [make() for make in picks]
            expected = [[full_form(u, v) for v in vectors] for u in vectors]
            gram = gram_of(vectors)
            assert gram.rows == tuple(map(tuple, expected))
            assert all(type(x) is int for row in gram.rows for x in row)

    def test_permutation_covariance(self):
        rng = random.Random(5)
        vs = [random_vector(rng) for _ in range(4)]
        g = gram_of(vs)
        perm = [2, 0, 3, 1]
        gp = gram_of([vs[i] for i in perm])
        for i in range(4):
            for j in range(4):
                assert gp[i][j] == g[perm[i]][perm[j]]


class TestSaturation:
    def test_primitive_vector(self):
        assert is_saturated([H_SQUARED])

    def test_doubled_vector(self):
        assert not is_saturated([2 * H_SQUARED])

    def test_scaled_slot_breaks_saturation(self):
        # The column 2*a1 gives Smith invariants (1,1,1,2): the vector a1 lies
        # in the rational span and the ambient lattice but not in the span.
        basis = rank4_000_basis()
        assert invariant_factors(from_columns([v.coords for v in basis])) == (1, 1, 1, 2)
        assert not is_saturated(basis)

    def test_unit_perturbation_restores_saturation(self):
        basis = (
            H_SQUARED,
            e_vec(1, 1) + 2 * e_vec(1, 2),
            e_vec(2, 1) + 2 * e_vec(2, 2),
            2 * A1 + i3_vector(0, 0, 1),
        )
        assert is_saturated(basis)


class TestShortVectors:
    def test_a2_roots(self):
        roots = short_vectors(A2_GRAM, 2)
        assert roots == [(0, 1), (1, -1), (1, 0)]

    def test_e8_roots(self):
        roots = short_vectors(E8_GRAM, 2)
        assert len(roots) == 120
        assert all(quadratic_form(E8_GRAM, v) == 2 for v in roots)

    def test_case_diag_has_no_vector_below_3(self):
        assert short_vectors(IntMatrix([[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]]), 2) == []

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            short_vectors(IntMatrix([[0, 1], [1, 0]]), 2)

    def test_rejects_a_negative_bound(self):
        with pytest.raises(ValueError, match="nonnegative bound"):
            short_vectors(IntMatrix([[2]]), -1)

    def test_canonical_representatives(self):
        for v in short_vectors(E8_GRAM, 4):
            first = next(x for x in v if x != 0)
            assert first > 0

    def test_includes_all_norms_up_to_bound(self):
        vs = short_vectors(A2_GRAM, 6)
        norms = sorted({quadratic_form(A2_GRAM, v) for v in vs})
        assert norms == [2, 6]  # the hexagonal lattice represents no 4


def reference_ldl(g):
    """The elimination over fractions that the fraction-free ``_ldl`` replaced."""
    n = g.nrows
    a = [[Fraction(x) for x in row] for row in g.rows]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        u[i][i] = Fraction(1)
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(r, n):
                a[r][c] -= a[i][r] * a[i][c] / d[i]
                a[c][r] = a[r][c]
    return d, u


def as_fractions(ldl):
    """(d, u) of g = U^T D U from the integer pivots p_i and rows p_i u_ij."""
    pivots, rows = ldl
    d = [Fraction(p, q) for p, q in zip(pivots, [1] + pivots)]
    u = [[Fraction(x, p) for x in row] for p, row in zip(pivots, rows)]
    return d, u


class TestLdl:
    def test_matches_elimination_over_fractions(self):
        rng = random.Random(17)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 9)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + 2)]
            g = IntMatrix(
                [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
            )
            if not is_positive_definite(g):
                continue
            checked += 1
            assert as_fractions(_ldl(g)) == reference_ldl(g), g

    def test_e8_pivots_are_minor_ratios(self):
        ldl = _ldl(E8_GRAM)
        d, _ = as_fractions(ldl)
        minors = [determinant(IntMatrix([row[:k] for row in E8_GRAM.rows[:k]])) for k in range(1, 9)]
        assert ldl[0] == minors
        assert d == [Fraction(b, a) for a, b in zip([1] + minors, minors)]

    def test_rejects_asymmetric_and_non_square(self):
        for g in (
            IntMatrix([[3, 1], [0, 3]]),
            IntMatrix([[3, 1, 0], [1, 3, 0]]),
            IntMatrix([[3], [1]]),
            IntMatrix([[2, 1, 1]]),
        ):
            assert not g.is_symmetric()
            with pytest.raises(ValueError):
                _ldl(g)
        assert IntMatrix([[5]]).is_symmetric() and A2_GRAM.is_symmetric()

    def test_stops_at_first_nonpositive_pivot(self):
        assert _ldl(IntMatrix([[0, 1], [1, 0]])) is None
        assert _ldl(IntMatrix([[2, 0, 0], [0, 1, 1], [0, 1, 1]])) is None
        assert _ldl(IntMatrix([[1, 2], [2, 1]])) is None


def reference_minimum(g):
    """The loop that the single shrinking enumeration replaced: c = 1, 2, 3, ..."""
    c = 1
    while True:
        vs = short_vectors(g, c)
        if vs:
            return min(quadratic_form(g, v) for v in vs)
        c += 1


def oracle_box_size(g, c):
    """Number of points ``oracle_short_vectors(g, c)`` walks."""
    inv = rational_inverse(g)
    return math.prod(2 * math.isqrt(int(c * inv[i][i])) + 1 for i in range(g.nrows))


class TestMinimum:
    def test_rank_one(self):
        assert minimum(IntMatrix([[3]])) == 3

    def test_e8(self):
        assert minimum(E8_GRAM) == 2

    def test_residue2_case_gram(self):
        g = IntMatrix([[3, 0, 0, 1], [0, 4, 0, 0], [0, 0, 4, 0], [1, 0, 0, 9]])
        assert minimum(g) == 3

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            minimum(IntMatrix([[0, 1], [1, 0]]))

    def test_rejects_nonsymmetric(self):
        for check in (minimum, lambda g: short_vectors(g, 2)):
            for g in (IntMatrix([[3, 1], [0, 3]]), IntMatrix([[3, 1, 0], [1, 3, 0]])):
                with pytest.raises(ValueError):
                    check(g)

    def test_matches_reference_loop_and_oracle(self):
        rng = random.Random(29)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 7)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 2)]
            g = IntMatrix(
                [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
            )
            if not is_positive_definite(g):
                continue
            least = min(g[i][i] for i in range(n))
            # The oracle walks its whole box; keep each walk small.
            if oracle_box_size(g, least) > 5000:
                continue
            checked += 1
            oracle = min(quadratic_form(g, v) for v in oracle_short_vectors(g, least))
            assert minimum(g) == reference_minimum(g) == oracle, g

    def test_close_pair_of_huge_norm(self):
        # x = (1, -1) has norm 2 whatever N is; lo-to-hi order needs O(sqrt N) steps.
        n = 10**8
        assert minimum(IntMatrix([[n, n - 1], [n - 1, n]])) == 2

    def test_hyperbolic_pair_basis(self):
        # e + a f and e' + b f' span diag(2a, 2b) in U + U.
        a = 10**6
        assert minimum(IntMatrix([[2 * a, 0], [0, 2 * (a + 1)]])) == 2 * a

    def test_scaled_e8(self):
        for m in (1, 3, 4, 30):
            g = IntMatrix([[m * m * x for x in row] for row in E8_GRAM.rows])
            assert minimum(g) == 2 * m * m

    def test_one_decomposition_per_call(self, monkeypatch):
        # _ldl also decides definiteness, so minimum runs no separate
        # is_positive_definite.  lattice does not import that name, so the
        # count is taken where it is defined.
        assert not hasattr(lattice, "is_positive_definite")
        calls = {"_ldl": 0, "is_positive_definite": 0}
        owners = {"_ldl": lattice, "is_positive_definite": linalg}

        def counted(name):
            inner = getattr(owners[name], name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name, counted(name))
        g = IntMatrix([[3, 0, 0, 1], [0, 40, 0, 0], [0, 0, 40, 0], [1, 0, 0, 90]])
        assert minimum(g) == 3
        assert calls == {"_ldl": 1, "is_positive_definite": 0}
        calls.update(_ldl=0, is_positive_definite=0)
        n = 10**8
        assert minimum(IntMatrix([[n, n - 1], [n - 1, n]])) == 2
        assert calls == {"_ldl": 1, "is_positive_definite": 0}
