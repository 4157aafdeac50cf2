import pytest

import hassett.criteria as criteria
import hassett.lattice as lattice
import hassett.linalg as linalg
from hassett.criteria import (
    conjecture_shape,
    conjecture_sweep,
    criterion_report,
    discriminant_report,
    factorize,
    has_associated_k3,
    satisfies_double_star,
    satisfies_star,
)
from hassett.lattice import A1, H_SQUARED, coordinate_matrix, e_vec, gram_of, i3_unit
from hassett.linalg import integer_solver
from hassett.verifier import COROLLARY_DISCRIMINANTS


class TestStar:
    def test_boundary(self):
        assert satisfies_star(8)
        assert not satisfies_star(6)
        assert not satisfies_star(10)

    def test_agrees_with_direct_definition(self):
        for d in range(1, 10_001):
            assert satisfies_star(d) == (d >= 8 and d % 6 in (0, 2))


class TestDoubleStar:
    def test_examples(self):
        assert satisfies_double_star(26) == 2
        assert satisfies_double_star(294) == 7
        assert satisfies_double_star(38) is None

    def test_smallest_values(self):
        assert satisfies_double_star(24) == 2
        assert satisfies_double_star(6) is None  # needs m >= 2

    def test_implies_star(self):
        for m in range(2, 409):
            for d in (6 * m * m, 6 * m * m + 2):
                assert d <= 10**6
                assert satisfies_double_star(d) == m
                assert satisfies_star(d)

    def test_no_false_positives_on_a_range(self):
        import math

        for d in range(1, 5000):
            m = satisfies_double_star(d)
            brute = None
            for cand in range(2, math.isqrt(d) + 1):
                if d in (6 * cand * cand, 6 * cand * cand + 2):
                    brute = cand
            assert m == brute


class TestAssociatedK3:
    def test_examples(self):
        assert has_associated_k3(14)
        assert not has_associated_k3(8)  # 4 | 8
        assert not has_associated_k3(56)  # (**)-shaped but 4 | 56
        assert not has_associated_k3(18)  # 9 | 18
        assert not has_associated_k3(10)  # 5 = 2 (mod 3)

    def test_factorization_round_trip(self):
        for d in list(range(1, 2000)) + [10**12 - 1, 10**12]:
            product = 1
            for p, e in factorize(d):
                product *= p**e
            assert product == d

    def test_large_prime_cofactor(self):
        # 2 * 3 * 999999999989 with a prime beyond the trial-division bound.
        d = 2 * 3 * 999_999_999_989
        assert factorize(d) == [(2, 1), (3, 1), (999_999_999_989, 1)]


class TestConjectureShape:
    def test_examples(self):
        assert conjecture_shape(218) == (1, 3)
        assert conjecture_shape(98) == (1, 2)
        assert conjecture_shape(26) is None

    def test_maximal_k_is_reported(self):
        # 6 * 4^2 * 4 + 2 also equals 6 * 4^1 * 16 + 2; maximal k wins.
        d = 6 * 4**2 * 4 + 2
        assert conjecture_shape(d) == (2, 2)

    def test_shape_congruences(self):
        for d in range(1, 30_000):
            shape = conjecture_shape(d)
            if shape is not None:
                assert d % 6 == 2 and d % 4 == 2

    def test_consistency_with_sweep(self):
        rows = conjecture_sweep(30_000)
        shaped = {d for d, _, _, _ in rows}
        for d in range(1, 30_001):
            assert (d in shaped) == (conjecture_shape(d) is not None)


class TestConjectureSweep:
    def test_below_smallest_shape(self):
        assert conjecture_sweep(97) == []

    def test_up_to_300(self):
        assert conjecture_sweep(300) == [(98, 1, 2, True), (218, 1, 3, True)]

    def test_sweep_is_sorted_and_admissible_to_10k(self):
        rows = conjecture_sweep(10_000)
        assert rows == sorted(rows)
        assert all(ok for _, _, _, ok in rows)
        assert (98, 1, 2, True) in rows and (218, 1, 3, True) in rows

    def test_matches_enumeration_over_k_and_s(self):
        # Every 6 * 4^k * s^2 + 2 <= limit with k >= 1, s >= 2, keeping the
        # largest k per d (k ascends, so later entries overwrite).
        limit = 200_000
        shaped = {}
        k = 1
        while 6 * 4**k * 4 + 2 <= limit:
            s = 2
            while 6 * 4**k * s * s + 2 <= limit:
                shaped[6 * 4**k * s * s + 2] = (k, s)
                s += 1
            k += 1
        rows = conjecture_sweep(limit)
        assert [row[:3] for row in rows] == [(d, *ks) for d, ks in sorted(shaped.items())]

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            conjecture_sweep(0)


class TestDiscriminantReport:
    def test_report_26(self):
        r = discriminant_report(26)
        assert r.star and r.double_star and r.double_star_witness == 2
        assert r.k3_admissible
        assert r.factorization == ((2, 1), (13, 1))

    def test_double_star_witness_consistency(self):
        for d in range(1, 3000):
            r = discriminant_report(d)
            assert r.double_star == (r.double_star_witness is not None)

    def test_flagship_list(self):
        reports = [discriminant_report(d) for d in COROLLARY_DISCRIMINANTS]
        assert all(r.star for r in reports)
        assert all(r.k3_admissible for r in reports)
        no_double = [r.d for r in reports if not r.double_star]
        assert sorted(no_double) == [14, 38]
        witnesses = [r.double_star_witness for r in reports if r.double_star]
        assert witnesses == [2, 4, 6, 7, 8, 10, 12, 14, 16, 18, 19, 20, 22, 24, 26, 28, 32, 34]


def certify(basis):
    """The four checks on an explicit basis, as ``verify_witness`` runs them."""
    solve, invariants = integer_solver(coordinate_matrix(basis))
    return criterion_report(gram_of(basis), invariants, solve(H_SQUARED.coords) is not None)


class TestCertifyNonempty:
    def test_passing_witness(self):
        report = certify(
            (
                H_SQUARED,
                e_vec(1, 1) + 2 * e_vec(1, 2),
                e_vec(2, 1) + 2 * e_vec(2, 2),
                2 * A1 + i3_unit(3),
            )
        )
        assert report.passed
        assert report.minimum_norm == 3

    def test_norm_two_vector_fails(self):
        report = certify((H_SQUARED, e_vec(1, 1) + e_vec(1, 2)))
        assert not report.passed
        assert report.minimum_norm == 2

    def test_doubled_generator_fails_saturation(self):
        report = certify((H_SQUARED, 2 * (e_vec(1, 1) + 2 * e_vec(1, 2))))
        assert not report.passed
        assert not report.saturated

    def test_indefinite_gram_is_reported_not_raised(self):
        report = certify((H_SQUARED, e_vec(1, 1)))
        assert not report.positive_definite
        assert report.minimum_norm is None
        assert not report.passed

    def test_one_elimination_per_report(self, monkeypatch):
        # minimum's elimination also decides definiteness, so a report runs
        # no separate is_positive_definite, definite or not.
        assert not hasattr(criteria, "is_positive_definite")
        calls = {"_ldl": 0, "is_positive_definite": 0}
        owners = {"_ldl": lattice, "is_positive_definite": linalg}
        for name, owner in owners.items():
            inner = getattr(owner, name)

            def wrapper(*args, name=name, inner=inner):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, wrapper)
        definite = (
            H_SQUARED,
            e_vec(1, 1) + 2 * e_vec(1, 2),
            e_vec(2, 1) + 2 * e_vec(2, 2),
            2 * A1 + i3_unit(3),
        )
        for basis, pd, least in ((definite, True, 3), ((H_SQUARED, e_vec(1, 1)), False, None)):
            gram = gram_of(basis)
            calls.update(_ldl=0, is_positive_definite=0)
            report = criterion_report(gram, (1,) * len(basis), True)
            assert (report.positive_definite, report.minimum_norm) == (pd, least)
            assert calls == {"_ldl": 1, "is_positive_definite": 0}

    def test_scaled_generator_fails_saturation(self):
        # All other checks succeed, but 2*a1 leaves the index-2 gap.
        report = certify(
            (
                H_SQUARED,
                e_vec(1, 1) + 2 * e_vec(1, 2),
                e_vec(2, 1) + 2 * e_vec(2, 2),
                2 * A1,
            )
        )
        assert report.contains_h_squared
        assert report.positive_definite
        assert report.minimum_norm == 3
        assert not report.saturated
        assert not report.passed
