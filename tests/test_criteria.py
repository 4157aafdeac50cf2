import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hassett.criteria as criteria
import hassett.lattice as lattice
import hassett.linalg as linalg
from hassett.constructions import A1, COROLLARY_DISCRIMINANTS, e_vec, i3_vector
from hassett.criteria import (
    conjecture_sweep,
    discriminant_report,
    factorize,
    has_associated_k3,
    satisfies_double_star,
    satisfies_star,
)
from hassett.lattice import H_SQUARED, gram_of
from hassett.verifier import CriterionReport, verify_witness
from oracles import conjecture_shape, oracle_report, primes_by_trial_division


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

    def test_agrees_with_direct_definition(self):
        def odd_primes(n):
            odd = range(3, n + 1, 2)
            return [q for q in odd if n % q == 0 and all(q % f for f in range(3, q, 2))]

        for d in range(1, 3000):
            direct = d % 4 != 0 and d % 9 != 0 and all(q % 3 != 2 for q in odd_primes(d))
            assert has_associated_k3(d) == direct

    def test_large_prime_cofactor(self):
        # 2 * 3 * 999999999989: the cofactor is proved prime by trial division,
        # since its square root lies below the trial-division bound.
        d = 2 * 3 * 999_999_999_989
        assert factorize(d) == [(2, 1), (3, 1), (999_999_999_989, 1)]

    @given(st.integers(1, 10**12))
    @example(999_979 * 999_983)  # the two largest primes below 10**6
    @example(999_983**2)
    @example(999_999_999_989)  # the largest prime below 10**12
    @example(10**12)
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_factorint_up_to_ten_to_the_twelve(self, n):
        from sympy import factorint

        assert factorize(n) == sorted(factorint(n).items())

    @pytest.mark.parametrize(
        "n",
        [
            1_000_003 * 1_000_033,
            # psi_12 = 1287836182261 * 2575672364521, the least strong
            # pseudoprime to the twelve prime bases 2..37 (Sorenson-Webster).
            3_317_044_064_679_887_385_961_981,
        ],
    )
    def test_cofactor_trial_division_cannot_finish_raises(self, n):
        with pytest.raises(ValueError, match=str(n)):
            factorize(n)
        with pytest.raises(ValueError):
            has_associated_k3(n)


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

    def test_limits_around_the_first_rows(self):
        first, second = (98, 1, 2, True), (218, 1, 3, True)
        expected = {1: [], 97: [], 98: [first], 99: [first], 218: [first, second]}
        for limit, rows in expected.items():
            assert conjecture_sweep(limit) == rows

    def test_rows_match_row_by_row_oracle_to_a_million(self):
        rows = conjecture_sweep(10**6)
        assert len(rows) == math.isqrt((10**6 - 2) // 24) - 1
        for d, k, s, ok in rows:
            assert (d, k, s, ok) == (d, *conjecture_shape(d), has_associated_k3(d))

    def test_rows_match_factorize_on_a_sample(self):
        # At 10^10 the certificate's bound (70709) exceeds the row count, so
        # the sample holds rows with and without a prime factor above it.
        limit = 10**10
        count = math.isqrt((limit - 2) // 24) - 1
        rows = conjecture_sweep(limit)
        assert len(rows) == count == 20411
        # The module docstring's lemma: every shaped d is admissible.
        assert all(ok for _, _, _, ok in rows)
        bound = math.isqrt(12 * (count + 1) ** 2 + 1)
        above_bound = set()
        for i in range(0, count, count // 300):
            t = i + 2
            d = 24 * t * t + 2
            factors = factorize(d)
            assert rows[i][0] == d
            assert rows[i][3] == all(criteria._k3_allows(p, e) for p, e in factors)
            above_bound.add(factors[-1][0] > bound)
        assert above_bound == {True, False}

    def test_sweep_factors_no_row_one_by_one(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(criteria, "factorize", refuse)
        assert len(conjecture_sweep(10**8)) == 2040


class TestFamilyCertificate:
    def test_sieve_flags_match_trial_division(self):
        for n in (0, 1, 2, 3, 4, 5, 6, 25, 2000):
            primes = set(primes_by_trial_division(n))
            assert criteria._sieve(n) == bytes(int(i in primes) for i in range(n + 1))

    def test_divides_no_row_matches_root_search_below_2000(self):
        for p in primes_by_trial_division(1999)[2:]:  # p >= 5
            squares = {x * x % p for x in range(p)}
            roots = {t for t in range(p) if (12 * t * t + 1) % p == 0}
            # -1/12 is a square mod p iff p = 1 (mod 3).
            assert (-pow(12, -1, p) % p in squares) == (p % 3 == 1)
            assert criteria._divides_no_row(p) == (not roots) == (p % 3 == 2)

    def test_certificate_walk_at_every_count_to_400(self):
        bounds = {count: math.isqrt(12 * (count + 1) ** 2 + 1) for count in range(-1, 401)}
        primes = primes_by_trial_division(max(bounds.values()))
        walked = {}
        for count, bound in bounds.items():
            walked[count] = criteria._certify_family(count)
            assert walked[count] == [p for p in primes if 5 <= p <= bound and p % 3 == 2], count
        # Bounds 1 and 3 lie below the first prime, 7 .. 17 cross 5, 11 and
        # 17, and bound 17 is itself a prime 5 (mod 6).
        assert [bounds[c] for c in range(-1, 5)] == [1, 3, 7, 10, 13, 17]
        assert [walked[c] for c in range(-1, 5)] == [[], [], [5], [5], [5, 11], [5, 11, 17]]

    @pytest.mark.parametrize("limit", [97, 98, 300, 10**6, 10**8])
    def test_certificate_checks_every_prime_2_mod_3_up_to_the_bound(self, limit, monkeypatch):
        count = math.isqrt((limit - 2) // 24) - 1
        bound = math.isqrt(12 * (count + 1) ** 2 + 1)
        expected = [p for p in range(5, bound + 1, 3) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        checked = []
        check = criteria._divides_no_row
        monkeypatch.setattr(criteria, "_divides_no_row", lambda p: checked.append(p) or check(p))
        conjecture_sweep(limit)
        assert checked == expected
        checked.clear()
        assert criteria._certify_family(count) == checked == expected

    def test_failed_check_raises_and_returns_no_row(self, monkeypatch):
        # The largest prime 2 (mod 3) up to the bound of the 10^6 sweep (706).
        check = criteria._divides_no_row
        monkeypatch.setattr(criteria, "_divides_no_row", lambda p: p != 701 and check(p))
        with pytest.raises(ArithmeticError, match=r"\b701\b"):
            conjecture_sweep(10**6)
        assert len(conjecture_sweep(10**5)) == 63  # bound 221: only 701 fails


class TestDiscriminantReport:
    def test_report_26(self):
        r = discriminant_report(26)
        assert r.star and r.double_star and r.double_star_witness == 2
        assert r.k3_admissible
        assert r.factorization == ((2, 1), (13, 1))

    @pytest.mark.parametrize("n", [0, -26])
    def test_nonpositive_input_raises(self, n):
        with pytest.raises(ValueError, match="factorize expects a positive integer"):
            factorize(n)
        with pytest.raises(ValueError, match="discriminant must be positive"):
            discriminant_report(n)

    def test_factors_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(criteria, "factorize", counted)
        for d in (14, 26, 2 * 999_999_999_989):
            calls.clear()
            r = discriminant_report(d)
            assert calls == [d]
            assert r.factorization == tuple(factorize(d))
            assert r.k3_admissible == has_associated_k3(d)

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
    """The four checks of ``verify_witness`` on an explicit basis, checked against the oracles."""
    targets = (0,) * (len(basis) - 1)
    report = verify_witness(basis, targets)
    assert report.to_dict() == oracle_report(basis, targets)
    return report.criterion


class TestCertifyNonempty:
    def test_passing_witness(self):
        report = certify(
            (
                H_SQUARED,
                e_vec(1, 1) + 2 * e_vec(1, 2),
                e_vec(2, 1) + 2 * e_vec(2, 2),
                2 * A1 + i3_vector(0, 0, 1),
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
            2 * A1 + i3_vector(0, 0, 1),
        )
        for basis, pd, least in ((definite, True, 3), ((H_SQUARED, e_vec(1, 1)), False, None)):
            calls.update(_ldl=0, is_positive_definite=0)
            report = verify_witness(basis, (0,) * (len(basis) - 1)).criterion
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


class TestCriterionReasons:
    def test_reasons_name_each_failed_check_in_check_order(self):
        for has_h, pd, sat in itertools.product((True, False), repeat=3):
            for least in (None, 2, 3):
                report = CriterionReport(has_h, pd, sat, least)
                expected = []
                if not has_h:
                    expected.append("MISSING_H_SQUARED")
                if not pd:
                    expected.append("NOT_POSITIVE_DEFINITE")
                if not sat:
                    expected.append("NOT_SATURATED")
                if least == 2:
                    expected.append("MIN_NORM_2")
                assert report.reasons == tuple(expected), (has_h, pd, sat, least)
                assert report.passed == (not expected)

    def test_criterion_report_passes_exactly_when_no_reason_is_named(self):
        # Three lattices: one passes every check, one has Gram [[3, 0], [0, 2]]
        # and one the semidefinite [[3, 0], [0, 0]].  Each is realized with
        # (contains h2, saturated) = TT, TF, FT and FF: as given, with a
        # doubled generator, without h2, and with 2 h2 in place of h2.
        h, sat, pd, two = "MISSING_H_SQUARED", "NOT_SATURATED", "NOT_POSITIVE_DEFINITE", "MIN_NORM_2"
        u1, u2 = e_vec(1, 1) + 2 * e_vec(1, 2), e_vec(2, 1) + 2 * e_vec(2, 2)
        a, v, z = 2 * A1 + i3_vector(0, 0, 1), e_vec(1, 1) + e_vec(1, 2), e_vec(1, 1)
        cases = (
            ((H_SQUARED, u1, u2, a), 3, ()),
            ((H_SQUARED, 2 * u1, u2, a), 3, (sat,)),
            ((u1, u2, a), 4, (h,)),
            ((2 * H_SQUARED, u1, u2, a), 4, (h, sat)),
            ((H_SQUARED, v), 2, (two,)),
            ((H_SQUARED, v, 2 * u2), 2, (sat, two)),
            ((v,), 2, (h, two)),
            ((2 * H_SQUARED, v), 2, (h, sat, two)),
            ((H_SQUARED, z), None, (pd,)),
            ((H_SQUARED, 2 * z), None, (pd, sat)),
            ((z,), None, (h, pd)),
            ((2 * H_SQUARED, z), None, (h, pd, sat)),
        )
        for basis, least, expected in cases:
            criterion = verify_witness(basis, (0,) * (len(basis) - 1)).criterion
            assert criterion.minimum_norm == least
            assert criterion.reasons == expected, basis
            assert criterion.to_dict()["pass"] is (not expected)
        assert gram_of((H_SQUARED, v)).rows == ((3, 0), (0, 2))
        assert gram_of((H_SQUARED, z)).rows == ((3, 0), (0, 0))
