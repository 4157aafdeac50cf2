import hashlib
import json
import random

import pytest

from hassett.constructions import CaseId, Mode, build, build_generic
from hassett.criteria import satisfies_star
from hassett.lattice import (
    A1,
    AmbientVector,
    H_SQUARED,
    e_vec,
    i3_unit,
    short_vectors,
    t_vec,
)
from hassett.linalg import IntMatrix, invariant_factors, quadratic_form
from hassett.verifier import (
    COROLLARY_DISCRIMINANTS,
    _labelling_saturated,
    Certificate,
    CertificateError,
    certificate_for,
    check_identity,
    corollary20_certificate,
    oracle_short_vectors,
    verify_corollary20,
    verify_witness,
)

A2_GRAM = IntMatrix([[2, 1], [1, 2]])


def random_pd_gram(rng, max_rank=4):
    while True:
        n = rng.randint(1, max_rank)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 1)]
        g = [[sum(b[k][i] * b[k][j] for k in range(n + 1)) for j in range(n)] for i in range(n)]
        m = IntMatrix(g)
        from hassett.linalg import is_positive_definite

        if is_positive_definite(m) and max(max(abs(x) for x in row) for row in g) <= 20:
            return m


class TestOracle:
    def test_a2_matches(self):
        assert oracle_short_vectors(A2_GRAM, 2) == short_vectors(A2_GRAM, 2)

    def test_rank_one(self):
        assert oracle_short_vectors(IntMatrix([[3]]), 3) == [(1,)]

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            oracle_short_vectors(IntMatrix([[0, 1], [1, 0]]), 2)

    def test_matches_enumerator_on_random_grams(self):
        rng = random.Random(777)
        for _ in range(200):
            g = random_pd_gram(rng)
            c = rng.randint(0, 10)
            assert oracle_short_vectors(g, c) == short_vectors(g, c)


class TestVerifyWitness:
    def test_rank4_case1_checks(self):
        outcome = build(CaseId.R4_000, (2, 2, 4), Mode.STRICT)
        report = verify_witness(outcome.basis, (12, 12, 24))
        assert [l.realized_d for l in report.labellings] == [12, 12, 24]
        assert all(l.saturated_in_m for l in report.labellings)
        assert report.criterion.minimum_norm == 3
        # The scaled third generator leaves an index-2 gap in the ambient
        # lattice, so the witness is not saturated and cannot pass.
        assert report.verdict == "FAIL"
        assert report.failure_reasons == ("NOT_SATURATED",)

    def test_rank4_case2_passes(self):
        outcome = build(CaseId.R4_002, (2, 2, 4), Mode.GOAL)
        report = verify_witness(outcome.basis, outcome.targets)
        assert report.verdict == "PASS"
        assert report.failure_reasons == ()

    def test_sabotaged_generator_reports_norm_two(self):
        basis = (
            H_SQUARED,
            e_vec(1, 1) + e_vec(1, 2),  # norm 2
            e_vec(2, 1) + 2 * e_vec(2, 2),
            2 * A1 + i3_unit(3),
        )
        report = verify_witness(basis, (12, 12, 26))
        assert report.verdict == "FAIL"
        assert "MIN_NORM_2" in report.failure_reasons
        assert any(l.realized_d != l.target_d for l in report.labellings)

    def test_disc_mismatch_is_positional(self):
        outcome = build(CaseId.R4_002, (2, 2, 4), Mode.GOAL)
        report = verify_witness(outcome.basis, (12, 14, 26))
        assert "DISC_MISMATCH(1)" in report.failure_reasons

    def test_wrong_first_vector(self):
        report = verify_witness((A1, H_SQUARED), (6,))
        assert report.verdict == "FAIL"
        assert "FIRST_BASIS_NOT_H_SQUARED" in report.failure_reasons

    def test_dependent_basis_is_structured_failure(self):
        report = verify_witness((H_SQUARED, 2 * H_SQUARED), (12,))
        assert report.verdict == "FAIL"
        assert "DEPENDENT_BASIS" in report.failure_reasons

    def test_target_count_mismatch(self):
        report = verify_witness((H_SQUARED, 2 * A1), (24, 24))
        assert "TARGET_COUNT_MISMATCH" in report.failure_reasons

    def test_bit_for_bit_determinism(self):
        outcome = build(CaseId.R4_022, (2, 2, 4), Mode.GOAL)
        r1 = verify_witness(outcome.basis, outcome.targets)
        r2 = verify_witness(outcome.basis, outcome.targets)
        assert r1 == r2
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


class TestLabellingSaturation:
    def test_gcd_of_minors_matches_smith_invariants(self):
        # Columns (h, e_j), as verify_witness forms them for labelling j - 1.
        rng = random.Random(31)
        for trial in range(600):
            k = rng.randint(2, 21)
            j = rng.randrange(1, k)
            kind = ("random", "zero", "along_unit", "content")[trial % 4]
            h = [rng.randint(-3, 3) for _ in range(k)]
            if kind == "zero":
                h = [0] * k
            elif kind == "along_unit":
                h = [0] * k
                h[j] = rng.randint(-3, 3)
            elif kind == "content":
                content = rng.randint(2, 6)
                h = [content * x for x in h]
                h[j] = rng.randint(-3, 3)
            unit = [int(i == j) for i in range(k)]
            f = invariant_factors(IntMatrix.from_columns([h, unit]))
            expected = len(f) == 2 and all(x == 1 for x in f)
            assert _labelling_saturated(tuple(h), j) == expected, (h, j, f)


# sha256 of the concatenated certificate JSON of ``golden_pool``.  Any change
# to a verdict, a reason, a labelling or a realized Gram changes it.
GOLDEN_DIGEST = "b43e078844df01ab1efaa4cef34705416b749836704ec658855de78a5cf90ad8"


def golden_pool():
    """Seeded GOAL and STRICT witnesses, hostile variants of each, and the corollary.

    Yields (basis, targets, reference) triples; ``reference`` is the STRICT
    target Gram, as ``intersect`` passes it.
    """
    rng = random.Random(20240101)
    star = [d for d in range(8, 200) if satisfies_star(d)]
    double_star = [6 * m * m + r for m in range(2, 12) for r in (0, 2)]
    lists = [(Mode.GOAL, n) for n in range(2, 21)] + [(Mode.STRICT, n) for n in range(2, 11)]
    for mode, n in lists:
        targets = tuple(rng.sample(star, 2) + rng.sample(double_star, n - 2))
        outcome = build_generic(targets, mode)
        basis = outcome.basis
        reference = None
        if outcome.gram_delta is not None:
            reference = outcome.realized_gram - outcome.gram_delta
        doubled = rng.randrange(len(basis))
        repeated = rng.randrange(1, len(basis))
        shuffled = list(basis[1:])
        rng.shuffle(shuffled)
        yield basis, targets, reference
        yield (basis[0] + basis[1],) + basis[1:], targets, None
        yield basis[1:] + basis[:1], targets, None
        yield basis[:doubled] + (2 * basis[doubled],) + basis[doubled + 1 :], targets, None
        yield basis[:repeated] + (basis[repeated - 1],) + basis[repeated + 1 :], targets, None
        yield (basis[0],) + tuple(shuffled), targets, None
        yield basis, targets[:-1], None
    yield build_generic(COROLLARY_DISCRIMINANTS, Mode.GOAL).basis, COROLLARY_DISCRIMINANTS, None


def golden_digest():
    h = hashlib.sha256()
    for basis, targets, reference in golden_pool():
        report = verify_witness(basis, targets, reference=reference)
        h.update(certificate_for(basis, targets, report).to_json().encode())
    return h.hexdigest()


def test_golden_reports():
    assert golden_digest() == GOLDEN_DIGEST


class TestCorollary20:
    def test_flagship_report(self):
        witness, reports = verify_corollary20()
        assert [r.d for r in reports] == list(COROLLARY_DISCRIMINANTS)
        assert all(r.star for r in reports)
        assert all(r.k3_admissible for r in reports)
        assert [l.realized_d for l in witness.labellings] == list(COROLLARY_DISCRIMINANTS)
        assert all(l.saturated_in_m for l in witness.labellings)
        assert witness.criterion.contains_h_squared
        assert witness.criterion.positive_definite
        assert witness.criterion.minimum_norm == 3
        assert witness.criterion.saturated
        assert witness.verdict == "PASS"
        assert witness.failure_reasons == ()

    def test_minimum_is_exactly_three(self):
        witness, _ = verify_corollary20()
        g = witness.realized_gram
        assert short_vectors(g, 2) == []
        three = short_vectors(g, 3)
        assert three and all(quadratic_form(g, v) == 3 for v in three)


class TestCertificates:
    def test_round_trip_bytes_and_verdict(self):
        cert = corollary20_certificate()
        text = cert.to_json()
        parsed = Certificate.from_json(text)
        assert parsed.to_json() == text
        assert parsed.reverify() == cert.report

    def test_round_trip_passing_certificate(self):
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        report = verify_witness(outcome.basis, outcome.targets)
        cert = certificate_for(outcome.basis, outcome.targets, report)
        again = Certificate.from_json(cert.to_json())
        assert again.reverify().verdict == "PASS"

    def test_tampered_basis_detected(self):
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        report = verify_witness(outcome.basis, outcome.targets)
        cert = certificate_for(outcome.basis, outcome.targets, report)
        doc = json.loads(cert.to_json())
        doc["basis"][1] = [2 * x for x in doc["basis"][1]]
        tampered = Certificate.from_json(json.dumps(doc))
        redone = tampered.reverify()
        assert redone.verdict == "FAIL"
        assert "NOT_SATURATED" in redone.failure_reasons

    def test_truncated_json_rejected(self):
        cert = corollary20_certificate()
        with pytest.raises(CertificateError):
            Certificate.from_json(cert.to_json()[:-40])

    def test_missing_field_rejected(self):
        doc = json.loads(corollary20_certificate().to_json())
        del doc["targets"]
        with pytest.raises(CertificateError, match="targets"):
            Certificate.from_json(json.dumps(doc))

    def test_bad_row_width_rejected(self):
        doc = json.loads(corollary20_certificate().to_json())
        doc["basis"][0] = doc["basis"][0][:-1]
        with pytest.raises(CertificateError, match="23 integers"):
            Certificate.from_json(json.dumps(doc))


class TestCheckIdentity:
    def test_case2_identity_holds(self):
        assert check_identity(CaseId.R4_002, (2, 2, 4), 2000, 0)

    def test_raw_all2_identity_fails(self):
        assert not check_identity(CaseId.R4_222, (1, 1, 4), 2000, 0, corrected=False)

    def test_rank5_all2_identity_holds_as_printed(self):
        assert check_identity(CaseId.R5_2222, (1, 1, 4, 4), 2000, 0)

    def test_deterministic_in_seed(self):
        a = check_identity(CaseId.R4_022, (2, 2, 4), 500, 42)
        b = check_identity(CaseId.R4_022, (2, 2, 4), 500, 42)
        assert a == b


def test_ambient_vector_round_trip():
    v = 3 * t_vec(1, 4) - 2 * e_vec(2, 1) + i3_unit(2)
    w = AmbientVector(v.coords)
    assert v == w
