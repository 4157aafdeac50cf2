import hashlib
import itertools
import json
import random

import pytest

from hassett.constructions import (
    COROLLARY_DISCRIMINANTS,
    CaseId,
    Mode,
    build,
    build_generic,
    check_identity,
    corollary20_certificate,
    generic_slots,
    ideal_gram,
)
import hassett.constructions as constructions
from hassett.criteria import discriminant_report, satisfies_star
from hassett.lattice import (
    A1,
    AmbientVector,
    H_SQUARED,
    IntMatrix,
    e_vec,
    i3_vector,
    short_vectors,
    t_vec,
)
from hassett.verifier import (
    _labelling_saturated,
    Certificate,
    CertificateError,
    certificate_for,
    verify_witness,
)
from oracles import (
    from_columns,
    invariant_factors,
    oracle_report,
    oracle_short_vectors,
    quadratic_form,
    slipped_all2_value,
    vector_difference,
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
        report = verify_witness(outcome.certificate.basis, (12, 12, 24))
        assert [l.realized_d for l in report.labellings] == [12, 12, 24]
        assert all(l.saturated_in_m for l in report.labellings)
        assert report.criterion.minimum_norm == 3
        # The scaled third generator leaves an index-2 gap in the ambient
        # lattice, so the witness is not saturated and cannot pass.
        assert report.verdict == "FAIL"
        assert report.failure_reasons == ("NOT_SATURATED",)

    def test_rank4_case2_passes(self):
        outcome = build(CaseId.R4_002, (2, 2, 4), Mode.GOAL)
        report = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
        assert report.verdict == "PASS"
        assert report.failure_reasons == ()

    def test_sabotaged_generator_reports_norm_two(self):
        basis = (
            H_SQUARED,
            e_vec(1, 1) + e_vec(1, 2),  # norm 2
            e_vec(2, 1) + 2 * e_vec(2, 2),
            2 * A1 + i3_vector(0, 0, 1),
        )
        report = verify_witness(basis, (12, 12, 26))
        assert report.verdict == "FAIL"
        assert "MIN_NORM_2" in report.failure_reasons
        assert any(l.realized_d != l.target_d for l in report.labellings)

    def test_disc_mismatch_is_positional(self):
        outcome = build(CaseId.R4_002, (2, 2, 4), Mode.GOAL)
        report = verify_witness(outcome.certificate.basis, (12, 14, 26))
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

    def test_empty_basis_raises(self):
        with pytest.raises(ValueError, match="witness basis must be nonempty"):
            verify_witness((), ())

    def test_h2_pairing_is_read_off_the_gram_row(self, monkeypatch):
        import hassett.verifier as verifier

        calls = []
        inner = verifier.inner_product

        def counting(u, v):
            calls.append(v)
            return inner(u, v)

        monkeypatch.setattr(verifier, "inner_product", counting)
        outcome = build_generic((12, 14, 26, 98, 56), Mode.GOAL)
        report = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
        assert calls == [] and report.verdict == "PASS"
        # Without h2 first, every labelling still pairs h2 with its vector.
        basis = outcome.certificate.basis
        swapped = (basis[1], basis[0]) + basis[2:]
        report = verify_witness(swapped, outcome.certificate.targets)
        assert calls == list(swapped[1:])
        assert "FIRST_BASIS_NOT_H_SQUARED" in report.failure_reasons
        realized = [3 * inner(v, v) - inner(H_SQUARED, v) ** 2 for v in swapped[1:]]
        assert [l.realized_d for l in report.labellings] == realized

    def test_bit_for_bit_determinism(self):
        outcome = build(CaseId.R4_022, (2, 2, 4), Mode.GOAL)
        r1 = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
        r2 = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
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
            f = invariant_factors(from_columns([h, unit]))
            expected = len(f) == 2 and all(x == 1 for x in f)
            assert _labelling_saturated(tuple(h), j) == expected, (h, j, f)


# sha256 of the concatenated certificate JSON of ``golden_pool``.  Any change
# to a verdict, a reason, a labelling or a realized Gram changes it.
GOLDEN_DIGEST = "f7e1e434e3f6b45e86c1f0055e896ba4b479964a66c53689869a7cb222dc1aca"


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
        basis = outcome.certificate.basis
        doubled = rng.randrange(len(basis))
        repeated = rng.randrange(1, len(basis))
        shuffled = list(basis[1:])
        rng.shuffle(shuffled)
        yield basis, targets, ideal_gram(generic_slots(targets)) if mode == Mode.STRICT else None
        yield (basis[0] + basis[1],) + basis[1:], targets, None
        yield basis[1:] + basis[:1], targets, None
        yield basis[:doubled] + (2 * basis[doubled],) + basis[doubled + 1 :], targets, None
        yield basis[:repeated] + (basis[repeated - 1],) + basis[repeated + 1 :], targets, None
        yield (basis[0],) + tuple(shuffled), targets, None
        yield basis, targets[:-1], None
    yield build_generic(COROLLARY_DISCRIMINANTS, Mode.GOAL).certificate.basis, COROLLARY_DISCRIMINANTS, None


def golden_digest():
    h = hashlib.sha256()
    for basis, targets, reference in golden_pool():
        h.update(certificate_for(basis, targets, reference).to_json().encode())
    return h.hexdigest()


def test_golden_reports():
    assert golden_digest() == GOLDEN_DIGEST


def test_reports_match_the_oracle_report():
    # Every variant of ten seeded lists of rank at most 19, and the corollary.
    # The oracle walks its whole enumeration box: about 10^6 points on the
    # rank-20 list and 10^15 on the rank-21 one, but 405 on the corollary.
    pool = list(golden_pool())
    lists = [pool[i : i + 7] for i in range(0, len(pool) - 1, 7)]
    chosen = random.Random(34).sample([l for l in lists if len(l[0][0]) <= 19], 10)
    for basis, targets, _ in [*itertools.chain(*chosen), pool[-1]]:
        assert verify_witness(basis, targets).to_dict() == oracle_report(basis, targets)


class TestCorollary20:
    def test_flagship_report(self):
        witness = corollary20_certificate().report
        reports = [discriminant_report(d) for d in COROLLARY_DISCRIMINANTS]
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

    def test_verification_runs_no_smith_form(self, monkeypatch):
        import hassett.linalg as linalg

        basis = corollary20_certificate().basis
        expected = verify_witness(basis, COROLLARY_DISCRIMINANTS)

        def refuse(*args):
            raise AssertionError("verify_witness ran a Smith normal form")

        monkeypatch.setattr(linalg, "smith_normal_form", refuse)
        monkeypatch.setattr(linalg, "_smith_in_place", refuse)
        monkeypatch.setattr(constructions, "_smith_in_place", refuse)
        report = verify_witness(basis, COROLLARY_DISCRIMINANTS)
        assert report == expected and report.verdict == "PASS"

    def test_minimum_is_exactly_three(self):
        witness = corollary20_certificate().report
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
        assert parsed.report == cert.report

    def test_round_trip_passing_certificate(self):
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        cert = certificate_for(outcome.certificate.basis, outcome.certificate.targets)
        again = Certificate.from_json(cert.to_json())
        assert again.report.verdict == "PASS"

    def test_tampered_basis_detected(self):
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        cert = certificate_for(outcome.certificate.basis, outcome.certificate.targets)
        doc = json.loads(cert.to_json())
        doc["basis"][1] = [2 * x for x in doc["basis"][1]]
        tampered = Certificate.from_json(json.dumps(doc))
        redone = tampered.report
        assert redone.verdict == "FAIL"
        assert "NOT_SATURATED" in redone.failure_reasons

    def test_forged_pass_is_recomputed(self):
        # Two orthogonal U vectors of norms 400 and 460 and no h2, as the
        # benchmark's hostile certificates have; the embedded report claims
        # PASS with minimum 3 and a 1 x 1 Gram.
        basis = (e_vec(1, 1) + 200 * e_vec(1, 2), e_vec(2, 1) + 230 * e_vec(2, 2))
        doc = json.loads(certificate_for(basis, (8,)).to_json())
        doc["report"] = {
            "criterion": {
                "containsHSquared": True,
                "positiveDefinite": True,
                "saturated": True,
                "minimumNorm": 3,
                "pass": True,
            },
            "labellings": [{"targetD": 8, "realizedD": 8, "saturatedInM": True}],
            "gramMatchesReference": None,
            "realizedGram": [[3]],
            "verdict": "PASS",
            "failureReasons": [],
        }
        parsed = Certificate.from_json(json.dumps(doc))
        assert parsed.report == verify_witness(basis, (8,))
        assert parsed.report.verdict == "FAIL"
        assert parsed.report.criterion.minimum_norm == 400

    def test_contradicting_report_is_recomputed(self):
        # The intersect 12 12 26 certificate with an emptied labelling list,
        # a 1 x 3 Gram and unknown keys: it parses, and its report is the
        # verifier's, not the file's.
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        doc = json.loads(certificate_for(outcome.certificate.basis, outcome.certificate.targets).to_json())
        doc["extra"] = 1
        doc["report"]["criterion"]["bogus"] = True
        doc["report"]["labellings"] = []
        doc["report"]["realizedGram"] = [[1, 2, 3]]
        parsed = Certificate.from_json(json.dumps(doc))
        assert parsed.report == verify_witness(outcome.certificate.basis, outcome.certificate.targets)
        assert [l.realized_d for l in parsed.report.labellings] == [12, 12, 26]

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
        assert check_identity(CaseId.R4_002, (2, 2, 4))

    def test_raw_all2_identity_fails(self):
        # The displayed expression multiplies two residue-2 squares, so some
        # point tells it apart from the form.
        gram = constructions.reference_gram(CaseId.R4_222, (1, 1, 4))
        points = itertools.product(range(-1, 2), repeat=4)
        assert any(slipped_all2_value(x) != quadratic_form(gram, x) for x in points)

    def test_rank5_all2_identity_holds_as_printed(self):
        assert check_identity(CaseId.R5_2222, (1, 1, 4, 4))

    def test_one_bumped_cross_term_is_refuted_in_every_case(self, monkeypatch):
        # The matrix comparison decides: a Gram one entry away from the
        # reference is not the completed squares, in any rank-4/5 case,
        # whether the entry is a cross term, in the h2 row or on the diagonal.
        reference = constructions.reference_gram
        cases = [c for c in CaseId if not c.value.startswith("r21")]
        params = {4: (2, 2, 4), 5: (2, 2, 4, 9)}
        assert all(check_identity(c, params[int(c.value[1])]) for c in cases)
        for i, j in ((1, -1), (0, 2), (0, 0)):

            def bumped(case_id, params, i=i, j=j):
                rows = reference(case_id, params).to_lists()
                for a, b in {(i, j), (j, i)}:
                    rows[a][b] += 1
                return IntMatrix(rows)

            monkeypatch.setattr(constructions, "reference_gram", bumped)
            for case_id in cases:
                assert not check_identity(case_id, params[int(case_id.value[1])]), (case_id, i, j)


def test_ambient_vector_round_trip():
    v = vector_difference(3 * t_vec(1, 4), 2 * e_vec(2, 1)) + i3_vector(0, 1, 0)
    w = AmbientVector(v.coords)
    assert v == w


def test_records_are_named_tuples():
    # The report records and the certificate are tuples: they iterate, compare
    # equal to their fields, and _replace builds an edited copy.
    outcome = build_generic((14, 38, 26), Mode.GOAL)
    cert = outcome.certificate
    for record in (outcome, cert, cert.report, cert.report.criterion, cert.report.labellings[0]):
        assert isinstance(record, tuple) and record == tuple(record)
    assert discriminant_report(26) == tuple(discriminant_report(26))
    edited = cert._replace(report=cert.report._replace(verdict="FAIL"))
    assert edited.report.verdict == "FAIL" and edited.basis == cert.basis
    assert Certificate.from_json(cert.to_json()) == cert
