"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every expected value here is exact integer arithmetic; there are no
tolerances.  Criteria 1 and 7 assert, besides discriminants, positive
definiteness, minimum norm and labelling saturation, that every witness is
saturated in the ambient lattice.  The glued GOAL builder makes its
witnesses saturated by construction, so both pass.
"""

import itertools
import math
import random
import time

from hassett.constructions import (
    COROLLARY_DISCRIMINANTS,
    CaseId,
    Mode,
    RealizationStatus,
    build,
    build_generic,
    check_identity,
    corollary20_certificate,
    reference_gram,
)
from hassett.criteria import conjecture_sweep, discriminant_report, factorize, has_associated_k3
from hassett.lattice import E8_GRAM, short_vectors
from hassett.linalg import IntMatrix, is_positive_definite
from hassett.lattice import AMBIENT_GRAM
from hassett.verifier import Certificate, certificate_for, verify_witness
from oracles import (
    determinant,
    inertia,
    oracle_short_vectors,
    quadratic_form,
    rational_inverse,
    slipped_all2_value,
)

A2_GRAM = IntMatrix([[2, 1], [1, 2]])

STAR_POOL = tuple(d for d in range(8, 201) if d % 6 in (0, 2))
DOUBLE_STAR_POOL = tuple(
    d for m in range(2, 35) for d in (6 * m * m, 6 * m * m + 2) if d <= 7000
)


def _report(number: int, name: str, checks: dict[str, bool], started: float) -> None:
    ok = all(checks.values())
    elapsed = time.time() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict}  [{elapsed:.1f}s]")
    failed = [key for key, good in checks.items() if not good]
    assert ok, f"criterion {number} failed sub-checks: {failed}"


def test_criterion_1_corollary20():
    started = time.time()
    witness = corollary20_certificate().report
    reports = [discriminant_report(d) for d in COROLLARY_DISCRIMINANTS]
    expected_m = [2, 4, 6, 7, 8, 10, 12, 14, 16, 18, 19, 20, 22, 24, 26, 28, 32, 34]
    checks = {
        "all 20 satisfy (*)": all(r.star for r in reports),
        "exactly 14 and 38 fail (**)": sorted(
            r.d for r in reports if not r.double_star
        )
        == [14, 38],
        "square witnesses match": [
            r.double_star_witness for r in reports if r.double_star
        ]
        == expected_m,
        "all 20 K3-admissible": all(r.k3_admissible for r in reports),
        "pairwise distinct": len({r.d for r in reports}) == 20,
        "contains h2": witness.criterion.contains_h_squared,
        "positive definite": witness.criterion.positive_definite,
        "minimum norm exactly 3": witness.criterion.minimum_norm == 3,
        "all 20 labelling discriminants exact": all(
            l.realized_d == l.target_d for l in witness.labellings
        ),
        "labellings saturated in witness": all(
            l.saturated_in_m for l in witness.labellings
        ),
        # The 23 x 21 coordinate matrix has all Smith invariants 1.
        "saturated in ambient lattice": witness.criterion.saturated,
        "witness verdict PASS": witness.verdict == "PASS",
    }
    _report(1, "corollary20 reproduction", checks, started)


def test_criterion_2_rank4_cases():
    started = time.time()
    strict1 = build(CaseId.R4_000, (2, 2, 4), Mode.STRICT)
    strict2 = build(CaseId.R4_002, (2, 2, 4), Mode.STRICT)
    strict3 = build(CaseId.R4_022, (2, 2, 4), Mode.STRICT)
    strict4 = build(CaseId.R4_222, (1, 1, 4), Mode.STRICT)

    def goal_passes(case_id, params, expected_ds):
        outcome = build(case_id, params, Mode.GOAL)
        if outcome.status != RealizationStatus.REALIZED_GOAL:
            return False
        report = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
        return report.verdict == "PASS" and tuple(
            l.realized_d for l in report.labellings
        ) == expected_ds

    checks = {
        "case 000 strict Gram": strict1.status == RealizationStatus.REALIZED_STRICT
        and strict1.certificate.report.realized_gram
        == IntMatrix([[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]]),
        "case 002 strict Gram": strict2.status == RealizationStatus.REALIZED_STRICT
        and strict2.certificate.report.realized_gram
        == IntMatrix([[3, 0, 0, 1], [0, 4, 0, 0], [0, 0, 4, 0], [1, 0, 0, 9]]),
        "case 022 strict not realizable": strict3.status
        == RealizationStatus.NOT_REALIZABLE
        and strict3.certificate.report.realized_gram != reference_gram(CaseId.R4_022, (2, 2, 4)),
        "case 222 strict not realizable": strict4.status
        == RealizationStatus.NOT_REALIZABLE
        and strict4.certificate.report.realized_gram != reference_gram(CaseId.R4_222, (1, 1, 4)),
        "goal (12,12,26)": goal_passes(CaseId.R4_002, (2, 2, 4), (12, 12, 26)),
        "goal (12,14,26)": goal_passes(CaseId.R4_022, (2, 2, 4), (12, 14, 26)),
        "goal (14,14,26)": goal_passes(CaseId.R4_222, (2, 2, 4), (14, 14, 26)),
        "goal (8,8,26) at stated params": goal_passes(
            CaseId.R4_222, (1, 1, 4), (8, 8, 26)
        ),
    }
    _report(2, "rank-4 case reproduction", checks, started)


def test_criterion_3_enumeration_oracle():
    started = time.time()
    rng = random.Random(1905)
    agree = True
    produced = 0
    while produced < 1000:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 1)]
        gram = [
            [sum(rows[k][i] * rows[k][j] for k in range(n + 1)) for j in range(n)]
            for i in range(n)
        ]
        g = IntMatrix(gram)
        if not is_positive_definite(g):
            continue
        if max(max(abs(x) for x in row) for row in gram) > 20:
            continue
        c = rng.randint(0, 10)
        # Keep the oracle's exhaustive box below ~2*10^5 points; heavier
        # instances are resampled (the comparison property is unaffected).
        inv = rational_inverse(g)
        box = 1
        for i in range(n):
            q = c * inv[i][i]
            box *= 2 * math.isqrt(q.numerator // q.denominator) + 1
        if box > 200_000:
            continue
        produced += 1
        if short_vectors(g, c) != oracle_short_vectors(g, c):
            agree = False
            break
    checks = {"1000 seeded grams agree": agree and produced == 1000}
    _report(3, "enumeration oracle equivalence", checks, started)


def test_criterion_4_lattice_constants():
    started = time.time()
    e8_roots = short_vectors(E8_GRAM, 2)
    a2_roots = short_vectors(A2_GRAM, 2)
    checks = {
        "E8 determinant 1": determinant(E8_GRAM) == 1,
        "E8 has 240 norm-2 vectors": 2 * len(e8_roots) == 240,
        "A2 has 6 norm-2 vectors": 2 * len(a2_roots) == 6,
        "ambient inertia (21,2,0)": inertia(AMBIENT_GRAM) == (21, 2, 0),
        "ambient determinant 1": determinant(AMBIENT_GRAM) == 1,
    }
    _report(4, "known lattice constants", checks, started)


def test_criterion_5_identity_suite():
    started = time.time()
    cases = (
        CaseId.R4_002,
        CaseId.R4_022,
        CaseId.R4_222,
        CaseId.R5_0002,
        CaseId.R5_0022,
        CaseId.R5_0222,
        CaseId.R5_2222,
    )
    rng = random.Random(31)
    all_hold = True
    for case_id in cases:
        residues = case_id.value.split("-")[1]
        for _ in range(5):
            params = []
            for i, r in enumerate(residues):
                if i < 2:
                    params.append(rng.randint(2 if r == "0" else 1, 9))
                else:
                    params.append(rng.randint(2, 9) ** 2)
            if not check_identity(case_id, tuple(params)):
                all_hold = False
    gram = reference_gram(CaseId.R4_222, (1, 1, 4))
    points = itertools.product(range(-1, 2), repeat=4)
    checks = {
        "corrected identities proved as Gram identities x 5 params": all_hold,
        "raw all-residue-2 rank-4 identity detected unequal": any(
            slipped_all2_value(x) != quadratic_form(gram, x) for x in points
        ),
    }
    _report(5, "completed-squares identity suite", checks, started)


def test_criterion_6_conjecture_sweep():
    started = time.time()
    rows = conjecture_sweep(10**6)
    counterexamples = [(d, factorize(d)) for d, _, _, ok in rows if not ok]
    if counterexamples:
        print("conjecture counterexamples:", counterexamples)
    checks = {
        "sweep nonempty": len(rows) > 0,
        "no counterexample up to 10^6": not counterexamples,
        "every row matches has_associated_k3": all(
            ok == has_associated_k3(d) for d, _, _, ok in rows
        ),
    }
    _report(6, "conjecture sweep", checks, started)


def test_criterion_7_generic_intersections():
    started = time.time()
    rng = random.Random(20260810)
    failures = []
    discs_exact = True
    total = 0
    for n in range(2, 21):
        for _ in range(50):
            targets = [rng.choice(STAR_POOL), rng.choice(STAR_POOL)]
            targets += [rng.choice(DOUBLE_STAR_POOL) for _ in range(n - 2)]
            outcome = build_generic(targets, Mode.GOAL)
            report = verify_witness(outcome.certificate.basis, targets)
            total += 1
            if any(l.realized_d != l.target_d for l in report.labellings):
                discs_exact = False
            if report.verdict != "PASS":
                failures.append((tuple(targets), report.failure_reasons))
    if failures:
        print(
            f"generic intersections: {len(failures)}/{total} witnesses FAIL, "
            f"first: targets={failures[0][0]} reasons={failures[0][1]}"
        )
    checks = {
        "all labelling discriminants exact": discs_exact,
        # Saturation in the ambient lattice included: the glued witnesses
        # are saturated by construction.
        "all 950 seeded witnesses PASS": not failures,
    }
    _report(7, "generic intersections", checks, started)


def test_criterion_8_certificate_round_trip():
    started = time.time()
    rng = random.Random(8)
    certs = [corollary20_certificate()]
    for _ in range(10):
        n = rng.randint(2, 6)
        targets = [rng.choice(STAR_POOL), rng.choice(STAR_POOL)]
        targets += [rng.choice(DOUBLE_STAR_POOL) for _ in range(n - 2)]
        outcome = build_generic(targets, Mode.GOAL)
        certs.append(certificate_for(outcome.certificate.basis, tuple(targets)))
    byte_identical = verdict_identical = True
    for cert in certs:
        text = cert.to_json()
        parsed = Certificate.from_json(text)
        if parsed.to_json() != text:
            byte_identical = False
        redone = parsed.report
        if redone != cert.report or redone.verdict != cert.report.verdict:
            verdict_identical = False
    checks = {
        "serialize-parse-serialize is byte-identical": byte_identical,
        "re-verification reproduces the report": verdict_identical,
    }
    _report(8, "certificate round-trip", checks, started)
