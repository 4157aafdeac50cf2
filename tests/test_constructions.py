import collections
import hashlib
import itertools
import math
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hassett.constructions as constructions
from hassett.criteria import satisfies_star
from hassett.constructions import (
    A1,
    COROLLARY_DISCRIMINANTS,
    CaseId,
    Mode,
    RealizationStatus,
    SLOT_POOL,
    SlotSpec,
    build,
    build_generic,
    case_slots,
    e_vec,
    generic_slots,
    i3_vector,
    ideal_gram,
    realize_perturbations,
    reference_gram,
    squares_value,
)
import hassett.lattice as lattice
import hassett.linalg as linalg
from hassett.lattice import H_SQUARED, IntMatrix, gram_of, inner_product
from hassett.linalg import is_positive_definite
import hassett.verifier as verifier
from hassett.verifier import certificate_for, verify_witness
from oracles import (
    bare_generator,
    bare_ideal_gram,
    draw_y_by_sample,
    four_squares_by_randint,
    from_columns,
    gram_delta,
    i3_parts_by_cube,
    invariant_factors,
    perturbations_by_cube,
    quadratic_form,
    slipped_all2_value,
    vector_difference,
)

RANK4_CASES = (CaseId.R4_000, CaseId.R4_002, CaseId.R4_022, CaseId.R4_222)
RANK5_CASES = (
    CaseId.R5_0000,
    CaseId.R5_0002,
    CaseId.R5_0022,
    CaseId.R5_0222,
    CaseId.R5_2222,
)

# Every named case, at the parameters used in this file.
NAMED_CASE_PARAMS = (
    (CaseId.R4_000, (2, 2, 4)),
    (CaseId.R4_002, (2, 2, 4)),
    (CaseId.R4_022, (2, 2, 4)),
    (CaseId.R4_222, (2, 2, 4)),
    (CaseId.R4_222, (1, 1, 4)),
    (CaseId.R5_0000, (2, 2, 4, 4)),
    (CaseId.R5_0002, (2, 2, 4, 4)),
    (CaseId.R5_0022, (2, 2, 4, 4)),
    (CaseId.R5_0222, (2, 2, 4, 4)),
    (CaseId.R5_2222, (1, 1, 4, 4)),
    (CaseId.R5_2222, (1, 1, 4, 9)),
    (CaseId.R21_ALL0, (2, 2) + (4,) * 18),
    (CaseId.R21_ALL2, (1, 1) + (4,) * 18),
)


# sha256 of the ``build`` outcome of every NAMED_CASE_PARAMS entry in each
# mode.  Any change to a status, a basis, a realized Gram, a delta, the
# targets or a detail changes the entry's digest.
NAMED_BUILD_DIGESTS = {
    ("r4-000", (2, 2, 4), "strict"): "dc0be38c5073ac90c47bbc3e426029d9e68313bfeef5e8771d0622f1585150fa",
    ("r4-000", (2, 2, 4), "goal"): "0cb5e74e33da48298b0e20867621893dfbe4e20d6300a175348f18436e10f9a0",
    ("r4-002", (2, 2, 4), "strict"): "91490585520c19761274a570787c3b97b7a47601f50e7fb00c66b87d2b3dce98",
    ("r4-002", (2, 2, 4), "goal"): "13783894cc6ae53876d43ad0b6deced3b9b2636f37f893c8dad7ccc7a0246d01",
    ("r4-022", (2, 2, 4), "strict"): "2af62f0ba6c8e7193b1a5ab1b18dbad859d98e354868faba79b4ae0a6d71cfd4",
    ("r4-022", (2, 2, 4), "goal"): "5e562ac2a359a53a8319dc5ec14c9aabf9f830b52b8272b8be019679bdbfc382",
    ("r4-222", (2, 2, 4), "strict"): "84c670b3ec62606170c06be1a9bc062afd685e3c2d28d6fbf35eb31536490c07",
    ("r4-222", (2, 2, 4), "goal"): "4daec95e6089043f05ac09a7cb94d2d42283a8708de6d02a0fbdd8c9d2048abf",
    ("r4-222", (1, 1, 4), "strict"): "4864012e2143a40a7cd247b3d4157d086c270a70e87f0887188de08f5da87d0c",
    ("r4-222", (1, 1, 4), "goal"): "2684096e0a3caacaad6a125619ea415125d10d971f00d1aa33c3b3317fabd7a8",
    ("r5-0000", (2, 2, 4, 4), "strict"): "2084cf91357985eb5c3b45d09177187774e9493df9ab541272a7d7548f7833e7",
    ("r5-0000", (2, 2, 4, 4), "goal"): "e46f3770c18d0b8ef0915c425d93cbaf6747cb3bccadb668acf7bf260b113551",
    ("r5-0002", (2, 2, 4, 4), "strict"): "8ee3aebd8c8da0077e65d6e45fdd6cdfab4514853cc4d94787327109290a8661",
    ("r5-0002", (2, 2, 4, 4), "goal"): "e290240b0ebd582eca6a8ae918574fab509e98bc90bd2266a5854ae8b03762c6",
    ("r5-0022", (2, 2, 4, 4), "strict"): "9a295a487b15df839914070eb85696d79bb3f4af844c98da4e31eae6a79595c4",
    ("r5-0022", (2, 2, 4, 4), "goal"): "589679b92e690dbe238d9b5f73e53ae87ea5a7d91a4c37a2403cbc895baac510",
    ("r5-0222", (2, 2, 4, 4), "strict"): "093b4e92a41163eac9c149ecf6e33936061caed4a8d24e03032c0080de5c76b9",
    ("r5-0222", (2, 2, 4, 4), "goal"): "3ce8724ce66b839d95fe0f73c772ab8417aeb1cbe90bd071163036e2c63e4c3c",
    ("r5-2222", (1, 1, 4, 4), "strict"): "73237f7e5d466c08220642e56ea9be789a7c2c91206d1e4a39d41f86d7912878",
    ("r5-2222", (1, 1, 4, 4), "goal"): "9baf0793140172575da5d5defa312f0416d616d2a014ab9bd871fb063495eb84",
    ("r5-2222", (1, 1, 4, 9), "strict"): "b863dc60d7e209a8a2398a083716cea10ed0812e500a47bf6c6e986d49001dea",
    ("r5-2222", (1, 1, 4, 9), "goal"): "a8dc558a9f4ea5d4e7d9ab563b83cfafc523a181a68b90320097cde6d9c9c681",
    ("r21-all0", (2, 2) + (4,) * 18, "strict"): "b3ff7bc9b3bad536b67947b968380506c5f68b9c5d66e8785aae5959277c1d02",
    ("r21-all0", (2, 2) + (4,) * 18, "goal"): "54511c4bf8ea3b0b57bf4c679dd7884ed7e60e6015f2f4720d6fa96d265e960e",
    ("r21-all2", (1, 1) + (4,) * 18, "strict"): "2608dfb0ae32dcf5a49912ed080fb63719fcff8dc788fea252ca0a9ffe17800a",
    ("r21-all2", (1, 1) + (4,) * 18, "goal"): "50c3c87b0c972ed21fcf94cf386f9e949c053c6648503580feb64f0b2cf2c271",
}


def named_build_digests():
    digests = {}
    for case_id, params in NAMED_CASE_PARAMS:
        for mode in (Mode.STRICT, Mode.GOAL):
            o = build(case_id, params, mode)
            cert = o.certificate
            basis = tuple(v.coords for v in cert.basis)
            realized = cert.report.realized_gram
            delta = gram_delta(realized, reference_gram(case_id, params))
            record = repr((o.status.value, basis, realized.rows, delta.rows, cert.targets, o.detail)).encode()
            digests[case_id.value, params, mode.value] = hashlib.sha256(record).hexdigest()
    return digests


def test_golden_named_builds():
    digests = named_build_digests()
    moved = [key for key, digest in NAMED_BUILD_DIGESTS.items() if digests.get(key) != digest]
    assert not moved and digests.keys() == NAMED_BUILD_DIGESTS.keys(), moved


def random_params(rng, case_id):
    residues = case_id.value.split("-")[1]
    params = []
    for i, r in enumerate(residues):
        if i < 2:
            low = 2 if r == "0" else 1
            params.append(rng.randint(low, 7))
        else:
            params.append(rng.randint(2, 6) ** 2)
    return tuple(params)


class TestReferenceGram:
    def test_rank4_all_zero(self):
        assert reference_gram(CaseId.R4_000, (2, 2, 4)) == IntMatrix([[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]])

    def test_rank4_one_two(self):
        assert reference_gram(CaseId.R4_002, (2, 2, 4)) == IntMatrix(
            [[3, 0, 0, 1], [0, 4, 0, 0], [0, 0, 4, 0], [1, 0, 0, 9]]
        )

    def test_rank5_all_two(self):
        assert reference_gram(CaseId.R5_2222, (1, 1, 4, 4)) == IntMatrix(
            [
                [3, 1, 1, 1, 1],
                [1, 3, 0, 0, 0],
                [1, 0, 3, 0, 0],
                [1, 0, 0, 9, 4],
                [1, 0, 0, 4, 9],
            ]
        )

    def test_rank21_all_zero_matches_bare_generators(self):
        params = (2, 2) + (4,) * 18
        slots = case_slots(CaseId.R21_ALL0, params)
        from hassett.lattice import gram_of

        realized = gram_of([H_SQUARED] + [s.bare_generator() for s in slots])
        assert reference_gram(CaseId.R21_ALL0, params) == realized

    def test_rank21_all_two_composite_entries(self):
        params = (1, 1) + (4,) * 18
        g = reference_gram(CaseId.R21_ALL2, params)
        assert g[0][0] == 3
        assert all(g[0][i] == 1 for i in range(1, 21))
        assert g[5][11] == 1 - 4  # adjacent E8 slots sharing a perturbation
        assert g[15][17] == -4
        assert g[3][4] == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            reference_gram(CaseId.R4_000, (1, 2, 4))  # residue-0 U slot needs n >= 2
        with pytest.raises(ValueError):
            reference_gram(CaseId.R4_000, (2, 2, 5))  # scaled slot needs a square
        with pytest.raises(ValueError):
            reference_gram(CaseId.R4_000, (2, 2, 1))  # and m >= 2
        with pytest.raises(ValueError):
            reference_gram(CaseId.R4_000, (2, 2))  # arity


def test_public_namespace_exposes_core_api():
    import hassett

    for name in (
        "IntMatrix",
        "build_generic",
        "verify_witness",
        "Certificate",
        "conjecture_sweep",
    ):
        assert hasattr(hassett, name), name


def test_slot_spec_validates_on_construction_and_replace():
    slot = SlotSpec("A2_1", 4, 0)
    assert slot == ("A2_1", 4, 0) and slot._replace(n=9) == SlotSpec(kind="A2_1", n=9, residue=0)
    assert type(slot._replace(n=9)) is SlotSpec
    for bad in (("Z1", 4, 0), ("A2_1", 4, 1), ("U1", 0, 0), ("A2_1", 5, 0), ("A2_1", 1, 0)):
        with pytest.raises(ValueError):
            SlotSpec(*bad)
        with pytest.raises(ValueError):
            slot._replace(**dict(zip(SlotSpec._fields, bad)))


def perturbations_of(slot):
    """What ``_generators`` adds to the bare generator of a residue-2 slot, in candidate order."""
    bare = bare_generator(slot)
    return tuple(vector_difference(g, bare) for g in constructions._generators(slot))


UNITS = (i3_vector(0, 0, 1), i3_vector(0, 1, 0), i3_vector(1, 0, 0))


class TestCandidatePerturbations:
    def test_residue_zero_has_none(self):
        slot = SlotSpec(kind="A2_1", n=4, residue=0)
        assert constructions._generators(slot) == (bare_generator(slot),)

    def test_u_and_e8_slots_get_units(self):
        for kind in ("U1", "E8_2_5"):
            slot = SlotSpec(kind=kind, n=4 if kind != "U1" else 1, residue=2)
            assert perturbations_of(slot) == UNITS

    def test_a2_slot_box_solutions(self):
        slot = SlotSpec(kind="A2_1", n=4, residue=2)
        cands = perturbations_of(slot)
        assert [c.i3_part() for c in cands] == [(0, 0, 1), (-1, 0, 2), (0, 3, -2)]
        for p in cands:
            assert inner_product(p, H_SQUARED) == 1
            g = 2 * A1 + p
            assert inner_product(g, g) == 9

    def test_a2_slot_always_has_a_unit(self, monkeypatch):
        for bound in (1, 3):
            monkeypatch.setattr(constructions, "A2_SEARCH_BOUND", bound)
            for m in (2, 3, 5, 7):
                slot = SlotSpec(kind="A2_1", n=m * m, residue=2)
                cands = perturbations_of(slot)
                assert cands and cands[0] == UNITS[0]

    def test_matches_the_whole_cube_for_every_kind(self, monkeypatch):
        kinds = ("U1", "U2") + SLOT_POOL
        for bound in (1, 2, 3, 4):
            monkeypatch.setattr(constructions, "A2_SEARCH_BOUND", bound)
            for kind in kinds:
                for m in range(2, 16):
                    slot = SlotSpec(kind, m if kind in ("U1", "U2") else m * m, 2)
                    assert perturbations_of(slot) == perturbations_by_cube(slot, bound), slot
        for kind in SLOT_POOL:
            for residue in (0, 2):
                slot = SlotSpec(kind, 4, residue)
                assert constructions._i3_parts(kind, residue) == i3_parts_by_cube(slot), slot

    def test_cache_is_keyed_by_the_bound(self, monkeypatch):
        # At m = 2 the A2 box of half-width 3 holds two more solutions than that of width 1.
        slot = SlotSpec("A2_1", 4, 2)
        for bound in (3, 1, 3):
            monkeypatch.setattr(constructions, "A2_SEARCH_BOUND", bound)
            assert perturbations_of(slot) == perturbations_by_cube(slot, bound)
            assert len(perturbations_of(slot)) == (3 if bound == 3 else 1)

    def test_strict_builds_each_bare_generator_once(self, monkeypatch):
        calls = []
        inner = SlotSpec.bare_generator

        def counting(slot):
            calls.append(slot)
            return inner(slot)

        monkeypatch.setattr(SlotSpec, "bare_generator", counting)
        # Residue-2 U, A2 and E8 slots, as in the strict benchmark lists, and one of residue 0.
        slots = generic_slots((14, 20, 26, 56, 98, 152, 24))
        realize_perturbations(slots)
        assert calls == list(slots)


class TestRealizePerturbations:
    def test_unit_solution_found(self):
        slots = case_slots(CaseId.R4_002, (2, 2, 4))
        outcome = realize_perturbations(slots)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.certificate.basis[3] == 2 * A1 + i3_vector(0, 0, 1)
        assert outcome.certificate.report.realized_gram == ideal_gram(slots)

    def test_nothing_to_perturb(self):
        slots = case_slots(CaseId.R4_000, (2, 2, 4))
        outcome = realize_perturbations(slots)
        assert outcome.status == RealizationStatus.REALIZED_STRICT

    def test_two_perturbed_a2_slots_obstructed_at_bound_one(self):
        # The optimum misses by 4 whether the A2 box has half-width 1 or 3.
        slots = case_slots(CaseId.R5_0022, (2, 2, 4, 4))
        outcome = realize_perturbations(slots)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert outcome.certificate.report.realized_gram != ideal_gram(slots)

    def test_status_is_the_verifiers_comparison_with_the_given_reference(self):
        # The ideal Gram is met, so the least miss is 0, but the reference
        # passed in differs from it in one entry: the verifier's comparison
        # with that reference decides the status, and the note names the
        # entry, which the two U generators pair to 0 whatever they take.
        slots = case_slots(CaseId.R4_002, (2, 2, 4))
        exact = realize_perturbations(slots)
        assert exact.status == RealizationStatus.REALIZED_STRICT
        rows = ideal_gram(slots).to_lists()
        rows[1][2] = rows[2][1] = rows[1][2] + 1
        outcome = realize_perturbations(slots, IntMatrix(rows))
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert outcome.certificate.report.gram_matches_reference is False
        assert outcome.certificate.report.to_dict()["gramMatchesReference"] is False
        assert outcome.certificate.basis == exact.certificate.basis
        assert outcome.detail == "1 target entries are met by no candidate pair, first (1, 2) = 1"

    def test_reference_met_entry_by_entry_but_missed_has_an_empty_note(self):
        # Both U slots on the first I3 unit pair to 1, so the candidate pair
        # (0, 0) meets every entry of this reference; the search puts them on
        # different units, and its witness misses the cross entry.
        slots = generic_slots((14, 14))
        gens = [constructions._generators(s) for s in slots]
        reference = gram_of([H_SQUARED, gens[0][0], gens[1][0]])
        assert constructions._unmet_entries(gens, reference) == []
        outcome = realize_perturbations(slots, reference)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert outcome.certificate.report.realized_gram[1][2] == 0 != reference[1][2]
        assert outcome.certificate.report.gram_matches_reference is False
        assert outcome.detail == ""


def exhaustive_first_optimum(slots, target):
    """Least miss and first assignment attaining it, over every candidate tuple.

    The miss sums |realized - target| over the h2 row and the upper triangle,
    as ``realize_perturbations`` reports it.  ``min`` keeps the first of equal
    keys and ``itertools.product`` runs in lexicographic order.
    """
    gens = [constructions._generators(s) for s in slots]
    k = len(slots)
    own = [
        [
            abs(inner_product(H_SQUARED, g) - target[0][i + 1])
            + abs(inner_product(g, g) - target[i + 1][i + 1])
            for g in gens[i]
        ]
        for i in range(k)
    ]
    cross = [
        (j, i, [[abs(inner_product(gj, gi) - target[j + 1][i + 1]) for gi in gens[i]] for gj in gens[j]])
        for i in range(k)
        for j in range(i)
    ]

    def miss(choice):
        return sum(own[i][a] for i, a in enumerate(choice)) + sum(
            table[choice[j]][choice[i]] for j, i, table in cross
        )

    best = min(itertools.product(*(range(len(row)) for row in gens)), key=miss)
    basis = (H_SQUARED,) + tuple(row[a] for row, a in zip(gens, best))
    return miss(best) + abs(3 - target[0][0]), basis


def upper_miss(delta):
    return sum(abs(delta[i][j]) for i in range(delta.nrows) for j in range(i, delta.ncols))


def random_strict_targets(rng, n):
    """n admissible targets; positions 3 and 4 take the A2 slots at m = 2..4."""
    star = [d for d in range(8, 200) if d % 6 in (0, 2)]
    targets = [rng.choice(star), rng.choice(star)]
    for position in range(2, n):
        m = rng.randint(2, 4) if position < 4 else rng.randint(2, 9)
        targets.append(6 * m * m + rng.choice((0, 2, 2)))
    return targets


class TestUnmetEntries:
    def test_matches_every_candidate_tuple(self):
        # Move one or two entries of an ideal Gram, h2 row and diagonal
        # included.  An entry is named exactly when no candidate tuple's
        # Gram meets it, and each named entry adds at least 1 to every miss.
        rng = random.Random(11)
        moved_and_met = 0
        for _ in range(40):
            slots = generic_slots(random_strict_targets(rng, rng.randint(3, 6)))
            rows = ideal_gram(slots).to_lists()
            moved = set()
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(rows))
                i, j = sorted((i, i if rng.random() < 0.5 else rng.randrange(len(rows))))
                rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((-1, 1)) * rng.randint(1, 3)
                moved.add((i, j))
            target = IntMatrix(rows)
            entries = set(itertools.combinations_with_replacement(range(len(rows)), 2))
            met = set()
            for choice in itertools.product(*(constructions._generators(s) for s in slots)):
                gram = gram_of([H_SQUARED, *choice])
                met |= {(i, j) for i, j in entries if gram[i][j] == target[i][j]}
            unmet = constructions._unmet_entries([constructions._generators(s) for s in slots], target)
            assert unmet == sorted(entries - met), rows
            assert exhaustive_first_optimum(slots, target)[0] >= len(unmet)
            moved_and_met += len(moved - set(unmet))
        assert moved_and_met > 0
        # Two candidates of a residue-2 U slot pair to 2n, one with itself to
        # 2n + 1, so a diagonal target of 2n is met by no candidate tuple.
        slots = generic_slots((14, 14))
        rows = ideal_gram(slots).to_lists()
        rows[1][1] -= 1
        gens = [constructions._generators(s) for s in slots]
        assert constructions._unmet_entries(gens, IntMatrix(rows)) == [(1, 1)]


class TestExactStrictSearch:
    @pytest.mark.parametrize("search_bound", [1, 3])
    def test_matches_exhaustive_search(self, search_bound, monkeypatch):
        monkeypatch.setattr(constructions, "A2_SEARCH_BOUND", search_bound)
        rng = random.Random(2020 + search_bound)
        for _ in range(100):
            targets = random_strict_targets(rng, rng.randint(2, 8))
            slots = generic_slots(targets)
            target = ideal_gram(slots)
            miss, basis = exhaustive_first_optimum(slots, target)
            outcome = realize_perturbations(slots)
            assert outcome.certificate.basis == basis, targets
            assert upper_miss(gram_delta(outcome.certificate.report.realized_gram, target)) == miss, targets
            if miss:
                assert outcome.status == RealizationStatus.NOT_REALIZABLE
                assert outcome.detail == f"optimal assignment misses target by {miss}"
            else:
                assert outcome.status == RealizationStatus.REALIZED_STRICT
                assert outcome.detail == ""

    @pytest.mark.parametrize(
        "head,top,optimum",
        [
            ((14, 14, 152, 488), 10, 86),
            ((14, 14, 26, 26), 10, 37),
            ((14, 14, 152, 488), 20, 223),
            ((14, 14, 26, 26), 20, 109),
        ],
    )
    def test_long_lists_reach_their_optimum(self, head, top, optimum):
        targets = list(head) + [6 * m * m + 2 for m in range(5, top + 1)]
        outcome = build_generic(targets, Mode.STRICT)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert outcome.detail == f"optimal assignment misses target by {optimum}"
        reference = ideal_gram(generic_slots(targets))
        assert upper_miss(gram_delta(outcome.certificate.report.realized_gram, reference)) == optimum

    @pytest.mark.parametrize(
        "head,top,digest",
        [
            ((14, 14, 152, 488), 10, "757a2147182cb9b8122cdeea783fe39beda6f97ed080994932d55f5fdd42cbe1"),
            ((14, 14, 26, 26), 10, "d1400f066bdd8be24586a77d620391803a578af1f486a594ef8b27e79077ae32"),
            ((14, 14, 152, 488), 20, "6bfd8cc2d697bdd2dd7d0380600ccb6a764dcc09af37f86e94c42b4df34a04e8"),
            ((14, 14, 26, 26), 20, "a8171f623500391145c6cbf6b42c8a9913eb054ffc00b4334c78348751113606"),
        ],
    )
    def test_long_lists_keep_their_first_optimal_assignment(self, head, top, digest):
        # Lists too long for the exhaustive oracle: a sha256 of the basis
        # coordinates pins which of the optimal assignments is kept.
        targets = list(head) + [6 * m * m + 2 for m in range(5, top + 1)]
        basis = build_generic(targets, Mode.STRICT).certificate.basis
        assert hashlib.sha256(repr(tuple(v.coords for v in basis)).encode()).hexdigest() == digest


def test_exact_search_does_no_work_per_unit_slot(monkeypatch):
    # Residue-2 U and E8 slots enter the exact search only through their
    # unit counts, so a longer list of them adds no inner product.
    calls = []

    def counting(u, v):
        calls.append(None)
        return inner_product(u, v)

    monkeypatch.setattr(constructions, "inner_product", counting)
    counts = []
    for top in (6, 10, 20):
        calls.clear()
        build_generic([14, 14, 152, 488] + [6 * m * m + 2 for m in range(5, top + 1)], Mode.STRICT)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == [counts[0]] * 3, counts


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.GOAL])
def test_named_build_makes_slots_and_ideal_gram_once(mode, monkeypatch):
    calls = {"case_slots": 0, "ideal_gram": 0}
    for name in calls:
        original = getattr(constructions, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(constructions, name, counting)
    build(CaseId.R5_0222, (2, 2, 4, 4), mode)
    # GOAL is judged against no reference, so it needs no ideal Gram.
    assert calls == {"case_slots": 1, "ideal_gram": int(mode == Mode.STRICT)}


def test_strict_r21_all2_builds_its_candidate_table_once(monkeypatch):
    # The search and the note read one table: one _generators call per slot.
    calls = []
    inner = constructions._generators

    def counting(slot):
        calls.append(slot)
        return inner(slot)

    monkeypatch.setattr(constructions, "_generators", counting)
    outcome = build(CaseId.R21_ALL2, (2, 2) + (9,) * 18, Mode.STRICT)
    assert re.fullmatch(r"\d+ target entries are met by no candidate pair, .*", outcome.detail)
    assert len(calls) == 20


class TestBuildStrict:
    def test_rank4_case1_exact(self):
        outcome = build(CaseId.R4_000, (2, 2, 4), Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.certificate.basis == (
            H_SQUARED,
            e_vec(1, 1) + 2 * e_vec(1, 2),
            e_vec(2, 1) + 2 * e_vec(2, 2),
            2 * A1,
        )
        assert outcome.certificate.report.realized_gram == IntMatrix(
            [[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]]
        )

    def test_rank4_case2_exact(self):
        outcome = build(CaseId.R4_002, (2, 2, 4), Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.certificate.report.realized_gram == reference_gram(CaseId.R4_002, (2, 2, 4))

    def test_rank4_cases_3_and_4_not_realizable(self):
        for case_id, params in ((CaseId.R4_022, (2, 2, 4)), (CaseId.R4_222, (1, 1, 4))):
            outcome = build(case_id, params, Mode.STRICT)
            assert outcome.status == RealizationStatus.NOT_REALIZABLE
            assert outcome.certificate.report.realized_gram != reference_gram(case_id, params)

    def test_rank21_all_zero_exact_with_diagram_cross_terms(self):
        params = (2, 2) + (4,) * 18
        outcome = build(CaseId.R21_ALL0, params, Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        g = outcome.certificate.report.realized_gram
        # slots 5 and 11 sit on adjacent E8 nodes: cross term -m5*m11.
        assert g[5][11] == -4
        assert g[3][4] == 4  # the A2 pair

    def test_rank21_all_two_not_realizable(self):
        params = (1, 1) + (4,) * 18
        outcome = build(CaseId.R21_ALL2, params, Mode.STRICT)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        cert = outcome.certificate
        reference = reference_gram(CaseId.R21_ALL2, params)
        assert cert.report.realized_gram != reference
        # The status is the verifier's comparison with the transcribed Gram.
        assert cert.report == verify_witness(cert.basis, cert.targets, reference)
        assert cert.report.gram_matches_reference is False
        # The verdict is computed: entries of the transcribed Gram that no
        # pair of candidate generators meets.
        assert outcome.detail == "26 target entries are met by no candidate pair, first (1, 3) = 0"

    def test_every_rank21_all_two_tuple_gets_a_computed_verdict(self):
        rng = random.Random(21)
        tuples = [
            (rng.randint(1, 7), rng.randint(1, 7)) + tuple(rng.randint(2, 12) ** 2 for _ in range(18))
            for _ in range(50)
        ]
        tuples += [(1, 1) + (m * m,) * 18 for m in range(2, 12)]
        definite = 0
        for params in tuples:
            # A positive definite transcribed Gram is not ruled out by its
            # signature, so the verdict has to come from the unmet entries.
            definite += is_positive_definite(reference_gram(CaseId.R21_ALL2, params))
            outcome = build(CaseId.R21_ALL2, params, Mode.STRICT)
            assert outcome.status == RealizationStatus.NOT_REALIZABLE, params
            assert re.fullmatch(
                r"[1-9]\d* target entries are met by no candidate pair, first \(\d+, \d+\) = -?\d+",
                outcome.detail,
            ), (params, outcome.detail)
            assert "truncated" not in outcome.detail and "optimal" not in outcome.detail
        assert 0 < definite < len(tuples)

    def test_reference_met_entry_by_entry_gets_no_verdict(self, monkeypatch):
        # The note is evidence, not a verdict: with the realized Gram as
        # reference every entry is met, and the verifier's comparison alone
        # makes the build REALIZED_STRICT, with an empty note.
        params = (1, 1) + (4,) * 18
        realized = build(CaseId.R21_ALL2, params, Mode.STRICT).certificate.report.realized_gram
        monkeypatch.setattr(constructions, "_r21_all2_gram", lambda params: realized)
        outcome = build(CaseId.R21_ALL2, params, Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.certificate.report.gram_matches_reference is True
        assert outcome.detail == ""


class TestBuildGoal:
    @pytest.mark.parametrize(
        "case_id,params,expected_ds",
        [
            (CaseId.R4_002, (2, 2, 4), (12, 12, 26)),
            (CaseId.R4_022, (2, 2, 4), (12, 14, 26)),
            (CaseId.R4_222, (2, 2, 4), (14, 14, 26)),
            (CaseId.R4_222, (1, 1, 4), (8, 8, 26)),
        ],
    )
    def test_rank4_goal_witnesses(self, case_id, params, expected_ds):
        outcome = build(case_id, params, Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        assert outcome.certificate.targets == expected_ds
        for v, d in zip(outcome.certificate.basis[1:], expected_ds):
            hv = inner_product(H_SQUARED, v)
            assert 3 * inner_product(v, v) - hv * hv == d

    def test_rank4_all_zero_goal_blocked_by_scaled_slot(self):
        # The scaled slot 2*a1 has content 2, but the glued witness does not
        # use it: GOAL passes at (12, 12, 24).
        outcome = build(CaseId.R4_000, (2, 2, 4), Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        report = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
        assert report.verdict == "PASS", report.failure_reasons
        assert [l.realized_d for l in report.labellings] == [12, 12, 24]

    def test_rank5_goal_blocked_by_two_a2_slots(self):
        # Two A2 slots would fill the rational I3 block with h2; the glued
        # witness places its y_j across E8+E8+I3 and passes.
        for case_id, params, ds in (
            (CaseId.R5_0022, (2, 2, 4, 4), (12, 12, 26, 26)),
            (CaseId.R5_2222, (1, 1, 4, 9), (8, 8, 26, 56)),
        ):
            outcome = build(case_id, params, Mode.GOAL)
            assert outcome.status == RealizationStatus.REALIZED_GOAL
            assert outcome.certificate.targets == ds
            report = verify_witness(outcome.certificate.basis, outcome.certificate.targets)
            assert report.verdict == "PASS", report.failure_reasons

    def test_slot_norm_and_pairing_invariants(self):
        rng = random.Random(99)
        for case_id in RANK4_CASES + RANK5_CASES:
            params = random_params(rng, case_id)
            outcome = build(case_id, params, Mode.GOAL)
            assert outcome.status == RealizationStatus.REALIZED_GOAL, (case_id, params)
            slots = case_slots(case_id, params)
            for slot, v in zip(slots, outcome.certificate.basis[1:]):
                hv = inner_product(H_SQUARED, v)
                vv = inner_product(v, v)
                assert 3 * vv - hv * hv == slot.target_d
                if slot.kind in ("U1", "U2"):
                    # U slots keep e_i + n f_i (+ an I3 unit vector).
                    assert (hv, vv) == (
                        (0, 2 * slot.n) if slot.residue == 0 else (1, 2 * slot.n + 1)
                    )
                else:
                    # Glued slots: y_j has h2.y_j = r and y_j.y_j = 2m^2 + r.
                    assert (hv, vv) == (slot.residue, 2 * slot.n + slot.residue)

    def test_every_named_case_passes_or_reports_exhaustion(self):
        assert {case_id for case_id, _ in NAMED_CASE_PARAMS} == set(CaseId)
        for case_id, params in NAMED_CASE_PARAMS:
            outcome = build(case_id, params, Mode.GOAL)
            cert = outcome.certificate
            assert cert.report == verify_witness(cert.basis, cert.targets)
            if outcome.status == RealizationStatus.REALIZED_GOAL:
                assert cert.report.verdict == "PASS", (case_id, cert.report.failure_reasons)
            else:
                # A truncated search is never reported as a proof of impossibility.
                assert outcome.status == RealizationStatus.NOT_REALIZABLE
                assert outcome.detail.startswith("search exhausted"), outcome.detail
                assert "does not show that the targets are impossible" in outcome.detail

    def test_named_goal_certificates_compare_with_no_reference(self):
        # GOAL never tries to meet a reference Gram, R21_ALL2's indefinite
        # transcribed one included, so its certificates record no comparison.
        for case_id, params in NAMED_CASE_PARAMS:
            report = build(case_id, params, Mode.GOAL).certificate.report
            assert report.gram_matches_reference is None, case_id
            assert report.to_dict()["gramMatchesReference"] is None


def _carried_report_outcomes():
    """(mode, targets, reference, outcome) of seeded GOAL and STRICT lists, then of every named build.

    ``reference`` is the Gram a build is judged against: none in GOAL, the
    ideal Gram of a STRICT list's slots, a named case's reference Gram in
    STRICT.  The named builds include the exhausted ``R21_ALL0`` GOAL search
    and the STRICT ``R21_ALL2`` build judged against its transcribed Gram.
    """
    rng = random.Random(24)
    for mode in (Mode.GOAL, Mode.STRICT):
        for n in range(2, 21 if mode == Mode.GOAL else 11):
            targets = [rng.choice((8, 12, 14, 20, 24, 26)) for _ in range(2)]
            targets += [6 * m * m + rng.choice((0, 2)) for m in rng.sample(range(2, 30), n - 2)]
            reference = ideal_gram(generic_slots(targets)) if mode == Mode.STRICT else None
            yield mode, tuple(targets), reference, build_generic(targets, mode)
    for case_id, params in NAMED_CASE_PARAMS:
        targets = tuple(s.target_d for s in case_slots(case_id, params))
        yield Mode.GOAL, targets, None, build(case_id, params, Mode.GOAL)
        yield Mode.STRICT, targets, reference_gram(case_id, params), build(case_id, params, Mode.STRICT)


def test_carried_report_is_the_verifiers():
    # A stale reference or target list would show as a report that
    # verify_witness does not give for the certificate's own basis.  Each
    # status is the carried report's: GOAL's verdict, STRICT's Gram comparison.
    exhausted = strict_realized = 0
    for mode, targets, reference, outcome in _carried_report_outcomes():
        cert = outcome.certificate
        report = verify_witness(cert.basis, targets, reference)
        assert cert.report == report, (targets, outcome.status)
        assert cert.targets == targets
        if mode == Mode.GOAL:
            realized = outcome.status == RealizationStatus.REALIZED_GOAL
            exhausted += outcome.detail.startswith("search exhausted")
            assert realized == (report.verdict == "PASS"), (targets, outcome.detail)
        else:
            realized = outcome.status == RealizationStatus.REALIZED_STRICT
            strict_realized += realized
            assert realized == report.gram_matches_reference, (targets, outcome.detail)
    assert exhausted >= 1 and strict_realized >= 1


class TestGenericBuilds:
    def test_pool_matches_first_targets(self):
        slots = generic_slots((12, 12, 24, 98))
        assert [s.kind for s in slots] == ["U1", "U2", "A2_1", "A2_2"]

    def test_equivalent_to_rank4_case1(self):
        outcome = build_generic((12, 12, 24), Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.certificate.report.realized_gram == IntMatrix(
            [[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]]
        )

    def test_two_targets_need_only_hyperbolic_slots(self):
        outcome = build_generic((8, 8), Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        assert len(outcome.certificate.basis) == 3

    def test_flagship_slot_parameters(self):
        slots = generic_slots(COROLLARY_DISCRIMINANTS)
        assert [s.n for s in slots] == [
            2, 6, 4, 16, 36, 49, 64, 100, 144, 196,
            256, 324, 361, 400, 484, 576, 676, 784, 1024, 1156,
        ]
        assert [s.kind for s in slots[2:]] == list(SLOT_POOL)

    def test_duplicate_targets_occupy_distinct_slots(self):
        slots = generic_slots((12, 12, 26, 26))
        assert slots[2].kind != slots[3].kind
        assert slots[2].n == slots[3].n == 4

    def test_predicate_validation(self):
        with pytest.raises(ValueError, match=r"d=7"):
            generic_slots((7, 12))
        with pytest.raises(ValueError, match=r"d=40"):
            generic_slots((14, 38, 40))
        with pytest.raises(ValueError):
            generic_slots((12,))
        with pytest.raises(ValueError):
            generic_slots(tuple([12, 12] + [26] * 19))

    def test_labelling_reports_are_permutation_covariant(self):
        targets = (12, 14, 26, 98, 56)
        base = build_generic(targets, Mode.GOAL)
        shuffled = (12, 14, 56, 26, 98)
        other = build_generic(shuffled, Mode.GOAL)

        def discs(outcome, ds):
            return sorted(
                (d, 3 * inner_product(v, v) - inner_product(H_SQUARED, v) ** 2)
                for d, v in zip(ds, outcome.certificate.basis[1:])
            )

        assert discs(base, targets) == discs(other, shuffled)

    @pytest.mark.parametrize(
        "targets",
        [
            (12, 12, 24),  # residue-0 (**) target: the scaled column 2*a1 has content 2
            (12, 12, 26, 98),  # both A2 slots: with h2 they span the rational I3 block
            (12, 12, 56),  # odd A2 scale m = 3
        ],
    )
    def test_goal_passes_where_scaled_slots_cannot(self, targets):
        outcome = build_generic(targets, Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        report = verify_witness(outcome.certificate.basis, targets)
        assert report.verdict == "PASS", report.failure_reasons
        assert [l.realized_d for l in report.labellings] == list(targets)

    def test_two_torsion_generators_are_glued_jointly(self):
        # The span Y of h2 and the E8+E8+I3 parts of the generators has two
        # Smith invariants above 1 here, so P/Y has torsion Z/2 + Z/6 and the
        # glue must map both generators injectively into (Q/Z)^2 at once.
        # Gluing each generator on its own through the first unit entry of
        # its Smith column gives a non-injective map for this list.
        targets = (126, 114, 6144, 2906, 98, 602, 1014, 6536, 1734, 3750, 98, 3752, 4376, 1538)
        outcome = build_generic(targets, Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        quotient = [
            v.coords[:16] + (v.coords[21] - v.coords[20], v.coords[22] - v.coords[20])
            for v in outcome.certificate.basis[3:]
        ]
        invariants = invariant_factors(from_columns(quotient))
        assert [d for d in invariants if d > 1] == [2, 6]
        # v_j = y_j + s_j f1 + u_j f2, and e_i . f_i = 1 reads off the glue.
        glue = [
            (inner_product(e_vec(1, 1), v), inner_product(e_vec(2, 1), v))
            for v in outcome.certificate.basis[3:]
        ]
        assert any(s for s, _ in glue) and any(u for _, u in glue)
        report = verify_witness(outcome.certificate.basis, targets)
        assert report.verdict == "PASS", report.failure_reasons

    def test_exhausted_search_is_not_reported_realized(self, monkeypatch):
        # Every attempt's certificate fails, so no witness may be claimed.
        def failing(basis, targets, reference=None):
            cert = certificate_for(basis, targets, reference)
            return cert._replace(report=cert.report._replace(verdict="FAIL"))

        monkeypatch.setattr(constructions, "certificate_for", failing)
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert "exhausted" in outcome.detail and "impossible" in outcome.detail
        assert outcome.certificate.basis is not None

    def test_goal_output_is_identical_across_processes(self):
        script = (
            "from hassett.constructions import Mode, build_generic\n"
            "print(build_generic((14, 38, 26, 98, 218, 294), Mode.GOAL).certificate.basis)\n"
        )
        src = str(Path(constructions.__file__).resolve().parents[1])
        outs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] == outs[1] != ""

    def test_every_labelling_discriminant_is_0_or_2_mod_6(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 8)
            targets = [rng.choice((8, 12, 14, 20, 24, 26)) for _ in range(2)]
            targets += [rng.choice((24, 26, 54, 56, 96, 98)) for _ in range(n - 2)]
            outcome = build_generic(targets, Mode.GOAL)
            for v in outcome.certificate.basis[1:]:
                hv = inner_product(H_SQUARED, v)
                assert (3 * inner_product(v, v) - hv * hv) % 6 in (0, 2)


def test_glued_draw_eliminates_each_gram_once(monkeypatch):
    # The verifier's minimum also decides definiteness, so every glued draw
    # runs one _ldl on its Gram and no is_positive_definite.  At these
    # parameters all 64 draws fail, most of them as indefinite Grams, and the
    # NOT_REALIZABLE outcome certifies its canonical basis once.
    assert not hasattr(constructions, "is_positive_definite")
    calls = {"_ldl": 0, "is_positive_definite": 0, "gram_of": 0}
    owners = {"_ldl": lattice, "is_positive_definite": linalg, "gram_of": verifier}
    for name, owner in owners.items():
        inner = getattr(owner, name)

        def wrapper(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)
    slots = case_slots(CaseId.R21_ALL0, (2, 2) + (4,) * 18)
    outcome = constructions._glued_search(slots)
    assert outcome.status == RealizationStatus.NOT_REALIZABLE
    assert calls["_ldl"] == calls["gram_of"] > 0
    assert calls["is_positive_definite"] == 0


def test_four_squares_consumes_the_randint_stream():
    # Same quadruple and same generator state afterwards, so every later
    # draw of a GOAL search, and every witness, is unchanged.
    pairs = random.Random(5)
    for trial in range(2400):
        n = trial + 1 if trial < 400 else pairs.randint(1, 10**4)
        seed = pairs.getrandbits(32)
        mine, ref = random.Random(seed), random.Random(seed)
        quad = constructions._four_squares(n, mine)
        assert quad == four_squares_by_randint(n, ref), (n, seed)
        assert sum(x * x for x in quad) == n
        assert mine.getstate() == ref.getstate(), (n, seed)


def _goal_targets(rng, n):
    """n criterion-7 targets: two (*) ones, then 6m^2 + r with m = 2..34."""
    targets = [rng.choice((8, 14, 20, 26, 38, 42, 98)) for _ in range(2)]
    return targets + [6 * m * m + rng.choice((0, 2)) for m in rng.choices(range(2, 35), k=n - 2)]


def test_draw_y_consumes_the_choice_and_sample_stream():
    # Same vector and same generator state after every draw, so every GOAL
    # witness is the one that choice, sample and randint gave.
    pairs = random.Random(17)
    kinds = set()
    for _ in range(60):
        slots = generic_slots(_goal_targets(pairs, pairs.randint(3, 20)))
        seed = pairs.getrandbits(32)
        mine, ref = random.Random(seed), random.Random(seed)
        for s in slots[2:]:
            assert constructions._draw_y(s, mine) == draw_y_by_sample(s, ref), (s, seed)
            assert mine.getstate() == ref.getstate(), (s, seed)
            kinds.add((s.kind, s.residue))
    assert kinds == {(kind, r) for kind in SLOT_POOL for r in (0, 2)}


class _GetrandbitsOnly(random.Random):
    """A generator that refuses every draw but ``getrandbits``."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the generator was read past getrandbits")

    choice = sample = randint = randrange = random = _refuse


def test_goal_reads_the_generator_only_through_getrandbits(monkeypatch):
    # So the witness bytes depend on the documented bit stream alone, not on
    # how random's private _randbelow turns bits into choices.
    lists = (COROLLARY_DISCRIMINANTS, (12, 12, 26))
    expected = [build_generic(targets, Mode.GOAL) for targets in lists]
    assert all(o.status == RealizationStatus.REALIZED_GOAL for o in expected)
    monkeypatch.setattr(constructions, "random", types.SimpleNamespace(Random=_GetrandbitsOnly))
    with pytest.raises(AssertionError, match="past getrandbits"):
        constructions.random.Random(1).choice((1, -1))
    for targets, outcome in zip(lists, expected):
        assert build_generic(targets, Mode.GOAL).certificate.basis == outcome.certificate.basis


def _oracle_slot_lists():
    """Seeded STRICT and GOAL slot lists, lists that repeat a kind, and the named cases."""
    rng = random.Random(43)
    for _ in range(40):
        yield generic_slots(random_strict_targets(rng, rng.randint(2, 20)))
        yield generic_slots(_goal_targets(rng, rng.randint(2, 20)))
        yield tuple(
            SlotSpec(kind, rng.randint(1, 40) if kind in ("U1", "U2") else rng.randint(2, 30) ** 2, r)
            for kind, r in zip(
                rng.choices(("U1", "U2") + SLOT_POOL, k=rng.randint(1, 12)),
                rng.choices((0, 2), k=12),
            )
        )
    for case_id, params in NAMED_CASE_PARAMS + ((CaseId.R21_ALL2, (2, 2) + (9,) * 18),):
        yield case_slots(case_id, params)


def test_ideal_gram_is_the_gram_of_the_bare_generators():
    kinds = set()
    for slots in _oracle_slot_lists():
        assert ideal_gram(slots) == bare_ideal_gram(slots), slots
        for s in slots:
            assert s.bare_generator() == bare_generator(s), s
            kinds.add((s.kind[0], s.residue))
    assert kinds == {(k, r) for k in "UAE" for r in (0, 2)}


def test_fallback_basis_is_built_only_when_the_search_is_exhausted(monkeypatch):
    calls = []
    inner = constructions._generators

    def counting(slot):
        calls.append(slot)
        return inner(slot)

    monkeypatch.setattr(constructions, "_generators", counting)
    targets = (14, 38) + tuple(6 * m * m + m % 2 * 2 for m in range(2, 20))
    outcome = build_generic(targets, Mode.GOAL)
    assert outcome.status == RealizationStatus.REALIZED_GOAL
    # Only v1 and v2 come from the slot generators.
    assert calls == list(generic_slots(targets)[:2])

    calls.clear()
    params = (2, 2) + (4,) * 18
    outcome = build(CaseId.R21_ALL0, params, Mode.GOAL)
    assert outcome.status == RealizationStatus.NOT_REALIZABLE
    assert "search exhausted" in outcome.detail
    slots = case_slots(CaseId.R21_ALL0, params)
    assert len(calls) == len(slots)
    canonical = (H_SQUARED,) + tuple(
        s.bare_generator() + perturbations_by_cube(s, constructions.A2_SEARCH_BOUND)[0]
        if s.residue
        else s.bare_generator()
        for s in slots
    )
    assert outcome.certificate.basis == canonical
    assert outcome.certificate.report.realized_gram == gram_of(canonical)


def _glue_candidates(k):
    """The indices of the y_j taking f1, then f2: none, one y_j, then every ordered pair.

    The ordered pairs include (j, i) for i < j, which ``_glue`` never tests;
    the oracle finds the first saturating pair without assuming the symmetry.
    """
    yield ()
    yield from ((j,) for j in range(k))
    yield from itertools.permutations(range(k), 2)


def _first_saturating_glue(ys):
    """The first candidate whose glued quotient rows (q_j, s_j, u_j) are saturated in Z^20.

    None for dependent y_j: a glue can make their rows independent, but then
    some combination of the v_j lies in the isotropic span of f1 and f2.
    """
    quotient = [constructions._quotient_coords(y) for y in ys]
    if not lattice.span_membership(quotient, [0] * 18)[0]:
        return None
    for glue in _glue_candidates(len(ys)):
        lam = [[0, 0] for _ in ys]  # (s_j, u_j)
        for col, j in enumerate(glue):
            lam[j][col] = 1
        if lattice.span_membership([q + tuple(g) for q, g in zip(quotient, lam)], [0] * 20)[1]:
            return glue
    return None


def _glue_of(ys):
    return constructions._glue([constructions._quotient_coords(y) for y in ys])


def _torsion_kind(ys):
    """"dependent", or the number of generators of the torsion of P/Y (oracle Smith form)."""
    invariants = invariant_factors(from_columns([constructions._quotient_coords(y) for y in ys]))
    if len(invariants) < len(ys):
        return "dependent"
    return sum(d > 1 for d in invariants)


def _glue_draws():
    """Seeded GOAL draws of k = 1..18 vectors, the corollary's draws, and dependent lists."""
    rng = random.Random(2027)
    for trial in range(4):
        targets = [rng.choice((14, 20, 26, 38, 42, 98)) for _ in range(2)]
        targets += [6 * m * m + rng.choice((0, 2)) for m in rng.choices(range(2, 35), k=18)]
        slots = generic_slots(targets)
        draws = random.Random(trial)
        for k in range(1, 19):
            yield [constructions._draw_y(s, draws) for s in slots[2 : 2 + k]]
    # The corollary's first draws, made as _glued_search makes them.
    slots = generic_slots(COROLLARY_DISCRIMINANTS)
    draws = random.Random(",".join(map(str, COROLLARY_DISCRIMINANTS)))
    for _ in range(4):
        ys = [constructions._draw_y(s, draws) for s in slots[2:]]
        yield ys
    yield ys[:5] + [ys[1] + ys[3]]
    yield ys[:2] + [vector_difference(ys[0], 2 * ys[1])] + ys[2:9]


class TestGlue:
    def test_glue_is_the_first_saturating_candidate(self):
        kinds = collections.Counter()
        for ys in _glue_draws():
            kinds[_torsion_kind(ys)] += 1
            assert _glue_of(ys) == _first_saturating_glue(ys), len(ys)
        assert kinds["dependent"] and kinds[0] and kinds[1] and kinds[2], kinds
        assert any(isinstance(kind, int) and kind > 2 for kind in kinds), kinds

    def test_glue_is_the_first_candidate_whose_unglued_rows_are_saturated(self):
        # f1 and f2 on the y_j of g saturate M iff h2 and the other y_l span
        # a saturated sublattice of P, that is, iff the quotient rows outside
        # g are saturated in Z^18: an oracle with no glued coordinates.
        for ys in _glue_draws():
            quotient = [constructions._quotient_coords(y) for y in ys]
            first = None
            if lattice.span_membership(quotient, [0] * 18)[0]:
                for glue in _glue_candidates(len(ys)):
                    rest = [q for j, q in enumerate(quotient) if j not in glue]
                    if lattice.span_membership(rest, [0] * 18)[1]:
                        first = glue
                        break
            assert _glue_of(ys) == first, len(ys)

    def test_glue_is_invariant_under_unimodular_quotient_changes(self):
        # The glue saturates M or not whatever basis the quotient Z^18 has,
        # so the first saturating glue cannot depend on it.
        rng = random.Random(31)
        glued = 0
        for ys in _glue_draws():
            glue = _glue_of(ys)
            glued += bool(glue)
            for _ in range(2):
                rows = [list(constructions._quotient_coords(y)) for y in ys]
                for _ in range(60):
                    # A random elementary column operation on the 18 coordinates.
                    i, j = rng.sample(range(18), 2)
                    q = rng.choice((-2, -1, 1, 2))
                    for row in rows:
                        row[i] += q * row[j]
                for row in rows:
                    row[0], row[17] = -row[17], row[0]
                assert constructions._glue(rows) == glue
        assert glued > 20

    def test_smith_kernel_runs_once_on_the_small_block(self, monkeypatch):
        calls = []
        inner = constructions._smith_in_place

        def recording(a, *rest):
            calls.append(([row[:] for row in a], [[row[:] for row in u] for u in rest]))
            return inner(a, *rest)

        monkeypatch.setattr(constructions, "_smith_in_place", recording)
        blocks = 0
        for ys in _glue_draws():
            calls.clear()
            _glue_of(ys)
            kind = _torsion_kind(ys)
            invariants = invariant_factors(from_columns([constructions._quotient_coords(y) for y in ys]))
            index = math.prod(invariants)
            if kind == "dependent" or index == 1:
                assert calls == []
                continue
            ((block, rest),) = calls
            w = len(block)
            # The row companion starts as the w x w identity, so it ends as U.
            assert rest == [[[int(r == c) for c in range(w)] for r in range(w)]]
            assert kind <= w and 2**w <= index and all(len(row) == 2 * w for row in block)
            for r, row in enumerate(block):
                assert all(-index < 2 * x <= index for x in row[:w]), (row, index)
                assert row[w:] == [index * (r == c) for c in range(w)]
            blocks += 1
        assert blocks > 20


def _f2_deficit(ys):
    """k minus the rank over F2 of the quotient rows of ``ys``, by elimination mod 2."""
    rows = [[c % 2 for c in constructions._quotient_coords(y)] for y in ys]
    rank = 0
    for col in range(18):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return len(ys) - rank


def _whole_draw_search(slots):
    """The basis of the first seeded draw of every y_j that glues and passes, or None.

    Each draw makes all of its y_j before any test, so a y_j is never redrawn.
    """
    targets = tuple(s.target_d for s in slots)
    rng = random.Random(",".join(map(str, targets)))
    head = (H_SQUARED,) + tuple(constructions._generators(s)[0] for s in slots[:2])
    for _ in range(constructions.GOAL_ATTEMPTS):
        ys = [constructions._draw_y(s, rng) for s in slots[2:]]
        glue = _glue_of(ys)
        if glue is None:
            continue
        for j, f in zip(glue, (e_vec(1, 2), e_vec(2, 2))):
            ys[j] = ys[j] + f
        if verify_witness(head + tuple(ys), targets).verdict == "PASS":
            return head + tuple(ys)
    return None


class TestGluedSearch:
    def test_a_third_row_to_reduce_to_zero_is_redrawn_before_the_echelon(self, monkeypatch):
        # Seeded 15-20-target lists, the corollary and the exhausted named
        # rank-21 searches.  Every y_j that would make three quotient rows
        # reduce to zero mod 2 is redrawn at once, for the same slot;
        # _pivot_row and _smith_in_place run only inside _glue; every ys
        # handed to _glue has at most two such rows and holds exactly the
        # kept draws; each redraw, glue None and failed certificate counts
        # one of GOAL_ATTEMPTS failures; and a search with no redraw gives
        # the witness of drawing all y_j before any test.
        events = []

        def spy(name, record):
            inner = getattr(constructions, name)

            def wrapper(*args):
                if name != "_draw_y":
                    events.append(record(args, None))
                    return inner(*args)
                result = inner(*args)
                events.append(record(args, result))
                return result

            monkeypatch.setattr(constructions, name, wrapper)

        spy("_draw_y", lambda args, y: ("draw", args[0], y))
        spy("_glue", lambda args, _: ("glue", list(args[0])))
        spy("_pivot_row", lambda args, _: ("pivot",))
        spy("_smith_in_place", lambda args, _: ("smith",))
        rng = random.Random(39)
        lists = [generic_slots(_goal_targets(rng, n)) for n in range(15, 21) for _ in range(4)]
        lists.append(generic_slots(COROLLARY_DISCRIMINANTS))
        lists += [case_slots(CaseId.R21_ALL0, (2, 2) + (4,) * 18), case_slots(CaseId.R21_ALL2, (1, 1) + (4,) * 18)]
        searches = collections.Counter()
        for slots in lists:
            events.clear()
            outcome = constructions._glued_search(slots)
            log = list(events)
            realized = outcome.status == RealizationStatus.REALIZED_GOAL
            kept, redrawn, glued, in_glue = [], 0, 0, False
            for i, event in enumerate(log):
                if event[0] == "draw":
                    _, slot, y = event
                    assert slot == slots[2 + len(kept)]
                    if _f2_deficit(kept + [y]) > 2:
                        redrawn += 1
                        after = log[i + 1] if i + 1 < len(log) else None
                        assert after is None or after[:2] == ("draw", slot), after[0]
                    else:
                        kept.append(y)
                    in_glue = False
                elif event[0] == "glue":
                    assert event[1] == [constructions._quotient_coords(y) for y in kept]
                    assert _f2_deficit(kept) <= 2
                    kept, glued, in_glue = [], glued + 1, True
                else:
                    assert in_glue, event
            failures = redrawn + glued - realized
            assert failures < constructions.GOAL_ATTEMPTS if realized else failures == constructions.GOAL_ATTEMPTS
            searches["redrawn" if redrawn else "whole"] += 1
            if not redrawn:
                events.clear()
                whole = _whole_draw_search(slots)
                assert (whole is not None) == realized
                assert whole is None or outcome.certificate.basis == whole
        assert searches["redrawn"] >= 5 and searches["whole"] >= 5, searches

    def test_every_two_target_list_passes_on_its_first_certificate(self, monkeypatch):
        # The proof in _glued_search's docstring: h2, v1, v2 has minimum 3
        # for every pair of (*) values, so the search certifies once.
        calls = []

        def spy(basis, targets):
            calls.append(targets)
            return certificate_for(basis, targets)

        monkeypatch.setattr(constructions, "certificate_for", spy)
        star = [d for d in range(300) if satisfies_star(d)]
        assert len(star) == 97
        for pair in itertools.product(star, repeat=2):
            calls.clear()
            outcome = constructions._glued_search(generic_slots(pair))
            assert outcome.status == RealizationStatus.REALIZED_GOAL, pair
            assert calls == [pair]
            assert outcome.certificate.report.criterion.minimum_norm == 3


class TestIdentities:
    def test_case2_point_value(self):
        point = (1, 0, 0, -1)
        assert quadratic_form(reference_gram(CaseId.R4_002, (2, 2, 4)), point) == 10
        assert squares_value(CaseId.R4_002, (2, 2, 4), point) == 10

    def test_zero_point(self):
        point = (0, 0, 0, 0)
        assert quadratic_form(reference_gram(CaseId.R4_002, (3, 5, 9)), point) == 0
        assert squares_value(CaseId.R4_002, (3, 5, 9), point) == 0

    def test_typo_detected_in_raw_all2_identity(self):
        point = (1, 1, 1, 1)
        assert quadratic_form(reference_gram(CaseId.R4_222, (1, 1, 4)), point) == 24
        assert slipped_all2_value(point) == 32
        assert squares_value(CaseId.R4_222, (1, 1, 4), point) == 24

    def test_all_corrected_identities_agree(self):
        rng = random.Random(123)
        for case_id in RANK4_CASES + RANK5_CASES:
            for _ in range(5):
                params = random_params(rng, case_id)
                gram = reference_gram(case_id, params)
                for _ in range(200):
                    point = [rng.randint(-50, 50) for _ in range(gram.nrows)]
                    lhs = quadratic_form(gram, point)
                    rhs = squares_value(case_id, params, point)
                    assert lhs == rhs, (case_id, params, point)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            squares_value(CaseId.R21_ALL0, (2, 2) + (4,) * 18, (0,) * 21)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            squares_value(CaseId.R4_002, (2, 2, 4), (1, 2, 3))

    @pytest.mark.parametrize(
        "case_id,params",
        [
            (CaseId.R5_0002, (2, 2, 5, 4)),  # 5 is no square
            (CaseId.R4_002, (2, 2, 4, 9)),  # one parameter too many
            (CaseId.R4_002, (2, 2)),  # one too few
        ],
    )
    def test_parameters_rejected_as_by_reference_gram(self, case_id, params):
        with pytest.raises(ValueError):
            reference_gram(case_id, params)
        with pytest.raises(ValueError):
            squares_value(case_id, params, (1,) * int(case_id.value[1]))  # the case rank
