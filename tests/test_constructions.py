import hashlib
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hassett.constructions as constructions
from hassett.constructions import (
    CaseId,
    Mode,
    RealizationStatus,
    SLOT_POOL,
    SlotSpec,
    build,
    build_generic,
    candidate_perturbations,
    case_slots,
    generic_slots,
    ideal_gram,
    realize_perturbations,
    reference_gram,
    squares_value,
)
import hassett.lattice as lattice
import hassett.linalg as linalg
from hassett.lattice import (
    A1,
    H_SQUARED,
    e_vec,
    i3_unit,
    inner_product,
)
from hassett.linalg import IntMatrix, invariant_factors, quadratic_form
from hassett.verifier import verify_witness

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


# sha256 over the ``build`` outcome of every NAMED_CASE_PARAMS entry in both
# modes.  Any change to a status, a basis, a realized Gram, a delta, the
# targets or a detail changes it.
NAMED_BUILD_DIGEST = "92ddc54128a4cacc86e531414d3c605f8c4ab69c53422f7dab739c3acf6ed828"


def named_build_digest():
    h = hashlib.sha256()
    for case_id, params in NAMED_CASE_PARAMS:
        for mode in (Mode.STRICT, Mode.GOAL):
            o = build(case_id, params, mode)
            basis = None if o.basis is None else tuple(v.coords for v in o.basis)
            grams = [None if m is None else m.rows for m in (o.realized_gram, o.gram_delta)]
            h.update(repr((o.status.value, basis, *grams, o.targets, o.detail)).encode())
    return h.hexdigest()


def test_golden_named_builds():
    assert named_build_digest() == NAMED_BUILD_DIGEST


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
        assert reference_gram(CaseId.R4_000, (2, 2, 4)) == IntMatrix.diagonal([3, 4, 4, 8])

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


class TestCandidatePerturbations:
    def test_residue_zero_has_none(self):
        slot = SlotSpec(kind="A2_1", n=4, residue=0)
        assert candidate_perturbations(slot) == ()

    def test_u_and_e8_slots_get_units(self):
        for kind in ("U1", "E8_2_5"):
            slot = SlotSpec(kind=kind, n=4 if kind != "U1" else 1, residue=2)
            cands = candidate_perturbations(slot)
            assert cands == (i3_unit(3), i3_unit(2), i3_unit(1))

    def test_a2_slot_box_solutions(self):
        slot = SlotSpec(kind="A2_1", n=4, residue=2)
        cands = candidate_perturbations(slot)
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
                cands = candidate_perturbations(slot)
                assert cands and cands[0] == i3_unit(3)


class TestRealizePerturbations:
    def test_unit_solution_found(self):
        slots = case_slots(CaseId.R4_002, (2, 2, 4))
        outcome = realize_perturbations(slots, reference_gram(CaseId.R4_002, (2, 2, 4)))
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.basis[3] == 2 * A1 + i3_unit(3)
        assert outcome.gram_delta.is_zero()

    def test_nothing_to_perturb(self):
        slots = case_slots(CaseId.R4_000, (2, 2, 4))
        outcome = realize_perturbations(slots, reference_gram(CaseId.R4_000, (2, 2, 4)))
        assert outcome.status == RealizationStatus.REALIZED_STRICT

    def test_two_perturbed_a2_slots_obstructed_at_bound_one(self):
        # The optimum misses by 4 whether the A2 box has half-width 1 or 3.
        slots = case_slots(CaseId.R5_0022, (2, 2, 4, 4))
        target = reference_gram(CaseId.R5_0022, (2, 2, 4, 4))
        outcome = realize_perturbations(slots, target)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert not outcome.gram_delta.is_zero()

    def test_target_defaults_to_the_ideal_gram(self):
        slots = generic_slots((12, 12, 26, 26))
        assert realize_perturbations(slots) == realize_perturbations(slots, ideal_gram(slots))

    def test_nonsymmetric_target_rejected(self):
        # Only the upper triangle enters the deviation, so a target that
        # differs below the diagonal would otherwise be reported realized.
        slots = generic_slots((12, 12, 24))
        rows = ideal_gram(slots).to_lists()
        rows[3][0] = 7
        with pytest.raises(ValueError, match="symmetric"):
            realize_perturbations(slots, IntMatrix(rows))


def exhaustive_first_optimum(slots, target):
    """Least miss and first assignment attaining it, over every candidate tuple.

    The miss sums |realized - target| over the h2 row and the upper triangle,
    as ``realize_perturbations`` reports it.  ``min`` keeps the first of equal
    keys and ``itertools.product`` runs in lexicographic order.
    """
    cands = [candidate_perturbations(s) or (None,) for s in slots]
    gens = [
        [s.bare_generator() if p is None else s.bare_generator() + p for p in row]
        for s, row in zip(slots, cands)
    ]
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

    best = min(itertools.product(*(range(len(row)) for row in cands)), key=miss)
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
            outcome = realize_perturbations(slots, target)
            assert outcome.basis == basis, targets
            assert upper_miss(outcome.gram_delta) == miss, targets
            if miss:
                assert outcome.status == RealizationStatus.NOT_REALIZABLE
                assert outcome.detail == f"optimal assignment misses target by {miss}"
            else:
                assert outcome.status == RealizationStatus.REALIZED_STRICT
                assert outcome.detail == ""

    def test_bounded_search_matches_exhaustive_search(self):
        # Off-ideal targets take the branch and bound; below its node cap it
        # must return the same first optimum.
        rng = random.Random(77)
        for _ in range(40):
            slots = generic_slots(random_strict_targets(rng, rng.randint(3, 6)))
            rows = ideal_gram(slots).to_lists()
            i, j = sorted(rng.sample(range(1, len(rows)), 2))
            rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((-1, 1))
            target = IntMatrix(rows)
            miss, basis = exhaustive_first_optimum(slots, target)
            outcome = realize_perturbations(slots, target)
            assert outcome.basis == basis
            assert upper_miss(outcome.gram_delta) == miss
            assert "truncated" not in outcome.detail

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
        assert upper_miss(outcome.gram_delta) == optimum


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
    assert calls == {"case_slots": 1, "ideal_gram": 1}


class TestBuildStrict:
    def test_rank4_case1_exact(self):
        outcome = build(CaseId.R4_000, (2, 2, 4), Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.basis == (
            H_SQUARED,
            e_vec(1, 1) + 2 * e_vec(1, 2),
            e_vec(2, 1) + 2 * e_vec(2, 2),
            2 * A1,
        )
        assert outcome.realized_gram == IntMatrix.diagonal([3, 4, 4, 8])

    def test_rank4_case2_exact(self):
        outcome = build(CaseId.R4_002, (2, 2, 4), Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.realized_gram == reference_gram(CaseId.R4_002, (2, 2, 4))

    def test_rank4_cases_3_and_4_not_realizable(self):
        for case_id, params in ((CaseId.R4_022, (2, 2, 4)), (CaseId.R4_222, (1, 1, 4))):
            outcome = build(case_id, params, Mode.STRICT)
            assert outcome.status == RealizationStatus.NOT_REALIZABLE
            assert not outcome.gram_delta.is_zero()

    def test_rank21_all_zero_exact_with_diagram_cross_terms(self):
        params = (2, 2) + (4,) * 18
        outcome = build(CaseId.R21_ALL0, params, Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        g = outcome.realized_gram
        # slots 5 and 11 sit on adjacent E8 nodes: cross term -m5*m11.
        assert g[5][11] == -4
        assert g[3][4] == 4  # the A2 pair

    def test_rank21_all_two_not_realizable(self):
        params = (1, 1) + (4,) * 18
        outcome = build(CaseId.R21_ALL2, params, Mode.STRICT)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert not outcome.gram_delta.is_zero()
        # The transcribed Gram is not ideal, so the capped branch and bound
        # runs; its miss is the best found, not a proven optimum.
        miss = upper_miss(outcome.gram_delta)
        assert outcome.detail == (
            f"search truncated at {constructions.SEARCH_NODE_CAP} nodes; "
            f"best found misses target by {miss}"
        )


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
        assert outcome.targets == expected_ds
        for v, d in zip(outcome.basis[1:], expected_ds):
            hv = inner_product(H_SQUARED, v)
            assert 3 * inner_product(v, v) - hv * hv == d

    def test_rank4_all_zero_goal_blocked_by_scaled_slot(self):
        # The scaled slot 2*a1 has content 2, but the glued witness does not
        # use it: GOAL passes at (12, 12, 24).
        outcome = build(CaseId.R4_000, (2, 2, 4), Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        report = verify_witness(outcome.basis, outcome.targets)
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
            assert outcome.targets == ds
            report = verify_witness(outcome.basis, outcome.targets)
            assert report.verdict == "PASS", report.failure_reasons

    def test_slot_norm_and_pairing_invariants(self):
        rng = random.Random(99)
        for case_id in RANK4_CASES + RANK5_CASES:
            params = random_params(rng, case_id)
            outcome = build(case_id, params, Mode.GOAL)
            assert outcome.status == RealizationStatus.REALIZED_GOAL, (case_id, params)
            slots = case_slots(case_id, params)
            for slot, v in zip(slots, outcome.basis[1:]):
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
            assert outcome.gram_delta == outcome.realized_gram - reference_gram(case_id, params)
            if outcome.status == RealizationStatus.REALIZED_GOAL:
                report = verify_witness(outcome.basis, outcome.targets)
                assert report.verdict == "PASS", (case_id, report.failure_reasons)
            else:
                # A truncated search is never reported as a proof of impossibility.
                assert outcome.status == RealizationStatus.NOT_REALIZABLE
                assert outcome.detail.startswith("search exhausted"), outcome.detail
                assert "does not show that the targets are impossible" in outcome.detail


class TestGenericBuilds:
    def test_pool_matches_first_targets(self):
        slots = generic_slots((12, 12, 24, 98))
        assert [s.kind for s in slots] == ["U1", "U2", "A2_1", "A2_2"]

    def test_equivalent_to_rank4_case1(self):
        outcome = build_generic((12, 12, 24), Mode.STRICT)
        assert outcome.status == RealizationStatus.REALIZED_STRICT
        assert outcome.realized_gram == IntMatrix.diagonal([3, 4, 4, 8])

    def test_two_targets_need_only_hyperbolic_slots(self):
        outcome = build_generic((8, 8), Mode.GOAL)
        assert outcome.status == RealizationStatus.REALIZED_GOAL
        assert len(outcome.basis) == 3

    def test_flagship_slot_parameters(self):
        from hassett.verifier import COROLLARY_DISCRIMINANTS

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
                for d, v in zip(ds, outcome.basis[1:])
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
        report = verify_witness(outcome.basis, targets)
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
            for v in outcome.basis[3:]
        ]
        invariants = invariant_factors(IntMatrix.from_columns(quotient))
        assert [d for d in invariants if d > 1] == [2, 6]
        # v_j = y_j + s_j f1 + u_j f2, and e_i . f_i = 1 reads off the glue.
        glue = [
            (inner_product(e_vec(1, 1), v), inner_product(e_vec(2, 1), v))
            for v in outcome.basis[3:]
        ]
        assert any(s for s, _ in glue) and any(u for _, u in glue)
        report = verify_witness(outcome.basis, targets)
        assert report.verdict == "PASS", report.failure_reasons

    def test_exhausted_search_is_not_reported_realized(self, monkeypatch):
        # Every attempt fails the minimum check, so no witness may be claimed.
        monkeypatch.setattr(constructions, "short_vectors", lambda g, c: [(1,)])
        outcome = build_generic((12, 12, 26), Mode.GOAL)
        assert outcome.status == RealizationStatus.NOT_REALIZABLE
        assert "exhausted" in outcome.detail and "impossible" in outcome.detail
        assert outcome.basis is not None

    def test_goal_output_is_identical_across_processes(self):
        script = (
            "from hassett.constructions import Mode, build_generic\n"
            "print(build_generic((14, 38, 26, 98, 218, 294), Mode.GOAL).basis)\n"
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
            for v in outcome.basis[1:]:
                hv = inner_product(H_SQUARED, v)
                assert (3 * inner_product(v, v) - hv * hv) % 6 in (0, 2)


def test_glued_draw_eliminates_each_gram_once(monkeypatch):
    # short_vectors' elimination also decides definiteness, so every glued
    # draw runs one _ldl on its Gram and no is_positive_definite.  At these
    # parameters all 64 draws fail, most of them as indefinite Grams, and the
    # last gram_of call is the canonical basis of the NOT_REALIZABLE outcome.
    assert not hasattr(constructions, "is_positive_definite")
    calls = {"_ldl": 0, "is_positive_definite": 0, "gram_of": 0}
    owners = {"_ldl": lattice, "is_positive_definite": linalg, "gram_of": constructions}
    for name, owner in owners.items():
        inner = getattr(owner, name)

        def wrapper(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)
    slots = case_slots(CaseId.R21_ALL0, (2, 2) + (4,) * 18)
    outcome = constructions._glued_search(slots)
    assert outcome.status == RealizationStatus.NOT_REALIZABLE
    assert calls["_ldl"] == calls["gram_of"] - 1 > 0
    assert calls["is_positive_definite"] == 0


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
        assert squares_value(CaseId.R4_222, (1, 1, 4), point, corrected=False) == 32
        assert squares_value(CaseId.R4_222, (1, 1, 4), point, corrected=True) == 24

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
