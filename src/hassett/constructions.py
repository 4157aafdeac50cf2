"""Builders for the explicit witness sublattices and their reference Grams.

A witness is built for a target list of 2 to 20 discriminants
d_i = 6 n_i + r_i with r_i in {0, 2}.  The named rank-4, rank-5 and rank-21
cases (``CaseId``) are such lists, with the residues read off the case
value, so they take the same slots as any other list (``case_slots``); what
sets them apart is their reference Gram.

Every slot witness here is spanned by h2 together with one generator per
"slot":

* ``U1`` / ``U2`` slots contribute ``e1 + n*e2`` from one hyperbolic plane;
* scaled slots contribute ``m * b`` where ``b`` is either an A2 generator or
  an E8 basis vector and ``n = m**2`` (so the generator has norm ``2n``).

A slot of residue 0 realizes a labelling of discriminant ``6n`` as is.  A slot
of residue 2 additionally receives a perturbation ``p`` from the I3 block with
``p . h2 = 1`` and ``(g + p)**2 = 2n + 1``, which moves the discriminant to
``6n + 2``.  For U and E8 slots the norm constraint forces ``p`` to be one of
the three I3 unit vectors; for A2 slots a bounded box search solves the norm
equation ``2m(b.p) + p.p = 1`` in the box of half-width ``A2_SEARCH_BOUND``.

Two realization modes, for named cases (``build``) and target lists
(``build_generic``) alike:

* STRICT picks the perturbation assignment whose full Gram deviates least,
  entry for entry, from a reference matrix, and reports the delta when no
  assignment reproduces it.  Against the ideal Gram of the slots only I3
  parts deviate, and the miss is a closed form in how many residue-2 U and
  E8 slots take each I3 unit and which candidates the A2 slots take, so the
  search is exact (see ``_exact_assignment``); against any other reference
  it is a branch and bound with a node cap, and a capped result says that
  it was truncated.  STRICT reproduces the scaled reference Grams, so its
  witnesses can fail saturation: a residue-0 column ``m * b`` has content m.
* GOAL keeps only the per-slot discriminants and builds a glued witness,
  saturated by construction, that must also pass the remaining checks.

STRICT compares a named case with its reference Gram and a target list with
the ideal Gram of its slots.  The glued GOAL witness is built as follows.
Write P = E8+E8+I3, so L = P+U1+U2 with U_i spanned by the isotropic pair
e_i = e_vec(i, 1), f_i = e_vec(i, 2).  The basis is h2, the U-slot
generators v1 = e1 + n1*f1 (+p1) and v2 = e2 + n2*f2 (+p2) exactly as above,
and for every later slot of parameter m and residue r

    v_j = y_j + s_j*f1 + u_j*f2,   y_j in P,  y_j.y_j = 2m^2 + r,  h2.y_j = r.

f1 and f2 are isotropic and orthogonal to P and to each other, so v_j has the
norm and h2-pairing of y_j: the discriminant is 3(2m^2 + r) - r^2, which is
6m^2 or 6m^2 + 2.  e1 occurs only in v1 and e2 only in v2, so

    L / M  =  (P + Z^2) / {(y, lambda(y)) : y in Y},

where Y = span(h2, y_j) and lambda(h2) = 0, lambda(y_j) = (s_j, u_j).  Hence
M is saturated if and only if the torsion T of P/Y has at most two
generators and lambda maps T injectively into (Q/Z)^2.  One Smith normal form
of the coordinates of the y_j modulo h2 gives T and the glue (s_j, u_j).
Positive definiteness and the minimum are still checked, and a witness is
only reported REALIZED_GOAL when both hold.  The y_j are drawn from a
generator seeded by the target list, so the output is the same in every
process.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from enum import Enum
from typing import Sequence

from .criteria import satisfies_double_star, satisfies_star
from .lattice import (
    A1,
    A2,
    E8_EDGES,
    AmbientVector,
    H_SQUARED,
    NotPositiveDefinite,
    e_vec,
    gram_of,
    i3_unit,
    i3_vector,
    inner_product,
    short_vectors,
    t_vec,
)
from .linalg import IntMatrix, smith_normal_form

SEARCH_NODE_CAP = 200_000

# Half-width of the box in which A2 slots look for perturbations.
A2_SEARCH_BOUND = 3


class CaseId(str, Enum):
    """Named witness constructions, keyed by rank and residue pattern mod 6."""

    R4_000 = "r4-000"
    R4_002 = "r4-002"
    R4_022 = "r4-022"
    R4_222 = "r4-222"
    R5_0000 = "r5-0000"
    R5_0002 = "r5-0002"
    R5_0022 = "r5-0022"
    R5_0222 = "r5-0222"
    R5_2222 = "r5-2222"
    R21_ALL0 = "r21-all0"
    R21_ALL2 = "r21-all2"


class Mode(str, Enum):
    STRICT = "strict"
    GOAL = "goal"


class RealizationStatus(str, Enum):
    REALIZED_STRICT = "REALIZED_STRICT"
    REALIZED_GOAL = "REALIZED_GOAL"
    NOT_REALIZABLE = "NOT_REALIZABLE"


_SCALED_BASES = {"A2_1": A1, "A2_2": A2}
for _copy in (1, 2):
    for _i in range(1, 9):
        _SCALED_BASES[f"E8_{_copy}_{_i}"] = t_vec(_copy, _i)

U_KINDS = ("U1", "U2")
_A2_KINDS = ("A2_1", "A2_2")

# Scaled-slot assignment order for generic builds: the two A2 generators, then
# E8 basis vectors of both copies interleaved so that early slots avoid
# sharing diagram edges.
SLOT_POOL = (
    "A2_1",
    "A2_2",
    "E8_1_1",
    "E8_1_3",
    "E8_1_6",
    "E8_2_1",
    "E8_2_3",
    "E8_2_6",
    "E8_1_2",
    "E8_2_2",
    "E8_1_4",
    "E8_2_4",
    "E8_1_7",
    "E8_2_7",
    "E8_1_8",
    "E8_2_8",
    "E8_1_5",
    "E8_2_5",
)


@dataclass(frozen=True)
class SlotSpec:
    """One witness slot: which base vector, its parameter, and its residue."""

    kind: str
    n: int
    residue: int

    def __post_init__(self):
        if self.kind not in U_KINDS and self.kind not in _SCALED_BASES:
            raise ValueError(f"unknown slot kind {self.kind!r}")
        if self.residue not in (0, 2):
            raise ValueError("slot residue must be 0 or 2")
        if self.n < 1:
            raise ValueError("slot parameter must be positive")
        if self.kind not in U_KINDS:
            m = math.isqrt(self.n)
            if m * m != self.n or m < 2:
                raise ValueError(
                    f"scaled slot needs a perfect-square parameter >= 4, got {self.n}"
                )

    @property
    def scale(self) -> int:
        return 1 if self.kind in U_KINDS else math.isqrt(self.n)

    @property
    def target_d(self) -> int:
        return 6 * self.n + self.residue

    def bare_generator(self) -> AmbientVector:
        if self.kind in U_KINDS:
            copy = 1 if self.kind == "U1" else 2
            return e_vec(copy, 1) + self.n * e_vec(copy, 2)
        return self.scale * _SCALED_BASES[self.kind]


def _generator(slot: SlotSpec, perturbation: AmbientVector | None) -> AmbientVector:
    """Generator of ``slot`` with one of its candidate perturbations (None: bare)."""
    g = slot.bare_generator()
    return g if perturbation is None else g + perturbation


@dataclass(frozen=True)
class RealizationOutcome:
    status: RealizationStatus
    basis: tuple[AmbientVector, ...] | None
    realized_gram: IntMatrix | None
    gram_delta: IntMatrix | None
    targets: tuple[int, ...]
    detail: str = ""


def case_slots(case_id: CaseId, params: Sequence[int]) -> tuple[SlotSpec, ...]:
    """Slots of a named case: those of its target list d_i = 6 n_i + r_i.

    The residues r_i are read off the case value ("r4-022": 0, 2, 2;
    "r21-all2": twenty 2s), so a named case is ``generic_slots`` of its
    targets and is validated the same way.
    """
    tag = case_id.value.split("-")[1]
    residues = [int(tag[-1])] * 20 if tag.startswith("all") else [int(r) for r in tag]
    if len(params) != len(residues):
        raise ValueError(f"case {case_id.value} takes {len(residues)} parameters")
    return generic_slots([6 * int(n) + r for n, r in zip(params, residues)])


def _sqrt_entry(ni: int, nj: int) -> int:
    # Both parameters are validated squares, so the product is a square too.
    root = math.isqrt(ni * nj)
    assert root * root == ni * nj
    return root


def ideal_gram(slots: Sequence[SlotSpec]) -> IntMatrix:
    """Gram matrix of a witness whose perturbations pair to zero everywhere.

    Cross terms between bare generators (A2 pairs, E8 diagram edges) are kept;
    every perturbation contributes only its forced diagonal and h2 entries.
    """
    bare = [s.bare_generator() for s in slots]
    g = gram_of([H_SQUARED] + bare).to_lists()
    for i, s in enumerate(slots):
        if s.residue == 2:
            g[0][i + 1] = g[i + 1][0] = 1
            g[i + 1][i + 1] += 1
    return IntMatrix(g)


def _r21_all2_gram(params: Sequence[int]) -> IntMatrix:
    """The displayed Gram of the rank-21 all-residue-2 construction.

    Transcribed literally; its perturbation cross terms are not realizable by
    the stated generators (STRICT reports the delta).
    """
    n = [0] + [int(x) for x in params]  # 1-based
    g = [[0] * 21 for _ in range(21)]
    g[0][0] = 3
    for i in range(1, 21):
        g[i][i] = 2 * n[i] + 1
        g[0][i] = g[i][0] = 1
    sq = lambda i, j: _sqrt_entry(n[i], n[j])
    entries = {
        (1, 4): 1,
        (1, 8): 1,
        (2, 3): 1,
        (2, 7): 1,
        (3, 4): sq(3, 4),
        (3, 7): 1,
        (4, 8): 1,
        (5, 6): 1,
        (5, 9): 1,
        (5, 10): 1,
        (6, 9): 1,
        (6, 10): 1,
        (9, 10): 1,
        (1, 15): 1,
        (1, 16): 1,
        (1, 17): 1,
        (1, 18): 1,
        (1, 19): 1,
        (1, 20): 1,
        (2, 14): 1,
        (3, 14): 1,
        (4, 15): 1,
        (4, 16): 1,
        (4, 17): 1,
        (4, 18): 1,
        (4, 19): 1,
        (4, 20): 1,
        (5, 11): 1 - sq(5, 11),
        (5, 12): 1,
        (5, 13): 1,
        (6, 11): 1 - sq(6, 11),
        (6, 12): 1,
        (6, 13): 1 - sq(6, 13),
        (6, 19): -sq(6, 19),
        (7, 14): 1,
        (7, 15): -sq(7, 15),
        (7, 19): -sq(7, 19),
        (8, 12): -sq(8, 12),
        (8, 15): 1,
        (8, 16): 1,
        (8, 17): 1,
        (8, 18): 1,
        (8, 19): 1,
        (8, 20): 1,
        (9, 11): 1,
        (9, 12): 1 - sq(9, 12),
        (9, 13): 1,
        (9, 14): -sq(9, 14),
        (9, 20): -sq(9, 20),
        (10, 11): 1,
        (10, 12): 1,
        (10, 13): 1,
        (10, 16): -sq(10, 16),
        (10, 20): -sq(10, 20),
        (11, 12): 1,
        (11, 13): 1,
        (12, 13): 1,
        (15, 17): -sq(15, 17),
        (16, 18): -sq(16, 18),
    }
    for (i, j), value in entries.items():
        g[i][j] = g[j][i] = value
    return IntMatrix(g)


def reference_gram(case_id: CaseId, params: Sequence[int]) -> IntMatrix:
    """Reference Gram matrix of a named case at concrete parameters."""
    slots = case_slots(case_id, params)
    return _r21_all2_gram(params) if case_id == CaseId.R21_ALL2 else ideal_gram(slots)


_UNITS_SORTED = (i3_unit(3), i3_unit(2), i3_unit(1))  # lexicographic by coordinates


def candidate_perturbations(slot: SlotSpec) -> tuple[AmbientVector, ...]:
    """Admissible perturbations of one slot, unit vectors first then by coords.

    Residue-0 slots admit none.  U and E8 slots need p.p = 1, so only the
    unit vectors qualify.  A2 slots solve 2m(b.p) + p.p = 1 over the box
    [-A2_SEARCH_BOUND, A2_SEARCH_BOUND]^3 with coordinate sum 1; a unit
    vector solves it for every m, so the first candidate is always a unit.
    """
    if slot.residue == 0:
        return ()
    if slot.kind not in _A2_KINDS:
        return _UNITS_SORTED
    base = _SCALED_BASES[slot.kind].i3_part()
    m = slot.scale
    units: list[tuple[int, int, int]] = []
    rest: list[tuple[int, int, int]] = []
    span = range(-A2_SEARCH_BOUND, A2_SEARCH_BOUND + 1)
    for x in span:
        for y in span:
            z = 1 - x - y
            if abs(z) > A2_SEARCH_BOUND:
                continue
            pp = x * x + y * y + z * z
            bp = base[0] * x + base[1] * y + base[2] * z
            if 2 * m * bp + pp == 1:
                (units if pp == 1 else rest).append((x, y, z))
    ordered = sorted(units) + sorted(rest)
    return tuple(i3_vector(*p) for p in ordered)


def _exact_assignment(
    slots: Sequence[SlotSpec],
    cands: Sequence[Sequence[AmbientVector | None]],
    target: IntMatrix,
) -> tuple[int, list[int]]:
    """Least deviation from the ideal Gram ``target`` and its first optimal assignment.

    Against the ideal target every candidate meets its own h2 and diagonal
    entries, and only I3 parts can deviate.  A residue-2 U or E8 slot has no
    I3 part but the unit vector it takes; with c_u such slots on unit u and
    one candidate picked for each A2 slot, the miss is

        sum_u C(c_u, 2) + sum_u c_u * w_u + (deviation among the A2 slots),

    where w_u = sum |u.g| over the A2 generators g.  Every other entry meets
    its target.  So the optimum is a minimum over the A2 picks and the counts
    c0 + c1 + c2 = K.  Walking the slots in order and keeping the least pick
    that some optimal (picks, counts) still allows gives the
    lexicographically first optimal assignment.
    """
    a2 = [i for i, s in enumerate(slots) if s.kind in _A2_KINDS]
    units = sum(s.residue == 2 and s.kind not in _A2_KINDS for s in slots)
    gens = {i: [_generator(slots[i], p) for p in cands[i]] for i in a2}
    weight = {i: [[abs(inner_product(u, g)) for u in _UNITS_SORTED] for g in gens[i]] for i in a2}
    options = []
    for picks in itertools.product(*(range(len(gens[i])) for i in a2)):
        a2_miss = sum(
            abs(inner_product(gens[i][a], gens[j][b]) - target[i + 1][j + 1])
            for (i, a), (j, b) in itertools.combinations(zip(a2, picks), 2)
        )
        w = [sum(weight[i][a][u] for i, a in zip(a2, picks)) for u in range(3)]
        for c0 in range(units + 1):
            for c1 in range(units + 1 - c0):
                counts = (c0, c1, units - c0 - c1)
                miss = a2_miss + sum(c * (c - 1) // 2 + c * wu for c, wu in zip(counts, w))
                options.append((miss, picks, counts))
    optimum = min(miss for miss, _, _ in options)
    allowed = [(p, c) for miss, p, c in options if miss == optimum]
    placed = [0, 0, 0]
    assignment = []
    for i, s in enumerate(slots):
        if i in gens:
            slot = a2.index(i)
            a = min(p[slot] for p, _ in allowed)
            allowed = [(p, c) for p, c in allowed if p[slot] == a]
        elif s.residue == 2:
            a = next(u for u in range(3) if any(c[u] > placed[u] for _, c in allowed))
            placed[a] += 1
            allowed = [(p, c) for p, c in allowed if c[a] >= placed[a]]
        else:
            a = 0
        assignment.append(a)
    return optimum, assignment


def _bounded_assignment(
    slots: Sequence[SlotSpec],
    cands: Sequence[Sequence[AmbientVector | None]],
    target: IntMatrix,
) -> tuple[int, list[int], bool]:
    """Branch and bound for an arbitrary target: (miss, assignment, truncated).

    ``own[i][a]`` is the deviation of the h2 and diagonal entries of slot i
    with candidate a, and ``pair[j, i][b][a]`` that of entry (j, i) with
    candidates b and a.  Slots are placed in order, candidates in candidate
    order.  A branch is cut when its deviation so far plus an admissible
    bound on the unplaced slots (each one's cheapest own deviation and the
    cheapest deviation of each pair among them) cannot beat the best
    assignment found.  After ``SEARCH_NODE_CAP`` candidate placements the
    search stops and reports itself truncated.
    """
    k = len(slots)
    gens = [[_generator(s, p) for p in cs] for s, cs in zip(slots, cands)]
    own = [
        [
            abs(inner_product(H_SQUARED, g) - target[0][i + 1])
            + abs(inner_product(g, g) - target[i + 1][i + 1])
            for g in gens[i]
        ]
        for i in range(k)
    ]
    pair = {
        (j, i): [
            [abs(inner_product(gj, gi) - target[j + 1][i + 1]) for gi in gens[i]]
            for gj in gens[j]
        ]
        for i in range(k)
        for j in range(i)
    }
    rest = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        rest[i] = rest[i + 1] + min(own[i]) + sum(
            min(map(min, pair[i, l])) for l in range(i + 1, k)
        )
    best_sum: int | None = None
    best: list[int] = []
    current = [0] * k
    nodes = 0

    def dfs(i: int, acc: int) -> bool:
        nonlocal best_sum, best, nodes
        if best_sum is not None and acc + rest[i] >= best_sum:
            return False
        if i == k:
            best_sum, best = acc, list(current)
            return acc == 0
        for a in range(len(cands[i])):
            nodes += 1
            if nodes > SEARCH_NODE_CAP:
                return False
            current[i] = a
            cost = own[i][a] + sum(pair[j, i][current[j]][a] for j in range(i))
            if dfs(i + 1, acc + cost):
                return True
        return False

    dfs(0, 0)
    assert best_sum is not None
    return best_sum, best, nodes > SEARCH_NODE_CAP


def realize_perturbations(
    slots: Sequence[SlotSpec], target: IntMatrix | None = None
) -> RealizationOutcome:
    """Find the perturbation assignment whose Gram deviates least from ``target``.

    ``target`` defaults to the ideal Gram of the slots and must be symmetric.
    The deviation is the sum of absolute entrywise differences.  For the
    ideal Gram (every target list, and every named case except ``R21_ALL2``)
    the deviation is a closed form in how many residue-2 U and E8 slots take
    each I3 unit and which candidates the A2 slots take, and
    ``_exact_assignment`` minimises it over those few choices.  Any other
    target runs a branch and bound capped at ``SEARCH_NODE_CAP`` nodes; when
    the cap stops it, the detail says so and gives the best miss found.
    Ties go to the lexicographically first assignment in candidate order.
    Returns REALIZED_STRICT on an exact match, otherwise NOT_REALIZABLE
    carrying the realized Gram and its delta.
    """
    slots = tuple(slots)
    k = len(slots)
    ideal = ideal_gram(slots)
    if target is None:
        target = ideal
    if target.nrows != k + 1 or target.ncols != k + 1:
        raise ValueError("target Gram must be (k+1) x (k+1) including the h2 row")
    if not target.is_symmetric():
        raise ValueError("target Gram must be symmetric")
    cands = [candidate_perturbations(s) or (None,) for s in slots]
    truncated = False
    if target == ideal:
        miss, picks = _exact_assignment(slots, cands, target)
    else:
        miss, picks, truncated = _bounded_assignment(slots, cands, target)
    miss += abs(3 - target[0][0])
    basis = (H_SQUARED,) + tuple(_generator(s, c[a]) for s, c, a in zip(slots, cands, picks))
    realized = gram_of(basis)
    if truncated:
        detail = (
            f"search truncated at {SEARCH_NODE_CAP} nodes; "
            f"best found misses target by {miss}"
        )
    else:
        detail = f"optimal assignment misses target by {miss}" if miss else ""
    return RealizationOutcome(
        status=RealizationStatus.NOT_REALIZABLE if miss else RealizationStatus.REALIZED_STRICT,
        basis=basis,
        realized_gram=realized,
        gram_delta=realized - target,
        targets=tuple(s.target_d for s in slots),
        detail=detail,
    )


def build(case_id: CaseId, params: Sequence[int], mode: Mode = Mode.GOAL) -> RealizationOutcome:
    """Assemble a named witness in the requested realization mode.

    A named case is its target list d_i = 6 n_i + r_i (see ``case_slots``),
    built as ``build_generic`` builds it, except that STRICT compares with
    the case's reference Gram and GOAL takes its ``gram_delta`` against it.
    """
    slots = case_slots(case_id, params)
    # R21_ALL2 is the one case whose reference is not the ideal Gram of its slots.
    target = _r21_all2_gram(params) if case_id == CaseId.R21_ALL2 else None
    if mode == Mode.STRICT:
        return realize_perturbations(slots, target)
    outcome = _glued_search(slots)
    reference = ideal_gram(slots) if target is None else target
    return replace(outcome, gram_delta=outcome.realized_gram - reference)


def generic_slots(targets: Sequence[int]) -> tuple[SlotSpec, ...]:
    """Slot assignment for arbitrary target discriminants.

    The first two targets take the hyperbolic slots and need condition (*);
    the rest take scaled slots in pool order and need (*) and (**).
    """
    ds = [int(d) for d in targets]
    if not 2 <= len(ds) <= 20:
        raise ValueError("between 2 and 20 target discriminants are supported")
    slots: list[SlotSpec] = []
    for position, d in enumerate(ds):
        star_ok = satisfies_star(d)
        if position < 2:
            if not star_ok:
                raise ValueError(f"d={d} fails condition (*): d >= 8 and d = 0,2 (mod 6)")
            residue = d % 6
            slots.append(SlotSpec(kind=U_KINDS[position], n=(d - residue) // 6, residue=residue))
        else:
            m = satisfies_double_star(d)
            broken = [name for name, ok in (("(*)", star_ok), ("(**)", m is not None)) if not ok]
            if broken:
                raise ValueError(
                    f"d={d} fails condition {' and '.join(broken)}: targets beyond the "
                    "second need d >= 8, d = 0,2 (mod 6), and d = 6m^2 or 6m^2+2 with m >= 2"
                )
            slots.append(SlotSpec(kind=SLOT_POOL[position - 2], n=m * m, residue=d % 6))
    return tuple(slots)


def build_generic(targets: Sequence[int], mode: Mode = Mode.GOAL) -> RealizationOutcome:
    """Witness builder for 2 to 20 arbitrary admissible discriminants.

    STRICT searches slot perturbations against the ideal Gram of the slots;
    its witnesses reproduce scaled generators and can fail saturation.  GOAL
    builds the glued witness of the module docstring.  It guarantees exact
    labelling discriminants and saturation in the ambient lattice, and it
    returns REALIZED_GOAL only after positive definiteness and the minimum
    norm of at least 3 have been checked.  When ``GOAL_ATTEMPTS`` seeded
    draws all fail, the outcome is NOT_REALIZABLE with a detail saying that
    the search was exhausted; that is not a proof that the targets are
    impossible.
    """
    slots = generic_slots(targets)
    if mode == Mode.STRICT:
        return realize_perturbations(slots)
    return _glued_search(slots)


# ---------------------------------------------------------------------------
# GOAL witnesses for target lists, saturated by construction.

# Seeded draws of the y_j before GOAL reports the search exhausted.  A draw
# fails when P/Y needs more than two generators; the 950 lists of acceptance
# criterion 7 and the corollary list need at most 12 draws.
GOAL_ATTEMPTS = 64

_F1 = e_vec(1, 2)
_F2 = e_vec(2, 2)
_E8_NODES = tuple((copy, i) for copy in (1, 2) for i in range(1, 9))


def _quotient_coords(v: AmbientVector) -> tuple[int, ...]:
    """Coordinates of the E8+E8+I3 part of ``v`` modulo h2.

    In the basis h2, i3_2, i3_3 of I3 the vector (x1, x2, x3) is
    x1*h2 + (x2 - x1)*i3_2 + (x3 - x1)*i3_3, so dropping the h2 coordinate
    leaves the 16 E8 coordinates and (x2 - x1, x3 - x1).
    """
    c = v.coords
    return c[:16] + (c[21] - c[20], c[22] - c[20])


def _four_squares(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    """A random integer quadruple whose squares sum to ``n`` (Lagrange: one exists)."""
    r = math.isqrt(n)
    while True:
        a, b, c = (rng.randint(-r, r) for _ in range(3))
        rest = n - a * a - b * b - c * c
        if rest >= 0 and math.isqrt(rest) ** 2 == rest:
            return a, b, c, rng.choice((1, -1)) * math.isqrt(rest)


@lru_cache(maxsize=None)
def _i3_parts(kind: str, residue: int) -> tuple[tuple[int, int, int], ...]:
    """I3 vectors in [-1, 1]^3 pairing ``residue`` with h2 and orthogonal to the slot base."""
    base = _SCALED_BASES[kind].i3_part()
    span = (-1, 0, 1)
    return tuple(
        (x, y, z)
        for x in span
        for y in span
        for z in span
        if x + y + z == residue and x * base[0] + y * base[1] + z * base[2] == 0
    )


def _adjacent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] == b[0] and (min(a[1], b[1]), max(a[1], b[1])) in E8_EDGES


def _draw_y(slot: SlotSpec, rng: random.Random) -> AmbientVector:
    """A vector y of E8+E8+I3 with y.y = 2m^2 + r and h2.y = r.

    y = (m - 1)*b + w for the slot base b (a root), where w is orthogonal to
    b and h2.w = r, w.w = 4m - 2 + r.  w is an I3 part plus integer multiples
    of four mutually orthogonal E8 basis vectors orthogonal to b.
    """
    base = _SCALED_BASES[slot.kind]
    m, r = slot.scale, slot.residue
    budget = 4 * m - 2 + r
    x = rng.choice([p for p in _i3_parts(slot.kind, r) if budget - sum(c * c for c in p) >= 2])
    half = (budget - sum(c * c for c in x)) // 2
    blocked = [(i // 8 + 1, i % 8 + 1) for i in range(16) if base.coords[i]]
    nodes: list[tuple[int, int]] = []
    for node in rng.sample(_E8_NODES, len(_E8_NODES)):
        if node in blocked or any(_adjacent(node, b) for b in blocked):
            continue
        nodes.append(node)
        blocked.append(node)
        if len(nodes) == 4:
            break
    coords = [(m - 1) * c for c in base.coords]
    coords[20:23] = [c + p for c, p in zip(coords[20:23], x)]
    for c, (copy, i) in zip(_four_squares(half, rng), nodes):
        coords[8 * (copy - 1) + i - 1] += c
    return AmbientVector(tuple(coords))


def _glue(ys: Sequence[AmbientVector]) -> list[tuple[int, int]] | None:
    """Glue (s_j, u_j) making h2, y_j saturated once v_j = y_j + s_j f1 + u_j f2.

    Let P = E8+E8+I3 and Y = span(h2, y_j).  The Smith form U C V = D of the
    coordinates C of the y_j modulo h2 gives the torsion T of P/Y: Z/d_i for
    every invariant d_i > 1, generated by a vector g_i with
    d_i g_i = sum_j V[j][i] y_j (mod h2).  The glue lambda(y_j) = (s_j, u_j)
    sends g_i to sum_j V[j][i] (s_j, u_j) / d_i in (Q/Z)^2, and the witness
    is saturated iff that map is injective on T.  Returns None when the y_j
    are dependent, T needs more than two generators, or no unit glue on one
    or two generators is injective.
    """
    k = len(ys)
    glue = [(0, 0)] * k
    if k == 0:
        return glue
    _, d, v = smith_normal_form(IntMatrix.from_columns([_quotient_coords(y) for y in ys]))
    invariants = [d[i][i] for i in range(k)]
    if 0 in invariants:
        return None
    torsion = [i for i in range(k) if invariants[i] > 1]
    if not torsion:
        return glue
    if len(torsion) > 2:
        return None
    b = torsion[-1]
    order = invariants[b]
    if len(torsion) == 1:
        # A cyclic T = Z/d embeds iff its generator maps to an element of order d.
        for j in range(k):
            if math.gcd(v[j][b], order) == 1:
                glue[j] = (1, 0)
                return glue
    a = torsion[0]
    for i, j in itertools.permutations(range(k), 2):
        if len(torsion) == 1:
            image = math.gcd(v[i][b], v[j][b])
        else:
            # Z/d_a + Z/d_b maps through the 2 x 2 matrix with rows
            # (V[i][a], V[j][a]) / d_a and (V[i][b], V[j][b]) / d_b; as d_a
            # divides d_b, it is injective when the determinant is a unit
            # modulo d_b.  Testing each generator on its own is not enough.
            image = v[i][a] * v[j][b] - v[j][a] * v[i][b]
        if math.gcd(image, order) == 1:
            glue[i] = (1, 0)
            glue[j] = (0, 1)
            return glue
    return None


def _glued_search(slots: Sequence[SlotSpec]) -> RealizationOutcome:
    """GOAL witness: v1, v2 from the U slots, v_j = y_j + s_j f1 + u_j f2.

    Only positive definiteness and the minimum are left to check; saturation
    and the discriminants hold by construction (see the module docstring).
    """
    slots = tuple(slots)
    targets = tuple(s.target_d for s in slots)
    canonical = (H_SQUARED,) + tuple(
        _generator(s, (candidate_perturbations(s) or (None,))[0]) for s in slots
    )
    head = canonical[:3]
    rng = random.Random(",".join(map(str, targets)))
    attempts = GOAL_ATTEMPTS if len(slots) > 2 else 1
    for _ in range(attempts):
        ys = [_draw_y(s, rng) for s in slots[2:]]
        glue = _glue(ys)
        if glue is None:
            continue
        basis = head + tuple(y + s * _F1 + u * _F2 for y, (s, u) in zip(ys, glue))
        gram = gram_of(basis)
        # Minimum at least 3: no nonzero vector of norm 1 or 2.  The
        # elimination inside short_vectors also decides definiteness.
        try:
            passed = not short_vectors(gram, 2)
        except NotPositiveDefinite:
            passed = False
        if passed:
            return RealizationOutcome(
                status=RealizationStatus.REALIZED_GOAL,
                basis=basis,
                realized_gram=gram,
                gram_delta=None,
                targets=targets,
            )
    return RealizationOutcome(
        status=RealizationStatus.NOT_REALIZABLE,
        basis=canonical,
        realized_gram=gram_of(canonical),
        gram_delta=None,
        targets=targets,
        detail=(
            f"search exhausted: none of {attempts} seeded glued witnesses passed "
            "every check; this does not show that the targets are impossible"
        ),
    )


# ---------------------------------------------------------------------------
# Closed-form completed-squares identities for the rank-4 and rank-5 cases.

def squares_value(
    case_id: CaseId,
    params: Sequence[int],
    point: Sequence[int],
    corrected: bool = True,
) -> int:
    """Completed-squares expression of the case's form at an integer point.

    With ``corrected=False`` the all-residue-2 rank-4 case reproduces a known
    transcription slip (a product where a sum belongs); every other case is
    identical in both variants.
    """
    if case_id in (CaseId.R21_ALL0, CaseId.R21_ALL2):
        raise ValueError(f"no closed identity for case {case_id}")
    x = [int(v) for v in point]
    expected_dim = 4 if case_id.value.startswith("r4") else 5
    if len(x) != expected_dim:
        raise ValueError("point dimension must match the case rank")
    n = [int(v) for v in params]
    x1, x2, x3, x4 = x[0], x[1], x[2], x[3]
    if case_id == CaseId.R4_000:
        return 3 * x1**2 + 2 * n[0] * x2**2 + 2 * n[1] * x3**2 + 2 * n[2] * x4**2
    if case_id == CaseId.R4_002:
        return (
            2 * x1**2
            + 2 * n[0] * x2**2
            + 2 * n[1] * x3**2
            + 2 * n[2] * x4**2
            + (x1 + x4) ** 2
        )
    if case_id == CaseId.R4_022:
        return (
            x1**2
            + 2 * n[0] * x2**2
            + 2 * n[1] * x3**2
            + 2 * n[2] * x4**2
            + (x1 + x3) ** 2
            + (x1 + x4) ** 2
        )
    if case_id == CaseId.R4_222:
        tail = 2 * n[0] * x2**2 + 2 * n[1] * x3**2 + 2 * n[2] * x4**2
        if corrected:
            return tail + (x1 + x2) ** 2 + (x1 + x3) ** 2 + (x1 + x4) ** 2
        return tail + (x1 + x2) ** 2 * (x1 + x3) ** 2 + (x1 + x4) ** 2
    x5 = x[4]
    m3, m4 = math.isqrt(n[2]), math.isqrt(n[3])
    mixed = n[2] * x4**2 + n[3] * x5**2 + (m3 * x4 + m4 * x5) ** 2
    common = 2 * n[0] * x2**2 + 2 * n[1] * x3**2 + mixed
    if case_id == CaseId.R5_0000:
        return 3 * x1**2 + common
    if case_id == CaseId.R5_0002:
        return 2 * x1**2 + common + (x1 + x5) ** 2
    if case_id == CaseId.R5_0022:
        return x1**2 + common + (x1 + x5) ** 2 + (x1 + x4) ** 2
    if case_id == CaseId.R5_0222:
        return common + (x1 + x5) ** 2 + (x1 + x4) ** 2 + (x1 + x3) ** 2
    return (
        common
        + (x1 + x5) ** 2
        + (x1 + x4) ** 2
        + (x1 + x3) ** 2
        + (x1 + x2) ** 2
        - x1**2
    )
