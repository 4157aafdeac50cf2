"""Builders for the explicit witness sublattices and their reference Grams.

A witness is built for a target list of 2 to 20 discriminants
d_i = 6 n_i + r_i with r_i in {0, 2}.  The named rank-4, rank-5 and rank-21
cases (``CaseId``) are such lists, with the residues read off the case
value, so they take the slots of any other list (``case_slots``) and build
as it does; only ``R21_ALL2`` has a reference Gram of its own.

Every slot witness here is spanned by h2 together with one generator per
"slot":

* ``U1`` / ``U2`` slots contribute ``e1 + n*e2`` from one hyperbolic plane;
* scaled slots contribute ``m * b`` where ``b`` is either an A2 generator or
  an E8 basis vector and ``n = m**2`` (so the generator has norm ``2n``).

A slot of residue 0 realizes a labelling of discriminant ``6n`` as is.  A slot
of residue 2 additionally receives a perturbation ``p`` from the I3 block with
``p . h2 = 1`` and ``(g + p)**2 = 2n + 1``, which moves the discriminant to
``6n + 2``.  For every slot kind ``p`` solves ``2 g.p + p.p = 1``, g the I3
part of the bare generator, in the box of half-width ``A2_SEARCH_BOUND``: only
the I3 unit vectors for U and E8 slots (g = 0), a few more for A2 slots.
``_generators`` applies this rule once per slot; every search reads it there.

Two realization modes, for named cases (``build``) and target lists
(``build_generic``) alike:

* STRICT picks the perturbation assignment whose full Gram deviates least,
  entry for entry, from the ideal Gram of the slots, and notes the least
  miss when no assignment reproduces it.  Only I3 parts deviate, and the
  miss is a closed form in how many residue-2 U and E8 slots take each I3
  unit and which candidates the A2 slots take, so one exact pass over those
  choices keeps the least miss and its first assignment, an index into each
  slot's candidate generators (see ``_exact_assignment``).  The status is
  the verifier's comparison of the witness's Gram with the reference Gram,
  so REALIZED_STRICT means the certificate records an exact match.  The
  transcribed ``R21_ALL2`` Gram is not met, and the note names its entries
  that no pair of candidate generators meets.
  STRICT reproduces the scaled reference Grams, so its witnesses can fail
  saturation: a residue-0 column ``m * b`` has content m.
* GOAL keeps only the per-slot discriminants and builds a glued witness,
  saturated by construction, that must also pass the remaining checks; it is
  compared with no reference Gram.

The ideal Gram is a closed form in the slot parameters and the A2 and E8 Gram
entries (``ideal_gram``), so STRICT computes one Gram, that of its witness,
in the verifier.  The glued GOAL witness is built as follows.
Write P = E8+E8+I3, so L = P+U1+U2 with U_i spanned by the isotropic pair
e_i = e_vec(i, 1), f_i = e_vec(i, 2).  The basis is h2, the U-slot
generators v1 = e1 + n1*f1 (+p1) and v2 = e2 + n2*f2 (+p2) exactly as above,
and for every later slot of parameter m and residue r

    v_j = y_j + s_j*f1 + u_j*f2,   y_j in P,  y_j.y_j = 2m^2 + r,  h2.y_j = r.

f1 and f2 are isotropic and orthogonal to P and to each other, so v_j has the
norm and h2-pairing of y_j: the discriminant is 3(2m^2 + r) - r^2, which is
6m^2 or 6m^2 + 2.  e1 occurs only in v1 and e2 only in v2, so M is
saturated iff h2 and the v_j span a saturated sublattice of P + Z f1 + Z f2.
The glue names the y_j that take f1 and f2, so each (s_j, u_j) is (0, 0)
but on at most two y_j, and f1 and f2 occur in no other v_j.  Hence, for
independent y_j, M is saturated if and only if h2 and the y_l outside the
glue span a saturated sublattice of P.  A column echelon brings the
coordinates of the y_j modulo h2 to a k x k triangle, and that holds iff
the unit vectors e_j of the glued y_j generate G = Z^k / (columns of the
triangle).  One Smith form of G's presentation on the non-unit pivots (w x 2w,
entries mod |G|) gives G and places each e_j in it; the glue is the first
candidate whose e_j generate G, tested exactly (see ``_glue``).  The y_j
are drawn one at a time, and a y_j is redrawn as soon as its coordinates
mod 2 show that no glue can saturate a draw that holds it (see
``_glued_search``).
Each draw is accepted by the verdict of ``verifier.verify_witness``, which
recomputes all four checks and every labelling, so a witness is only
reported REALIZED_GOAL when the verifier passes it, and every outcome
carries the certificate of that one verification.  The y_j are drawn
from a generator seeded by the target list, so the output is the same in
every process, and read only through ``getrandbits`` (see ``_four_squares``).
The flagship corollary (``corollary20_certificate``) and the exact check
of the completed-squares identities (``check_identity``) are built here
too; a verdict comes from ``verifier`` alone.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from enum import Enum
from operator import index
from typing import NamedTuple, Sequence

from .criteria import satisfies_double_star, satisfies_star
from .lattice import (
    A1,
    A2,
    E8_GRAM,
    AmbientVector,
    H_SQUARED,
    IntMatrix,
    _pivot_row,
    e_vec,
    gram_of,
    i3_vector,
    inner_product,
    t_vec,
)
from .linalg import _smith_in_place
from .verifier import Certificate, certificate_for

# Half-width of the I3 box in which residue-2 slots look for perturbations.
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

# <b, b'> for the scaled slot bases in ``_SCALED_BASES`` order: the Gram of
# a1, a2, then the two E8 blocks, which pair with nothing outside themselves.
_BASE_PAIRING = IntMatrix.block_diagonal([gram_of([A1, A2]), E8_GRAM, E8_GRAM]).rows
_BASE_INDEX = {kind: i for i, kind in enumerate(_SCALED_BASES)}

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


class _SlotFields(NamedTuple):
    kind: str
    n: int
    residue: int


class SlotSpec(_SlotFields):
    """One witness slot: which base vector, its parameter, and its residue."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int, residue: int):
        n, residue = index(n), index(residue)
        if kind not in U_KINDS and kind not in _SCALED_BASES:
            raise ValueError(f"unknown slot kind {kind!r}")
        if residue not in (0, 2):
            raise ValueError("slot residue must be 0 or 2")
        if n < 1:
            raise ValueError("slot parameter must be positive")
        if kind not in U_KINDS:
            m = math.isqrt(n)
            if m * m != n or m < 2:
                raise ValueError(f"scaled slot needs a perfect-square parameter >= 4, got {n}")
        return super().__new__(cls, kind, n, residue)

    # ``_replace`` builds through ``_make``: validate its fields as ``__new__`` does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def scale(self) -> int:
        return 1 if self.kind in U_KINDS else math.isqrt(self.n)

    @property
    def target_d(self) -> int:
        return 6 * self.n + self.residue

    def bare_generator(self) -> AmbientVector:
        if self.kind in U_KINDS:
            coords = [0] * 23
            at = 16 if self.kind == "U1" else 18  # e_i of U_i; f_i follows it
            coords[at], coords[at + 1] = 1, self.n
            return AmbientVector._unchecked(tuple(coords))
        return self.scale * _SCALED_BASES[self.kind]


class RealizationOutcome(NamedTuple):
    """A build's status, the certificate it was decided by, and a note.

    ``certificate`` is the one ``certificate_for`` the builder ran: its
    ``basis``, ``targets`` and report, which compares the realized Gram with
    the reference Gram in STRICT and with none in GOAL.  The status is read
    off the report, and ``detail`` is evidence only.
    """

    status: RealizationStatus
    certificate: Certificate
    detail: str = ""


def case_slots(case_id: CaseId, params: Sequence[int]) -> tuple[SlotSpec, ...]:
    """Slots of a named case: those of its target list d_i = 6 n_i + r_i.

    The residues r_i are read off the case value ("r4-022": 0, 2, 2;
    "r21-all2": twenty 2s), so a named case is ``generic_slots`` of its
    targets and is validated the same way.
    """
    tag = case_id.value.split("-")[1]
    digits = tag[-1] * 20 if tag.startswith("all") else tag
    residues = [{"0": 0, "2": 2}[c] for c in digits]
    if len(params) != len(residues):
        raise ValueError(f"case {case_id.value} takes {len(residues)} parameters")
    return generic_slots([6 * index(n) + r for n, r in zip(params, residues)])


def _sqrt_entry(ni: int, nj: int) -> int:
    # Both parameters are validated squares, so the product is a square too.
    root = math.isqrt(ni * nj)
    assert root * root == ni * nj
    return root


def _bare_pairing(s: SlotSpec, t: SlotSpec) -> int:
    """Inner product of the bare generators of two slots (see ``ideal_gram``)."""
    if s.kind in U_KINDS or t.kind in U_KINDS:
        return s.n + t.n if s.kind == t.kind else 0
    return s.scale * t.scale * _BASE_PAIRING[_BASE_INDEX[s.kind]][_BASE_INDEX[t.kind]]


def ideal_gram(slots: Sequence[SlotSpec]) -> IntMatrix:
    """Gram matrix of a witness whose perturbations pair to zero everywhere.

    A closed form, with no generator vector: h2 has norm 3 and meets no bare
    generator; U generators e + n f pair as n + n' in one plane (2n on the
    diagonal), 0 elsewhere; scaled ones m b, m' b' as m m' <b, b'> from
    ``_BASE_PAIRING``, which keeps the A2 and E8 cross terms.  A residue-2
    perturbation adds only its forced 1 in the h2 row and on the diagonal.
    """
    k = len(slots)
    g = [[0] * (k + 1) for _ in range(k + 1)]
    g[0][0] = 3
    for i, s in enumerate(slots, 1):
        for j, t in enumerate(slots[i - 1 :], i):
            g[i][j] = g[j][i] = _bare_pairing(s, t)
        if s.residue == 2:
            g[0][i] = g[i][0] = 1
            g[i][i] += 1
    return IntMatrix(g)


def _r21_all2_gram(params: Sequence[int]) -> IntMatrix:
    """The displayed Gram of the rank-21 all-residue-2 construction.

    Transcribed literally; its perturbation cross terms are not realizable by
    the stated generators (STRICT names the entries no candidate pair meets).
    """
    n = [0] + [index(x) for x in params]  # 1-based
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
    """A named case's reference Gram: its slots' ideal Gram, or R21_ALL2's transcribed one."""
    slots = case_slots(case_id, params)
    return _r21_all2_gram(params) if case_id == CaseId.R21_ALL2 else ideal_gram(slots)


def _i3_box(width: int, total: int) -> tuple[tuple[int, int, int], ...]:
    """I3 coordinate triples in [-width, width]^3 with sum ``total``, in lexicographic order."""
    span = range(-width, width + 1)
    return tuple((x, y, total - x - y) for x in span for y in span if abs(total - x - y) <= width)


@lru_cache(maxsize=None)
def _perturbations(g: tuple[int, int, int], bound: int) -> tuple[AmbientVector, ...]:
    """The p of ``_i3_box(bound, 1)`` with (g + p)^2 = g^2 + 1, the unit vectors first."""
    found = [p for p in _i3_box(bound, 1) if sum((a + b) ** 2 - a * a for a, b in zip(g, p)) == 1]
    return tuple(i3_vector(*p) for p in sorted(found, key=lambda p: sum(b * b for b in p) != 1))


def _generators(slot: SlotSpec) -> tuple[AmbientVector, ...]:
    """Candidate generators of ``slot``: its bare generator g alone at residue 0, else g + p.

    p runs over ``_perturbations`` of the I3 part of g, units first.  An A2
    generator m b has g.p = m (b.p), so a unit orthogonal to b qualifies for
    every m and the first candidate is a unit, as for U and E8 slots.
    """
    bare = slot.bare_generator()
    if slot.residue == 0:
        return (bare,)
    return tuple(bare + p for p in _perturbations(bare.i3_part(), A2_SEARCH_BOUND))


def _exact_assignment(
    slots: Sequence[SlotSpec],
    gens: Sequence[Sequence[AmbientVector]],
) -> tuple[int, list[int]]:
    """Least deviation from the ideal Gram of ``slots`` and its first optimal assignment.

    ``gens[i]`` lists the candidate generators of slot i (``_generators``),
    and the assignment holds one index into each list, 0 for a slot with no
    perturbation.  Against the ideal Gram every candidate meets its own h2
    and diagonal entries, and only I3 parts can deviate.  A residue-2 U or
    E8 slot has no I3 part but the unit vector it takes; with c_u such slots
    on unit u and one generator picked for each A2 slot, the miss is

        sum_u C(c_u, 2) + sum_u c_u * w_u + (deviation among the A2 slots),

    where w_u = sum |u.g| over the picked A2 generators g, and two A2 slots
    are compared with their bare pairing (``_bare_pairing``).  Every other
    entry meets its target.  Every arrangement of one count vector costs
    the same, and putting unit 0 on the first c0 of those slots, unit 1 on
    the next c1 and unit 2 on the rest is the lexicographically least.  So
    one pass over the A2 picks and the counts c0 + c1 + c2 = K keeps the
    least (miss, assignment), which is the first optimal assignment.  Unit
    t is entry t of ``_perturbations`` at g = 0, the list that
    ``_generators`` perturbs every U and E8 slot by, so index t picks unit t.
    """
    a2 = [i for i, s in enumerate(slots) if s.kind in _A2_KINDS]
    units = [i for i, s in enumerate(slots) if s.residue == 2 and s.kind not in _A2_KINDS]
    unit_vectors = _perturbations((0, 0, 0), A2_SEARCH_BOUND)
    ideal = {(i, j): _bare_pairing(slots[i], slots[j]) for i, j in itertools.combinations(a2, 2)}
    k = len(units)
    best: tuple[int, list[int]] | None = None
    for picks in itertools.product(*(range(len(gens[i])) for i in a2)):
        chosen = [gens[i][a] for i, a in zip(a2, picks)]
        a2_miss = sum(
            abs(inner_product(g, h) - ideal[i, j])
            for (i, g), (j, h) in itertools.combinations(zip(a2, chosen), 2)
        )
        w = [sum(abs(inner_product(u, g)) for g in chosen) for u in unit_vectors]
        cost0, cost1, cost2 = ([c * (c - 1) // 2 + c * wu for c in range(k + 1)] for wu in w)
        for c0 in range(k + 1):
            for c1 in range(k + 1 - c0):
                c2 = k - c0 - c1
                miss = a2_miss + cost0[c0] + cost1[c1] + cost2[c2]
                if best is None or miss <= best[0]:
                    kept = dict(zip(a2, picks)) | dict(zip(units, [0] * c0 + [1] * c1 + [2] * c2))
                    option = (miss, [kept.get(i, 0) for i in range(len(slots))])
                    best = option if best is None else min(best, option)
    return best


def realize_perturbations(
    slots: Sequence[SlotSpec], reference: IntMatrix | None = None
) -> RealizationOutcome:
    """Find the perturbation assignment whose Gram deviates least from the ideal Gram.

    The deviation is the sum of absolute entrywise differences.  It is a
    closed form in how many residue-2 U and E8 slots take each I3 unit and
    which candidates the A2 slots take, and ``_exact_assignment`` keeps its
    least value and the first assignment that attains it, in candidate
    order, in one pass over those few choices; the basis takes the picked
    ``_generators``.  The basis is certified once, against ``reference``,
    else the ideal Gram.  The status is the verifier's Gram comparison:
    REALIZED_STRICT on a match, else NOT_REALIZABLE, noting the least
    deviation, or for a given reference its entries that no candidate
    pair meets (``_unmet_entries``), if any.
    """
    slots = tuple(slots)
    gens = [_generators(s) for s in slots]
    miss, picks = _exact_assignment(slots, gens)
    basis = (H_SQUARED,) + tuple(g[a] for g, a in zip(gens, picks))
    against = ideal_gram(slots) if reference is None else reference
    certificate = certificate_for(basis, tuple(s.target_d for s in slots), against)
    if certificate.report.gram_matches_reference:
        return RealizationOutcome(RealizationStatus.REALIZED_STRICT, certificate)
    detail = ""
    if reference is None:
        detail = f"optimal assignment misses target by {miss}"
    elif unmet := _unmet_entries(gens, reference):
        i, j = unmet[0]
        detail = (
            f"{len(unmet)} target entries are met by no candidate pair, "
            f"first ({i}, {j}) = {reference[i][j]}"
        )
    return RealizationOutcome(RealizationStatus.NOT_REALIZABLE, certificate, detail)


def _unmet_entries(
    gens: Sequence[Sequence[AmbientVector]], target: IntMatrix
) -> list[tuple[int, int]]:
    """Entries (i, j), i <= j, of ``target`` that no pair of candidate generators meets.

    ``gens`` holds each slot's ``_generators``, and row and column 0 of
    ``target`` belong to h2; entry (i, j) is met when some candidate of slot
    i pairs to ``target[i][j]`` with some candidate of slot j, where on the
    diagonal a candidate pairs only with itself.  Every witness the slots can
    give misses each such entry, so one of them proves the target unrealizable.
    """
    gens = [(H_SQUARED,), *gens]
    return [
        (i, j)
        for i, j in itertools.combinations_with_replacement(range(len(gens)), 2)
        if not any(
            inner_product(a, b) == target[i][j]
            for a, b in (zip(gens[i], gens[i]) if i == j else itertools.product(gens[i], gens[j]))
        )
    ]


def build(case_id: CaseId, params: Sequence[int], mode: Mode = Mode.GOAL) -> RealizationOutcome:
    """Assemble a named witness in the requested realization mode.

    A named case is its target list d_i = 6 n_i + r_i (see ``case_slots``),
    built as ``build_generic`` builds it, except that STRICT ``R21_ALL2`` is
    certified against its transcribed Gram (``_r21_all2_gram``), which its
    witness misses, and notes that Gram's entries no candidate pair meets.
    """
    slots = case_slots(case_id, params)
    if mode == Mode.GOAL:
        return _glued_search(slots)
    transcribed = _r21_all2_gram(params) if case_id == CaseId.R21_ALL2 else None
    return realize_perturbations(slots, transcribed)


def generic_slots(targets: Sequence[int]) -> tuple[SlotSpec, ...]:
    """Slot assignment for arbitrary target discriminants.

    The first two targets take the hyperbolic slots and need condition (*);
    the rest take scaled slots in pool order and need (*) and (**).
    """
    ds = [index(d) for d in targets]
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


def build_generic(
    targets: Sequence[int],
    mode: Mode = Mode.GOAL,
    *,
    slots: tuple[SlotSpec, ...] | None = None,
) -> RealizationOutcome:
    """Witness builder for 2 to 20 arbitrary admissible discriminants.

    STRICT searches slot perturbations against the ideal Gram of the slots;
    its witnesses reproduce scaled generators and can fail saturation.  GOAL
    builds the glued witness of the module docstring.  It guarantees exact
    labelling discriminants and saturation in the ambient lattice, and it
    returns REALIZED_GOAL only when ``verify_witness`` passes the witness;
    either mode's outcome carries its certificate.  When the seeded draws
    fail ``GOAL_ATTEMPTS`` times, the outcome is NOT_REALIZABLE with a detail
    saying that the search was exhausted; that is not a proof that the
    targets are impossible.  A caller that has already validated the targets
    passes ``slots = generic_slots(targets)``, so they are made only once.
    """
    if slots is None:
        slots = generic_slots(targets)
    if mode == Mode.STRICT:
        return realize_perturbations(slots)
    return _glued_search(slots)


# ---------------------------------------------------------------------------
# GOAL witnesses for target lists, saturated by construction.

# Failures before GOAL reports the search exhausted.  A redrawn y_j counts
# one (see ``_glued_search``), and so does a full draw that no glue saturates
# (G needs more than two generators, or no candidate's e_j generate it) or
# whose certificate fails.  Of the 950 lists of acceptance criterion 7 and
# the corollary list, one of 19 targets fails 63 times, all redraws of its
# last y_j, and every other list at most 22 times.
GOAL_ATTEMPTS = 64

# Closed neighbourhood of every E8 node, named by its coordinate 0..15: the
# nonzero entries of its E8_GRAM row, in the same block.
_E8_CLOSED = tuple(
    frozenset(c - c % 8 + j for j in range(8) if E8_GRAM[c % 8][j]) for c in range(16)
)


def _quotient_coords(v: AmbientVector) -> tuple[int, ...]:
    """Coordinates of the E8+E8+I3 part of ``v`` modulo h2.

    In the basis h2, i3_2, i3_3 of I3 the vector (x1, x2, x3) is
    x1*h2 + (x2 - x1)*i3_2 + (x3 - x1)*i3_3, so dropping the h2 coordinate
    leaves the 16 E8 coordinates and (x2 - x1, x3 - x1).
    """
    c = v.coords
    return c[:16] + (c[21] - c[20], c[22] - c[20])


def _four_squares(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    """A random integer quadruple whose squares sum to ``n`` (Lagrange: one exists).

    a, b and c are uniform on [-r, r], r = isqrt(n), and the sign of d is
    one of (1, -1).  Each is ``getrandbits(k)``, k the bit length of the
    number of choices, redrawn while it is not below that number: the
    stream of ``randint(-r, r)`` and ``choice((1, -1))`` on CPython 3.11,
    whose private ``Random._randbelow`` draws so.  Reading the documented
    bit stream inline also skips that call chain, which costs more than the
    draw itself.
    """
    r = math.isqrt(n)
    width = 2 * r + 1
    k = width.bit_length()
    bits = rng.getrandbits
    while True:
        a = bits(k)
        while a >= width:
            a = bits(k)
        b = bits(k)
        while b >= width:
            b = bits(k)
        c = bits(k)
        while c >= width:
            c = bits(k)
        a, b, c = a - r, b - r, c - r
        rest = n - a * a - b * b - c * c
        if rest >= 0:
            d = math.isqrt(rest)
            if d * d == rest:
                sign = bits(2)
                while sign >= 2:
                    sign = bits(2)
                return a, b, c, -d if sign else d


@lru_cache(maxsize=None)
def _i3_parts(kind: str, residue: int) -> tuple[tuple[int, int, int], ...]:
    """I3 vectors in [-1, 1]^3 pairing ``residue`` with h2 and orthogonal to the slot base."""
    base = _SCALED_BASES[kind].i3_part()
    return tuple(p for p in _i3_box(1, residue) if sum(a * b for a, b in zip(base, p)) == 0)


def _draw_y(slot: SlotSpec, rng: random.Random) -> AmbientVector:
    """A vector y of E8+E8+I3 with y.y = 2m^2 + r and h2.y = r.

    y = (m - 1)*b + w for the slot base b (a root), where w is orthogonal to
    b and h2.w = r, w.w = 4m - 2 + r.  w is an I3 part plus integer multiples
    of four mutually orthogonal E8 basis vectors orthogonal to b.

    The bits are those that ``choice`` of the I3 part, ``sample(range(16),
    16)`` of the E8 nodes and ``_four_squares`` consume, each value read as
    ``_four_squares`` reads it.
    """
    base = _SCALED_BASES[slot.kind]
    m, r = slot.scale, slot.residue
    bits = rng.getrandbits
    parts = _i3_parts(slot.kind, r)
    n = len(parts)
    i = bits(n.bit_length())
    while i >= n:
        i = bits(n.bit_length())
    x = parts[i]  # x.x <= 3 and 4m - 2 + r >= 6, so half >= 1
    half = (4 * m - 2 + r - sum(c * c for c in x)) // 2
    # A node is taken unless it is blocked (the base or a node already taken)
    # or adjacent to a blocked node, that is, unless it is in ``closed``.
    closed: set[int] = set()
    for i in range(16):
        if base.coords[i]:
            closed |= _E8_CLOSED[i]
    # The nodes in sample's order: each step takes pool[j], j below the nodes
    # left, and moves the last one left into its place.  All 16 steps are
    # drawn, as sample draws them, though four nodes may be taken sooner.
    pool = list(range(16))
    nodes: list[int] = []
    for left in range(16, 0, -1):
        k = left.bit_length()
        j = bits(k)
        while j >= left:
            j = bits(k)
        node, pool[j] = pool[j], pool[left - 1]
        if len(nodes) < 4 and node not in closed:
            nodes.append(node)
            closed |= _E8_CLOSED[node]
    coords = [(m - 1) * c for c in base.coords]
    coords[20:23] = [c + p for c, p in zip(coords[20:23], x)]
    for c, node in zip(_four_squares(half, rng), nodes):
        coords[node] += c
    return AmbientVector._unchecked(tuple(coords))


def _glue(rows: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The y_j that take f1 and f2 so that h2 and the glued v_j span a saturated M.

    ``rows`` are the coordinates of the y_j modulo h2 (``_quotient_coords``).
    Let P = E8+E8+I3.  Putting f1 and f2 on the y_j with j in g saturates M
    iff h2 and the y_l outside g span a saturated sublattice of P (see the
    module docstring).  ``_pivot_row`` brings the rows to a k x k lower
    triangle L = rows C with C unimodular, so that holds iff the rows of L
    outside g span a saturated sublattice of Z^k, that is, iff the e_j with
    j in g generate G = Z^k / (columns of L).  G has order D = |prod of the
    pivots|, so D e_j = 0.  Walking the columns c from last to first, a unit
    pivot expresses e_c through the e_r with r > c, and a non-unit pivot
    gives one relation, so residues mod D present G on the w non-unit
    pivots.  One Smith form U [relations | D I] V of that w x 2w block
    gives G = sum Z/d_t, with e_j at (U expr_j)_t mod d_t (Cohen, 2.4.14).
    The glue is the first candidate whose e_j generate G, as the indices of
    the y_j taking f1, then f2: ``()``, then ``(j,)``, then ``(i, j)`` with
    i < j; so it depends on the y_j alone.  Returns None when the y_j are
    dependent or no candidate generates G, as when G needs more than two
    generators.

    ``_glued_search`` hands over only draws that pass its 2-rank test, but
    the result does not rest on that: the triangle, the Smith block and the
    gcds return None on every draw the test turns away.
    """
    k = len(rows)
    tri = [list(q) for q in rows]
    for i in range(k):
        if not _pivot_row(tri[i:], i):
            return None
    delta = abs(math.prod(tri[i][i] for i in range(k)))
    if delta == 1:
        return ()
    nonunit = {c: t for t, c in enumerate(c for c in range(k) if abs(tri[c][c]) > 1)}
    w, half = len(nonunit), (delta - 1) // 2  # (x + half) % delta - half lies in (-D/2, D/2]
    expr = [[0] * w for _ in range(k)]  # expr[j]: e_j in G, on the non-unit pivots
    relations = []
    for c in range(k - 1, -1, -1):
        comb = [0] * w
        for r in range(c + 1, k):
            if tri[r][c]:
                comb = [x + tri[r][c] * e for x, e in zip(comb, expr[r])]
        if c in nonunit:
            comb[nonunit[c]] += tri[c][c]
            relations.append([(x + half) % delta - half for x in comb])
            expr[c][nonunit[c]] = 1
        else:  # tri[c][c] = +-1 and tri[c][c] e_c + comb = 0 in G
            expr[c] = [(half - tri[c][c] * x) % delta - half for x in comb]
    block = [[*col] + [delta * (r == c) for c in range(w)] for r, col in enumerate(zip(*relations))]
    u = [[int(r == c) for c in range(w)] for r in range(w)]
    _smith_in_place(block, u)
    factors = [
        (block[t][t], [sum(x * e for x, e in zip(u[t], ej)) % block[t][t] for ej in expr])
        for t in range(w)
        if block[t][t] > 1
    ]
    if len(factors) > 2:
        return None
    if len(factors) == 1:
        factors.insert(0, (1, [0] * k))  # a cyclic G = Z/1 + Z/d
    (da, ca), (db, cb) = factors
    # e_j generate G = Z/da + Z/db, da | db, iff their columns and (da, 0),
    # (0, db) span Z^2, that is, iff the 2 x 2 minors of those have gcd 1.
    for j in range(k):
        if math.gcd(da * cb[j], db * ca[j], da * db) == 1:
            return (j,)
    for i, j in itertools.combinations(range(k), 2):
        # Swapping i and j permutes the minors, so the pair (j, i) needs no test.
        minors = (ca[i] * cb[j] - ca[j] * cb[i], db * ca[i], db * ca[j], da * cb[i], da * cb[j])
        if math.gcd(*minors, da * db) == 1:
            return (i, j)
    return None


def _glued_search(slots: Sequence[SlotSpec]) -> RealizationOutcome:
    """GOAL witness: v1, v2 from the U slots, v_j = y_j plus f1 or f2 where ``_glue`` names j.

    The y_j are drawn one at a time, and a 2-rank test turns away a y_j as
    soon as no glue can saturate a draw that holds it.  Over F2 the rank of
    the quotient rows is the number of odd invariant factors of their Smith
    form (a zero factor, from dependent rows, counts as even), so k minus
    that rank is dim G/2G when the y_j are independent, and G needs at
    least that many generators (Cohen, 2.4).  When a third row reduces to
    zero mod 2 over the rows before it, the y_j are dependent or G needs
    more than two generators, and rows added later cannot undo either.  So
    that y_j is redrawn from the same generator, and the test never turns
    away a prefix of a draw that a glue saturates.

    A full draw is accepted when ``_glue`` names a glue and its certificate,
    ``certificate_for`` with no reference Gram, has verdict PASS.
    Saturation, h2 and the discriminants hold by construction (see the
    module docstring), so in effect the verdict decides definiteness and the
    minimum; it checks the rest all the same.  A redrawn y_j, a full draw
    that ``_glue`` returns None for and a failed certificate each count as
    one failure, and after ``GOAL_ATTEMPTS`` failures the search certifies
    its basis of first candidates once.  Two targets draw no y_j, and their
    first certificate passes: v1 and v2 take the same first I3 unit when
    r_i = 2, so with a_i = r_i / 2 the form of h2, v1, v2 is
    2 x0^2 + (x0 + a1 x1 + a2 x2)^2 + 2 n1 x1^2 + 2 n2 x2^2, at least 3 off
    0 because n_i >= 1 and n_i = 1 forces a_i = 1 (d = 6 fails (*)).
    """
    slots = tuple(slots)
    targets = tuple(s.target_d for s in slots)
    head = (H_SQUARED,) + tuple(_generators(s)[0] for s in slots[:2])
    rng = random.Random(",".join(map(str, targets)))
    failed = 0
    ys: list[AmbientVector] = []
    rows: list[tuple[int, ...]] = []  # the quotient coordinates of ys
    masks: list[int] = []  # the rows mod 2 as an XOR basis with distinct leading bits
    while failed < GOAL_ATTEMPTS:
        if len(ys) < len(slots) - 2:
            y = _draw_y(slots[2 + len(ys)], rng)
            q = _quotient_coords(y)
            x = 0
            for c in q:
                x = x << 1 | c & 1
            for b in masks:
                x = min(x, x ^ b)
            if x:
                masks.append(x)
            elif len(ys) - len(masks) >= 2:  # the third row to reduce to zero
                failed += 1
                continue
            ys.append(y)
            rows.append(q)
        else:
            glue = _glue(rows)
            if glue is not None:
                for j, f in zip(glue, (e_vec(1, 2), e_vec(2, 2))):
                    ys[j] = ys[j] + f
                certificate = certificate_for(head + tuple(ys), targets)
                if certificate.report.verdict == "PASS":
                    return RealizationOutcome(RealizationStatus.REALIZED_GOAL, certificate)
            failed += 1
            ys, rows, masks = [], [], []
    # Only an exhausted search reports the basis of first candidates.
    canonical = head + tuple(_generators(s)[0] for s in slots[2:])
    return RealizationOutcome(
        status=RealizationStatus.NOT_REALIZABLE,
        certificate=certificate_for(canonical, targets),
        detail=(
            f"search exhausted: {GOAL_ATTEMPTS} seeded draws failed; "
            "this does not show that the targets are impossible"
        ),
    )


# ---------------------------------------------------------------------------
# Closed-form completed-squares identities for the rank-4 and rank-5 cases.

def squares_value(case_id: CaseId, params: Sequence[int], point: Sequence[int]) -> int:
    """The case's completed squares, sum w (c . x)^2 over ``_squares``, at an integer point."""
    squares = _squares(case_id, params)
    x = [index(v) for v in point]
    if len(x) != len(squares[0][1]):
        raise ValueError("point dimension must match the case rank")
    return sum(w * sum(a * b for a, b in zip(c, x)) ** 2 for w, c in squares)


def _squares(case_id: CaseId, params: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The completed squares of a rank-4 or rank-5 case, as pairs (w, c).

    The slots are those of ``case_slots``, so the parameters are validated as
    ``reference_gram`` validates them.  With x0 the h2 coordinate, x_i that of
    slot i, m_i its scale and r the number of residue-2 slots, the form is

        (3 - r) x0^2 + sum n_i x_i^2 + sum_{U slots} n_i x_i^2
            + (sum_{A2 slots} m_i x_i)^2 + sum_{residue-2 slots} (x0 + x_i)^2,

    one weight w and one coefficient vector c in the case's basis per square.
    These cases have only U and A2 slots: a U generator has norm 2n, and the
    A2 ones pair through the square of their sum.
    """
    if case_id in (CaseId.R21_ALL0, CaseId.R21_ALL2):
        raise ValueError(f"no closed identity for case {case_id}")
    slots = case_slots(case_id, params)

    def unit(*at: int) -> tuple[int, ...]:
        return tuple(sum(i == a for a in at) for i in range(len(slots) + 1))

    return (
        [(3 - sum(s.residue == 2 for s in slots), unit(0))]
        + [(2 * s.n if s.kind in U_KINDS else s.n, unit(i)) for i, s in enumerate(slots, 1)]
        + [(1, (0, *(s.scale if s.kind in _A2_KINDS else 0 for s in slots)))]
        + [(1, unit(0, i)) for i, s in enumerate(slots, 1) if s.residue == 2]
    )


# ---------------------------------------------------------------------------
# The flagship corollary and the completed-squares identity check.

# The twenty pairwise distinct discriminants of the flagship dimension-zero
# intersection, in their published order.
COROLLARY_DISCRIMINANTS = (
    14, 38, 26, 98, 218, 294, 386, 602, 866, 1178,
    1538, 1946, 2166, 2402, 2906, 3458, 4058, 4706, 6146, 6938,
)


@lru_cache(maxsize=1)
def corollary20_certificate() -> Certificate:
    """Certificate for the bundled 20-divisor configuration: that of its build, cached."""
    return build_generic(COROLLARY_DISCRIMINANTS, Mode.GOAL).certificate


def check_identity(case_id: CaseId, params: Sequence[int]) -> bool:
    """Decide whether the case's form equals its completed squares.

    A sum of weighted squares sum w (c . x)^2 is the form of the symmetric
    matrix sum w c c^T, and two integral forms are equal exactly when their
    symmetric matrices are, so one matrix comparison proves the identity.
    """
    squares = _squares(case_id, params)
    k = range(len(squares[0][1]))
    gram = tuple(tuple(sum(w * c[i] * c[j] for w, c in squares) for j in k) for i in k)
    return reference_gram(case_id, params).rows == gram
