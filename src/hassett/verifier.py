"""Independent certification of candidate witnesses and certificates.

``verify_witness`` recomputes everything from the raw basis vectors: the
Gram matrix, positive definiteness, saturation in the ambient lattice, the
lattice minimum, and per-labelling discriminants and saturation.  It never
trusts the builder that produced the basis, so certificates can be checked
by third parties from the serialized coordinates alone.

``oracle_short_vectors`` is a deliberately naive exhaustive box enumeration
used to cross-check the branch-and-bound enumerator on small ranks.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .criteria import (
    CriterionReport,
    DiscriminantReport,
    criterion_report,
    discriminant_report,
)
from .lattice import AmbientVector, H_SQUARED, coordinate_matrix, gram_of, inner_product
from .linalg import (
    IntMatrix,
    integer_solver,
    is_positive_definite,
    quadratic_form,
    rational_inverse,
)
from .constructions import CaseId, Mode, build_generic, reference_gram, squares_value
from ._version import __version__

AMBIENT_ID = "E8+E8+U+U+I3"

# The twenty pairwise distinct discriminants of the flagship dimension-zero
# intersection, in their published order.
COROLLARY_DISCRIMINANTS = (
    14, 38, 26, 98, 218, 294, 386, 602, 866, 1178,
    1538, 1946, 2166, 2402, 2906, 3458, 4058, 4706, 6146, 6938,
)


class CertificateError(ValueError):
    """Raised when certificate JSON cannot be parsed against the schema."""


def oracle_short_vectors(g: IntMatrix, c: int) -> list[tuple[int, ...]]:
    """Exhaustive box enumeration of nonzero x with x^T g x <= c.

    Per-coordinate bounds come from the exact rational inverse:
    x_i^2 <= c * (g^-1)_ii.  Output canonicalization matches
    ``lattice.short_vectors`` (one representative per +- pair, positive first
    nonzero coordinate, lexicographic order).
    """
    if c < 0:
        raise ValueError("oracle_short_vectors needs a nonnegative bound")
    if not is_positive_definite(g):
        raise ValueError("oracle_short_vectors requires a positive definite Gram matrix")
    n = g.nrows
    inv = rational_inverse(g)
    bounds = []
    for i in range(n):
        q = c * inv[i][i]
        bounds.append(math.isqrt(q.numerator // q.denominator))
    found = []

    def walk(i: int, x: list[int]) -> None:
        if i == n:
            if any(x) and quadratic_form(g, x) <= c:
                found.append(tuple(x))
            return
        for xi in range(-bounds[i], bounds[i] + 1):
            x.append(xi)
            walk(i + 1, x)
            x.pop()

    walk(0, [])
    canon = set()
    for x in found:
        first = next(v for v in x if v != 0)
        canon.add(x if first > 0 else tuple(-v for v in x))
    return sorted(canon)


@dataclass(frozen=True)
class LabellingCheck:
    target_d: int
    realized_d: int
    saturated_in_m: bool

    def to_dict(self) -> dict:
        return {
            "targetD": self.target_d,
            "realizedD": self.realized_d,
            "saturatedInM": self.saturated_in_m,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabellingCheck":
        return cls(
            target_d=int(data["targetD"]),
            realized_d=int(data["realizedD"]),
            saturated_in_m=bool(data["saturatedInM"]),
        )


@dataclass(frozen=True)
class WitnessReport:
    """Machine-checkable verdicts for one candidate witness."""

    criterion: CriterionReport
    labellings: tuple[LabellingCheck, ...]
    gram_matches_reference: bool | None
    realized_gram: IntMatrix
    verdict: str
    failure_reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion.to_dict(),
            "labellings": [l.to_dict() for l in self.labellings],
            "gramMatchesReference": self.gram_matches_reference,
            "realizedGram": self.realized_gram.to_lists(),
            "verdict": self.verdict,
            "failureReasons": list(self.failure_reasons),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WitnessReport":
        return cls(
            criterion=CriterionReport.from_dict(data["criterion"]),
            labellings=tuple(LabellingCheck.from_dict(l) for l in data["labellings"]),
            gram_matches_reference=data["gramMatchesReference"],
            realized_gram=IntMatrix(data["realizedGram"]),
            verdict=str(data["verdict"]),
            failure_reasons=tuple(str(r) for r in data["failureReasons"]),
        )


def _labelling_saturated(h: tuple[int, ...], j: int) -> bool:
    """Whether h and the unit vector e_j span a saturated rank-2 sublattice.

    The 2 x 2 minors of [h e_j] are +-h_i for i != j, or 0.  Their gcd is the
    product of the two Smith invariants, and 0 when the rank is below 2; so
    the plane is saturated exactly when gcd(h_i : i != j) is 1.
    """
    return math.gcd(*h[:j], *h[j + 1 :]) == 1


def verify_witness(
    basis: tuple[AmbientVector, ...] | list[AmbientVector],
    targets: tuple[int, ...] | list[int],
    reference: IntMatrix | None = None,
) -> WitnessReport:
    """Run every certification check on a candidate witness.

    The basis must start with h2 and carry one further vector per target
    discriminant; labelling i is spanned by h2 and ``basis[i + 1]``.
    Malformed input produces a FAIL report with structured reasons, never an
    exception.
    """
    basis = tuple(basis)
    targets = tuple(int(t) for t in targets)
    if not basis:
        raise ValueError("witness basis must be nonempty")
    reasons: list[str] = []

    if basis[0] != H_SQUARED:
        reasons.append("FIRST_BASIS_NOT_H_SQUARED")
    if len(targets) != len(basis) - 1:
        reasons.append("TARGET_COUNT_MISMATCH")

    solve, invariants = integer_solver(coordinate_matrix(basis))
    independent = sum(1 for x in invariants if x != 0) == len(basis)
    if not independent:
        reasons.append("DEPENDENT_BASIS")

    gram = gram_of(basis)
    h_in_m = solve(H_SQUARED.coords)
    criterion = criterion_report(gram, invariants, h_in_m is not None)
    min_norm = criterion.minimum_norm
    if not criterion.contains_h_squared:
        reasons.append("MISSING_H_SQUARED")
    if not criterion.positive_definite:
        reasons.append("NOT_POSITIVE_DEFINITE")
    if not criterion.saturated:
        reasons.append("NOT_SATURATED")
    if min_norm is not None and min_norm < 3:
        reasons.append(f"MIN_NORM_{min_norm}")

    labellings = []
    for i, v in enumerate(basis[1 : len(targets) + 1]):
        hv = inner_product(H_SQUARED, v)
        realized = 3 * inner_product(v, v) - hv * hv
        sat_in_m = False
        if independent and h_in_m is not None:
            # Independent basis: v = basis[i + 1] has coordinates e_{i+1} in M.
            sat_in_m = _labelling_saturated(h_in_m, i + 1)
        labellings.append(
            LabellingCheck(target_d=targets[i], realized_d=realized, saturated_in_m=sat_in_m)
        )
        if realized != targets[i]:
            reasons.append(f"DISC_MISMATCH({i})")
        if not sat_in_m:
            reasons.append(f"LABELLING_NOT_SATURATED({i})")

    matches = None if reference is None else (gram == reference)
    verdict = "PASS" if not reasons else "FAIL"
    return WitnessReport(
        criterion=criterion,
        labellings=tuple(labellings),
        gram_matches_reference=matches,
        realized_gram=gram,
        verdict=verdict,
        failure_reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class Certificate:
    """Self-contained, re-verifiable record of one witness check."""

    basis: tuple[tuple[int, ...], ...]
    targets: tuple[int, ...]
    report: WitnessReport
    ambient: str = AMBIENT_ID
    tool_version: str = __version__

    def to_json(self) -> str:
        doc = {
            "ambient": self.ambient,
            "basis": [list(row) for row in self.basis],
            "targets": list(self.targets),
            "report": self.report.to_dict(),
            "toolVersion": self.tool_version,
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        if not isinstance(doc, dict):
            raise CertificateError("certificate must be a JSON object")
        for field in ("ambient", "basis", "targets", "report", "toolVersion"):
            if field not in doc:
                raise CertificateError(f"missing certificate field {field!r}")
        if doc["ambient"] != AMBIENT_ID:
            raise CertificateError(f"unsupported ambient lattice {doc['ambient']!r}")
        basis = doc["basis"]
        if not isinstance(basis, list) or not basis:
            raise CertificateError("field 'basis' must be a nonempty list of rows")
        rows = []
        for idx, row in enumerate(basis):
            if not isinstance(row, list) or len(row) != 23:
                raise CertificateError(f"basis row {idx} must hold 23 integers")
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
                raise CertificateError(f"basis row {idx} must hold 23 integers")
            rows.append(tuple(row))
        targets = doc["targets"]
        if not isinstance(targets, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in targets
        ):
            raise CertificateError("field 'targets' must be a list of integers")
        try:
            report = WitnessReport.from_dict(doc["report"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed report: {exc}") from None
        return cls(
            basis=tuple(rows),
            targets=tuple(targets),
            report=report,
            ambient=doc["ambient"],
            tool_version=str(doc["toolVersion"]),
        )

    def reverify(self) -> WitnessReport:
        """Ignore the embedded report and re-run verification from the basis."""
        vectors = tuple(AmbientVector(row) for row in self.basis)
        return verify_witness(vectors, self.targets)


def certificate_for(
    basis: tuple[AmbientVector, ...], targets: tuple[int, ...], report: WitnessReport
) -> Certificate:
    return Certificate(
        basis=tuple(v.coords for v in basis),
        targets=tuple(targets),
        report=report,
    )


@lru_cache(maxsize=1)
def _corollary_basis() -> tuple[AmbientVector, ...]:
    outcome = build_generic(COROLLARY_DISCRIMINANTS, Mode.GOAL)
    return outcome.basis


def verify_corollary20() -> tuple[WitnessReport, tuple[DiscriminantReport, ...]]:
    """Build and verify the flagship 20-divisor witness, with per-d reports.

    The twenty target discriminants are pairwise distinct and all
    K3-admissible; those facts are re-checked here rather than assumed.
    """
    ds = COROLLARY_DISCRIMINANTS
    if len(set(ds)) != len(ds):
        raise RuntimeError("target discriminants must be pairwise distinct")
    reports = tuple(discriminant_report(d) for d in ds)
    if not all(r.k3_admissible for r in reports):
        raise RuntimeError("every target discriminant must be K3-admissible")
    witness = verify_witness(_corollary_basis(), ds)
    return witness, reports


def corollary20_certificate() -> Certificate:
    """Certificate for the bundled 20-divisor configuration."""
    witness, _ = verify_corollary20()
    return certificate_for(_corollary_basis(), COROLLARY_DISCRIMINANTS, witness)


def check_identity(
    case_id: CaseId,
    params: tuple[int, ...] | list[int],
    trials: int,
    seed: int,
    corrected: bool = True,
) -> bool:
    """Compare form and completed-squares values at seeded random points.

    Coordinates are drawn uniformly from [-50, 50]; returns True iff the two
    sides agree at every sampled point.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    gram = reference_gram(case_id, params)
    rank = gram.nrows
    rng = random.Random(seed)
    for _ in range(trials):
        point = [rng.randint(-50, 50) for _ in range(rank)]
        lhs = quadratic_form(gram, point)
        rhs = squares_value(case_id, params, point, corrected=corrected)
        if lhs != rhs:
            return False
    return True
