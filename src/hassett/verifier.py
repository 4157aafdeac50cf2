"""Independent certification of candidate witnesses and certificates.

This module alone decides a verdict and owns every certificate key; it
imports no builder.  ``verify_witness`` recomputes everything from the raw
basis vectors: the Gram matrix, positive definiteness, saturation in the
ambient lattice, the lattice minimum, and per-labelling discriminants and
saturation.  It never trusts the builder that produced the basis, so
certificates can be checked by third parties from the coordinates alone.

The lattice-level certification a witness must pass has four checks:
contains h2, positive definite, saturated in the ambient lattice, and no
nonzero vector of norm below 3.  ``verify_witness`` is the one place that
runs them: one ``linalg.span_membership`` echelon decides the first and the
third, and the elimination inside ``lattice.minimum`` the other two.  No
builder judges a witness itself: the GOAL builder accepts a draw by the
verdict of ``certificate_for``, and STRICT's status is that certificate's
comparison of the realized Gram with the reference Gram.

``Certificate.from_json`` reads untrusted text and raises
``CertificateError`` on anything it cannot read as a certificate of at least
one target and at most ``RANK`` = 23 basis rows, including JSON that the parser
itself refuses (an integer past the digit limit, a float, NaN or Infinity,
nesting past the recursion limit), and any field whose JSON type is not
exactly the schema's (see ``_exact``).  The embedded report must have the
schema's form, but no value of it is read: every report object comes from
``verify_witness``, and a parsed certificate carries the report recomputed
from its basis and targets.
"""

from __future__ import annotations

import json
import math
from operator import index
from typing import NamedTuple

from .lattice import (
    RANK, AmbientVector, H_SQUARED, NotPositiveDefinite, gram_of, inner_product, minimum,
)
from .linalg import IntMatrix, span_membership
from ._version import __version__

AMBIENT_ID = "E8+E8+U+U+I3"


class CertificateError(ValueError):
    """Raised when certificate JSON cannot be parsed against the schema."""


def _exact(value, kind: type, what: str, item: type | None = None, nullable: bool = False):
    """``value``, whose type must be exactly ``kind``; with ``item``, a list of exactly ``item``.

    The schema's JSON types are exact: a bool is no int and an int no bool, a
    string no number, and null only where ``nullable``.  Anything else raises
    ``TypeError`` naming ``what``.
    """
    if value is None and nullable:
        return value
    if type(value) is kind and (item is None or set(map(type, value)) <= {item}):
        return value
    of = "" if item is None else f" of {item.__name__}"
    raise TypeError(f"{what} must be a {kind.__name__}{of}")


class CriterionReport(NamedTuple):
    """Verdicts of the four lattice checks certifying a nonempty intersection."""

    contains_h_squared: bool
    positive_definite: bool
    saturated: bool
    minimum_norm: int | None

    @property
    def reasons(self) -> tuple[str, ...]:
        """The failed checks in check order, ``MIN_NORM_k`` for a minimum k below 3."""
        names = ("MISSING_H_SQUARED", "NOT_POSITIVE_DEFINITE", "NOT_SATURATED")
        flags = (self.contains_h_squared, self.positive_definite, self.saturated)
        failed = [name for name, ok in zip(names, flags) if not ok]
        if self.minimum_norm is not None and self.minimum_norm < 3:
            failed.append(f"MIN_NORM_{self.minimum_norm}")
        return tuple(failed)

    @property
    def passed(self) -> bool:
        """True iff every check passed: no ``reasons`` are named."""
        return not self.reasons

    def to_dict(self) -> dict:
        return {
            "containsHSquared": self.contains_h_squared,
            "positiveDefinite": self.positive_definite,
            "saturated": self.saturated,
            "minimumNorm": self.minimum_norm,
            "pass": self.passed,
        }


class LabellingCheck(NamedTuple):
    target_d: int
    realized_d: int
    saturated_in_m: bool

    def to_dict(self) -> dict:
        return {
            "targetD": self.target_d,
            "realizedD": self.realized_d,
            "saturatedInM": self.saturated_in_m,
        }


class WitnessReport(NamedTuple):
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
    A basis that is not h2 first, holds dependent vectors or does not match
    the target count produces a FAIL report with structured reasons.  An
    empty basis raises ``ValueError`` and a non-integer target ``TypeError``;
    ``Certificate.from_json`` rejects both before it calls this function.
    """
    basis = tuple(basis)
    targets = tuple(map(index, targets))
    if not basis:
        raise ValueError("witness basis must be nonempty")
    reasons: list[str] = []

    h_first = basis[0] == H_SQUARED
    if not h_first:
        reasons.append("FIRST_BASIS_NOT_H_SQUARED")
    if len(targets) != len(basis) - 1:
        reasons.append("TARGET_COUNT_MISMATCH")

    independent, saturated, h_in_m = span_membership(
        [v.coords for v in basis], H_SQUARED.coords
    )
    if not independent:
        reasons.append("DEPENDENT_BASIS")

    gram = gram_of(basis)
    # minimum's elimination decides definiteness too, so the Gram is
    # eliminated once; an indefinite Gram is reported, never raised.
    try:
        min_norm: int | None = minimum(gram)
    except NotPositiveDefinite:
        min_norm = None
    criterion = CriterionReport(h_in_m is not None, min_norm is not None, saturated, min_norm)
    reasons += criterion.reasons

    labellings = []
    for i, v in enumerate(basis[1 : len(targets) + 1]):
        hv = gram[0][i + 1] if h_first else inner_product(H_SQUARED, v)
        realized = 3 * gram[i + 1][i + 1] - hv * hv
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


def _reject_non_integer(text: str):
    # NaN and Infinity are not JSON (RFC 8259); no certificate field is a float.
    raise ValueError(f"{text} is not an integer, the only number a certificate holds")


# Built once: json.loads with a keyword argument builds a decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_non_integer, parse_float=_reject_non_integer)


def _check_report_form(report) -> None:
    """Check that an embedded report has the schema's keys and exact JSON types.

    Nothing is built from its values: ``Certificate.from_json`` recomputes the
    report.  A missing key raises ``KeyError``, a mistyped field ``TypeError``,
    and an empty or ragged ``realizedGram`` ``ValueError``.  The order of the
    checks decides which error a report with several faults names.
    """
    labellings = _exact(report["labellings"], list, "labellings")
    matches = report["gramMatchesReference"]
    gram = _exact(report["realizedGram"], list, "realizedGram")
    criterion = report["criterion"]
    for key in ("containsHSquared", "positiveDefinite", "saturated"):
        _exact(criterion[key], bool, key)
    _exact(criterion["minimumNorm"], int, "minimumNorm", nullable=True)
    _exact(criterion["pass"], bool, "pass")
    for labelling in labellings:
        for key, kind in (("targetD", int), ("realizedD", int), ("saturatedInM", bool)):
            _exact(labelling[key], kind, key)
    _exact(matches, bool, "gramMatchesReference", nullable=True)
    rows = [_exact(row, list, "realizedGram row", int) for row in gram]
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    _exact(report["verdict"], str, "verdict")
    _exact(report["failureReasons"], list, "failureReasons", str)


class Certificate(NamedTuple):
    """Self-contained, re-verifiable record of one witness check.

    Build one with ``certificate_for`` or ``from_json``; both carry the report
    that ``verify_witness`` computed from ``basis``, the vectors themselves,
    and ``targets``.  Every build outcome carries the one its status was
    decided by.
    """

    basis: tuple[AmbientVector, ...]
    targets: tuple[int, ...]
    report: WitnessReport
    tool_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "ambient": AMBIENT_ID,
            "basis": [list(v.coords) for v in self.basis],
            "targets": list(self.targets),
            "report": self.report.to_dict(),
            "toolVersion": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            doc = _DECODER.decode(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except (ValueError, RecursionError) as exc:
            # An integer past the digit limit, a float, NaN or Infinity, or
            # nesting past the recursion limit, is malformed input like any other.
            raise CertificateError(f"unreadable JSON: {exc}") from None
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
        if len(basis) > RANK:
            # Such rows are dependent; checking them would cost quadratic time for a sure FAIL.
            raise CertificateError(f"field 'basis' holds {len(basis)} rows, more than the rank {RANK}")
        try:
            rows = [tuple(_exact(row, list, f"basis row {i}", int)) for i, row in enumerate(basis)]
            targets = _exact(doc["targets"], list, "field 'targets'", int)
            tool_version = _exact(doc["toolVersion"], str, "field 'toolVersion'")
        except TypeError as exc:
            raise CertificateError(str(exc)) from None
        for idx, row in enumerate(rows):
            if len(row) != RANK:
                raise CertificateError(f"basis row {idx} must hold {RANK} integers")
        if not targets:
            raise CertificateError("field 'targets' is empty: the certificate names no divisor")
        try:
            _check_report_form(doc["report"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed report: {exc}") from None
        # Every row is 23 exact ints: the vectors need no second coercion.
        vectors = tuple(map(AmbientVector._unchecked, rows))
        return certificate_for(vectors, tuple(targets))._replace(tool_version=tool_version)


def certificate_for(
    basis: tuple[AmbientVector, ...],
    targets: tuple[int, ...],
    reference: IntMatrix | None = None,
) -> Certificate:
    """Certificate of ``basis`` and ``targets`` carrying the report ``verify_witness`` computes."""
    return Certificate(
        basis=tuple(basis),
        targets=tuple(targets),
        report=verify_witness(basis, targets, reference),
    )

