"""Exact-arithmetic toolkit for lattice witnesses of divisor intersections.

The package constructs and independently certifies positive definite
saturated sublattices of the middle cohomology lattice of a cubic fourfold
(E8 + E8 + U + U + I3) that contain the square of the hyperplane class.  Such
witnesses prove that prescribed Hassett (Noether-Lefschetz) divisors of the
moduli space of smooth cubic fourfolds intersect.  All arithmetic is exact:
arbitrary-precision integers, no rationals and no floating point.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .lattice import (
    A1,
    A2,
    AMBIENT_GRAM,
    AmbientVector,
    E8_GRAM,
    H_SQUARED,
    IntMatrix,
    U_GRAM,
    e_vec,
    gram_of,
    i3_vector,
    inner_product,
    is_saturated,
    minimum,
    norm,
    short_vectors,
    span_membership,
    t_vec,
)
from .linalg import is_positive_definite, smith_normal_form
from .criteria import (
    DiscriminantReport,
    conjecture_sweep,
    discriminant_report,
    factorize,
    has_associated_k3,
    satisfies_double_star,
    satisfies_star,
)
from .constructions import (
    COROLLARY_DISCRIMINANTS,
    CaseId,
    Mode,
    RealizationOutcome,
    RealizationStatus,
    SLOT_POOL,
    SlotSpec,
    build,
    build_generic,
    case_slots,
    check_identity,
    generic_slots,
    ideal_gram,
    realize_perturbations,
    reference_gram,
    squares_value,
)
from .verifier import (
    Certificate,
    CertificateError,
    CriterionReport,
    LabellingCheck,
    WitnessReport,
    certificate_for,
    verify_witness,
)

__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
