"""Copositivity detection for symmetric tensors.

A symmetric tensor is copositive when its homogeneous form is nonnegative
on the nonnegative orthant.  This package decides the question by branch
and bound over the standard simplex: cells are certified through the sign
pattern of their barycentric coefficient tensors, refuted through negative
vertex values, and refined by longest-edge bisection.  Supporting modules
provide the tensor arithmetic, cheap necessary-condition prescreens, a
power method for the nonnegative spectral radius, and generators for the
standard test families.
"""

from .detector import (
    DetectorConfig,
    Verdict,
    VerdictKind,
    detect,
    verify_witness,
)
from .instances import (
    choi_lam_tensor,
    eta_shift,
    from_polynomial,
    identity_tensor,
    motzkin_tensor,
    ones_tensor,
    polynomial_from_json,
    random_tensor,
    random_tensor_negative_diagonal,
    robinson_tensor,
)
from .prescreen import (
    PrescreenReport,
    run_prescreen,
)
from .spectral import (
    PowerIterationBudgetError,
    PowerIterationResult,
    spectral_radius,
)
from .tensor import SymmetricTensor, multiplicity

__version__ = "0.1.0"

__all__ = [
    "DetectorConfig",
    "PowerIterationBudgetError",
    "PowerIterationResult",
    "PrescreenReport",
    "SymmetricTensor",
    "Verdict",
    "VerdictKind",
    "choi_lam_tensor",
    "detect",
    "eta_shift",
    "from_polynomial",
    "identity_tensor",
    "motzkin_tensor",
    "multiplicity",
    "ones_tensor",
    "polynomial_from_json",
    "random_tensor",
    "random_tensor_negative_diagonal",
    "robinson_tensor",
    "run_prescreen",
    "spectral_radius",
    "verify_witness",
]
