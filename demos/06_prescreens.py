"""Necessary-condition refuters that run before branch and bound.

Each prescreen can only disprove copositivity, never certify it, but a
failure comes with a witness that is checkable on its own.  The battery
is cheap: diagonal entries, then sampled faces.  Where a zero of the form
is known, the sign of the contraction there is a further, standalone
check.
"""

import numpy as np

from coposim import (
    SymmetricTensor,
    diagonal_check,
    eta_shift,
    motzkin_tensor,
    ones_tensor,
    random_tensor_negative_diagonal,
    run_prescreen,
    subtensor_sample_refute,
    verify_witness,
    zero_point_gradient_check,
)

# The form value at the i-th unit vector is the i-th diagonal entry, so a
# negative diagonal entry is already a witness.
B = random_tensor_negative_diagonal(4, 3, seed=7)
report = diagonal_check(B)
print("diagonal check:", "passed" if report.passed else "failed",
      "witness:", report.witness, "verified:", verify_witness(B, report.witness))

# Faces of the simplex are tensors in their own right: sampling the
# restriction to a pair of coordinates can catch sign dips that no vertex
# shows.  Here I - E is negative at the midpoint of the (1,2) edge.
A = eta_shift(1.0, ones_tensor(3, 3))
report = subtensor_sample_refute(A, J=[1, 2], grid_depth=1)
print("subtensor sample on {1,2}:", "failed" if not report.passed else "passed",
      "witness:", report.witness, "form there:", A.form(report.witness))

# At a known zero of the form, the one-slot contraction must be entrywise
# nonnegative for a copositive tensor.  The famous sextics pass (their
# contraction vanishes at the uniform zero)...
M = motzkin_tensor()
print("motzkin zero-point check:", zero_point_gradient_check(M, np.ones(3)).passed)

# ... while a tensor sloping down off its zero fails, with the (point,
# direction) pair as the re-checkable witness.
sloped = SymmetricTensor(3, 2, {(1, 1, 2): -0.1, (1, 2, 2): 1.0, (2, 2, 2): 1.0})
report = zero_point_gradient_check(sloped, np.array([1.0, 0.0]))
point, direction = report.witness
print("sloped tensor:", "failed" if not report.passed else "passed",
      "contraction at zero:", sloped.gradient_form(point))

# The battery runs the diagonal check, then the pair faces, and stops at
# the first hit.  It does not know the zero of the sloped tensor, and its
# samples all come out nonnegative, so only the standalone check above
# refutes that one.
print("battery on the bad-diagonal tensor:", run_prescreen(B).violated_condition)
print("battery on I - E:", run_prescreen(A).violated_condition)
print("battery on the all-ones tensor:", run_prescreen(ones_tensor(3, 3)).passed)
print("battery on the sloped tensor:", run_prescreen(sloped).passed)
