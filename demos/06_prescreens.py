"""Necessary-condition refuters that run before branch and bound.

Each prescreen can only disprove copositivity, never certify it, but a
failure comes with a witness that is checkable on its own.  The battery
is cheap: diagonal entries, then sampled faces.
"""

from coposim import (
    SymmetricTensor,
    eta_shift,
    ones_tensor,
    random_tensor_negative_diagonal,
    run_prescreen,
    verify_witness,
)

# The form value at the i-th unit vector is the i-th diagonal entry, so a
# negative diagonal entry is already a witness: the battery's first stage.
B = random_tensor_negative_diagonal(4, 3, seed=7)
report = run_prescreen(B)
print("diagonal stage:", report.violated_condition,
      "witness:", report.witness, "verified:", verify_witness(B, report.witness))

# Edges of the simplex are tensors in their own right: sampling the
# restriction to a pair of coordinates can catch sign dips that no vertex
# shows.  Here I - E has a unit diagonal but is negative at the midpoint
# of the (1,2) edge, the first sample of the battery at depth 1.
A = eta_shift(1.0, ones_tensor(3, 3))
report = run_prescreen(A, grid_depth=1)
print("pair sample:", report.violated_condition, "on", report.J,
      "witness:", report.witness, "form there:", A.form(report.witness))

# A pass certifies nothing.  This tensor's form is zero at e1 and slopes
# down into the simplex there, so it is not copositive, but every sample
# of the battery comes out nonnegative.
sloped = SymmetricTensor(3, 2, {(1, 1, 2): -0.1, (1, 2, 2): 1.0, (2, 2, 2): 1.0})
print("sloped tensor, just off its zero:", sloped.form([0.99, 0.01]))

# The battery runs the diagonal stage, then the pair faces, and stops at
# the first hit.
print("battery on I - E:", run_prescreen(A).violated_condition)
print("battery on the all-ones tensor:", run_prescreen(ones_tensor(3, 3)).passed)
print("battery on the sloped tensor:", run_prescreen(sloped).passed)
