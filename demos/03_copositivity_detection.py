"""Deciding copositivity by branch and bound.

A tensor is copositive when its form is nonnegative on the nonnegative
orthant, which by scaling reduces to nonnegativity on the standard
simplex.  Per cell, two one-sided tests run: a negative form value at a
vertex refutes globally, and nonnegative Bernstein coefficients (the
coefficients of the form in the cell's barycentric coordinates) certify
the cell.  Whatever stays indeterminate is bisected.
"""

import numpy as np

from coposim import (
    DetectorConfig,
    detect,
    eta_shift,
    ones_tensor,
    verify_witness,
)

E = ones_tensor(3, 3)

# eta * I - E is copositive exactly when eta reaches 9 (the spectral
# radius of E), which makes the family a sharp benchmark.
for eta in (1.0, 8.99, 9.01, 19.0):
    A = eta_shift(eta, E)
    verdict = detect(A)
    line = f"eta = {eta:>5}: {verdict.kind.value:<15} iterations = {verdict.iterations:<3}"
    if verdict.witness is not None:
        line += f" witness = {verdict.witness} (checks: {verify_witness(A, verdict.witness)})"
    print(line)

# What the per-cell tests see on the root cell for eta = 19: vertex values
# are strongly positive, yet one Bernstein coefficient of the root (on the
# standard simplex these are the tensor's own entries) is negative, so the
# cell must be refined before it certifies.
A = eta_shift(19.0, E)
print("root vertex values:", [A.form(v) for v in np.eye(3)])
print("smallest root coefficient:", A.coefficient_vector().min())

# Retaining the certificate gives a proof object that can be checked
# outside the search: the kept cells tile the simplex (every point has
# nonnegative barycentric coordinates in some cell), and the form is
# nonnegative on each of them.
verdict = detect(A, DetectorConfig(keep_certificates=True))
cells = verdict.certified_cells
print("certified cells:", len(cells))
rng = np.random.default_rng(0)
sample = rng.dirichlet(np.ones(3), size=200)
covered = all(
    any(np.all(np.linalg.solve(cell.T, x) >= -1e-9) for cell in cells)
    for x in sample
)
print("200 random points covered by the certificate:", covered)
inner = [cell.T @ lam for cell in cells for lam in rng.dirichlet(np.ones(3), size=20)]
print("smallest form value at 20 points per cell:", min(A.form(x) for x in inner))

# At the threshold itself the input is copositive but not strictly so;
# the refinement never terminates and the budget converts honestly into
# an undecided verdict (see the relaxation demo for the fix).
boundary = detect(eta_shift(9.0, E))
print("eta = 9:", boundary.kind.value, "after", boundary.iterations, "iterations,",
      "max depth", boundary.max_depth)
