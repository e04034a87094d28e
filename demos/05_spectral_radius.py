"""The spectral radius of a nonnegative tensor and the copositivity
threshold.

For a nonnegative symmetric tensor B, the shift eta * I - B is copositive
exactly when eta reaches the spectral radius of B.  The power iteration
below brackets that radius with ratio bounds that tighten each step, which
is how the benchmark instances on both sides of the threshold are built.
"""

import numpy as np

from coposim import (
    DetectorConfig,
    VerdictKind,
    detect,
    eta_shift,
    identity_tensor,
    ones_tensor,
    random_tensor,
    spectral_radius,
)

# Two closed forms to check against: the all-ones tensor has radius
# n**(m-1), the identity has radius 1.  Both converge in a single step
# from the uniform start because it is already the eigenvector.
for B, label in ((ones_tensor(3, 3), "ones(3,3)"), (ones_tensor(4, 4), "ones(4,4)"),
                 (identity_tensor(6, 3), "identity(6,3)")):
    result = spectral_radius(B)
    print(f"{label:<14} rho = {result.rho:<6} bracket width = "
          f"{result.upper - result.lower:.1e} in {result.iterations} iteration(s)")

# A random positive tensor takes a few dozen steps; the bracket is a
# certificate for the radius itself.
B = random_tensor(3, 3, seed=0)
result = spectral_radius(B)
print(f"random(3,3,0)  rho = {result.rho:.8f} "
      f"bracket = [{result.lower:.8f}, {result.upper:.8f}] "
      f"iterations = {result.iterations}")
print("eigenvector (unit 1-norm):", result.x)

# Crossing the threshold flips the verdict, one unit on either side.
cfg = DetectorConfig(max_iterations=1000)
for offset in (-1.0, 1.0):
    verdict = detect(eta_shift(result.rho + offset, B), cfg)
    print(f"eta = rho {offset:+}: {verdict.kind.value} in {verdict.iterations} iterations")

# The scale of the tensor carries straight through to the radius.
print("rho(5 B) / rho(B) =", spectral_radius(5.0 * B).rho / result.rho)

# Verdicts across ten seeds,...
hits = 0
for seed in range(10):
    B = random_tensor(4, 3, seed)
    rho = spectral_radius(B).rho
    below = detect(eta_shift(rho - 1.0, B), cfg).kind is VerdictKind.NOT_COPOSITIVE
    above = detect(eta_shift(rho + 1.0, B), cfg).kind is VerdictKind.COPOSITIVE
    hits += below and above
print("seeds with the expected verdict pair:", hits, "/ 10")
