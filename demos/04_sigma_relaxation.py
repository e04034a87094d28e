"""Certifying boundary cases with an additive relaxation.

Tensors that are copositive but have a zero on the simplex defeat the
plain test: cells around the zero can never certify, so the partition
refines forever.  ``DetectorConfig(sigma=...)`` accepts a cell whose
Bernstein coefficients are all at least -sigma, which bounds the form
below by -sigma on that cell; the run terminates, and a copositive
verdict is reported as sigma-certified.  The vertex test is unchanged,
so sigma never turns a negative vertex value into a certificate.
"""

import numpy as np

from coposim import (
    DetectorConfig,
    choi_lam_tensor,
    detect,
    eta_shift,
    motzkin_tensor,
    random_tensor,
    robinson_tensor,
    spectral_radius,
    verify_witness,
)

named = {
    "motzkin": motzkin_tensor(),
    "robinson": robinson_tensor(),
    "choi-lam": choi_lam_tensor(),
}

# All three sextics are nonnegative on the orthant (none is a sum of
# squares) and each vanishes at the uniform direction, so the plain
# detector stalls on every one of them.  The smallest vertex value the
# run saw hugs zero: the signature of such a stall.
uniform = np.full(3, 1 / 3)
for name, tensor in named.items():
    verdict = detect(tensor)
    print(f"{name:<9} plain: {verdict.kind.value} at {verdict.iterations} iterations; "
          f"form at uniform = {tensor.form(uniform):.2e}; "
          f"smallest vertex value = {verdict.min_vertex_value:.2e}")

# The relaxed runs terminate quickly, with effort growing as sigma
# tightens toward zero.
for name, tensor in named.items():
    line = f"{name:<9}"
    for sigma in (0.01, 0.001, 0.0001):
        verdict = detect(tensor, DetectorConfig(max_iterations=1000, sigma=sigma))
        label = verdict.to_json_dict()["verdict"]
        line += f"  sigma={sigma}: {label} in {verdict.iterations:>2} iterations"
    print(line)

# The certificate is quantitative: after certifying at sigma, sampled form
# values never dip below -sigma (here they are in fact nonnegative, since
# the inputs are copositive).
M = named["motzkin"]
sigma = 0.001
verdict = detect(M, DetectorConfig(max_iterations=1000, sigma=sigma))
rng = np.random.default_rng(1)
low = min(M.form(x) for x in rng.dirichlet(np.ones(3), size=5000))
print(f"{verdict.to_json_dict()['verdict']} at sigma={sigma}; "
      f"smallest sampled form value = {low:.3e} >= {-sigma}")

# Sigma relaxes the certificate, never the refutation: just below the
# spectral threshold a vertex value of about -1e-3 lies above -sigma, yet
# it still refutes, with a witness that checks on the tensor itself.
B = random_tensor(3, 3, 0)
A = eta_shift(spectral_radius(B).rho - 0.01, B)
verdict = detect(A, DetectorConfig(max_iterations=400, sigma=0.01))
print(f"rho - 0.01 at sigma=0.01: {verdict.kind.value} in {verdict.iterations} iterations; "
      f"f(witness) = {A.form(verdict.witness):.3e}, verified: {verify_witness(A, verdict.witness)}")
