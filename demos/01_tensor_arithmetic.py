"""Symmetric tensors and their forms.

A tensor here is a coefficient table over sorted multi-indices; everything
symmetric follows from that single stored representative per index class.
This walkthrough builds a few small tensors, evaluates their forms, and
round-trips one through the JSON interchange format.
"""

import json

import numpy as np

from coposim import (
    SymmetricTensor,
    eta_shift,
    identity_tensor,
    motzkin_tensor,
    multiplicity,
    ones_tensor,
)

# A cubic tensor on three variables: the identity has ones exactly on the
# diagonal index classes, the all-ones tensor is one everywhere.
I = identity_tensor(3, 3)
E = ones_tensor(3, 3)
print("identity entry (2,2,2):", I[(2, 2, 2)])
print("identity entry (1,2,3):", I[(1, 2, 3)])
print("stored entries: identity", I.nnz, "/ all-ones", E.nnz)

# Reading an entry never depends on the index order.
print("entry (3,1,2) == entry (1,2,3):", E[(3, 1, 2)] == E[(1, 2, 3)])

# The form of the identity is the power sum; for the all-ones tensor it is
# the m-th power of the coordinate sum.
x = np.array([0.5, 0.5, 0.0])
print("I x^3 =", I.form(x), " E x^3 =", E.form(x))

# The one-slot contraction plays the role of a (scaled) gradient and
# satisfies the Euler-type identity x . (A x^{m-1}) = A x^m.
g = E.gradient_form(x)
print("E x^2 =", g, " check:", np.dot(x, g), "== E x^3 =", E.form(x))

# The form is homogeneous of degree m, which is why copositivity can be
# decided on the standard simplex alone: A (t x)^m = t^m A x^m.
t = 3.0
print("E (3x)^3 =", E.form(t * x), " 27 * E x^3 =", t**3 * E.form(x))

# Tensors form a vector space; the detection benchmarks use diagonal
# shifts of the shape eta * I - E.
A = eta_shift(9.0, E)
print("9I - E diagonal entry:", A[(1, 1, 1)], " off-diagonal:", A[(1, 2, 3)])

# A higher-order example: the tensor of a famous sextic.  Its coefficient
# on the class {1,1,1,1,2,2} spreads the monomial coefficient 1 over the
# 15 distinct index permutations.
M = motzkin_tensor()
key = (1, 1, 1, 1, 2, 2)
print("motzkin entry", key, "=", M[key], "x", multiplicity(key), "permutations")
print("motzkin form at (1,1,1):", M.form([1.0, 1.0, 1.0]))

# JSON round trip: indices are stored sorted and 1-based.
text = json.dumps(A.to_json_dict())
print("serialized bytes:", len(text))
print("round trip equal:", SymmetricTensor.from_json_dict(json.loads(text)) == A)
