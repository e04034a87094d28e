"""Longest-edge bisection of the standard simplex.

The detector searches the set of unit-sum nonnegative vectors, so its
cells are simplices spanned by n vertices of that set.  The only
refinement is the midpoint split of the longest edge, which keeps the
partition exact and drives diameters to zero.
"""

import numpy as np

from coposim import standard_simplex

S = standard_simplex(3)
print("root vertices:\n", S.vertices)
print("root diameter:", S.diameter())

# All edges of the root tie at sqrt(2); the tie-break picks the (1, 2)
# edge, so the midpoint is (0.5, 0.5, 0).
first, second = S.bisect_longest_edge()
print("first child:\n", first.vertices)
print("second child:\n", second.vertices)
print("child diameters:", first.diameter(), second.diameter())

# The vertex-matrix determinant is the cell's volume measure; each split
# halves it exactly.
det = lambda cell: abs(np.linalg.det(cell.vertices))
print("determinants root/children:", det(S), det(first), det(second))

# Any point of the simplex lands in exactly one child interior (boundary
# points are shared): its barycentric coordinates over that child's
# vertices are all nonnegative.
def inside(cell, x):
    return bool(np.all(np.linalg.solve(cell.vertices.T, x) >= -1e-12))


for x in ([0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.5, 0.5, 0.0]):
    print(x, "in first:", inside(first, x), "in second:", inside(second, x))

# The frontier is a plain list used as a stack: after a split appends the
# children in order, the second child is processed next, giving the
# depth-first walk the detector needs for bounded memory and reproducible
# iteration counts.
frontier = [S]
a, b = frontier.pop().bisect_longest_edge()
frontier.extend((a, b))
print("popped the second child:", frontier.pop() is b)

# Repeated refinement shrinks the largest diameter below any threshold.
leaves = [standard_simplex(3)]
for _ in range(100):
    leaves.sort(key=lambda cell: -cell.diameter())
    leaves.extend(leaves.pop(0).bisect_longest_edge())
print("cells after 100 splits:", len(leaves),
      " max diameter:", max(cell.diameter() for cell in leaves))
