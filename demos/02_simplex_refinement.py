"""The partition a certified run leaves.

The detector searches the standard simplex, the set of unit-sum
nonnegative vectors.  The search holds a cell as a tuple of n vertex
tuples, and the root cell is the identity's rows.  A cell that is neither refuted nor
certified is split at the midpoint of its longest edge into two children,
each the parent with one endpoint replaced by the midpoint.  A copositive
run with ``keep_certificates=True`` returns the certified cells: the
leaves of that refinement, in the order the depth-first search met them,
each as an (n, n) array with one vertex per row.
"""

import itertools
import math
from collections import Counter

import numpy as np

from coposim import DetectorConfig, detect, eta_shift, ones_tensor

A = eta_shift(19.0, ones_tensor(3, 3))
verdict = detect(A, DetectorConfig(keep_certificates=True))
cells = verdict.certified_cells
print(f"{verdict.kind.value} after {verdict.iterations} cells: "
      f"{len(cells)} certified, max depth {verdict.max_depth}")

# All edges of the root tie at sqrt(2); the tie-break takes the first
# edge, (1, 2), whose midpoint (0.5, 0.5, 0) shows in the first cell.
# The child that replaced vertex 2 is searched first, so the first
# certified cell keeps vertex 1.
print("first certified cell:\n", cells[0])
print("second certified cell:\n", cells[1])

# |det V| is a cell's share of the simplex: the root's is 1 and every
# split halves it exactly, so the leaves' shares add up to one.
dets = [abs(np.linalg.det(cell)) for cell in cells]
print("|det| per cell:", [f"1/{round(1 / d)}" for d in dets])
print("sum of |det|:", math.fsum(dets))

# The cells tile the simplex: a point has nonnegative barycentric
# coordinates in one cell, or in several when it lies on a shared face.
def holders(x):
    return [k for k, cell in enumerate(cells) if np.all(np.linalg.solve(cell.T, x) >= -1e-12)]


for x in ([0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.5, 0.5, 0.0]):
    print(x, "lies in cells", holders(x))

# A deeper run: cells per depth, and the largest cell left.
verdict = detect(eta_shift(9.01, ones_tensor(3, 3)), DetectorConfig(keep_certificates=True))
cells = verdict.certified_cells
depths = Counter(round(-math.log2(abs(np.linalg.det(cell)))) for cell in cells)
print("eta = 9.01:", len(cells), "certified cells by depth:", dict(sorted(depths.items())))
print("sum of |det|:", math.fsum(abs(np.linalg.det(cell)) for cell in cells))
diameter = max(np.linalg.norm(a - b) for cell in cells for a, b in itertools.combinations(cell, 2))
print("largest diameter:", diameter)

# Certified cells are read-only arrays, built from the search's vertex
# tuples when the run ends.
try:
    cells[0][0, 0] = 0.0
except ValueError as error:
    print("writing a certified cell:", error)
