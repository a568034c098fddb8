"""Root vectors (self-pairing -2) and orthogonality predicates.

Root enumeration splits the Gram matrix into its orthogonal blocks,
tabulates each block's vectors in the coordinate box by value (definite
blocks run down a triangular completed-squares form) and joins the values
that sum to -2. The orthogonality predicates decide whether a positive
plane lies on a root's hyperplane.
"""

import sys
import time

from geocycle import (
    any_root_orthogonal,
    enumerate_roots,
    plane_orthogonal_to,
    restricted_definiteness,
    span,
    standard_lattice,
)

h = standard_lattice("hyperbolic")
print("roots of H at bound 1:", enumerate_roots(h, 1))

b11 = standard_lattice("bpq", 1, 1)
print("roots of diag(1,-1) at bound 10:", enumerate_roots(b11, 10),
      "(x^2 - y^2 = -2 is impossible mod 4)")

e8n = standard_lattice("e8_neg")
start = time.perf_counter()
roots = enumerate_roots(e8n, 6)
print(f"\nnegated E8 has {len(roots)} roots at bound 6")
print(f"(enumerated in {time.perf_counter() - start:.3f}s)", file=sys.stderr)
print("first three:", roots[:3])

# In the K3 lattice (H + H + H + -E8 + -E8) the standard positive 3-plane
# is supported on the hyperbolic blocks, hence orthogonal to every root of
# an E8 block.
k3 = standard_lattice("k3")
plane = span([
    [1, 1] + [0] * 20,
    [0, 0, 1, 1] + [0] * 18,
    [0] * 4 + [1, 1] + [0] * 16,
])
print("\nplane inertia in K3:", restricted_definiteness(plane, k3))
embedded = [(0,) * 6 + r + (0,) * 8 for r in roots]
hit = any_root_orthogonal(plane, embedded, k3)
print("first orthogonal block root:", hit)
print("containment double-check:", plane_orthogonal_to(plane, hit, k3))
