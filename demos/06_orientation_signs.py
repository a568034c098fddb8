"""The orientation-sign computation in the tangent model.

The tangent space at the base point is the space of p x q matrices, split
into diagonal matrices plus the annihilator of a unit vector v. The
canonical compact element (last-axis flip, reflection along v) acts on the
diagonal summand as diag(-1, ..., -1, +1) for every admissible v, so the
determinant sign is (-1)^(p-1) -- positive exactly when p is odd.
"""

import random
from fractions import Fraction as F

from geocycle import admissible_v, build_k, epsilon_general, pi_k_matrix, random_admissible_v
from geocycle.linalg import det
from geocycle.signs import reflection_blocks

v = admissible_v(2, [F(3, 5), F(4, 5)])
print("compact element for p = q = 2:")
for row in build_k(v).matrix:
    print("  ", row)

print("\ndiagonal-summand action:", pi_k_matrix(v))
print("determinant:", det(pi_k_matrix(v)))

# The same shape appears for every admissible vector and every signature.
rng = random.Random(0)
for p, q in ((1, 3), (2, 4), (3, 3), (4, 5)):
    w = random_admissible_v(p, q, rng)
    mat = pi_k_matrix(w)
    print(f"p={p}, q={q}: diagonal {tuple(mat[i][i] for i in range(p))}, det {det(mat)}")

# The general sign agrees with the projected determinant for the canonical
# pair, and is defined for any exactly-orthogonal pair with det product +1.
w = random_admissible_v(3, 4, rng)
diamond, star = reflection_blocks(w)
print("\nepsilon of the canonical pair at p=3:", epsilon_general(diamond, star, w))
