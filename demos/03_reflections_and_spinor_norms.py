"""Reflections, factorization into reflections, and spinor norms.

The spinor norm of an isometry is the product of the self-pairings of any
reflection factorization, taken modulo squares; its sign distinguishes the
two components of the stabilizer of a negative line.
"""

from fractions import Fraction as F

from geocycle import (
    cartan_dieudonne,
    in_congruence_subgroup,
    isometry_from_matrix,
    product_of_reflections,
    reflection,
    spinor_norm,
    standard_lattice,
)

b11 = standard_lattice("bpq", 1, 1)

# Reflections along the two axes of diag(+1, -1).
print("reflection along e1:", reflection((1, 0), b11).matrix)
print("its spinor class:", spinor_norm(reflection((1, 0), b11)))
print("reflection along f1 spinor class:", spinor_norm(reflection((0, 1), b11)))

# A hyperbolic boost with eigenvalues 2 and 1/2. Each factor is printed as the
# primitive integer vector on its reflection's line.
boost = isometry_from_matrix([[F(5, 4), F(3, 4)], [F(3, 4), F(5, 4)]], b11)
factors = cartan_dieudonne(boost)
print("\nboost factors into", len(factors), "reflections:", factors)
print("product reproduces the boost:",
      product_of_reflections(factors, b11).matrix == boost.matrix)
print("boost spinor class:", spinor_norm(boost))

# Congruence subgroup membership: entrywise identity modulo N.
b22 = standard_lattice("bpq", 2, 2)
flip = isometry_from_matrix(
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], b22
)
print("\n-1 block is trivial mod 2:", in_congruence_subgroup(flip, 2))
print("-1 block is trivial mod 4:", in_congruence_subgroup(flip, 4))
