"""Flats and hyperplanes in the Grassmannian model.

Points of the model are positive-definite p-planes. A flat meets a
hyperplane in at most one point; the verdict is decided exactly from the
lines the hyperplane's complement cuts out of each hyperbolic block.
"""

from fractions import Fraction as F

from geocycle import (
    general_position,
    hyperplane_new,
    intersect_flat_hyperplane,
    stabilizer_sign_patterns,
    standard_flat,
    standard_lattice,
)
from geocycle.arrangement import boost_power, DEFAULT_BOOST

b23 = standard_lattice("bpq", 2, 3)
flat = standard_flat(2, 3)

# A hyperplane from a boosted negative vector b*e1 + a*f1 + f2.
bp = boost_power(DEFAULT_BOOST, 3)
lam = (bp.b, F(0), bp.a, F(1), F(0))
hyper = hyperplane_new(lam, b23)

verdict = intersect_flat_hyperplane(flat, hyper)
print("verdict:", verdict.tag)
print("intersection point basis:", verdict.point.plane.basis)

# Tilting the normal toward the positive cone empties the intersection.
empty = intersect_flat_hyperplane(flat, hyperplane_new((2, 0, 1, 1, 3), b23))
print("\ntilted normal verdict:", empty.tag)

# A normal inside the rest block degenerates the criterion.
degen = intersect_flat_hyperplane(flat, hyperplane_new((0, 0, 0, 0, 1), b23))
print("rest-direction verdict:", degen.tag, "because", degen.reason)

# General position needs a nonzero rest component of the normal on top of
# the line conditions; adding f3 to the boosted normal achieves it.
strong = hyperplane_new((bp.b, F(0), bp.a, F(1), F(1)), b23)
print("\nstrong general position:", general_position(flat, strong, "strong"))
print("sign patterns stabilizing the line:", stabilizer_sign_patterns(flat, strong))

# Without any first-block component the block flip survives.
loose = hyperplane_new((0, 0, 0, 1, 1), b23)
print("patterns for a normal missing the first block:",
      stabilizer_sign_patterns(flat, loose))
