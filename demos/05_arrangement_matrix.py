"""A family of flats and hyperplanes with a triangular intersection matrix.

Rotating a base flat and a base hyperplane by powers of one rational
rotation produces families whose intersection pattern is decided by an
exact tangent inequality: parameters found by search make the verdict
table lower triangular with points on the diagonal.
"""

from geocycle import (
    arrangement_spec,
    intersection_matrix,
    search_parameters,
)
from geocycle.arrangement import DEFAULT_BOOST, boost_power, inequality_details

p, q, n = 2, 3, 5
m, t = search_parameters(n, DEFAULT_BOOST)
print(f"searched parameters: boost power m={m}, rotation tangent t={t}")

bp = boost_power(DEFAULT_BOOST, m)
print(f"inequality window: [{-(bp.a + bp.b)}, {-(bp.a - bp.b)}]")

spec = arrangement_spec(p, q, n, DEFAULT_BOOST, m, t)
for k, d in enumerate(inequality_details(spec, n), start=1):
    print(f"  k={k}: tan = {d.tangent}  in window: {d.holds}")

matrix = intersection_matrix(spec)
print("\nverdict table (rows: hyperplanes, cols: flats):")
print(matrix.to_csv())
print("lower triangular:", matrix.lower_triangular)
print("rotation-shift cross-check:", matrix.shift_consistent)
print("diagonal intersection point of the base pair:",
      matrix.verdicts[0][0].point.plane.basis)
