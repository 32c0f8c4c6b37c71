"""
The configuration curve: branch counts, smoothness, and its genus
=================================================================

Inside the r-fold product of the genus-2 curve sits the locus of tuples
whose cover images differ from the first coordinate's image by the fixed
offsets.  Forgetting the last coordinate maps it two-to-one onto the
next level down, branched at exactly 2^r points; Riemann-Hurwitz then
forces the genus r * 2^(r-1) + 1.
"""

from fractions import Fraction

from kodaira import ConfigurationCurve, GenusTwoCurve, find_generic_points, genus

X = GenusTwoCurve(Fraction(1))
cert = find_generic_points(X.elliptic_quotient(), r=4)
config = ConfigurationCurve(X, cert.offsets())

# Fibers over the first coordinate: 2^(r-1) tuples generically.
sample = config.fiber_over_first(X.branch_point(+1))
print("fiber size over a first coordinate:", sample.size)
print("every tuple re-verifies membership:",
      all(config.contains(t) for t in sample))

# The defining map's Jacobian has one row per condition; its rank must
# be r - 1 everywhere (that is what makes the curve smooth).  The matrix
# is an arrowhead, so the rank is a count of its nonzero derivatives.
print("Jacobian rank:", config.jacobian(sample[0]), "of", config.r - 1)

# Branch points of the forget-last-coordinate cover: exactly 2^r of
# them, namely the tuples whose last coordinate is a cover-critical
# point, split evenly between the two critical points.
branch = config.branch_points()
print("branch points at r=4:", len(branch), "= 2^4")

# Riemann-Hurwitz at each level: double the Euler characteristic and add
# the branch count.  The recursion lands exactly on the closed form.
for r in range(1, 9):
    rec, closed = genus(r)
    print(f"  r={r}: genus {rec} (closed form {closed})")

# Each coordinate projection has degree 2^(r-1): count the fibers over
# both cover-critical points and over three sampled points.
print("projection degree estimate:", config.projection_degree_estimate(1, samples=3))
