"""
Searching for generic offsets, with a machine-checkable certificate
===================================================================

The configuration curve needs offsets e_2, ..., e_r on the elliptic
curve avoiding three excluded values -- the identity, the branch-image
difference, and its inverse -- individually and in all pairwise
differences.  Nothing is assumed about torsion or rank: every exclusion
is decided by evaluating the group law, and the whole search is recorded
in a certificate that can be re-verified from scratch.
"""

from fractions import Fraction

from kodaira import EllipticCurve, find_generic_points, verify_certificate
from kodaira.generic_points import GenericityCertificate

E = EllipticCurve(Fraction(1))

# Strategy: find one rational point by bounded search, then use
# stride multiples of it.  Strides 1 and 2 fail for this curve (the
# double of the base point is exactly the excluded difference), so the
# search settles on stride 3.
cert = find_generic_points(E, r=4)
print("base point:", cert.base_point)
print("stride:", cert.stride)
for i, e in enumerate(cert.points, start=2):
    print(f"  e_{i} = [{cert.stride * i}] base =", e)

# Every exclusion that was checked is in the certificate.
print("checks recorded:", len(cert.checks), "- all passed:", cert.all_passed)

# Re-verification recomputes everything with exact arithmetic.
print("verifies:", verify_certificate(cert))

# Tampering is detected: replace an offset by the excluded difference.
tampered = GenericityCertificate.from_json(cert.to_json())
tampered.points[0] = E.delta()
print("tampered verifies:", verify_certificate(tampered))

# Certificates serialize to canonical JSON (rationals as num/den).
print(cert.to_json()[:400], "...")

# A complex parameter works the same way, with certified-distance checks
# instead of exact comparisons; the certificate is marked approximate.
from kodaira import ComplexApprox

Ec = EllipticCurve(ComplexApprox.from_re_im_strings("0.5", "0.25"))
cert_c = find_generic_points(Ec, r=3)
print("complex-parameter mode:", cert_c.mode, "- verifies:",
      verify_certificate(cert_c))
