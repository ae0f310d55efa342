"""
Path certificates for membership in the invariant.

A certificate fixes a base letter t with chi(t) > 0 and, for every signed
generator z, a word W_z with t W_z = z t.  When every margin
nu(t, W_z) - nu(1, z) is positive, the chi-nonnegative part of the Cayley
graph is connected and the point lies in the invariant.  Endpoints are
checked against the word-problem oracle wherever one exists.
"""

from sigmabraid import (
    CertificateCase,
    case_character,
    decide_sigma,
    generate_braid_certificate,
    generate_lemma_certificates,
    sphere_point,
    torus_character,
    verify_certificate,
)
from sigmabraid.words import GroupContext, serialize_word

print("A three-strand torus certificate (t = x, chi(x)=chi(u)=1, chi(y)=2):")
cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 2)
chi_model, chi_braid = case_character(CertificateCase.G3T_A, 1, 2)
report = verify_certificate(cert, chi_model)
for line in report.lines:
    entry = next(e for e in cert.entries if str(e.z) == line.z)
    print(f"  z={line.z:5} margin={str(line.margin):5} path={serialize_word(entry.path_word)}")
print(f"  all margins positive: {report.passed}; endpoints oracle-checked: "
      f"{report.endpoints_checked}")
v = decide_sigma(chi_braid.spec.group, sphere_point(chi_braid))
print(f"  independent classification of the same point: {v.membership}")

print("\nThe same machinery over plain braid generators, n = 6"
      " (endpoints rest on the relation tables):")
group = GroupContext("P", "T", 6)
chi = torus_character(6, [0, 1, 0, 0, -1, 0], [-1, 0, 0, 0, 0, 3])
cert = generate_braid_certificate(group, chi)
report = verify_certificate(cert, chi)
print(f"  base {report.t}, {len(cert.entries)} entries, passed={report.passed}, "
      f"endpoints_checked={report.endpoints_checked}")

print("\nA certificate can fail honestly: same paths, hostile character:")
from sigmabraid import character, ModelId
bad_chi = character(ModelId.G3T, {"v": 1, "y": -5})
report = verify_certificate(generate_lemma_certificates(CertificateCase.G3T_C, 1, 1), bad_chi)
print(f"  passed={report.passed}; nonpositive margins at "
      f"{[l.z for l in report.lines if not l.positive]}")
