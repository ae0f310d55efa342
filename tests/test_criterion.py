import hashlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from sigmabraid.characters import (
    abelianization,
    abelianize,
    character,
    evaluate,
    klein_character,
    nu,
    sphere_point,
    torus_character,
)
from sigmabraid.criterion import (
    CertificateCase,
    CertificateEntry,
    CertificateError,
    MarginLine,
    PathCertificate,
    case_character,
    explore_ball,
    generate_braid_certificate,
    generate_lemma_certificates,
    verify_certificate,
)
from sigmabraid.models import ModelId, parse_model_word
from sigmabraid.presentations import instantiate_family, instantiate_presentation
from sigmabraid.sigma import IN_SIGMA1, decide_sigma
from sigmabraid.cli import _certificate_from_json, _certificate_to_json
from sigmabraid.words import (IDENTITY, AlphabetError, DomainError, GroupContext, Word, model_sym,
                              sym_a, sym_b, sym_C)


def mword(text, model=ModelId.G3T):
    return parse_model_word(text, model)


def test_case_a_certificate_shape_and_margins():
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    assert str(cert.t) == "x"
    assert len(cert.entries) == 14
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    report = verify_certificate(cert, chi)
    assert report.passed and report.endpoints_checked
    margins = {line.z: line.margin for line in report.lines}
    assert margins["a"] == 1  # commuting letter: margin equals chi(t)
    assert margins["v"] == 1 and margins["y"] == 1
    assert all(m > 0 for m in margins.values())


def test_case_margins_scale_with_parameters():
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 2, 5)
    chi, _ = case_character(CertificateCase.G3T_A, 2, 5)
    margins = {line.z: line.margin for line in verify_certificate(cert, chi).lines}
    assert margins["v"] == 2  # min(p, q) over the banked path word
    assert margins["x"] == 2 and margins["x^-1"] == 2


def test_all_cases_verify_and_land_in_the_invariant():
    for case in CertificateCase:
        for p in (1, 3):
            for q in (2, 5):
                cert = generate_lemma_certificates(case, p, q)
                chi_model, chi_braid = case_character(case, p, q)
                report = verify_certificate(cert, chi_model)
                assert report.passed and report.endpoints_checked, (case, p, q)
                group = chi_braid.spec.group
                verdict = decide_sigma(group, sphere_point(chi_braid))
                assert verdict.membership == IN_SIGMA1


@pytest.mark.parametrize("build", [case_character, generate_lemma_certificates])
def test_an_unknown_case_is_a_domain_error(build):
    message = ("unknown certificate case 'nope'; "
               "the cases are g3t-a, g3t-b, g3t-c, g3t-d, g4t-a, g4t-b")
    with pytest.raises(DomainError) as info:
        build("nope", 1, 1)
    assert str(info.value) == message
    assert build("g3t-a", 1, 1) == build(CertificateCase.G3T_A, 1, 1)


def test_case_parameters_must_be_positive():
    with pytest.raises(DomainError):
        case_character(CertificateCase.G3T_A, 0, 1)
    with pytest.raises(DomainError):
        case_character(CertificateCase.G3T_A, 1, -2)


@pytest.mark.parametrize("value", [0.1, True, 1.0])
def test_case_parameters_must_be_exact(value):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True) is 1
    message = r"^values must be exact rationals \(int or Fraction\), got "
    for p, q in ((value, 1), (1, value)):
        with pytest.raises(DomainError, match=message):
            case_character(CertificateCase.G3T_A, p, q)
        with pytest.raises(DomainError, match=message):
            generate_lemma_certificates(CertificateCase.G3T_A, p, q)
    # exact values still pass, a string too
    generate_lemma_certificates(CertificateCase.G3T_A, Fraction(1, 10), "2/3")
    assert case_character(CertificateCase.G3T_A, "1/10", 1)[0].coords


@pytest.mark.parametrize("value", ["1e100000", " 7 ", "1_0", "\u0663"])
def test_case_parameters_read_strings_as_written(value):
    # Fraction reads each of these strings, the first as a 100,001-digit integer
    message = f"numbers must be integers or exact 'p/q' strings, got {value!r}"
    for p, q in ((value, 1), (1, value)):
        for build in (case_character, generate_lemma_certificates):
            with pytest.raises(DomainError) as err:
                build(CertificateCase.G3T_A, p, q)
            assert str(err.value) == message


def test_g4t_certificate_covers_both_layers():
    cert = generate_lemma_certificates(CertificateCase.G4T_B, 1, 5)
    assert str(cert.t) == "v^-1"
    assert len(cert.entries) == 22
    chi, _ = case_character(CertificateCase.G4T_B, 1, 5)
    report = verify_certificate(cert, chi)
    assert report.passed
    margins = {line.z: line.margin for line in report.lines}
    assert margins["ub"] > 0 and margins["w2"] > 0


def test_verify_rejects_nonpositive_base():
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    chi = character(ModelId.G3T, {"x": -1})
    with pytest.raises(CertificateError, match="chi\\(t\\) > 0"):
        verify_certificate(cert, chi)


def test_verify_rejects_broken_endpoint():
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    doctored = tuple(
        CertificateEntry(e.z, Word((e.z,)), e.cite) if str(e.z) == "y" else e
        for e in cert.entries)
    bad = PathCertificate(cert.context, cert.t, doctored)
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    with pytest.raises(CertificateError, match="z = y"):
        verify_certificate(bad, chi)


def test_verify_rejects_missing_entries():
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    truncated = PathCertificate(cert.context, cert.t, cert.entries[:-2])
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    with pytest.raises(CertificateError, match="misses entries"):
        verify_certificate(truncated, chi)


def test_failing_margin_is_reported_not_raised():
    # a valid torus-model certificate against a character that kills its
    # paths: endpoints hold, some margin is nonpositive
    cert = generate_lemma_certificates(CertificateCase.G3T_C, 1, 1)
    chi = character(ModelId.G3T, {"v": 1, "y": -5})
    report = verify_certificate(cert, chi)
    assert not report.passed
    assert any(not line.positive for line in report.lines)


def test_verify_rejects_contexts_without_certificates():
    # a valid P_3(T) certificate relabelled: B_3(T) has s-generators with
    # no entries, and P_5(S2) has none of the certificate's letters
    chi = torus_character(3, [0, 0, 0], [-1, -1, 2])
    cert = generate_braid_certificate(GroupContext("P", "T", 3), chi)
    for context in (GroupContext("B", "T", 3), GroupContext("P", "S2", 5)):
        relabelled = PathCertificate(context, cert.t, cert.entries)
        with pytest.raises(DomainError, match=rf"^{re.escape(str(context))}: certificates cover"):
            verify_certificate(relabelled, chi)


def test_verify_rejects_a_character_on_another_group():
    chi = torus_character(3, [0, 0, 0], [-1, -1, 2])
    cert = generate_braid_certificate(GroupContext("P", "T", 3), chi)
    with pytest.raises(DomainError, match=r"^character lives on P_4\(T\), not P_3\(T\)$"):
        verify_certificate(cert, torus_character(4, [0] * 4, [-1, -1, 0, 2]))
    lemma = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    with pytest.raises(DomainError, match="^character lives on G4T, not G3T$"):
        verify_certificate(lemma, character(ModelId.G4T, {"x": 1}))


def _dominant_character(rng, surface, n, end):
    """Seeded b-weights whose strand-n (end "top") or strand-1 (end "low",
    negative) entry outweighs every other |b_i|."""
    b = [Fraction(rng.randint(-6, 6), 1 + i % 3) for i in range(n)]
    lead = Fraction(rng.randint(1, 4), 2)
    if end == "top":
        b[-1] = max(abs(v) for v in b[:-1]) + lead
    else:
        b[0] = -(max(abs(v) for v in b[1:]) + lead)
    if surface == "K":
        return klein_character(n, b)
    return torus_character(n, [Fraction(rng.randint(-6, 6), 1 + (i + 1) % 3)
                               for i in range(n)], b)


def _broken_dominance(chi, end):
    """The opposite end outweighs the base letter, so a margin is negative."""
    values = dict(zip(chi.spec.free_labels, chi.coords))
    n = chi.spec.group.n
    if end == "top":
        values["b1"] = -values[f"b{n}"] - 1
    else:
        values[f"b{n}"] = -values["b1"] + 1
    return character(chi.spec.group, values)


def _seeded_certificates():
    rng = random.Random(20260)
    for surface in ("T", "K"):
        for n in range(2, 13):
            group = GroupContext("P", surface, n)
            for end in ("top", "low"):
                chi = _dominant_character(rng, surface, n, end)
                cert = generate_braid_certificate(group, chi)
                yield cert, chi
                yield cert, _broken_dominance(chi, end)
    for case in CertificateCase:
        p, q = Fraction(rng.randint(1, 6), 2), Fraction(rng.randint(1, 6), 3)
        yield generate_lemma_certificates(case, p, q), case_character(case, p, q)[0]


def test_braid_certificates_match_the_recorded_digest():
    # SHA-256 of the generated certificates and their reports, T and K,
    # n = 2..19, both ends, recorded before letters had codes, before path
    # words were built as one product and before margins shared Fractions
    rng = random.Random(17)
    digest = hashlib.sha256()
    for surface in ("T", "K"):
        for n in range(2, 20):
            for end in ("top", "low"):
                chi = _dominant_character(rng, surface, n, end)
                cert = generate_braid_certificate(GroupContext("P", surface, n), chi)
                digest.update(f"{cert.t}\n".encode())
                for e in cert.entries:
                    digest.update(f"{e.z}|{e.path_word}|{e.cite}\n".encode())
                # the dominant character passes; the broken one fails a margin
                for x in (chi, _broken_dominance(chi, end)):
                    report = verify_certificate(cert, x)
                    for line in report.lines:
                        digest.update(f"{line.z}|{line.margin}|{line.endpoint_checked}|"
                                      f"{line.positive}\n".encode())
                    digest.update(f"{report.passed}\n".encode())
    assert digest.hexdigest() == "3787aea068c01b0b953534dfb3b17522d09d44bed3694b56ff6f3e7b15722ca8"


@pytest.mark.parametrize("surface", ["T", "K"])
@pytest.mark.parametrize("end", ["top", "low"])
def test_generation_reads_no_more_letters_than_it_keeps(surface, end, monkeypatch):
    # counts the letters handed to the seam products, through criterion's
    # name, through Word.__mul__ and through presentations' _cat, which the
    # relation rows call, so a certificate that built a whole family table
    # would fail; before each path word was one product, the torus top end
    # at n = 48 handed them 215,683 letters for 11,472 kept
    from sigmabraid import criterion, presentations, words

    handed = [0]
    product = words.product

    def counting(*factors):
        handed[0] += sum(map(len, factors))
        return product(*factors)

    monkeypatch.setattr(criterion, "product", counting)
    monkeypatch.setattr(words, "product", counting)
    monkeypatch.setattr(presentations, "_cat", counting)
    monkeypatch.setattr(criterion, "_BRAID_CERTS", criterion._Kept())  # build, do not look up
    n = 48
    b = [0] * n
    b[-1 if end == "top" else 0] = 1 if end == "top" else -1
    chi = klein_character(n, b) if surface == "K" else torus_character(n, [0] * n, b)
    cert = generate_braid_certificate(GroupContext("P", surface, n), chi)
    assert str(cert.t) == ("b48" if end == "top" else "b1^-1")
    kept = sum(len(e.path_word) for e in cert.entries)
    assert 0 < handed[0] <= kept, (handed[0], kept)


# the cites of the entries whose path word is one table row, a derived row's
# rhs or, for a_1^-1, the lhs of the wall-crossing row 5:1 times a_1^-1
_ROW_CITES = {"strand conjugation rule P1", "strand conjugation rule P1, top row",
              "outward conjugation S5", "outward conjugation S2",
              "outward conjugation S4, first strand", "wall-crossing relation, first strand"}


@pytest.mark.parametrize("surface", ["T", "K"])
def test_certificate_entries_citing_a_row_equal_that_row_in_the_tables(surface):
    # the rows are read through the public tables, not through the row
    # functions the certificates call; n = 24 lies past the recorded digest
    for n in (*range(3, 14), 24):
        rows = {r.name: r for r in instantiate_presentation("P", surface, n).relations}
        for name in ("P1", "S2", "S4", "S5"):
            rows.update((r.name, r) for r in instantiate_family(name, surface, n).relations)
        wall = rows["5:row1"].lhs
        a1_inv = Word((sym_a(1, -1),))
        expected = {
            "top": {sym_a(i): rows[f"P1:{i}"].rhs for i in range(1, n + 1)},
            "low": {sym_a(1, -1): a1_inv * wall if surface == "T" else wall * a1_inv.inverse(),
                    **{sym_b(j): rows[f"S5:1,{j}"].rhs for j in range(2, n + 1)},
                    **{sym_a(j): rows[f"S2:1,{j}"].rhs for j in range(2, n + 1)},
                    **{sym_C(1, j): rows[f"S4:1;1,{j}"].rhs for j in range(2, n + 1)}},
        }
        for end, rhs in expected.items():
            b = [0] * n
            b[-1 if end == "top" else 0] = 1 if end == "top" else -1
            chi = torus_character(n, [0] * n, b) if surface == "T" else klein_character(n, b)
            cert = generate_braid_certificate(GroupContext("P", surface, n), chi)
            rhs.update({z.inverse(): w.inverse() for z, w in list(rhs.items())})
            citing = {e.z: e.path_word for e in cert.entries
                      if e.cite.removesuffix(" (inverted)") in _ROW_CITES}
            assert citing == rhs, (surface, n, end)


def test_integer_margins_match_nu():
    negative = 0
    for cert, chi in _seeded_certificates():
        report = verify_certificate(cert, chi)
        t = Word((cert.t,))
        assert len(report.lines) == len(cert.entries)
        for line, e in zip(report.lines, cert.entries):
            margin = nu(chi, t, e.path_word) - nu(chi, IDENTITY, Word((e.z,)))
            assert line == MarginLine(str(e.z), margin, report.endpoints_checked, margin > 0)
            assert type(line.margin) is Fraction
            negative += margin < 0
    assert negative > 0  # the broken-dominance characters give negative margins


def _counting_oracle(monkeypatch):
    """Count the endpoint checks, through criterion's name of the oracle."""
    from sigmabraid import criterion

    calls = []
    words_equal = criterion.words_equal

    def counting(model, u, v):
        calls.append(v)
        return words_equal(model, u, v)

    monkeypatch.setattr(criterion, "words_equal", counting)
    return calls


def _oracle_covered_certificates():
    rng = random.Random(18)
    group = GroupContext("P", "T", 4)
    for end in ("top", "low"):
        chi = _dominant_character(rng, "T", 4, end)
        yield generate_braid_certificate(group, chi), chi
    for case in (CertificateCase.G4T_A, CertificateCase.G4T_B):
        yield generate_lemma_certificates(case, 2, 3), case_character(case, 2, 3)[0]


def _fresh(cert):
    """A new certificate object with the same entries, which no call has
    verified yet."""
    return PathCertificate(cert.context, cert.t, cert.entries)


def test_one_endpoint_check_per_inverse_pair(monkeypatch):
    from sigmabraid import criterion

    calls = _counting_oracle(monkeypatch)
    certs = list(_oracle_covered_certificates())
    paired = []
    for cert, chi in certs:
        del calls[:]
        paired.append(verify_certificate(_fresh(cert), chi))
        # every entry is listed next to its inverse, with the inverted word
        assert len(calls) == len(cert.entries) // 2, (cert.context, len(calls))
    # an inverse that matches nothing checks every entry, with the same report
    monkeypatch.setattr(criterion, "_INVERSE", lambda s: None)
    for (cert, chi), report in zip(certs, paired):
        del calls[:]
        assert verify_certificate(_fresh(cert), chi) == report
        assert len(calls) == len(cert.entries)
        assert report.passed and report.endpoints_checked


def _replace(cert, z, word):
    """The certificate with every entry for z given the path word ``word``."""
    return PathCertificate(cert.context, cert.t, tuple(
        CertificateEntry(e.z, word, e.cite) if str(e.z) == z else e for e in cert.entries))


@pytest.mark.parametrize("z", ["y", "y^-1"])
def test_a_doctored_entry_of_a_pair_names_its_own_letter(z):
    # each G3T_A entry lists y before y^-1; the trivial path fails for both
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    bad = _replace(cert, z, mword(z))
    with pytest.raises(CertificateError, match=rf"^endpoint condition fails for z = {re.escape(z)}$"):
        verify_certificate(bad, chi)
    # the same when the pair is listed the other way round
    swapped = PathCertificate(bad.context, bad.t, bad.entries[3::-1] + bad.entries[4:])
    assert [str(e.z) for e in swapped.entries[:4]] == ["y^-1", "y", "x^-1", "x"]
    with pytest.raises(CertificateError, match=rf"z = {re.escape(z)}$"):
        verify_certificate(swapped, chi)


def test_an_inverse_spelled_otherwise_is_checked_directly(monkeypatch):
    # x and a commute in G3T, so x a^-1 x^-1 is a^-1 spelled otherwise
    calls = _counting_oracle(monkeypatch)
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    other = _replace(cert, "a^-1", mword("x a^-1 x^-1"))
    report = verify_certificate(other, chi)
    assert report.passed and report.endpoints_checked
    assert len(calls) == len(cert.entries) // 2 + 1
    assert [str(v) for v in calls].count("a^-1 x") == 1
    t = Word((other.t,))
    for line, e in zip(report.lines, other.entries):
        assert line.margin == nu(chi, t, e.path_word) - nu(chi, IDENTITY, Word((e.z,)))


def test_duplicate_entries_are_each_checked(monkeypatch):
    calls = _counting_oracle(monkeypatch)
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    y, y_inv = cert.entries[2:4]
    assert (str(y.z), str(y_inv.z)) == ("y", "y^-1")
    # y three times, then y^-1 twice: each y is checked, the first y^-1
    # pairs with the last y, and the second y^-1 is left unpaired
    dup = PathCertificate(cert.context, cert.t,
                          cert.entries[:2] + (y, y, y, y_inv, y_inv) + cert.entries[4:])
    report = verify_certificate(dup, chi)
    assert report.passed and len(report.lines) == len(cert.entries) + 3
    assert [str(v) for v in calls].count("y x") == 3
    assert [str(v) for v in calls].count("y^-1 x") == 1
    # a second y^-1 has no unpaired y left, so it is checked: doctored, it fails
    del calls[:]
    doctored = CertificateEntry(y_inv.z, mword("y^-1"), y_inv.cite)
    twice = PathCertificate(cert.context, cert.t, cert.entries[:4] + (doctored,) + cert.entries[4:])
    with pytest.raises(CertificateError, match=r"z = y\^-1$"):
        verify_certificate(twice, chi)
    assert [str(v) for v in calls][-2:] == ["y x", "y^-1 x"]


# ---------------------------------------------------------------------------
# Braid-generator certificates

def test_braid_certificate_top_strand():
    group = GroupContext("P", "T", 3)
    chi = torus_character(3, [0, 0, 0], [-1, -1, 2])
    cert = generate_braid_certificate(group, chi)
    assert str(cert.t) == "b3"
    report = verify_certificate(cert, chi)
    assert report.passed and report.endpoints_checked


def test_braid_certificate_bottom_strand():
    group = GroupContext("P", "T", 4)
    chi = torus_character(4, [1, 0, 0, -1], [-3, 1, 1, 1])
    cert = generate_braid_certificate(group, chi)
    assert str(cert.t) == "b1^-1"
    report = verify_certificate(cert, chi)
    assert report.passed and report.endpoints_checked


def test_braid_certificate_klein():
    from sigmabraid.characters import klein_character
    group = GroupContext("P", "K", 2)
    chi = klein_character(2, [-1, 2])
    report = verify_certificate(generate_braid_certificate(group, chi), chi)
    assert report.passed and report.endpoints_checked


def test_braid_certificate_beyond_model_range():
    from sigmabraid.characters import klein_character
    for group, chi in (
            (GroupContext("P", "T", 6), torus_character(6, [0] * 6, [-1, 0, 0, 0, 0, 3])),
            (GroupContext("P", "K", 5), klein_character(5, [-2, 0, 0, 1, 3]))):
        cert = generate_braid_certificate(group, chi)
        report = verify_certificate(cert, chi)
        assert report.passed
        assert not report.endpoints_checked  # delegated to the relation tables


def test_braid_certificate_needs_dominant_extreme():
    group = GroupContext("P", "T", 3)
    chi = torus_character(3, [1, -1, 0], [0, 0, 0])
    with pytest.raises(DomainError, match="act_permutation"):
        generate_braid_certificate(group, chi)


def test_generation_rejects_a_character_on_another_group():
    # each would otherwise read the base end off another group's b-block
    group = GroupContext("P", "T", 3)
    for chi in (torus_character(4, [0] * 4, [-1, -1, 0, 2]), klein_character(3, [-1, -1, 2])):
        with pytest.raises(DomainError, match=rf"^character lives on {re.escape(str(chi.spec.group))}, "
                                              r"not P_3\(T\)$"):
            generate_braid_certificate(group, chi)


@pytest.mark.parametrize("group, message", [
    (GroupContext("B", "T", 2), "B_2(T): braid certificates cover P_n(T) and P_n(K)"),
    (GroupContext("P", "T", 1), "need n >= 2"),
])
def test_generation_rejects_other_groups(group, message):
    chi = character(group, {"b": 1} if group.family == "B" else {"b1": 1})
    with pytest.raises(DomainError) as err:
        generate_braid_certificate(group, chi)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Certificates and their checks are kept per process

def test_generation_keeps_one_certificate_per_group_and_end():
    rng = random.Random(19)
    for surface in ("T", "K"):
        group = GroupContext("P", surface, 5)
        top = [generate_braid_certificate(group, _dominant_character(rng, surface, 5, "top"))
               for _ in range(2)]
        # an equal group object finds the same certificate
        low = [generate_braid_certificate(GroupContext("P", surface, 5),
                                          _dominant_character(rng, surface, 5, "low"))
               for _ in range(2)]
        assert top[0] is top[1] and low[0] is low[1]
        assert top[0] is not low[0] and top[0].t != low[0].t
    # a lemma certificate does not depend on p and q
    cases = list(CertificateCase)
    first = [generate_lemma_certificates(case, 1, 2) for case in cases]
    assert all(generate_lemma_certificates(case, Fraction(7, 3), 5) is cert
               for case, cert in zip(cases, first))
    assert len({id(cert) for cert in first}) == len(cases)


def test_a_second_verification_makes_no_oracle_call(monkeypatch):
    calls = _counting_oracle(monkeypatch)
    for cert, chi in _oracle_covered_certificates():
        cert = _fresh(cert)
        del calls[:]
        first = verify_certificate(cert, chi)
        assert len(calls) == len(cert.entries) // 2
        del calls[:]
        assert verify_certificate(cert, chi) == first
        # the margins are computed anew for each character
        doubled = verify_certificate(cert, chi.scale(2))
        assert [line.margin for line in doubled.lines] == [2 * line.margin for line in first.lines]
        assert not calls


def test_a_failing_certificate_fails_the_same_way_on_every_call():
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    bad = _replace(cert, "y", mword("y"))
    truncated = PathCertificate(cert.context, cert.t, cert.entries[:-2])
    for doctored, message in ((bad, "endpoint condition fails for z = y"),
                              (truncated, "certificate misses entries for: ['w', 'w^-1']")):
        for _ in range(2):
            with pytest.raises(CertificateError) as info:
                verify_certificate(doctored, chi)
            assert str(info.value) == message
    # a certificate the oracle cannot check fails on its entries each time
    chi5 = torus_character(5, [0] * 5, [0, 0, 0, 0, 1])
    cert5 = generate_braid_certificate(GroupContext("P", "T", 5), chi5)
    short = PathCertificate(cert5.context, cert5.t, cert5.entries[1:])
    for _ in range(2):
        with pytest.raises(CertificateError, match=r"^certificate misses entries for: \['a1'\]$"):
            verify_certificate(short, chi5)


def test_a_failing_certificate_keeps_nothing(monkeypatch):
    calls = _counting_oracle(monkeypatch)
    cert = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    chi, _ = case_character(CertificateCase.G3T_A, 1, 1)
    bad = _replace(cert, "y", mword("y"))
    truncated = PathCertificate(cert.context, cert.t, cert.entries[:-2])
    for doctored, oracle_calls in ((bad, 2), (truncated, 0)):
        for _ in range(2):
            del calls[:]
            with pytest.raises(CertificateError):
                doctored.endpoints_checked
            assert "endpoints_checked" not in vars(doctored)
            assert len(calls) == oracle_calls  # checked anew on every read
    good = _fresh(cert)
    assert good.endpoints_checked is True and vars(good)["endpoints_checked"] is True


def test_check_stays_out_of_eq_hash_repr():
    cert = _fresh(generate_lemma_certificates(CertificateCase.G3T_A, 1, 1))
    twin = _fresh(cert)
    text = repr(cert)
    assert cert.endpoints_checked and "endpoints_checked" not in vars(twin)
    assert cert == twin and hash(cert) == hash(twin) and repr(cert) == repr(twin) == text
    assert "endpoints_checked" not in text


def test_kept_braid_certificates_stay_within_the_budget(monkeypatch):
    from sigmabraid import criterion

    kept = criterion._Kept()
    monkeypatch.setattr(criterion, "_BRAID_CERTS", kept)
    monkeypatch.setattr(criterion, "CERTIFICATE_BUDGET", 2000)
    group = lambda n: GroupContext("P", "T", n)
    chi = lambda n: torus_character(n, [0] * n, [0] * (n - 1) + [1])
    emptied = 0
    first = {}
    for n in range(2, 13):
        before = len(kept)
        first[n] = generate_braid_certificate(group(n), chi(n))
        emptied += len(kept) <= before
        assert kept.letters == sum(len(e.path_word) for c in kept.values() for e in c.entries)
        assert kept.letters <= 2000
    assert emptied > 0
    # a certificate dropped with the store is built again, equal to the first
    again = {n: generate_braid_certificate(group(n), chi(n)) for n in range(2, 13)}
    assert any(again[n] is not first[n] for n in first)
    assert again == first


def test_trivial_entries_go_with_the_store(monkeypatch):
    # the trivial-path pairs are cached per letter; a store emptied by its
    # budget left them all (44,554 pairs, 25 MB, after P_100..P_300 of T)
    from sigmabraid import criterion

    lemma = generate_lemma_certificates(CertificateCase.G3T_A, 1, 1)
    entries = lemma.entries
    monkeypatch.setattr(criterion, "_BRAID_CERTS", criterion._Kept())
    monkeypatch.setattr(criterion, "CERTIFICATE_BUDGET", 100)
    chi = torus_character(6, [0] * 6, [0] * 5 + [1])
    generate_braid_certificate(GroupContext("P", "T", 6), chi)  # past the budget
    assert len(criterion._BRAID_CERTS) == 0
    assert criterion._triv.cache_info().currsize == 0
    # a lemma certificate keeps the pairs it holds
    assert generate_lemma_certificates(CertificateCase.G3T_A, 1, 1).entries is entries
    assert verify_certificate(lemma, case_character(CertificateCase.G3T_A, 1, 1)[0]).passed


# ---------------------------------------------------------------------------
# Bounded ball exploration

def test_ball_direct_edge():
    chi = character(ModelId.G2T, {"a": 1})
    report = explore_ball(ModelId.G2T, chi, radius=3,
                          targets=[mword("a", ModelId.G2T)])
    assert report.base == "a"
    assert report.targets[0].reachable


def test_ball_monotone_in_radius():
    chi = character(ModelId.G2K, {"b": 1})
    small = explore_ball(ModelId.G2K, chi, radius=2)
    big = explore_ball(ModelId.G2K, chi, radius=3)
    assert small.reachable_count <= big.reachable_count
    assert small.vertex_count <= big.vertex_count


def test_ball_negative_control_small_radius():
    chi = character(ModelId.G2K, {"y": -1})
    report = explore_ball(ModelId.G2K, chi, radius=4,
                          targets=[mword("y x y^-1", ModelId.G2K)])
    assert report.base == "y^-1"
    target = report.targets[0]
    assert target.in_ball and target.nonnegative and not target.reachable
    assert "disconnection" in report.note


def test_ball_budget_truncation():
    chi = character(ModelId.G2K, {"b": 1})
    report = explore_ball(ModelId.G2K, chi, radius=6, budget=50)
    assert report.truncated
    assert report.vertex_count <= 51


def test_ball_rejects_bad_inputs():
    chi = character(ModelId.G2K, {"b": 1})
    with pytest.raises(DomainError):
        explore_ball(ModelId.G2K, chi, radius=0)
    with pytest.raises(DomainError):
        explore_ball(ModelId.G2T, chi, radius=2)


@pytest.mark.parametrize("radius", [2.0, 2.5, True, "3", None])
def test_ball_rejects_a_radius_that_is_not_an_int(radius):
    # the radius indexes the kept ball's counts per distance
    chi = character(ModelId.G2K, {"b": 1})
    with pytest.raises(DomainError, match=f"radius must be an integer, got {radius!r}"):
        explore_ball(ModelId.G2K, chi, radius=radius)


@pytest.mark.parametrize("budget", [2.0, 40.5, True])
def test_ball_rejects_a_budget_that_is_not_an_int(budget):
    # the budget cuts a prefix off the kept ball
    chi = character(ModelId.G2K, {"b": 1})
    with pytest.raises(DomainError, match=f"budget must be an integer, got {budget!r}"):
        explore_ball(ModelId.G2K, chi, radius=2, budget=budget)


def test_ball_negative_control_torus_model():
    # complement point of the two-strand torus group, pulled through the
    # dictionary: only y carries weight, and conjugates of x across y
    # stay separated from the base inside the ball (bounded check only)
    from sigmabraid.models import dictionary
    from sigmabraid.characters import model_character
    braid_chi = torus_character(2, [0, 0], [-1, 1])
    chi = model_character(dictionary(ModelId.G2T), braid_chi)
    assert evaluate(chi, mword("y", ModelId.G2T)) == 1
    report = explore_ball(ModelId.G2T, chi, radius=6,
                          targets=[mword("y^-1 x y", ModelId.G2T)])
    target = report.targets[0]
    assert target.in_ball and target.nonnegative and not target.reachable


def test_ball_zero_character_uses_identity_base():
    chi = character(ModelId.G2T, {})
    report = explore_ball(ModelId.G2T, chi, radius=2,
                          targets=[mword("x y", ModelId.G2T)])
    assert report.base == "1"
    assert report.targets[0].reachable
    assert report.nonnegative_count == report.vertex_count == report.reachable_count


# ---------------------------------------------------------------------------
# The single-sweep ball against the two-pass algorithm it replaced

def _two_pass_ball(model, chi, radius, targets=(), budget=None):
    """The two-pass ball sweep: a breadth-first sweep over hashed states,
    then a reach search that steps every reached vertex again.  Returns
    the report, the vertices the sweep stepped (in order), how many of
    them it expanded fully, and the reached set."""
    from collections import deque

    from sigmabraid.criterion import BallReport, TargetReport, _ball_budget
    from sigmabraid.models import NormalForm, identity_state, normalize, step
    from sigmabraid.words import IDENTITY, serialize_word

    if radius < 1:
        raise DomainError("radius must be >= 1")
    if chi.spec.group != model:
        raise DomainError(f"character lives on {chi.spec.group}, not {model.value}")
    budget = _ball_budget(budget)
    signed = [(name, sign) for name in model.letter_names for sign in (1, -1)]
    values = {(name, sign): chi.letter_table.value(model_sym(name, sign)) for name, sign in signed}
    base_letter = None
    for sign in (1, -1):
        for name in model.letter_names:
            if values[(name, sign)] > 0:
                base_letter = (name, sign)
                break
        if base_letter:
            break
    if base_letter is None and any(v != 0 for v in values.values()):
        raise DomainError("no generator with positive value: unsupported base choice")

    ident = identity_state(model)
    dist = {ident: 0}
    value = {ident: 0}
    swept = []
    frontier = deque([ident])
    truncated = False
    d = 0
    while frontier and d < radius:
        next_frontier = deque()
        for state in frontier:
            swept.append(state)
            for name, sign in signed:
                nxt = step(model, state, model_sym(name, sign))
                if nxt not in dist:
                    if len(dist) >= budget:
                        truncated = True
                        next_frontier.clear()
                        frontier = deque()
                        break
                    dist[nxt] = d + 1
                    value[nxt] = value[state] + values[(name, sign)]
                    next_frontier.append(nxt)
            else:
                continue
            break
        frontier = next_frontier
        d += 1
    full = len(swept) - truncated

    nonneg = {s for s, v in value.items() if v >= 0}
    if base_letter is None:
        base_state, base_word = ident, IDENTITY
    else:
        base_word = Word((model_sym(*base_letter),))
        base_state = step(model, ident, model_sym(*base_letter))
    reach = set()
    if base_state in dist and value[base_state] >= 0:
        reach.add(base_state)
        bfs = deque([base_state])
        while bfs:
            state = bfs.popleft()
            for name, sign in signed:
                nxt = step(model, state, model_sym(name, sign))
                if nxt in nonneg and nxt in dist and nxt not in reach:
                    reach.add(nxt)
                    bfs.append(nxt)

    unreached = sorted(nonneg - reach, key=lambda s: (dist[s], repr(s)))
    sample = tuple(serialize_word(NormalForm(model, s).as_word()) or "1"
                   for s in unreached[:10])
    reports = []
    for tw in targets:
        state = normalize(model, tw).state
        reports.append(TargetReport(serialize_word(tw), state in dist,
                                    state in dist and value.get(state, -1) >= 0,
                                    state in reach))
    report = BallReport(model, radius, serialize_word(base_word) or "1", len(dist),
                        len(nonneg), len(reach), truncated, sample, tuple(reports))
    return report, swept, full, reach


_BALL_RADII = {ModelId.G2T: 4, ModelId.G2K: 4, ModelId.G3T: 2, ModelId.G4T: 2}


def _random_ball_cases(seed, per_model):
    """Seeded (model, chi, radius, targets) cases: characters on the free
    labels with small integer values, and target words up to two letters
    longer than the radius, so some lie outside the ball."""
    import random

    from sigmabraid.characters import abelianization

    rng = random.Random(seed)
    for model in ModelId:
        labels = abelianization(model).free_labels
        for _ in range(per_model):
            coords = {label: rng.randint(-2, 2) for label in labels if rng.random() < 0.5}
            radius = rng.randint(1, _BALL_RADII[model])
            targets = []
            for _ in range(3):
                letters = [f"{rng.choice(model.letter_names)}{rng.choice(('', '^-1'))}"
                           for _ in range(rng.randint(0, radius + 2))]
                targets.append(parse_model_word(" ".join(letters), model))
            yield model, character(model, coords), radius, targets


def _ball_or_error(fn, *args):
    try:
        return fn(*args).to_json()
    except DomainError as exc:
        return ("DomainError", str(exc))


def _tally(counts, got):
    """Count one report compared with the reference: whether its sweep was
    truncated, and how many of its targets lie inside and outside the ball."""
    counts["compared"] += 1
    if isinstance(got, dict):
        counts["truncated"] += got["truncated"]
        for target in got["targets"]:
            counts["inside" if target["in_ball"] else "outside"] += 1


def _assert_coverage(counts):
    # at least 400 calls, cut sweeps among them, and targets on both sides
    assert counts["compared"] >= 400, counts
    assert counts["truncated"] > 0 and counts["inside"] > 0 and counts["outside"] > 0, counts


def test_ball_matches_two_pass_reference():
    counts = Counter()
    for model, chi, radius, targets in _random_ball_cases(seed=5, per_model=16):
        whole = _two_pass_ball(model, chi, radius, targets)[0]
        k = len(model.letter_names)
        # budgets that cut the sweep inside a vertex, the identity included
        budgets = {None, 1, 2, 2 * k, 2 * k + 1, max(1, whole.vertex_count // 2),
                   whole.vertex_count - 1, whole.vertex_count}
        for budget in sorted(budgets, key=lambda b: -1 if b is None else b):
            expected = _ball_or_error(lambda *a: _two_pass_ball(*a)[0],
                                      model, chi, radius, targets, budget)
            got = _ball_or_error(explore_ball, model, chi, radius, targets, budget)
            assert got == expected, (model, chi.coords, radius, budget)
            _tally(counts, got)
    _assert_coverage(counts)


def _cold_balls(monkeypatch):
    """Give ``explore_ball`` an empty ball store of its own; clearing the
    returned dict makes the next call sweep anew."""
    from sigmabraid import criterion

    balls = {}
    monkeypatch.setattr(criterion, "_BALLS", balls)
    return balls


def _recording_step(monkeypatch):
    """Wrap ``criterion.step``; the returned list collects the arguments
    (model, state, letter) of every call."""
    from sigmabraid import criterion

    calls = []
    step = criterion.step

    def recording(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(criterion, "step", recording)
    return calls


def test_ball_steps_each_vertex_once_per_letter(monkeypatch):
    from sigmabraid.models import step

    balls = _cold_balls(monkeypatch)
    calls = _recording_step(monkeypatch)
    # b^-1 is the last signed letter of G2T: with budget 2k the identity's
    # last step meets the budget, and the base vertex lies outside the ball
    cases = [*_random_ball_cases(seed=11, per_model=4),
             (ModelId.G2T, character(ModelId.G2T, {"b": -1}), 2, [])]
    checked = cut = outer_cut = warm = 0
    for model, chi, radius, targets in cases:
        k = len(model.letter_names)
        dist = _ball_distances(model, radius)
        numbered = list(dist)  # breadth-first, in the order the sweep numbers
        sizes = [sum(d <= r for d in dist.values()) for r in range(radius + 1)]
        for budget in (None, 1, 2 * k, 2 * k + 1, 40):
            try:
                report = _two_pass_ball(model, chi, radius, budget=budget)[0]
            except DomainError:
                continue
            n = report.vertex_count
            # one rule, whole sweep or cut: the outer layer is the numbered
            # vertices at the first distance D whose ball the n vertices do
            # not cover (r for a whole sweep), and the sweep steps every
            # vertex below D by every letter; on a non-bipartite model it
            # then steps each outer vertex by each positive letter that does
            # not lead back to distance D - 1, and a bipartite model never
            # steps its outer layer
            D = next((r for r, size in enumerate(sizes) if size > n), radius)
            outer = numbered[sizes[D - 1]:n]
            expected = Counter((model, state, letter) for state, d in dist.items() if d < D
                               for letter in model.signed_letters)
            if not model.bipartite:
                expected.update((model, state, letter) for state in outer
                                for letter in model.signed_letters[::2]
                                if dist.get(step(model, state, letter)) != D - 1)
            balls.clear()
            calls.clear()
            explore_ball(model, chi, radius, budget=budget)
            # the sweep steps first; spelling the unreached sample then steps
            # at most 10 vertices along parent paths of at most r letters
            sweep = sum(expected.values())
            assert Counter(calls[:sweep]) == expected, (model, chi.coords, radius, budget)
            assert len(calls) - sweep <= 10 * radius
            checked += 1
            cut += report.truncated
            outer_cut += report.truncated and bool(outer) and not model.bipartite
        # the kept ball answers any other character at any radius up to its
        # own and under any budget: it steps only to spell the unreached
        # sample, and to probe one bisection per distance d <= r for each
        # target, each probe a parent path of d letters
        balls.clear()
        explore_ball(model, chi, radius)
        size = len(balls[model].parent)
        other = -chi
        for r in range(1, radius + 1):
            for budget in (None, 1, 2 * k, 2 * k + 1, 40):
                for given in ((), targets):
                    calls.clear()
                    explore_ball(model, other, r, given, budget)
                    probes = len(given) * r * (r + 1) // 2 * (size.bit_length() + 1)
                    assert len(calls) <= 10 * r + probes
                    warm += 1
    assert checked > 0 and cut > 0 and outer_cut > 0 and warm > 0


def test_kept_ball_answers_like_a_fresh_sweep(monkeypatch):
    from sigmabraid.characters import abelianization

    balls = _cold_balls(monkeypatch)
    counts = Counter()

    def same(model, chi, radius, targets, budget=None):
        expected = _ball_or_error(lambda *a: _two_pass_ball(*a)[0],
                                  model, chi, radius, targets, budget)
        got = _ball_or_error(explore_ball, model, chi, radius, targets, budget)
        assert got == expected, (model, chi.coords, radius, budget, targets)
        _tally(counts, got)

    # G3T at radius 3 has edges inside the shell
    cases = [*_random_ball_cases(seed=19, per_model=5),
             (ModelId.G3T, character(ModelId.G3T, {"x": 1, "u": 1, "v": -2}), 3,
              [mword("x v u^-1"), mword("y w^-1 x v")])]
    for model, chi, radius, targets in cases:
        k = len(model.letter_names)
        top = _BALL_RADII[model]
        balls.clear()
        same(model, chi, radius, targets)  # cold: sweeps and keeps the ball
        assert balls[model].radius == radius
        same(model, chi, radius, targets)  # warm, same radius
        size = balls[model].sizes[-1]
        # budgets that cut inside the kept ball serve a larger radius too,
        # and a sweep beyond the ball that the budget cuts is not kept
        kept = balls[model]
        for budget in (1, 2, 2 * k, 2 * k + 1, max(1, size // 2), size - 1 or 1, size):
            same(model, chi, radius + 1, targets, budget)
            assert balls[model] is kept
        # warm from a larger ball, every radius up to it, budget prefixes
        another = character(model, {label: 1 for label in abelianization(model).free_labels[:1]})
        explore_ball(model, another, top)
        assert balls[model].radius == max(top, radius)
        for r in range(1, max(top, radius) + 1):
            whole = balls[model].sizes[r]
            for budget in sorted({1, 2, 2 * k, 2 * k + 1, max(1, whole // 2), whole - 1 or 1,
                                  whole, whole + 1}):
                for given in ((), targets):
                    same(model, chi, r, given, budget)
            same(model, chi, r, targets)
    _assert_coverage(counts)
    # the benchmark's largest kept balls, read at every whole distance by
    # pieces, one vertex per piece on G2T, whose letters are all free; the
    # piece search leaves nonnegative pieces unreached or not
    searches = Counter()
    cases = [*_random_ball_cases(seed=29, per_model=3),
             *((model, character(model, {}), None, [mword("a b", model)]) for model in ModelId)]
    for model, radius in _BENCH_RADII.items():
        balls.clear()
        explore_ball(model, character(model, {}), radius)  # keeps the ball
        for _, chi, _, targets in (case for case in cases if case[0] is model):
            for d in range(1, radius + 1):
                same(model, chi, d, targets)
            report = explore_ball(model, chi, radius, targets)
            searches[model, report.reachable_count < report.nonnegative_count] += 1
        assert sorted(balls[model].pieces) == list(range(1, radius + 1))
    assert set(searches) == {(model, unreached) for model in ModelId for unreached in (False, True)}, searches


# ---------------------------------------------------------------------------
# Abelian classes, the sample order and the spelled sample of a kept ball

# radii whose balls are quick to sweep; G3T at radius 3 has edges inside the shell
_CLASS_RADII = {ModelId.G2T: 5, ModelId.G2K: 4, ModelId.G3T: 3, ModelId.G4T: 2}


def _seeded_characters(model, rng, count):
    """Characters with small integer values, each zero on a random part of
    the free letters (the zero character included)."""
    from sigmabraid.characters import abelianization

    labels = abelianization(model).free_labels
    yield character(model, {})
    for _ in range(count - 1):
        zeros = set(rng.sample(labels, rng.randint(1, len(labels) - 1)))
        yield character(model, {label: rng.choice((-3, -2, -1, 1, 2, 3))
                                for label in labels if label not in zeros})


def _vertex_values(model, ball, chi):
    """The scaled character at every vertex, summed along parent pointers."""
    moves = [chi.letter_table.value(s) for s in model.signed_letters]
    value = [0] * len(ball.parent)
    for v in range(1, len(ball.parent)):
        value[v] = value[ball.parent[v]] + moves[ball.letter[v]]
    return moves, value


def _prefixes(ball, model):
    """(radius, budget, vertex count) of every radius prefix of the ball
    and of budgets that cut inside each, the identity's row included."""
    k = len(model.letter_names)
    for r in range(1, ball.radius + 1):
        whole = ball.sizes[r]
        for budget in sorted({1, 2, 2 * k, 2 * k + 1, ball.sizes[r - 1] + 1,
                              max(1, whole // 2), whole - 1 or 1, whole}):
            yield r, budget, min(whole, budget)


@pytest.mark.parametrize("model", list(ModelId))
def test_class_sums_equal_parent_pointer_sums(model, monkeypatch):
    from sigmabraid.criterion import _class_values

    balls = _cold_balls(monkeypatch)
    explore_ball(model, character(model, {}), _CLASS_RADII[model])
    ball = balls[model]
    free = {name for name, order in model.letter_orders if order == 0}
    names = [name for name in model.letter_names for _ in (1, -1)]
    # classes are numbered as they are met, and only free letters move them
    met = 0
    for v in range(1, len(ball.parent)):
        if names[ball.letter[v]] not in free:
            assert ball.cls[v] == ball.cls[ball.parent[v]]
        assert ball.cls[v] <= met + 1
        met = max(met, ball.cls[v])
    assert met + 1 == len(ball.cparent) == ball.csizes[-1]
    checked = 0
    for chi in _seeded_characters(model, random.Random(f"classes:{model.value}"), 12):
        moves, value = _vertex_values(model, ball, chi)
        for _, _, n in _prefixes(ball, model):
            by_class = _class_values(ball, n, moves)
            assert len(by_class) == max(ball.cls[:n]) + 1
            assert [by_class[ball.cls[v]] for v in range(n)] == value[:n]
            checked += 1
    assert checked > 0


def _ball_states(model, ball):
    """The state of every vertex of the ball, stepped along parent pointers."""
    from sigmabraid.models import identity_state, step

    signed = model.signed_letters
    states = [identity_state(model)]
    for v in range(1, len(ball.parent)):
        states.append(step(model, states[ball.parent[v]], signed[ball.letter[v]]))
    return states


@pytest.mark.parametrize("model", list(ModelId))
def test_sample_is_the_first_unreached_in_sample_order(model, monkeypatch):
    from bisect import bisect_right

    from sigmabraid.models import NormalForm, normalize, step
    from sigmabraid.words import serialize_word

    balls = _cold_balls(monkeypatch)
    explore_ball(model, character(model, {}), _CLASS_RADII[model])
    ball = balls[model]
    states = _ball_states(model, ball)
    index = {state: v for v, state in enumerate(states)}
    signed = model.signed_letters
    sampled = 0
    for chi in _seeded_characters(model, random.Random(f"sample:{model.value}"), 8):
        _, value = _vertex_values(model, ball, chi)
        for r, budget, n in _prefixes(ball, model):
            report = explore_ball(model, chi, r, budget=budget)
            assert balls[model] is ball
            # reach the nonnegative prefix vertices by stepping their states
            base_word = IDENTITY if report.base == "1" else mword(report.base, model)
            nonneg = {v for v in range(n) if value[v] >= 0}
            reached = {index[normalize(model, base_word).state]} & nonneg
            todo = list(reached)
            while todo:
                v = todo.pop()
                for letter in signed:
                    w = index.get(step(model, states[v], letter))
                    if w in nonneg and w not in reached:
                        reached.add(w)
                        todo.append(w)
            assert report.reachable_count == len(reached)
            # the sample order: by distance, then by the repr of the state
            unreached = sorted(nonneg - reached,
                               key=lambda v: (bisect_right(ball.sizes, v), repr(states[v])))[:10]
            assert report.unreached_sample == tuple(
                serialize_word(NormalForm(model, states[v]).as_word()) or "1" for v in unreached)
            sampled += len(unreached)
    assert sampled > 0


def test_cached_sample_texts_equal_fresh_spellings(monkeypatch):
    from sigmabraid.criterion import _vertex_state
    from sigmabraid.models import NormalForm
    from sigmabraid.words import serialize_word

    balls = _cold_balls(monkeypatch)
    calls = _recording_step(monkeypatch)
    rng = random.Random(23)
    for model in ModelId:
        radius = _CLASS_RADII[model]
        queries = [(chi, rng.randint(1, radius), rng.choice((None, None, 2 * len(model.letter_names) + 1)))
                   for chi in _seeded_characters(model, rng, 60)]
        explore_ball(model, character(model, {}), radius)  # keeps the whole ball
        ball = balls[model]
        first = [explore_ball(model, chi, r, budget=b) for chi, r, b in queries]
        assert balls[model] is ball
        assert ball.texts
        for v, text in ball.texts.items():
            fresh = serialize_word(NormalForm(model, _vertex_state(model, ball, v)).as_word()) or "1"
            assert text == fresh, (model, v)
        # every sampled vertex is spelled once: asking again steps nothing
        calls.clear()
        again = [explore_ball(model, chi, r, budget=b) for chi, r, b in queries]
        assert not calls
        assert again == first


def _assert_piece_table(model, ball, n, pieces):
    """The structure of the piece table of the prefix 0 .. n - 1."""
    assert len(pieces.piece) == n
    if not any(order for _, order in model.letter_orders):
        # every letter free (G2T): each piece is one vertex, numbered as it
        assert list(pieces.piece) == list(range(n))
    # the piece of each prefix vertex in the sample order
    assert list(pieces.ordered) == [pieces.piece[v] for v in ball.order if v < n]
    members = [[] for _ in pieces.cls]
    for v in range(n):
        members[pieces.piece[v]].append(v)
    # each piece lies inside one class, and the sizes sum to n
    assert list(pieces.size) == list(map(len, members)) and sum(pieces.size) == n
    for p, vs in enumerate(members):
        assert {ball.cls[v] for v in vs} == {pieces.cls[p]}
    # the flags of the pieces are those of their classes, a sequence even
    # for a single piece
    flags = [c % 3 == 0 for c in range(max(pieces.cls) + 1)]
    assert list(pieces.flags(flags)) == [flags[c] for c in pieces.cls]
    # no edge that keeps the class joins two pieces, and such edges join
    # each piece into one
    for p, vs in enumerate(members):
        seen, todo = {vs[0]}, [vs[0]]
        while todo:
            for w in ball.rows[todo.pop()]:
                if w < n and ball.cls[w] == pieces.cls[p]:
                    assert pieces.piece[w] == p, (n, p, w)
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        assert seen == set(vs), (n, p)
        # the neighbouring pieces, once each
        nbrs = {pieces.piece[w] for v in vs for w in ball.rows[v] if w < n} - {p}
        assert sorted(pieces.adj[p]) == sorted(nbrs), (n, p)
        assert pieces.leaf[p] == (len(nbrs) == 1)


@pytest.mark.parametrize("model", list(ModelId))
def test_every_prefix_gets_a_piece_table(model, monkeypatch):
    from sigmabraid.criterion import _pieces, _sweep

    balls = _cold_balls(monkeypatch)
    chi = next(_seeded_characters(model, random.Random(f"pieces:{model.value}"), 2))
    radius = _CLASS_RADII[model]
    explore_ball(model, chi, radius)  # sweeps its own ball and builds its table
    ball = balls[model]
    assert sorted(ball.pieces) == [radius] and ball.cut == {}
    _assert_piece_table(model, ball, ball.sizes[radius], ball.pieces[radius])
    # every whole distance keeps its table; a prefix the budget cuts, budget
    # 1 among them, keeps the one cut table, in place of the one before
    cuts = 0
    for r, budget, n in _prefixes(ball, model):
        report = explore_ball(model, chi, r, budget=budget)
        assert balls[model] is ball and report.vertex_count == n
        if report.truncated:
            assert list(ball.cut) == [n], (r, budget)
            _assert_piece_table(model, ball, n, ball.cut[n])
            cuts += 1
        else:
            _assert_piece_table(model, ball, n, ball.pieces[r])
    assert sorted(ball.pieces) == list(range(1, radius + 1)) and cuts > 0
    # a sweep the budget cuts is not kept; its table is that of its prefix
    cut, truncated = _sweep(model, radius, ball.sizes[-1] // 2)
    assert truncated
    _assert_piece_table(model, cut, cut.sizes[-1], _pieces(cut, cut.sizes[-1]))


def test_a_kept_ball_keeps_one_table_per_distance_and_one_cut_table(monkeypatch):
    balls = _cold_balls(monkeypatch)
    model = ModelId.G2T
    chis = [character(model, {"x": -1, "y": 1, "a": Fraction(1, 2)}),
            character(model, {"x": 2, "b": -1})]
    explore_ball(model, chis[0], 4)  # keeps the radius-4 ball
    ball = balls[model]
    size = ball.sizes[-1]
    assert size == 585
    # every budget on every radius of the kept ball, a whole prefix or one
    # the budget cuts, with two characters
    for budget in range(1, size + 1):
        r = 1 + budget % 4
        for chi in chis:
            got = explore_ball(model, chi, r, budget=budget)
            assert got == _two_pass_ball(model, chi, r, budget=budget)[0], (r, budget)
            assert balls[model] is ball
            assert len(ball.pieces) <= 4 and len(ball.cut) <= 1, (r, budget)
    assert sorted(ball.pieces) == [1, 2, 3, 4]


class _OrderSpy:
    """A ball's sample order that records how far into it a pass goes."""

    def __init__(self, order):
        self.order, self.read = order, 0

    def __iter__(self):
        for i, v in enumerate(self.order):
            self.read = max(self.read, i + 1)
            yield v


def test_a_cut_table_reads_the_order_only_to_the_end_of_its_distance(monkeypatch):
    # every prefix vertex lies in the order before sizes[d], d the distance
    # of the prefix's last vertex, so a cut table on a kept ball, and the
    # query that builds it, read nothing past it
    from dataclasses import replace

    balls = _cold_balls(monkeypatch)
    model = ModelId.G2K
    chi = character(model, {"y": -1, "b": Fraction(1, 2)})
    explore_ball(model, chi, 6)  # keeps the radius-6 ball
    kept = balls[model]
    sizes = kept.sizes
    assert sizes[-1] == 19583
    # budget 1, then a budget inside each distance d
    for d, budget in [(0, 1), *((d, (sizes[d - 1] + sizes[d]) // 2) for d in range(1, 7))]:
        expected = explore_ball(model, chi, 6, budget=budget)
        assert expected.truncated and list(kept.cut) == [budget]
        spied = balls[model] = replace(kept, order=_OrderSpy(kept.order), cut={})
        assert explore_ball(model, chi, 6, budget=budget) == expected
        assert list(spied.cut) == [budget] and spied.cut[budget] == kept.cut[budget]
        assert 0 < spied.order.read <= sizes[d], (budget, spied.order.read, sizes[d])
        balls[model] = kept


def test_piece_tables_take_less_memory_than_the_rows(monkeypatch):
    import tracemalloc

    from sigmabraid.criterion import _pieces

    balls = _cold_balls(monkeypatch)
    model = ModelId.G4T
    chi = character(model, {"vb": 1, "a": -1})
    explore_ball(model, chi, 3)
    ball = balls[model]
    for d in (1, 2, 3):
        explore_ball(model, chi, d)
    assert sorted(ball.pieces) == [1, 2, 3]
    tracemalloc.start()
    try:
        # a copy of the rows with objects of its own: the list, a tuple per
        # row and one int per vertex number, at most what the kept rows hold
        before = tracemalloc.get_traced_memory()[0]
        ints = [int(str(v)) for v in range(len(ball.rows) + 1)]
        rows = [tuple(map(ints.__getitem__, row)) for row in ball.rows]
        del ints
        rows_bytes = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        tables = [_pieces(ball, ball.sizes[d]) for d in (1, 2, 3)]
        pieces_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rows == ball.rows and tables == [ball.pieces[d] for d in (1, 2, 3)]
    assert pieces_bytes < rows_bytes, (pieces_bytes, rows_bytes)


def test_g2t_piece_tables_take_less_memory_than_the_rows(monkeypatch):
    # every letter of G2T is free, so each piece is one vertex; a table
    # shares each row that lies inside its prefix instead of copying it
    import tracemalloc

    from sigmabraid.criterion import _pieces

    balls = _cold_balls(monkeypatch)
    model = ModelId.G2T
    chi = character(model, {"x": -1, "y": 1, "a": Fraction(1, 2)})
    explore_ball(model, chi, 5)
    ball = balls[model]
    for d in range(1, 6):
        explore_ball(model, chi, d)
    assert sorted(ball.pieces) == [1, 2, 3, 4, 5]
    assert all(adj is row for adj, row in zip(ball.pieces[5].adj, ball.rows, strict=True))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ints = [int(str(v)) for v in range(len(ball.rows) + 1)]
        rows = [tuple(map(ints.__getitem__, row)) for row in ball.rows]
        del ints
        rows_bytes = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        tables = [_pieces(ball, ball.sizes[d]) for d in range(1, 6)]
        pieces_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rows == ball.rows and tables == [ball.pieces[d] for d in range(1, 6)]
    assert pieces_bytes < rows_bytes, (pieces_bytes, rows_bytes)


def test_a_warm_query_makes_no_list_over_the_vertices(monkeypatch):
    # a warm G2K radius-5 query that leaves pieces unreached reads its
    # sample and its target through the table: its allocations peak below
    # one list with an entry per vertex
    import tracemalloc

    balls = _cold_balls(monkeypatch)
    model = ModelId.G2K
    chi = character(model, {"y": -1, "b": Fraction(1, 2)})
    targets = [mword("y x y^-1", model)]
    explore_ball(model, chi, 5)
    first = explore_ball(model, chi, 5, targets)  # builds the table, spells the sample
    ball = balls[model]
    assert first.vertex_count == len(ball.parent) == 4799
    assert first.reachable_count < first.nonnegative_count and first.unreached_sample
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        one_list = [False] * len(ball.parent)
        list_bytes = tracemalloc.get_traced_memory()[0] - before
        del one_list
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        again = explore_ball(model, chi, 5, targets)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < list_bytes, (peak, list_bytes)


@pytest.mark.parametrize("model, radius, coords", [
    (ModelId.G2T, 5, {"x": -1, "y": 1, "a": Fraction(1, 2)}),
    (ModelId.G2K, 4, {"y": -1, "b": Fraction(1, 2)}),
    (ModelId.G3T, 3, {"x": -1, "u": -2}),
    (ModelId.G4T, 3, {"x": -1, "v": 1}),
])
def test_a_cut_sample_and_an_open_target_match_a_fresh_sweep(model, radius, coords, monkeypatch):
    # more than ten nonnegative vertices are left unreached, so the sample
    # stops at its tenth; the first target lies in a piece left open
    balls = _cold_balls(monkeypatch)
    chi = character(model, coords)
    explore_ball(model, character(model, {}), radius)  # keeps the ball
    reference = _two_pass_ball(model, chi, radius)[0]
    assert reference.nonnegative_count - reference.reachable_count > 10
    targets = [mword(reference.unreached_sample[-1], model), mword(reference.base, model)]
    expected = _two_pass_ball(model, chi, radius, targets)[0]
    assert [(t.nonnegative, t.reachable) for t in expected.targets] == [(True, False), (True, True)]
    assert explore_ball(model, chi, radius, targets).to_json() == expected.to_json()
    assert sorted(balls[model].pieces) == [radius]


# ---------------------------------------------------------------------------
# Parity and reverse edges: when the reach search steps the radius-r shell

def _ball_distances(model, radius):
    """The distance of every state of the radius-r ball, by brute force."""
    from sigmabraid.models import identity_state, step

    ident = identity_state(model)
    dist = {ident: 0}
    layer = [ident]
    for d in range(1, radius + 1):
        outer = []
        for state in layer:
            for name in model.letter_names:
                for sign in (1, -1):
                    nxt = step(model, state, model_sym(name, sign))
                    if nxt not in dist:
                        dist[nxt] = d
                        outer.append(nxt)
        layer = outer
    return dist


@pytest.mark.parametrize("model, radius", [
    (ModelId.G2T, 5), (ModelId.G2K, 5), (ModelId.G3T, 3), (ModelId.G4T, 3),
])
def test_bipartite_flag_matches_the_ball(model, radius):
    # a bipartite Cayley graph has no edge between two vertices at the same
    # distance; the shortest odd relator of G3T and G4T has length 7, so
    # their first such edges join two vertices at distance 3
    from sigmabraid.models import step

    dist = _ball_distances(model, radius)
    same = sum(dist.get(step(model, state, model_sym(name, sign))) == d
               for state, d in dist.items() for name in model.letter_names for sign in (1, -1))
    assert model.bipartite == (same == 0), (model, same)


def test_ball_never_steps_the_shell_of_a_bipartite_model(monkeypatch):
    balls = _cold_balls(monkeypatch)
    calls = _recording_step(monkeypatch)
    checked = 0
    for model, chi, radius, _ in _random_ball_cases(seed=13, per_model=6):
        if not model.bipartite:
            continue
        inner = [state for state, d in _ball_distances(model, radius).items() if d < radius]
        expected = Counter((model, state, model_sym(name, sign)) for state in inner
                           for name in model.letter_names for sign in (1, -1))
        balls.clear()
        calls.clear()
        report = explore_ball(model, chi, radius)
        assert not report.truncated
        # the sweep steps first, and each vertex below distance r by every
        # letter only; spelling the unreached sample then steps at most 10
        # vertices along parent paths of at most r letters
        sweep = sum(expected.values())
        assert Counter(calls[:sweep]) == expected, (model, chi.coords, radius)
        assert len(calls) - sweep <= 10 * radius
        checked += 1
    assert checked == 12


def test_ball_steps_the_shell_by_letters_without_a_reverse_edge(monkeypatch):
    from sigmabraid.models import step

    balls = _cold_balls(monkeypatch)
    calls = _recording_step(monkeypatch)
    # G3T and G4T at radius 3 have edges inside the shell
    cases = [*_random_ball_cases(seed=17, per_model=3),
             (ModelId.G3T, character(ModelId.G3T, {"x": 1, "u": 1, "v": -2}), 3, []),
             (ModelId.G4T, character(ModelId.G4T, {"vb": 1, "a": -1}), 3, [])]
    shell_steps = 0
    for model, chi, radius, _ in cases:
        dist = _ball_distances(model, radius)
        report, swept, _, reach = _two_pass_ball(model, chi, radius)
        letters = [(name, sign) for name in model.letter_names for sign in (1, -1)]
        # the sweep steps each vertex below distance r by every letter; on a
        # non-bipartite model it then steps every shell vertex, reached or
        # not, by each positive letter that does not lead back to distance
        # r - 1 (an edge inside the shell joins the ends of a positive step)
        expected = Counter((model, state, model_sym(name, sign))
                           for state in swept for name, sign in letters)
        if not model.bipartite:
            expected.update((model, state, model_sym(name))
                            for state, d in dist.items() if d == radius
                            for name in model.letter_names
                            if dist.get(step(model, state, model_sym(name))) != radius - 1)
        balls.clear()
        calls.clear()
        assert explore_ball(model, chi, radius).to_json() == report.to_json()
        # the sweep steps first; spelling the unreached sample then steps at
        # most 10 vertices along parent paths of at most r letters
        sweep = sum(expected.values())
        assert Counter(calls[:sweep]) == expected, (model, chi.coords, radius)
        assert len(calls) - sweep <= 10 * radius
        shell_steps += sweep - len(swept) * len(letters)
    assert shell_steps > 0


# the largest radius the ball benchmark sweeps, per model
_BENCH_RADII = {ModelId.G2T: 5, ModelId.G2K: 5, ModelId.G3T: 3, ModelId.G4T: 3}


@pytest.mark.parametrize("model", list(ModelId))
def test_rows_list_the_neighbours_of_every_vertex(model, monkeypatch):
    from sigmabraid.criterion import _sweep
    from sigmabraid.models import step

    balls = _cold_balls(monkeypatch)
    radius = _BENCH_RADII[model]
    explore_ball(model, character(model, {}), radius)
    whole = balls[model]
    shell = whole.sizes[-2]
    # a sweep the budget cuts halfway through the shell
    cut, truncated = _sweep(model, radius, (shell + whole.sizes[-1]) // 2)
    assert truncated
    for ball in (whole, cut):
        states = _ball_states(model, ball)
        index = {state: v for v, state in enumerate(states)}
        size = len(states)
        assert len(index) == size == len(ball.rows)
        nbrs = [[index.get(step(model, state, letter)) for letter in model.signed_letters]
                for state in states]
        for v, row in enumerate(ball.rows):
            if v < shell:
                # the rows of the stepped vertices: one neighbour number per
                # letter, the ball's size for a state outside it
                assert row == tuple(size if w is None else w for w in nbrs[v]), (model, v)
            else:
                # outer-layer rows, of the whole ball's shell or of the part
                # of it the cut sweep numbered: the neighbours inside the
                # ball, in any order
                assert sorted(row) == sorted(w for w in nbrs[v] if w is not None), (model, v)
                for w in row:
                    assert ball.rows[w].count(v) == row.count(w), (model, v, w)


# ---------------------------------------------------------------------------
# Margins from the kept plan, against an independent reference
#
# The reference values every prefix of each path by its abelianization,
# dotted with the character's coordinates in Fractions, and knows nothing of
# letter tables, scaling or the plan.

def _prefix_images(cert):
    """Per entry: the free abelian image of t and of every prefix of t W_z, and of z."""
    def image(letters):
        return abelianize(cert.context, Word(tuple(letters))).free

    t = image((cert.t,))
    return [([t] + [tuple(x + y for x, y in zip(t, image(e.path_word.letters[:k])))
                    for k in range(1, len(e.path_word) + 1)], image((e.z,)))
            for e in cert.entries]


def _reference_report(cert, chi, images):
    dot = lambda image: sum((c * e for c, e in zip(chi.coords, image) if e), Fraction(0))
    lines = []
    checked = cert.endpoints_checked
    for e, (prefixes, z) in zip(cert.entries, images):
        margin = min(map(dot, prefixes)) - min(0, dot(z))
        lines.append(MarginLine(str(e.z), margin, checked, margin > 0))
    return lines, all(line.positive for line in lines)


def _mixed_character(rng, group, t):
    """Seeded coordinates with mixed denominators and both signs, chi(t) > 0."""
    spec = abelianization(group)
    coords = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
              for _ in range(spec.free_rank)]
    t_image = abelianize(group, Word((t,))).free  # one letter: one nonzero exponent
    k = next(k for k, e in enumerate(t_image) if e)
    coords[k] = t_image[k] * Fraction(rng.randint(1, 9), rng.choice((1, 4, 9)))
    return character(group, coords)


def _sweep_certificates():
    rng = random.Random(2026)
    for surface in ("T", "K"):
        for n in range(2, 13):
            group = GroupContext("P", surface, n)
            for end in ("top", "low"):
                chi = _dominant_character(rng, surface, n, end)
                cert = generate_braid_certificate(group, chi)
                yield cert, [chi, _broken_dominance(chi, end)] + \
                    [_mixed_character(rng, group, cert.t) for _ in range(3)]
    for case in CertificateCase:
        p, q = Fraction(rng.randint(1, 9), 2), Fraction(rng.randint(1, 9), 3)
        cert = generate_lemma_certificates(case, p, q)
        yield cert, [case_character(case, p, q)[0]] + \
            [_mixed_character(rng, cert.context, cert.t) for _ in range(3)]
    # paths of one letter other than z, which no oracle checks past n = 4:
    # only a path that is z itself has the margin chi(t)
    for surface, n in (("T", 6), ("K", 7)):
        group = GroupContext("P", surface, n)
        chi = _dominant_character(rng, surface, n, "top")
        cert = generate_braid_certificate(group, chi)
        letters = sorted({e.z for e in cert.entries}, key=str)
        entries = tuple(CertificateEntry(e.z, Word((rng.choice(letters),)), e.cite)
                        if k % 3 == 0 else e for k, e in enumerate(cert.entries))
        yield PathCertificate(group, cert.t, entries), \
            [chi] + [_mixed_character(rng, group, cert.t) for _ in range(3)]


def test_margins_match_the_prefix_abelianization_reference():
    signs = Counter()
    certificates = 0
    for cert, chis in _sweep_certificates():
        parsed = _certificate_from_json(_certificate_to_json(cert))
        assert parsed == cert and parsed is not cert
        assert parsed.plan == cert.plan  # the None marks are read off each entry
        images = _prefix_images(cert)
        for chi in chis:
            lines, passed = _reference_report(cert, chi, images)
            for c in (cert, parsed):
                report = verify_certificate(c, chi)
                assert list(report.lines) == lines and report.passed == passed
                assert all(type(line.margin) is Fraction for line in report.lines)
            signs.update((evaluate(chi, Word((e.z,))) > 0) - (evaluate(chi, Word((e.z,))) < 0)
                         for e in cert.entries)
            signs["failed"] += not passed
        certificates += 1
    assert certificates == 2 * 11 * 2 + 6 + 2
    assert min(signs[1], signs[-1], signs[0], signs["failed"]) > 0, signs


def test_the_plan_marks_the_paths_that_are_z_alone():
    chi = torus_character(12, [0] * 12, [0] * 11 + [1])
    cert = generate_braid_certificate(GroupContext("P", "T", 12), chi)
    alone = 0
    for (text, z, letters), e in zip(cert.plan, cert.entries):
        assert text == str(e.z) and z is e.z
        if e.path_word.letters == (e.z,):
            assert letters is None
            alone += 1
        else:
            assert letters == e.path_word.letters
    assert 0 < alone < len(cert.entries)
    # the margin of a path z alone is chi(t), whatever the sign of chi(z)
    mixed = _mixed_character(random.Random(5), cert.context, cert.t)
    report = verify_certificate(cert, mixed)
    assert {line.margin for line, (_, _, letters) in zip(report.lines, cert.plan)
            if letters is None} == {evaluate(mixed, Word((cert.t,)))}


def test_a_second_character_reuses_the_plan(monkeypatch):
    builds = []
    built = PathCertificate.__dict__["plan"]
    build = built.func

    def counting(cert):
        builds.append(cert)
        return build(cert)

    monkeypatch.setattr(built, "func", counting)
    for cert, chis in (next(_sweep_certificates()),
                       (generate_lemma_certificates(CertificateCase.G4T_B, 1, 1),
                        [case_character(CertificateCase.G4T_B, 1, 1)[0],
                         case_character(CertificateCase.G4T_B, 3, 2)[0]])):
        cert = _fresh(cert)
        del builds[:]
        reports = [verify_certificate(cert, chi) for chi in chis]
        assert len(builds) == 1 and "plan" in vars(cert)
        assert reports[0] != reports[1]
        assert "plan" not in repr(cert) and cert == _fresh(cert) and hash(cert) == hash(_fresh(cert))


def _with_a7(cert):
    a7 = sym_a(7)
    return PathCertificate(cert.context, cert.t, cert.entries + (CertificateEntry(a7, Word((a7,)), ""),))


def test_a_path_of_a_foreign_letter_alone_still_values_it():
    chi = torus_character(6, [0] * 6, [0, 0, 0, 0, 0, 1])
    cert = _with_a7(generate_braid_certificate(GroupContext("P", "T", 6), chi))
    assert cert.plan[-1][2] is None
    for _ in range(2):
        with pytest.raises(AlphabetError) as info:
            verify_certificate(cert, chi)
        assert str(info.value) == "a7: index out of range for P_6(T) (need 1..6)"


def test_checks_run_base_then_entries_then_letters():
    group = GroupContext("P", "T", 6)
    chi = torus_character(6, [0] * 6, [0, 0, 0, 0, 0, 1])
    cert = generate_braid_certificate(group, chi)
    short = PathCertificate(group, cert.t, cert.entries[1:])
    # chi(t) <= 0 is reported before a missing entry
    with pytest.raises(CertificateError) as info:
        verify_certificate(short, torus_character(6, [0] * 6, [0, 0, 0, 0, 0, -1]))
    assert str(info.value) == "base letter b6 needs chi(t) > 0, got -1"
    # a missing entry is reported before a foreign letter
    with pytest.raises(CertificateError) as info:
        verify_certificate(_with_a7(short), chi)
    assert str(info.value) == "certificate misses entries for: ['a1']"
