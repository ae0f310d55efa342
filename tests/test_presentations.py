import hashlib
import json

import pytest

from sigmabraid import checks, presentations
from sigmabraid.characters import abelianize
from sigmabraid.models import dictionary_for, translate, words_equal
from sigmabraid.presentations import (
    Relation,
    _C,
    _a,
    _b,
    _beta,
    _cat,
    all_family_names,
    instantiate_family,
    instantiate_presentation,
)
from sigmabraid.words import DomainError, GroupContext, IDENTITY, parse_word, serialize_word

ORACLE_SPECS = [("T", 2), ("T", 3), ("T", 4), ("K", 2)]


def by_name(table):
    return {r.name: r for r in table.relations}


def test_torus_two_strands():
    table = by_name(instantiate_presentation("P", "T", 2))
    r = table["1:a1-a2"]
    assert serialize_word(r.lhs) == "a1 a2" and serialize_word(r.rhs) == "a2 a1"
    assert "5:row1" in table and "5:row2" in table


def test_klein_two_strands_b_relation():
    table = by_name(instantiate_presentation("P", "K", 2))
    r = table["6:b2-b1"]
    # C[2,2] is the trivial braid, so only C[1,2] survives
    assert serialize_word(r.lhs) == "b2 b1"
    assert serialize_word(r.rhs) == "b1 b2 C[1,2]"


def test_single_strand_degenerates_to_commutator():
    table = instantiate_presentation("P", "T", 1)
    assert len(table) == 1
    (r,) = table.relations
    assert r.lhs == IDENTITY
    assert serialize_word(r.rhs) == "a1 b1 a1^-1 b1^-1"


def test_family_s1_instances():
    table = instantiate_family("S1", "T", 3)
    assert sorted(r.name for r in table.relations) == ["S1:1,2", "S1:1,3", "S1:2,3"]
    r = by_name(table)["S1:1,3"]
    assert serialize_word(r.lhs) == "a1 b3 a1^-1"
    assert serialize_word(r.rhs) == "b3 C[1,3] C[2,3]^-1"


def test_family_r4_klein():
    table = instantiate_family("R4", "K", 2)
    (r,) = table.relations
    assert serialize_word(r.lhs) == "b2 b1 s1"
    assert serialize_word(r.rhs) == "s1^-1 b2 b1"


def test_unsupported_family_combinations():
    with pytest.raises(DomainError):
        instantiate_family("P3", "K", 3)
    with pytest.raises(DomainError):
        instantiate_family("P1", "T", 2)
    with pytest.raises(DomainError):
        instantiate_family("S9", "T", 3)


def test_braid_table_contents():
    table = by_name(instantiate_presentation("B", "T", 3))
    assert serialize_word(table["artin:s1-s2"].lhs) == "s1 s2 s1"
    r = table["twist:s1-a1"]
    assert serialize_word(r.rhs) == "s1^-1 s1^-1 a2"
    r = table["twist:s1-b1"]
    assert serialize_word(r.rhs) == "b2 s1 s1"
    assert serialize_word(table["band:C1,3"].rhs) == "s2 s1 s1 s2^-1"


def test_all_relations_abelianize_to_zero():
    for surface in ("T", "K"):
        for family in ("P", "B"):
            for n in range(1, 5):
                table = instantiate_presentation(family, surface, n)
                for r in table.relations:
                    assert abelianize(table.group, r.lhs * r.rhs.inverse()).is_zero(), \
                        (surface, family, n, r.name)
        for name in all_family_names():
            for n in range(1, 5):
                try:
                    table = instantiate_family(name, surface, n)
                except DomainError:
                    continue
                for r in table.relations:
                    assert abelianize(table.group, r.lhs * r.rhs.inverse()).is_zero(), \
                        (surface, name, n, r.name)


def _oracle_check(table):
    dic = dictionary_for(table.group.surface, table.group.n)
    assert dic is not None
    return [r.name for r in table.relations
            if not words_equal(dic.model, translate(dic, r.lhs, "to_model"),
                               translate(dic, r.rhs, "to_model"))]


def test_presentations_pass_the_oracle():
    for surface, n in ORACLE_SPECS:
        assert _oracle_check(instantiate_presentation("P", surface, n)) == []


def test_pure_families_pass_the_oracle():
    for surface, n in ORACLE_SPECS:
        for name in all_family_names():
            try:
                table = instantiate_family(name, surface, n)
            except DomainError:
                continue
            if table.group.family != "P":
                continue
            assert _oracle_check(table) == [], (name, surface, n)


def rejected_variant(name: str, surface: str, n: int) -> Relation:
    """Factor-transposed variants of two shipped rules.

    In both cases the pair of encircling factors on the right-hand side
    does not commute, so transposing them changes the group element; the
    word-problem oracle rejects these variants at n <= 4.
    """
    if name == "S2" and n >= 3:
        # at j = i+1 one factor is the trivial braid and the transposition
        # is invisible, so the order is only separable from n = 3 on
        i, j = 1, n
        return Relation(
            f"S2:{i},{j}:transposed",
            _cat(_b(i), _a(j), _b(i, -1)),
            _cat(_a(j), _C(i + 1, j), _C(i, j, -1)),
            "transposed encircling factors (rejected by the oracle)")
    if name == "P2" and surface == "T" and n >= 3:
        delta = _cat(_C(1, n), _C(2, n, -1), _C(3, n))
        rhs = _cat(_beta(n - 1, 3, n), _b(1), _beta(n - 1, 2, n),
                   _C(2, n, -1), _C(3, n), _beta(n - 1, 2, n).inverse(),
                   delta, _b(n), _b(1, -1), _beta(n, 3, n).inverse())
        return Relation("P2:1:transposed",
                        _cat(_b(n, -1), _C(1, n), _b(n)), rhs,
                        "transposed encircling factors (rejected by the oracle)")
    raise DomainError(f"no rejected variant recorded for {name} on {surface} at n={n}")


def test_rejected_variants_fail_the_oracle():
    # the encircling factors in S2 and in the first P2 row do not commute;
    # swapping them produces a different group element
    for name, surface, n in (("S2", "T", 3), ("S2", "T", 4),
                             ("P2", "T", 3), ("P2", "T", 4)):
        r = rejected_variant(name, surface, n)
        dic = dictionary_for(surface, n)
        assert not words_equal(dic.model,
                               translate(dic, r.lhs, "to_model"),
                               translate(dic, r.rhs, "to_model")), (name, surface, n)


def test_relation_counts_grow_with_n():
    assert len(instantiate_presentation("P", "T", 2)) == 8
    assert len(instantiate_presentation("P", "T", 3)) == 29
    assert len(instantiate_presentation("P", "T", 4)) == 75


def test_json_export_roundtrip():
    table = instantiate_presentation("P", "K", 3)
    doc = json.loads(table.to_json_text())
    assert doc["group"] == "P" and doc["surface"] == "K" and doc["n"] == 3
    ctx = GroupContext("P", "K", 3)
    for entry in doc["relations"]:
        lhs = parse_word(entry["lhs"], ctx)
        rhs = parse_word(entry["rhs"], ctx)
        assert abelianize(ctx, lhs * rhs.inverse()).is_zero()


# SHA-256 over the JSON text of every table that relation_checks(max_n=8)
# builds, in the order of (builder, arguments); recorded before the
# one-letter words were shared, so sharing them changed no table.
RELATION_TABLES_DIGEST = "300cbf763a839db66a8ceff0585e6c18234eadeed277409b08cbe36f7980875e"


def test_relation_checks_build_each_table_once_and_keep_the_digest(monkeypatch):
    built = {}

    def spy(make):
        def wrapped(*args):
            table = make(*args)
            key = (make.__name__,) + args
            assert key not in built, key
            built[key] = table.to_json_text()
            return table
        return wrapped

    for name in ("instantiate_presentation", "instantiate_family"):
        monkeypatch.setattr(presentations, name, spy(getattr(presentations, name)))
    checks.relation_checks(max_n=8, random_words=0)
    assert len(built) == 246
    digest = hashlib.sha256()
    for key in sorted(built):
        digest.update(built[key].encode())
    assert digest.hexdigest() == RELATION_TABLES_DIGEST


def test_one_letter_words_are_shared():
    assert _a(2) is _a(2) and _b(3, -1) is _b(3, -1) and _C(1, 3) is _C(1, 3)
    assert _C(2, 2) is IDENTITY
    assert _a(2, -1) == _a(2).inverse() and _C(1, 3, -1) == _C(1, 3).inverse()


def test_abelian_check_agrees_with_the_abelianized_quotient():
    # every relation, and every lhs against the next relation's rhs, which
    # mostly fails; the torsion of P_n(K) lets a1 and a1^-1 agree
    extra = [(GroupContext("P", "K", 2), Relation("torsion", _a(1), _a(1, -1), "")),
             (GroupContext("P", "T", 2), Relation("torsion", _a(1), _a(1, -1), ""))]
    pairs = list(extra)
    for surface in ("T", "K"):
        for family in ("P", "B"):
            for n in range(1, 5):
                table = instantiate_presentation(family, surface, n)
                rels = table.relations
                pairs += [(table.group, r) for r in rels]
                pairs += [(table.group, Relation("mixed", r.lhs, q.rhs, ""))
                          for r, q in zip(rels, rels[1:])]
    verdicts = [checks._abelian(group, r) for group, r in pairs]
    assert verdicts == [abelianize(group, r.lhs * r.rhs.inverse()).is_zero() for group, r in pairs]
    assert verdicts[:2] == [True, False] and verdicts.count(False) > 100
