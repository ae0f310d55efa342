import math
import random
from functools import partial
from itertools import combinations, permutations

import pytest

from sigmabraid.characters import (
    SpherePoint,
    abelianization,
    klein_character,
    sphere_character,
    sphere_point,
    strand_blocks,
    torus_character,
)
from sigmabraid.sigma import (
    EMPTY_SPHERE,
    IN_COMPLEMENT,
    IN_SIGMA1,
    KleinPoint,
    P3Circle,
    P4Circle,
    TorusCircle,
    UnsupportedGroupError,
    WholeSphere,
    act_permutation,
    commutator_fg_flag,
    decide_sigma,
    enumerate_complement,
    r_infinity_certificate,
)
from sigmabraid.words import _FAMILIES, DomainError, GeneratorSymbol, GroupContext, parse_word


def K(n):
    return GroupContext("P", "K", n)


def T(n):
    return GroupContext("P", "T", n)


def S2(n):
    return GroupContext("P", "S2", n)


def test_decide_examples():
    v = decide_sigma(K(2), sphere_point(klein_character(2, [1, -1])))
    assert v.membership == IN_COMPLEMENT and v.witness == (1, 2)

    v = decide_sigma(T(3), sphere_point(torus_character(3, [1, -1, 0], [2, -2, 0])))
    assert v.membership == IN_COMPLEMENT and v.witness == (1, 2, 1, 2)

    v = decide_sigma(K(2), sphere_point(klein_character(2, [1, 1])))
    assert v.membership == IN_SIGMA1 and "center" in v.justification

    v = decide_sigma(S2(4), sphere_point(sphere_character(4, {(1, 3): 1})))
    assert v.membership == IN_COMPLEMENT and v.witness == P3Circle(1, 2, 3)


@pytest.mark.parametrize("group, coords", [
    (K(2), (2, -2)),  # once read as lying in the invariant, though it is b_1 - b_2
    (K(2), (0, 0)),
    (K(2), (1, -1, 0)),
    (K(2), (True, -1)),
    (K(2), (1.0, -1)),
    (T(2), (1, -1, 1)),
    (GroupContext("B", "S2", 3), ()),
], ids=["not-primitive", "zero", "too-long", "bool", "float", "too-short", "empty-sphere"])
def test_sphere_points_are_canonical_by_construction(group, coords):
    spec = abelianization(group)
    with pytest.raises(DomainError) as err:
        SpherePoint(spec, coords)
    assert str(err.value) == (f"{coords!r} is not a sphere point of {group}: "
                              f"need {spec.free_rank} ints with gcd 1")
    assert SpherePoint(abelianization(K(2)), (1, -1)) == sphere_point(klein_character(2, [2, -2]))


def test_decide_needs_a_point_of_its_group():
    with pytest.raises(DomainError) as err:
        decide_sigma(T(2))
    assert str(err.value) == "P_2(T) has a nonempty sphere; a point is required"
    with pytest.raises(DomainError) as err:
        decide_sigma(T(2), _klein_point(2, 1, 2))
    assert str(err.value) == "point lives on P_2(K), not on P_2(T)"


@pytest.mark.parametrize("n, desc", [(4, P4Circle(1, 2, 3, 4)), (5, P4Circle(2, 3, 4, 5))])
def test_a_p4_point_off_its_pattern_lies_in_the_invariant(n, desc):
    # each coordinate moved off the circle fails one equality of the P4 match
    i, j, k, l = desc.i, desc.j, desc.k, desc.l
    values = {(i, k): 1, (j, l): 1, (i, l): 2, (j, k): 2, (k, l): -3}
    if (i, j) != (1, 2):
        values[(i, j)] = -3
    assert decide_sigma(S2(n), sphere_point(sphere_character(n, values))).witness == desc
    for key in values:
        off = sphere_point(sphere_character(n, {**values, key: values[key] + 1}))
        assert decide_sigma(S2(n), off).membership == IN_SIGMA1, key


def test_decide_more_patterns():
    # scaled Klein pattern is the same sphere point
    v = decide_sigma(K(3), sphere_point(klein_character(3, [0, 5, -5])))
    assert v.membership == IN_COMPLEMENT and v.witness == (2, 3)
    # reversed signs give the antipodal point, with swapped witness
    v = decide_sigma(K(3), sphere_point(klein_character(3, [0, -5, 5])))
    assert v.witness == (3, 2)
    # a (2, -1, -1) profile is not an opposite-unit pair
    v = decide_sigma(K(3), sphere_point(klein_character(3, [2, -1, -1])))
    assert v.membership == IN_SIGMA1
    # torus pattern with p = 0 still needs matching strand pairs
    v = decide_sigma(T(3), sphere_point(torus_character(3, [0, 0, 0], [1, 0, -1])))
    assert v.membership == IN_COMPLEMENT and v.witness == (1, 3, 0, 1)
    # mismatched support pairs in the two blocks lie in the invariant
    v = decide_sigma(T(3), sphere_point(torus_character(3, [1, 0, -1], [0, 1, -1])))
    assert v.membership == IN_SIGMA1


def test_decide_full_braid_and_small_groups():
    from sigmabraid.characters import character
    for surface, coords in (("T", {"a": 1, "b": 0}), ("K", {"b": 1}), ("D", {"s": 1})):
        g = GroupContext("B", surface, 3)
        v = decide_sigma(g, sphere_point(character(g, coords)))
        assert v.membership == IN_SIGMA1
    v = decide_sigma(T(1), sphere_point(torus_character(1, [1], [0])))
    assert v.membership == IN_SIGMA1
    v = decide_sigma(K(1), sphere_point(klein_character(1, [1])))
    assert v.membership == IN_SIGMA1


def test_empty_spheres():
    for g in (GroupContext("B", "S2", 3), GroupContext("B", "RP2", 3),
              GroupContext("P", "RP2", 3), GroupContext("P", "S2", 2),
              GroupContext("B", "D", 1)):
        v = decide_sigma(g)
        assert v.membership == EMPTY_SPHERE
        with pytest.raises(DomainError):
            decide_sigma(g, sphere_point(klein_character(2, [1, 0])))


def test_whole_sphere_case():
    v = decide_sigma(S2(3), sphere_point(sphere_character(3, {(1, 3): 1})))
    assert v.membership == IN_COMPLEMENT and v.witness == WholeSphere()
    enum = enumerate_complement(S2(3))
    assert enum.whole_sphere and enum.count == 0


def test_unsupported_groups():
    with pytest.raises(DomainError):
        GroupContext("P", "H2", 3)
    with pytest.raises(UnsupportedGroupError):
        decide_sigma(GroupContext("P", "D", 3))


def test_enumeration_counts():
    for n in range(2, 7):
        assert enumerate_complement(T(n)).count == math.comb(n, 2)
        assert enumerate_complement(K(n)).count == 2 * math.comb(n, 2)
    for n in range(4, 8):
        assert enumerate_complement(S2(n)).count == math.comb(n, 3) + math.comb(n, 4)
    assert enumerate_complement(GroupContext("B", "T", 4)).count == 0
    assert enumerate_complement(GroupContext("B", "S2", 4)).count == 0


def test_enumeration_is_sorted_and_typed():
    enum = enumerate_complement(K(3))
    assert [((d.i, d.j)) for d in enum.descriptors] == \
        [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    enum = enumerate_complement(S2(4))
    kinds = [type(d) for d in enum.descriptors]
    assert kinds == [P3Circle] * 4 + [P4Circle]
    assert enumerate_complement(T(4)).descriptors[0] == TorusCircle(1, 2)


def test_enumeration_yields_pieces_in_key_order():
    # the CLI prints the pieces in the order they come
    for family, surface in _FAMILIES:
        for n in range(1, 8):
            keys = [d.key() for d in enumerate_complement(GroupContext(family, surface, n)).descriptors]
            assert keys == sorted(keys), (family, surface, n)


def test_piece_keys_reprs_and_hashes():
    # the keys sort the pieces and name them in the CLI output; demo 03
    # prints the reprs
    pieces = [(TorusCircle(1, 3), ("TorusCircle", 1, 3), "TorusCircle(i=1, j=3)"),
              (KleinPoint(3, 1), ("KleinPoint", 3, 1), "KleinPoint(i=3, j=1)"),
              (P3Circle(1, 2, 4), ("P3Circle", 1, 2, 4), "P3Circle(i=1, j=2, k=4)"),
              (P4Circle(1, 2, 3, 5), ("P4Circle", 1, 2, 3, 5), "P4Circle(i=1, j=2, k=3, l=5)"),
              (WholeSphere(), ("WholeSphere",), "WholeSphere()")]
    for piece, key, text in pieces:
        assert piece.key() == key and repr(piece) == text
        assert piece == type(piece)(*key[1:]) and hash(piece) == hash(type(piece)(*key[1:]))
    assert TorusCircle(1, 2) != KleinPoint(1, 2)
    assert len({piece for piece, _, _ in pieces} | {KleinPoint(1, 3)}) == 6


def _torus_point(n, i, j, p, q):
    a = [0] * n
    b = [0] * n
    a[i - 1], a[j - 1] = p, -p
    b[i - 1], b[j - 1] = q, -q
    return sphere_point(torus_character(n, a, b))


def _klein_point(n, i, j):
    b = [0] * n
    b[i - 1], b[j - 1] = 1, -1
    return sphere_point(klein_character(n, b))


def test_act_permutation_examples():
    pt = sphere_point(klein_character(3, [1, -1, 0]))
    out = act_permutation(K(3), (2, 1, 3), pt)
    assert out.coords == (-1, 1, 0)

    pt = sphere_point(torus_character(2, [1, -1], [2, -2]))
    out = act_permutation(T(2), (2, 1), pt)
    assert out.coords == (-1, 1, -2, 2)

    assert act_permutation(K(3), (1, 2, 3), sphere_point(klein_character(3, [1, -1, 0]))).coords \
        == (1, -1, 0)


@pytest.mark.parametrize("tau", [(2.0, 1.0), [2, "1"], (True, 2)])
def test_act_permutation_refuses_entries_that_are_not_ints(tau):
    # a float once escaped as a TypeError from indexing, a string as one
    # from sorted, and True was read as the strand 1
    with pytest.raises(DomainError) as err:
        act_permutation(K(2), tau, _klein_point(2, 1, 2))
    assert str(err.value) == f"{tau!r} is not a permutation of 1..2"


def test_act_permutation_needs_a_strand_block_point_of_its_group():
    with pytest.raises(UnsupportedGroupError) as err:
        act_permutation(S2(4), (1, 2, 3, 4), sphere_point(sphere_character(4, {(1, 3): 1})))
    assert str(err.value) == ("P_4(S2): permutation action implemented for torus and "
                              "Klein-bottle pure groups only")
    with pytest.raises(DomainError) as err:
        act_permutation(K(2), (2, 1), _torus_point(2, 1, 2, 1, 0))
    assert str(err.value) == "point lives on P_2(T), not on P_2(K)"


def test_act_permutation_is_a_group_action():
    rng = random.Random(2)
    n = 4
    pt = sphere_point(torus_character(n, [1, 2, -3, 0], [0, -1, 1, 0]))
    for _ in range(20):
        s = list(range(1, n + 1))
        t = list(range(1, n + 1))
        rng.shuffle(s)
        rng.shuffle(t)
        st_perm = [s[t[i] - 1] for i in range(n)]
        one = act_permutation(T(n), st_perm, pt)
        two = act_permutation(T(n), t, act_permutation(T(n), s, pt))
        assert one == two


def test_complement_invariance_exhaustive_small_n():
    for n in (2, 3, 4):
        for tau in permutations(range(1, n + 1)):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    v = decide_sigma(K(n), act_permutation(K(n), tau, _klein_point(n, i, j)))
                    assert v.membership == IN_COMPLEMENT
            for (i, j) in [(1, 2), (1, n), (n - 1, n)]:
                if i == j:
                    continue
                pt = _torus_point(n, min(i, j), max(i, j), 2, -3)
                v = decide_sigma(T(n), act_permutation(T(n), tau, pt))
                assert v.membership == IN_COMPLEMENT


def test_antipodal_symmetry():
    samples = [
        (T(3), _torus_point(3, 1, 3, 1, 2)),
        (T(4), sphere_point(torus_character(4, [1, 0, 0, 0], [0, 0, 0, 0]))),
        (K(3), _klein_point(3, 2, 3)),
        (K(3), sphere_point(klein_character(3, [1, 1, -2]))),
        (S2(4), sphere_point(sphere_character(4, {(1, 3): 1, (2, 3): -1}))),
    ]
    for group, pt in samples:
        assert decide_sigma(group, pt).membership == decide_sigma(group, -pt).membership


def test_torus_witnesses_are_unique():
    # every enumerated torus circle, sampled at several parameters, decides
    # InComplement with its own strands and (p, q) as witness
    for n in range(2, 9):
        circles = enumerate_complement(T(n)).descriptors
        assert [(c.i, c.j) for c in circles] == list(combinations(range(1, n + 1), 2))
        for c in circles:
            for (p, q) in ((1, 0), (0, 1), (1, -1), (2, 3), (2, -3)):
                v = decide_sigma(T(n), _torus_point(n, c.i, c.j, p, q))
                assert v.membership == IN_COMPLEMENT
                assert v.witness == (c.i, c.j, p, q)


def test_klein_witnesses_are_unique():
    # every enumerated Klein point decides InComplement with its own ordered
    # pair, the strand of +1 first, as witness
    for n in range(2, 9):
        points = enumerate_complement(K(n)).descriptors
        assert sorted((d.i, d.j) for d in points) == sorted(permutations(range(1, n + 1), 2))
        for d in points:
            v = decide_sigma(K(n), _klein_point(n, d.i, d.j))
            assert (v.membership, v.witness) == (IN_COMPLEMENT, (d.i, d.j))


def test_sphere_circles_are_disjoint():
    # every enumerated circle, sampled at several parameters, matches only
    # its own descriptor (decide_sigma would raise on a double match)
    for n in (4, 5, 6):
        for desc in enumerate_complement(S2(n)).descriptors:
            for (p, q) in ((1, 0), (0, 1), (1, -1), (2, 3)):
                values = {}
                if isinstance(desc, P3Circle):
                    i, j, k = desc.i, desc.j, desc.k
                    values[(i, k)] = p
                    values[(j, k)] = q
                    if (i, j) != (1, 2):
                        values[(i, j)] = -(p + q)
                else:
                    i, j, k, l = desc.i, desc.j, desc.k, desc.l
                    values[(i, k)] = values[(j, l)] = p
                    values[(i, l)] = values[(j, k)] = q
                    values[(k, l)] = -(p + q)
                    if (i, j) != (1, 2):
                        values[(i, j)] = -(p + q)
                values = {key: v for key, v in values.items() if v != 0}
                if not values:
                    continue
                v = decide_sigma(S2(n), sphere_point(sphere_character(n, values)))
                assert v.membership == IN_COMPLEMENT and v.witness == desc, (desc, p, q)


def test_center_shortcut_is_consistent():
    # nonzero block sum forces membership, and no pattern can match
    v = decide_sigma(T(2), sphere_point(torus_character(2, [1, 0], [0, 0])))
    assert v.membership == IN_SIGMA1 and "center" in v.justification
    v = decide_sigma(K(4), sphere_point(klein_character(4, [1, 1, 1, 1])))
    assert v.membership == IN_SIGMA1 and "center" in v.justification


def test_pushforward_coherence():
    # a complement point vanishes off its witness strands, and its
    # coordinates there, sliced out of the strand blocks, give a complement
    # point of the 2-strand group
    pt = _torus_point(5, 2, 4, 3, -1)
    v = decide_sigma(T(5), pt)
    i, j, p, q = v.witness
    a, b = strand_blocks(pt)
    assert not any(block[s - 1] for block in (a, b) for s in range(1, 6) if s not in (i, j))
    small = torus_character(2, [a[i - 1], a[j - 1]], [b[i - 1], b[j - 1]])
    assert decide_sigma(T(2), sphere_point(small)).membership == IN_COMPLEMENT

    ptk = _klein_point(4, 3, 1)
    v = decide_sigma(K(4), ptk)
    _, b = strand_blocks(ptk)
    kept = sorted(v.witness)
    assert not any(b[s - 1] for s in range(1, 5) if s not in kept)
    small = klein_character(2, [b[s - 1] for s in kept])
    assert decide_sigma(K(2), sphere_point(small)).membership == IN_COMPLEMENT


def test_r_infinity_certificates():
    for n in range(2, 7):
        cert = r_infinity_certificate(n, matrix=[[int(i == j) for j in range(n)] for i in range(n)])
        assert cert.certified
        assert cert.index_bound == math.factorial(2 * math.comb(n, 2))

    cert = r_infinity_certificate(3, matrix=[[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not cert.certified and cert.index_bound == 720
    assert len(cert.moved_points()) == 6

    cert = r_infinity_certificate(2, matrix=[[-1, 0], [0, -1]])
    assert not cert.certified

    with pytest.raises(DomainError, match="invertible"):
        r_infinity_certificate(2, matrix=[[2, 0], [0, 1]])
    with pytest.raises(DomainError, match="preserve"):
        r_infinity_certificate(2, matrix=[[1, 1], [0, 1]])


@pytest.mark.parametrize("matrix, message", [
    # the column difference (1, 1) is no opposite unit pair
    ([[1, 0], [0, -1]],
     "matrix does not preserve the complement: point (1, 2) maps to coordinates [1, 1]"),
    ([[0, 0], [0, 1]], "matrix is not invertible over the integers (det=0)"),
    ([[1, 0], [0]], "matrix must be 2x2"),
])
def test_r_infinity_refuses_bad_matrices(matrix, message):
    with pytest.raises(DomainError) as err:
        r_infinity_certificate(2, matrix=matrix)
    assert str(err.value) == message


@pytest.mark.parametrize("matrix, message", [
    ([[1, 0], [0, 1.5]], "matrix entry [1][1] must be an integer, got 1.5"),
    ([[True, 0], [0, 1]], "matrix entry [0][0] must be an integer, got True"),
    ([["1", "0"], ["0", "1"]], "matrix entry [0][0] must be an integer, got '1'"),
    (5, "matrix must be a list of rows, got 5"),
    ([5, 6], "matrix row 0 must be a list, got 5"),
])
def test_r_infinity_matrix_must_hold_integers(matrix, message):
    # a float, bool or string entry is not truncated or converted into an
    # integer, and a matrix that is not a list of rows is not iterated
    with pytest.raises(DomainError) as err:
        r_infinity_certificate(2, matrix=matrix)
    assert str(err.value) == message


def test_r_infinity_point_permutation_input():
    points = [(d.i, d.j) for d in enumerate_complement(K(2)).descriptors]
    ident = {p: p for p in points}
    cert = r_infinity_certificate(2, point_permutation=ident)
    assert cert.certified and cert.index_bound == 2
    swap = {points[0]: points[1], points[1]: points[0]}
    assert not r_infinity_certificate(2, point_permutation=swap).certified
    with pytest.raises(DomainError):
        r_infinity_certificate(2, point_permutation={points[0]: points[0]})


@pytest.mark.parametrize("n, perm, message", [
    (2, [1], "point_permutation must be a dict, got list"),
    (2, {(1, 2): 5}, "point_permutation: 5 is not a complement point of P_2(K)"),
    (2, {(1, 2): (1, 2), 7: (1, 2)}, "point_permutation: 7 is not a complement point of P_2(K)"),
    (2.5, {}, "n must be an integer, got 2.5"),
    ("3", {}, "n must be an integer, got '3'"),
    (2, {(1, 2): (2, True), (2, 1): (1, 2)},
     "point_permutation: (2, True) is not a complement point of P_2(K)"),
    (2, {(1, 2): (1.0, 2.0), (2, 1): (2, 1)},
     "point_permutation: (1.0, 2.0) is not a complement point of P_2(K)"),
])
def test_r_infinity_rejects_malformed_input(n, perm, message):
    # each of these once escaped as an AttributeError or a TypeError, but
    # for the bool and float points: they compare equal to complement
    # points, so they were accepted and (2, True) was printed back
    with pytest.raises(DomainError) as err:
        r_infinity_certificate(n, point_permutation=perm)
    assert str(err.value) == message


def test_r_infinity_never_enumerates_the_complement(monkeypatch):
    # points are index pairs, so neither a certificate nor a refusal
    # builds the list of complement points
    import sigmabraid.sigma as sigma

    def refuse(group):
        raise AssertionError(f"enumerated the complement of {group}")

    monkeypatch.setattr(sigma, "enumerate_complement", refuse)
    cert = r_infinity_certificate(3, matrix=[[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not cert.certified and len(cert.moved_points()) == 6
    ident = {(i, j): (i, j) for i, j in permutations(range(1, 4), 2)}
    assert r_infinity_certificate(3, point_permutation=ident).certified
    with pytest.raises(DomainError) as err:
        r_infinity_certificate(600, point_permutation={})
    assert str(err.value) == "point_permutation must be a bijection of the 359400 complement points"


def test_commutator_fg_flags():
    expected = {("T", 1): True, ("K", 1): True, ("S2", 1): True,
                ("S2", 2): True, ("S2", 3): True}
    for surface in ("T", "K", "S2"):
        for n in range(1, 7):
            flag = commutator_fg_flag(GroupContext("P", surface, n))
            assert flag == expected.get((surface, n), False)
    with pytest.raises(UnsupportedGroupError):
        commutator_fg_flag(GroupContext("B", "T", 2))


def test_sphere_is_empty_reads_the_layout():
    # whether the sphere is empty comes from the record's free rank formula
    # without building the abelianization; it must agree with its free rank
    for family, surface in _FAMILIES:
        for n in range(1, 10):
            group = GroupContext(family, surface, n)
            assert (group._record.rank(n) == 0) == (abelianization(group).free_rank == 0), group


def test_a_point_is_required_without_building_the_abelianization(monkeypatch):
    # P_1000000(T) has two million free coordinates; refusing to decide
    # without a point must not lay them out
    import sigmabraid.sigma as sigma

    def refuse(group):
        raise AssertionError(f"built the abelianization of {group}")

    monkeypatch.setattr(sigma, "abelianization", refuse)
    for group in (T(1000000), K(1000000), S2(1000000)):
        with pytest.raises(DomainError) as err:
            decide_sigma(group)
        assert str(err.value) == f"{group} has a nonempty sphere; a point is required"


# ---------------------------------------------------------------------------
# Differential check against the label-keyed sphere decision
#
# The reference below is the sphere decision as it stood before the circle
# systems became one table: it reads each coordinate through its "A[i,j]"
# label and states both circle systems by hand.  Any later decision, such
# as one that draws its candidates from the point's support, must agree
# with it on membership, witness and cite.

def _reference_coord(pt, i, j):
    return pt.coords[pt.spec.positions[f"A[{i},{j}]"]]


def _reference_p3(pt, n, i, j, k):
    inside = {(i, j), (i, k), (j, k)}
    for r, s in combinations(range(1, n + 1), 2):
        if {r, s} != {1, 2} and (r, s) not in inside and _reference_coord(pt, r, s) != 0:
            return None
    p = _reference_coord(pt, i, k)
    q = _reference_coord(pt, j, k)
    if (i, j) != (1, 2) and _reference_coord(pt, i, j) != -(p + q):
        return None
    return (p, q)


def _reference_p4(pt, n, i, j, k, l):
    inside = {(i, j), (i, k), (i, l), (j, k), (j, l), (k, l)}
    for r, s in combinations(range(1, n + 1), 2):
        if {r, s} != {1, 2} and (r, s) not in inside and _reference_coord(pt, r, s) != 0:
            return None
    p = _reference_coord(pt, i, k)
    q = _reference_coord(pt, i, l)
    if _reference_coord(pt, j, l) != p or _reference_coord(pt, j, k) != q:
        return None
    if _reference_coord(pt, k, l) != -(p + q):
        return None
    if (i, j) != (1, 2) and _reference_coord(pt, i, j) != -(p + q):
        return None
    return (p, q)


def _reference_decision(pt, n):
    """(membership, witness key, cite) of the label-keyed subset scan."""
    matches = []
    for i, j, k in combinations(range(1, n + 1), 3):
        pq = _reference_p3(pt, n, i, j, k)
        if pq is not None:
            matches.append((P3Circle(i, j, k), pq))
    for i, j, k, l in combinations(range(1, n + 1), 4):
        pq = _reference_p4(pt, n, i, j, k, l)
        if pq is not None:
            matches.append((P4Circle(i, j, k, l), pq))
    assert len(matches) <= 1, matches
    if matches:
        return (IN_COMPLEMENT, matches[0][0].key(), "matched one circle system exactly")
    return (IN_SIGMA1, None, "no circle system matches")


def _circle_values(rng, n, size):
    """A point on a random P3 (size 3) or P4 circle, a third of them on
    strands through 1 and 2, whose pair has no coordinate."""
    if rng.random() < 1 / 3:
        strands = (1, 2, *sorted(rng.sample(range(3, n + 1), size - 2)))
    else:
        strands = tuple(sorted(rng.sample(range(1, n + 1), size)))
    p, q = rng.choice([(p, q) for p in range(-3, 4) for q in range(-3, 4) if (p, q) != (0, 0)])
    if size == 3:
        i, j, k = strands
        values = {(i, k): p, (j, k): q, (i, j): -(p + q)}
    else:
        i, j, k, l = strands
        values = {(i, k): p, (j, l): p, (i, l): q, (j, k): q, (k, l): -(p + q), (i, j): -(p + q)}
    values.pop((1, 2), None)
    return values


def _random_sphere_values(rng, n, kind):
    pairs = [(i, j) for i, j in combinations(range(1, n + 1), 2) if (i, j) != (1, 2)]
    if kind in ("p3", "p4"):
        return _circle_values(rng, n, int(kind[1]))
    if kind in ("p3-moved", "p4-moved"):
        values = _circle_values(rng, n, int(kind[1]))
        pair = rng.choice(pairs)
        values[pair] = values.get(pair, 0) + rng.choice((-1, 1))
        return values
    if kind == "sparse":
        return {pair: rng.choice((-2, -1, 1, 2, 3)) for pair in rng.sample(pairs, rng.randint(1, 5))}
    return {pair: rng.randint(-3, 3) for pair in pairs}  # dense


def test_sphere_decision_matches_the_label_keyed_reference():
    rng = random.Random(20251)
    kinds = ("p3", "p4", "p3-moved", "p4-moved", "sparse", "dense")
    seen = {IN_COMPLEMENT: 0, IN_SIGMA1: 0}
    points = 0
    for n in range(4, 12):
        for t in range(264):
            values = _random_sphere_values(rng, n, kinds[t % len(kinds)])
            if not any(values.values()):
                continue
            pt = sphere_point(sphere_character(n, values))
            v = decide_sigma(S2(n), pt)
            got = (v.membership, v.witness.key() if v.witness else None, v.justification)
            assert got == _reference_decision(pt, n), (n, values)
            seen[v.membership] += 1
            points += 1
    assert points >= 2000
    assert min(seen.values()) >= 600, seen


class _ScanReached(Exception):
    pass


def test_a_point_on_five_strands_is_decided_before_the_circle_scan(monkeypatch):
    # every circle lies on at most four strands, so a point whose nonzero
    # coordinates touch a fifth is decided in the one read of its coordinates,
    # with no call of _match_circle.  A point on four strands still reaches
    # the scan, which the counting wrapper stops at its first call: at n = 64
    # the whole scan matches 677,040 strand subsets
    from sigmabraid import sigma

    calls = []

    def counting(coords, strands, cells):
        calls.append(strands)
        raise _ScanReached

    monkeypatch.setattr(sigma, "_match_circle", counting)
    n = 64
    rng = random.Random(3164)
    pairs = [(i, j) for i, j in combinations(range(1, n + 1), 2) if (i, j) != (1, 2)]
    dense = {pair: rng.choice((-3, -2, -1, 1, 2, 3)) for pair in pairs}
    five = {(10, 20): 1, (20, 30): -2, (30, 40): 1, (40, 64): 3}  # the fifth strand comes last
    for values in (dense, five):
        v = decide_sigma(S2(n), sphere_point(sphere_character(n, values)))
        assert (v.membership, v.witness, v.justification) == (IN_SIGMA1, None, "no circle system matches")
    assert calls == []
    i, j, k, l, p, q = 5, 17, 40, 64, 2, -1
    p4 = {(i, k): p, (j, l): p, (i, l): q, (j, k): q, (k, l): -(p + q), (i, j): -(p + q)}
    with pytest.raises(_ScanReached):
        decide_sigma(S2(n), sphere_point(sphere_character(n, p4)))
    assert calls == [(1, 2, 3)]


# ---------------------------------------------------------------------------
# Strand permutations of P_{n+1}(S2)
#
# The paper's permutation-invariance argument on the sphere: the pure braid
# group's complement is a union of pieces that the n+1 strands permute.  The
# free coordinates leave out A[1,2] and every A[k,n+1], so a point is lifted
# to every strand pair before its strands are permuted; a P3 circle on
# i < j < k is then the lifted four-strand circle on {i, j, k, n+1}.

def _lift(n, values):
    """A point of P_{n+1}(S2) given on its free coordinates, on every strand
    pair: A[1,2] = -(sum of the free coordinates), and A[k,n+1] = -(sum of
    A[k,j] over j <= n, j != k), the relation at strand k."""
    full = {pair: values.get(pair, 0) for pair in combinations(range(1, n + 1), 2) if pair != (1, 2)}
    full[1, 2] = -sum(full.values())
    for k in range(1, n + 1):
        full[k, n + 1] = -sum(full[min(j, k), max(j, k)] for j in range(1, n + 1) if j != k)
    return full


def _lifted_strands(piece, n):
    if isinstance(piece, P3Circle):
        return {piece.i, piece.j, piece.k, n + 1}
    assert isinstance(piece, P4Circle), piece
    return {piece.i, piece.j, piece.k, piece.l}


def _check_sphere_decision_under_strand_permutations():
    rng = random.Random(2608)
    kinds = ("p3", "p4", "p3-moved", "p4-moved", "dense")
    seen = {IN_COMPLEMENT: 0, IN_SIGMA1: 0}
    for n in range(4, 10):
        spec = abelianization(S2(n))
        for t in range(40):
            kind = kinds[t % len(kinds)]
            values = _random_sphere_values(rng, n, kind)
            if not any(values.values()):
                continue
            full = _lift(n, values)
            for k in range(1, n + 2):  # every strand's relation holds on the lift
                assert sum(v for pair, v in full.items() if k in pair) == 0
            images = rng.sample(range(1, n + 2), n + 1)
            sigma = dict(zip(range(1, n + 2), images))
            moved = {tuple(sorted((sigma[i], sigma[j]))): v for (i, j), v in full.items()}
            free = [moved[pair] for pair in combinations(range(1, n + 1), 2) if pair != (1, 2)]
            g = math.gcd(*free)
            before = decide_sigma(S2(n), sphere_point(sphere_character(n, values)))
            after = decide_sigma(S2(n), SpherePoint(spec, tuple(v // g for v in free)))
            assert before.membership == after.membership, (n, values, images)
            seen[before.membership] += 1
            if kind in ("p3", "p4"):
                assert before.membership == IN_COMPLEMENT, (n, values)
            if before.membership == IN_COMPLEMENT:
                strands = _lifted_strands(before.witness, n)
                assert {s for pair, v in full.items() if v for s in pair} == strands
                assert _lifted_strands(after.witness, n) == {sigma[s] for s in strands}, \
                    (n, values, images)
    assert min(seen.values()) >= 60, seen


def test_sphere_decision_commutes_with_strand_permutations():
    _check_sphere_decision_under_strand_permutations()


def _moved_coefficient(rows, r, c, f, d):
    """The table with coefficient f (1: of p, 2: of q) of cell c in row r moved by d."""
    piece, size, cells = rows[r]
    cells = tuple((pair, cp + d * (f == 1), cq + d * (f == 2)) if k == c else (pair, cp, cq)
                  for k, (pair, cp, cq) in enumerate(cells))
    return tuple((piece, size, cells) if k == r else row for k, row in enumerate(rows))


_TABLE_MUTANTS = {
    "drop-p3": lambda rows: rows[1:],
    "drop-p4": lambda rows: rows[:1],
    **{f"p{r + 3}-cell{c}-{'pq'[f - 1]}{d:+d}": partial(_moved_coefficient, r=r, c=c, f=f, d=d)
       for r, cells in ((0, 3), (1, 6)) for c in range(cells) for f in (1, 2) for d in (-1, 1)},
}


@pytest.mark.parametrize("mutant", sorted(_TABLE_MUTANTS))
def test_the_permutation_check_catches_a_broken_circle_table(monkeypatch, mutant):
    # each mutant fails by a membership or witness mismatch, or by the
    # decision's disjointness AssertionError
    from sigmabraid import sigma

    monkeypatch.setattr(sigma, "_CIRCLES", _TABLE_MUTANTS[mutant](sigma._CIRCLES))
    with pytest.raises(AssertionError):
        _check_sphere_decision_under_strand_permutations()


def test_the_sphere_complement_counts_four_strand_subsets():
    # one circle per four of the n+1 strands: C(n,3) P3 circles through
    # strand n+1 and C(n,4) P4 circles
    for n in range(4, 13):
        assert enumerate_complement(S2(n)).count == math.comb(n + 1, 4)


# ---------------------------------------------------------------------------
# Differential check against the hand-written torus and Klein-bottle matchers
#
# The reference below is the P_n(T) and P_n(K) decision as it stood before
# the support rule: one matcher per surface, with the Klein matcher's test
# for an opposite unit pair, and one branch per surface.  The support rule
# must agree with it on membership, witness and cite, and the r-infinity
# check, which ran the Klein matcher on every column difference, on the
# mapping or on the refusal.

def _reference_match_torus(a, b):  # both block sums are 0 here
    support = [i for i in range(len(a)) if a[i] != 0 or b[i] != 0]
    if len(support) != 2:
        return None
    i, j = support
    return (i + 1, j + 1, a[i], b[i])


def _reference_match_klein(b):
    support = [i for i in range(len(b)) if b[i] != 0]
    if len(support) != 2:
        return None
    i, j = support
    if sorted((b[i], b[j])) != [-1, 1]:
        return None
    return (i + 1, j + 1) if b[i] == 1 else (j + 1, i + 1)


def _reference_pair_decision(surf, n, pt):
    """(membership, witness, cite) of the matcher branches."""
    if surf == "T":
        if n == 1:
            return (IN_SIGMA1, None, "abelian group, full invariant")
        a, b = strand_blocks(pt)
        if sum(a) != 0 or sum(b) != 0:
            return (IN_SIGMA1, None, "character does not vanish on the center")
        witness = _reference_match_torus(a, b)
        if witness is None:
            return (IN_SIGMA1, None, "no paired-strand pattern matches")
        return (IN_COMPLEMENT, witness,
                "paired strands i,j with opposite (p,q) weights, zero elsewhere")
    if n == 1:
        return (IN_SIGMA1, None, "virtually abelian group, full invariant")
    _, b = strand_blocks(pt)
    if sum(b) != 0:
        return (IN_SIGMA1, None, "character does not vanish on the center")
    witness = _reference_match_klein(b)
    if witness is None:
        return (IN_SIGMA1, None, "no opposite-unit-pair pattern matches")
    return (IN_COMPLEMENT, witness, "opposite unit weights on strands i,j, zero elsewhere")


_PAIR_CHARACTERS = {"T": torus_character, "K": klein_character}


def _random_pair_blocks(rng, n, surf, strands, centre_free):
    """The blocks of a P_n(T) or P_n(K) character whose coordinates are
    drawn on ``strands`` strands (every strand when it is None); a
    centre-free one has each block summing to 0."""
    chosen = range(n) if strands is None else rng.sample(range(n), min(n, strands))
    blocks = []
    for _ in range(2 if surf == "T" else 1):  # the a and b blocks, or b alone
        block = [0] * n
        for s in chosen:
            block[s] = rng.randint(-3, 3)
        if centre_free:
            block[chosen[-1]] -= sum(block)
        blocks.append(block)
    return blocks


def test_pair_decision_matches_the_matcher_reference():
    rng = random.Random(33)
    cites = {"T": set(), "K": set()}
    members = {"T": 0, "K": 0}
    points = 0
    for surf, group in (("T", T), ("K", K)):
        for n in range(1, 13):
            for t in range(60):
                strands = (1, 2, 3, 4, None)[t % 5]
                blocks = _random_pair_blocks(rng, n, surf, strands, centre_free=t % 10 < 5)
                if not any(map(any, blocks)):
                    continue
                pt = sphere_point(_PAIR_CHARACTERS[surf](n, *blocks))
                for point in (pt, -pt):
                    v = decide_sigma(group(n), point)
                    got = (v.membership, v.witness, v.justification)
                    assert got == _reference_pair_decision(surf, n, point), (surf, n, point.coords)
                    cites[surf].add(v.justification)
                    members[surf] += v.membership == IN_COMPLEMENT
                    points += 1
    assert points >= 2000
    assert all(len(seen) == 4 for seen in cites.values()), cites
    assert min(members.values()) >= 150, members


def _reference_r_infinity(n, rows):
    """(induced, certified) of the matcher-based r-infinity check, or the
    DomainError text of its refusal."""
    mapping = {}
    for i, j in permutations(range(1, n + 1), 2):
        vec = [row[i - 1] - row[j - 1] for row in rows]
        image = _reference_match_klein(vec)
        if image is None:
            return (f"matrix does not preserve the complement: point {(i, j)} "
                    f"maps to coordinates {vec}")
        mapping[(i, j)] = image
    return tuple(sorted(mapping.items())), all(src == dst for src, dst in mapping.items())


def _random_unimodular(rng, n):
    """A signed permutation matrix times up to three elementary matrices
    E_ij(+-1), so its determinant is +-1."""
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1))] * n if rng.random() < 0.5 else [rng.choice((-1, 1)) for _ in range(n)]
    m = [[signs[c] if perm[c] == r else 0 for c in range(n)] for r in range(n)]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((-1, 1))
        for row in m:  # right multiplication by E_ij(e): column j += e * column i
            row[j] += e * row[i]
    return m


def test_r_infinity_matches_the_matcher_reference():
    rng = random.Random(3301)
    outcomes = {"certified": 0, "moved": 0, "refused": 0}
    for n in range(2, 7):
        for _ in range(120):
            rows = _random_unimodular(rng, n)
            expected = _reference_r_infinity(n, rows)
            try:
                cert = r_infinity_certificate(n, matrix=rows)
            except DomainError as err:
                assert str(err) == expected, rows
                outcomes["refused"] += 1
                continue
            assert (cert.induced, cert.certified) == expected, rows
            outcomes["certified" if cert.certified else "moved"] += 1
    assert min(outcomes.values()) >= 10, outcomes


# ---------------------------------------------------------------------------
# Differential check against the per-family dispatch
#
# The references below are the dispatch chains that stated each family's
# facts before the family records: the abelianization's branch per
# (family, surface), the letter kinds of a context, the rule that places a
# letter, and the hand table of finite-generation flags.  The records must
# agree with them at every n.

def _reference_abelianization(fam, surf, n):
    strands = range(1, n + 1)
    torsion_a = tuple((f"a{i}", 2) for i in strands)
    if fam == "P":
        if surf == "T":
            return tuple(f"{x}{i}" for x in "ab" for i in strands), ()
        if surf == "K":
            return tuple(f"b{i}" for i in strands), torsion_a
        if surf == "S2":
            return tuple(f"A[{i},{j}]" for i in strands for j in strands
                         if i < j and (i, j) != (1, 2)), ()
        if surf == "RP2":
            return (), torsion_a
    else:
        if surf == "T":
            return ("a", "b"), (("s", 2),)
        if surf == "K":
            return ("b",), (("s", 2), ("a", 2))
        if surf == "D":
            return ("s",) if n >= 2 else (), ()
        if surf == "S2":
            return (), (("s", 2 * (n - 1)),) if n >= 2 else ()
        if surf == "RP2":
            return (), (("s", 2), ("a", 2))
    raise DomainError(f"no abelianization table for {GroupContext(fam, surf, n)}")


def _reference_kinds(fam, surf):
    if surf in ("T", "K"):
        return ("a", "b", "C") if fam == "P" else ("a", "b", "C", "s")
    if surf == "D":
        if fam == "P":
            raise DomainError("pure disc braid words are not supported")
        return ("s", "D")
    if surf == "S2":
        return ("A",) if fam == "P" else ("s",)
    return ("a",) if fam == "P" else ("s", "a")


def _reference_slots(labels, fam, n, s):
    if fam == "P":
        label, coeff = s.label, 1
    elif s.kind == "C":
        label, coeff = "s", 2
    elif s.kind == "D":
        label, coeff = "s", n * (n - 1)
    else:
        label, coeff = s.kind, 1
    return [(labels.index(label), coeff)] if label in labels else []


_REFERENCE_FG_EXCEPTIONS = {("T", 1), ("K", 1), ("S2", 1), ("S2", 2), ("S2", 3)}


def _generators(kinds, n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for kind in kinds:
        if kind == "s":
            yield from (GeneratorSymbol("s", (i,)) for i in range(1, n))
        elif kind in ("a", "b"):
            yield from (GeneratorSymbol(kind, (i,)) for i in range(1, n + 1))
        elif kind == "C":
            yield from (GeneratorSymbol("C", p) for p in pairs)
        elif kind == "A":
            yield from (GeneratorSymbol("A", p) for p in pairs if p != (1, 2))
        else:
            yield GeneratorSymbol(kind)


def test_family_records_match_the_dispatch_they_replace():
    assert list(_FAMILIES) == [("P", "T"), ("P", "K"), ("P", "S2"), ("P", "RP2"), ("B", "T"),
                               ("B", "K"), ("B", "D"), ("B", "S2"), ("B", "RP2")]
    for (family, surface), record in _FAMILIES.items():
        kinds = _reference_kinds(family, surface)
        assert record.kinds == kinds, (family, surface)
        for n in range(1, 13):
            group = GroupContext(family, surface, n)
            free, torsion = _reference_abelianization(family, surface, n)
            spec = abelianization(group)
            assert (spec.free_labels, spec.torsion) == (free, torsion), group
            assert spec.free_rank == record.rank(n) == len(free), group
            labels = free + tuple(label for label, _ in torsion)
            for s in _generators(kinds, n):
                assert spec.slots(s) == _reference_slots(labels, family, n, s), (group, s)
    disc = GroupContext("P", "D", 3)
    with pytest.raises(DomainError, match=r"^pure disc braid words are not supported$"):
        parse_word("s1", disc)
    with pytest.raises(DomainError, match=r"^no abelianization table for P_3\(D\)$"):
        abelianization(disc)


def test_commutator_fg_flag_matches_the_hand_table():
    # read off the complement at 1..12 strands; P_1(S2) has no coordinate
    # bound, and a context built at bound 0 would raise
    for surface in ("T", "K", "S2"):
        for n in range(1, 13):
            flag = commutator_fg_flag(GroupContext("P", surface, n))
            assert flag == ((surface, n) in _REFERENCE_FG_EXCEPTIONS), (surface, n)
