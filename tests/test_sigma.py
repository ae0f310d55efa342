import math
import random
from itertools import permutations

import pytest

from sigmabraid.characters import (
    klein_character,
    sphere_character,
    sphere_point,
    strand_pushforward,
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
from sigmabraid.words import DomainError, GroupContext


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
    for n in (3, 4, 5, 6):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for (p, q) in ((1, 0), (0, 1), (1, -1), (2, 3)):
                    v = decide_sigma(T(n), _torus_point(n, i, j, p, q))
                    assert v.membership == IN_COMPLEMENT
                    assert v.witness == (i, j, p, q)


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
    pt = _torus_point(5, 2, 4, 3, -1)
    v = decide_sigma(T(5), pt)
    i, j, p, q = v.witness
    small = strand_pushforward(pt.character(), [i, j])
    assert decide_sigma(T(2), sphere_point(small)).membership == IN_COMPLEMENT

    ptk = _klein_point(4, 3, 1)
    v = decide_sigma(K(4), ptk)
    small = strand_pushforward(ptk.character(), sorted(v.witness))
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


def test_commutator_fg_flags():
    expected = {("T", 1): True, ("K", 1): True, ("S2", 1): True,
                ("S2", 2): True, ("S2", 3): True}
    for surface in ("T", "K", "S2"):
        for n in range(1, 7):
            flag = commutator_fg_flag(GroupContext("P", surface, n))
            assert flag == expected.get((surface, n), False)
    with pytest.raises(UnsupportedGroupError):
        commutator_fg_flag(GroupContext("B", "T", 2))
