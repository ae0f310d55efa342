"""
Exact membership decisions for the first BNS invariant of braid and pure
braid groups of the disc, sphere, projective plane, torus and Klein bottle.

Which groups are decided, whether a character sphere is empty and which
rule gives the complement of the invariant are read off the group's record
in ``words._FAMILIES``, the one statement of each family's facts.  The
complement is a finite union of explicit pieces, and each rule picks its
piece data here:

  "pairs"   on P_n(T) and P_n(K), by the surface's entry of ``_PAIRS``: the
            points that vanish on the centre (each strand block sums to 0)
            and touch exactly two strands i, j, each piece pulled back from
            P_2 along the map forgetting the other strands: one circle
            a_i = -a_j = p, b_i = -b_j = q per pair on T, two antipodal points
            b_i = -b_j = +-1 per pair on K (sphere points are primitive);
  "sphere"  on P_{n+1}(S2), coordinates A[i,j] addressed by strand pair: the
            whole sphere for n = 3, the circle systems of ``_CIRCLES`` for n >= 4;
  None      none: a character of a full braid group never vanishes on the centre.

``decide_sigma`` decides a canonical sphere point exactly (integer arithmetic,
no tolerances): by the support rule on T and K, and on the sphere by one
table, ``_CIRCLES``, of circle systems, shared with ``enumerate_complement``.
Every circle system lies on the pairs of at most four strands, so a sphere
point whose nonzero coordinates touch five or more strands is in the
invariant; the decision returns that verdict in its one read of the
coordinates and scans the circles only for a point on at most four strands.
The strand-permutation action on the sphere, the fixed-complement
certificate for twisted conjugacy, and the finite-generation flag for
commutator subgroups are the application layer over the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, islice, permutations
from typing import Sequence

from .characters import SpherePoint, abelianization, sphere_pairs, strand_blocks
from .words import DomainError, GroupContext, _Family

IN_SIGMA1 = "InSigma1"
IN_COMPLEMENT = "InComplement"
EMPTY_SPHERE = "EmptySphere"


class UnsupportedGroupError(DomainError):
    pass


@dataclass(frozen=True)
class SigmaVerdict:
    membership: str
    witness: object | None
    justification: str


class _Piece:
    """A complement piece; its key (class name, *fields) sorts and prints it."""

    def key(self) -> tuple:
        return (type(self).__name__, *vars(self).values())


@dataclass(frozen=True)
class TorusCircle(_Piece):
    i: int
    j: int


@dataclass(frozen=True)
class KleinPoint(_Piece):
    i: int
    j: int


@dataclass(frozen=True)
class P3Circle(_Piece):
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class P4Circle(_Piece):
    i: int
    j: int
    k: int
    l: int


@dataclass(frozen=True)
class WholeSphere(_Piece):
    pass


@dataclass(frozen=True)
class ComplementEnumeration:
    group: GroupContext
    descriptors: tuple
    whole_sphere: bool = False

    @property
    def count(self) -> int:
        return len(self.descriptors)


def _require_supported(group: GroupContext) -> _Family:
    """The group's record; a group without one is outside the computed families."""
    record = group._record
    if record is None:
        raise UnsupportedGroupError(f"{group}: outside the computed families")
    return record


def sphere_is_empty(group: GroupContext) -> bool:
    """Whether the character sphere is empty, by the record's free rank formula."""
    return _require_supported(group).rank(group.n) == 0


# ---------------------------------------------------------------------------
# The support rule, per surface: the piece class, the pair order that
# enumerate_complement lists, and the cites for n = 1, off the rule and on it.
_PAIRS = {
    "T": (TorusCircle, combinations, "abelian group, full invariant",
          "no paired-strand pattern matches",
          "paired strands i,j with opposite (p,q) weights, zero elsewhere"),
    "K": (KleinPoint, permutations, "virtually abelian group, full invariant",
          "no opposite-unit-pair pattern matches",
          "opposite unit weights on strands i,j, zero elsewhere"),
}


@cache  # compress over kept ints builds none per strand; count() builds one past 256
def _strands(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _decide_pair_case(surf: str, a: Sequence[int], b: Sequence[int]) -> SigmaVerdict:
    """The support rule on the blocks of P_n(T) or P_n(K), the a block empty on
    K.  Each coordinate is read at most once, each block up to its third
    nonzero one; the witness is (i, j, a_i, b_i) on T, the +1 strand first on K."""
    _, _, one_strand, no_match, matched = _PAIRS[surf]
    if len(b) == 1:
        return SigmaVerdict(IN_SIGMA1, None, one_strand)
    if sum(a) or sum(b):
        return SigmaVerdict(IN_SIGMA1, None, "character does not vanish on the center")
    strands = _strands(len(b))
    touched = {*islice(compress(strands, a), 3), *islice(compress(strands, b), 3)}
    if len(touched) != 2:
        return SigmaVerdict(IN_SIGMA1, None, no_match)
    i, j = sorted(touched)
    if a:
        return SigmaVerdict(IN_COMPLEMENT, (i + 1, j + 1, a[i], b[i]), matched)
    return SigmaVerdict(IN_COMPLEMENT, (i + 1, j + 1) if b[i] == 1 else (j + 1, i + 1), matched)


# The circle systems of P_{n+1}(S2), n >= 4 (Koban-McCammond-Meinert, Groups
# Geom. Dyn. 9, 2015): a piece class, the size of its strand subset s, and the
# subset's coordinates as (positions in s, coefficient of p, of q), the first
# two defining p and q.  P3 on i<j<k: (i,k) = p, (j,k) = q, (i,j) = -(p+q);
# P4 on i<j<k<l: (i,k) = (j,l) = p, (i,l) = (j,k) = q, (k,l) = (i,j) = -(p+q).
_CIRCLES = (
    (P3Circle, 3, (((0, 2), 1, 0), ((1, 2), 0, 1), ((0, 1), -1, -1))),
    (P4Circle, 4, (((0, 2), 1, 0), ((0, 3), 0, 1), ((1, 3), 1, 0), ((1, 2), 0, 1),
                   ((2, 3), -1, -1), ((0, 1), -1, -1))),
)


def _match_circle(coords: dict[tuple[int, int], int], strands: tuple[int, ...], cells):
    """(p, q) when the point is zero off ``cells`` on ``strands`` and each
    cell reads its p, q combination; the pair (1, 2) has no coordinate."""
    placed = [((strands[a], strands[b]), cp, cq) for (a, b), cp, cq in cells]
    inside = {pair for pair, _, _ in placed}
    for pair, v in coords.items():
        if v != 0 and pair not in inside:
            return None
    p, q = coords[placed[0][0]], coords[placed[1][0]]
    if any(pair in coords and coords[pair] != cp * p + cq * q for pair, cp, cq in placed):
        return None
    return (p, q)


def _decide_sphere_case(pt: SpherePoint, n: int) -> SigmaVerdict:
    """Read the point's coordinates in one pass, by strand pair: as soon as its
    nonzero coordinates touch a fifth strand, the point is in Sigma^1.  That
    test is exact, because a circle of ``_CIRCLES`` matches only a point that
    is zero off the pairs of one subset of at most four strands.  A point on
    at most four strands is matched on every circle of ``_CIRCLES``, the
    table that enumerate_complement lists: each 3-subset of strands, then
    each 4-subset, each scanning every coordinate."""
    coords: dict[tuple[int, int], int] = {}
    touched: set[int] = set()
    for pair, v in zip(sphere_pairs(n), pt.coords):
        coords[pair] = v
        if v:
            touched.update(pair)
            if len(touched) > 4:
                return SigmaVerdict(IN_SIGMA1, None, "no circle system matches")
    matches: list[tuple[object, tuple]] = []
    for piece, size, cells in _CIRCLES:
        for strands in combinations(range(1, n + 1), size):
            pq = _match_circle(coords, strands, cells)
            if pq is not None:
                matches.append((piece(*strands), pq))
    if len(matches) > 1:
        raise AssertionError(f"circle systems are not disjoint at {pt.coords}: {matches}")
    if matches:
        return SigmaVerdict(IN_COMPLEMENT, matches[0][0], "matched one circle system exactly")
    return SigmaVerdict(IN_SIGMA1, None, "no circle system matches")


def decide_sigma(group: GroupContext, pt: SpherePoint | None = None) -> SigmaVerdict:
    """Exact membership decision for a sphere point, canonical by
    construction (see SpherePoint).  A group with an empty character sphere
    takes no point and returns EmptySphere."""
    record, n = _require_supported(group), group.n
    if record.rank(n) == 0:
        if pt is not None:
            raise DomainError(f"{group} has an empty character sphere; no points exist")
        return SigmaVerdict(EMPTY_SPHERE, None, "torsion abelianization, no characters")
    if pt is None:
        raise DomainError(f"{group} has a nonempty sphere; a point is required")
    if pt.spec != abelianization(group):
        raise DomainError(f"point lives on {pt.spec.group}, not on {group}")
    if record.complement is None:
        return SigmaVerdict(IN_SIGMA1, None, "character does not vanish on the center")
    if record.complement == "pairs":
        return _decide_pair_case(group.surface, *strand_blocks(pt))
    # the sphere rule: a nonempty sphere means n >= 3
    if n == 3:
        return SigmaVerdict(IN_COMPLEMENT, WholeSphere(),
                            "free-group factor: the invariant is empty, the complement "
                            "is the whole sphere")
    return _decide_sphere_case(pt, n)


def enumerate_complement(group: GroupContext) -> ComplementEnumeration:
    """All complement pieces, sorted by key; exact counts per family."""
    record, n = _require_supported(group), group.n
    if record.complement is None or record.rank(n) == 0:
        return ComplementEnumeration(group, ())
    strands = range(1, n + 1)
    if record.complement == "pairs":
        piece, order = _PAIRS[group.surface][:2]
        descs = tuple(piece(i, j) for i, j in order(strands, 2))
    elif n == 3:  # the sphere rule: a nonempty sphere means n >= 3
        return ComplementEnumeration(group, (), whole_sphere=True)
    else:
        descs = tuple(piece(*s) for piece, size, _ in _CIRCLES for s in combinations(strands, size))
    return ComplementEnumeration(group, descs)


# ---------------------------------------------------------------------------
# Permutation action on the sphere

def _is_int(v) -> bool:
    """An int that is not a bool: True would pass as the strand 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_permutation(tau: Sequence[int], n: int) -> None:
    if not all(map(_is_int, tau)) or sorted(tau) != list(range(1, n + 1)):
        raise DomainError(f"{tau!r} is not a permutation of 1..{n}")


def act_permutation(group: GroupContext, tau: Sequence[int], pt: SpherePoint) -> SpherePoint:
    """Permute strand coordinates: new[i] = old[tau(i)], acting on both the
    a and b blocks for the torus and on the b block for the Klein bottle."""
    if group._record is None or not group._record.permutes:
        raise UnsupportedGroupError(f"{group}: permutation action implemented for "
                                    "torus and Klein-bottle pure groups only")
    n = group.n
    _check_permutation(tau, n)
    if pt.spec != abelianization(group):
        raise DomainError(f"point lives on {pt.spec.group}, not on {group}")
    coords = tuple(block[t - 1] for block in strand_blocks(pt) if block for t in tau)
    return SpherePoint(pt.spec, coords)


# ---------------------------------------------------------------------------
# Application layer

@dataclass(frozen=True)
class RInfinityCertificate:
    n: int
    certified: bool
    index_bound: int
    induced: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def moved_points(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return [(src, dst) for src, dst in self.induced if src != dst]


def _int_det(matrix: list[list[int]]) -> int:
    """Bareiss fraction-free determinant over the integers."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _int_matrix(matrix) -> list[list[int]]:
    """``matrix``, checked to be a list of lists of integers: a float such
    as 1.5, a bool or a string is not read as one, and the DomainError
    names the offending row or entry."""
    if not isinstance(matrix, list):
        raise DomainError(f"matrix must be a list of rows, got {matrix!r}")
    for i, row in enumerate(matrix):
        if not isinstance(row, list):
            raise DomainError(f"matrix row {i} must be a list, got {row!r}")
        for j, entry in enumerate(row):
            if not _is_int(entry):
                raise DomainError(f"matrix entry [{i}][{j}] must be an integer, got {entry!r}")
    return matrix


def r_infinity_certificate(n: int,
                           matrix: list[list[int]] | None = None,
                           point_permutation: dict | None = None) -> RInfinityCertificate:
    """Certify the twisted-conjugacy criterion for the Klein-bottle pure
    group on n strands.

    The complement of the invariant is the finite set of 2*C(n,2) opposite
    unit-pair points; automorphisms permute it.  ``matrix`` is the induced
    integer matrix on the rank-n free abelianization (columns are images
    of the b basis); alternatively pass the induced point permutation
    directly as a dict (i,j) -> (i,j).  The certificate holds when the
    induced permutation is the identity; every automorphism inducing it
    then has infinitely many twisted conjugacy classes.  The index bound
    (2*C(n,2))! bounds the subgroup of such automorphisms.  A point is an
    index pair (i, j), two distinct ints in 1..n; the whole input is
    checked before any work that grows with n, and a bad n, matrix or
    point_permutation is a DomainError naming it.
    """
    group = GroupContext("P", "K", n)
    if n < 2:
        raise DomainError("need n >= 2")
    if (matrix is None) == (point_permutation is None):
        raise DomainError("pass exactly one of matrix / point_permutation")
    count = n * (n - 1)
    if matrix is not None:
        rows = _int_matrix(matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix must be {n}x{n}")
        det = _int_det(rows)
        if det not in (1, -1):
            raise DomainError(f"matrix is not invertible over the integers (det={det})")
        # det = +-1 makes each column difference c_i - c_j primitive (c_i - c_j,
        # c_j and the other columns are a Z-basis): the support rule is exact on it
        mapping: dict[tuple[int, int], tuple[int, int]] = {}
        for i, j in permutations(range(1, n + 1), 2):
            vec = [row[i - 1] - row[j - 1] for row in rows]
            verdict = _decide_pair_case("K", (), vec)
            if verdict.membership != IN_COMPLEMENT:
                raise DomainError(f"matrix does not preserve the complement: point {(i, j)} "
                                  f"maps to coordinates {vec}")
            mapping[(i, j)] = verdict.witness
    else:
        if not isinstance(point_permutation, dict):
            raise DomainError("point_permutation must be a dict, "
                              f"got {type(point_permutation).__name__}")
        for p in (*point_permutation, *point_permutation.values()):  # p reads (i, j), i != j
            if not (isinstance(p, (tuple, list)) and len(p) == 2
                    and all(_is_int(t) and 1 <= t <= n for t in p) and p[0] != p[1]):
                raise DomainError(f"point_permutation: {p!r} is not a complement point of {group}")
        mapping = {tuple(k): tuple(v) for k, v in point_permutation.items()}
        if len(mapping) != count or len(set(mapping.values())) != count:
            raise DomainError(f"point_permutation must be a bijection of the {count} complement points")
    certified = all(src == dst for src, dst in mapping.items())
    bound = math.factorial(2 * math.comb(n, 2))
    return RInfinityCertificate(n, certified, bound, tuple(sorted(mapping.items())))


def commutator_fg_flag(group: GroupContext) -> bool:
    """Whether the commutator subgroup of P_n(M) is finitely generated: exactly
    when Sigma^1 is the whole sphere (Bieri-Neumann-Strebel, Invent. Math. 90,
    1987, Theorem B1), that is when the complement is empty, or the sphere is.
    Here n counts strands on every surface, the sphere's too (P_1, P_2, P_3 of
    the sphere are finite groups), so no context is built at the sphere's bound."""
    record = group._record
    if record is None or record.complement is None:
        raise UnsupportedGroupError(f"{group}: flag defined for pure groups of "
                                    "the torus, Klein bottle and sphere")
    n = group.n - record.extra_strands
    # two-strand pieces need two strands; the sphere rule has a piece on any nonempty sphere
    return record.rank(n) == 0 or record.complement == "pairs" and n < 2
