"""
Exact membership decisions for the first BNS invariant of braid and pure
braid groups of the disc, sphere, projective plane, torus and Klein bottle.

The complement of the invariant inside the character sphere is, for every
family handled here, a finite union of explicitly described pieces:

  P_n(T)    one circle per strand pair {i,j}: points with a_i = -a_j = p,
            b_i = -b_j = q, (p,q) != 0, all other coordinates zero;
  P_n(K)    two antipodal points per strand pair: b_i = 1, b_j = -1,
            all other coordinates zero;
  P_{n+1}(S2)  (coordinates A[i,j], 1 <= i < j <= n, {i,j} != {1,2};
            the group has n+1 strands)
            the three- and four-index circle systems enumerated below for
            n >= 4; for n = 3 the complement fills the whole sphere;
  B-groups  empty complement whenever the sphere is nonempty (a character
            never vanishes on the center);
  torsion-only abelianizations (sphere and projective-plane families)
            have empty character spheres.

``decide_sigma`` matches a canonical sphere point against these patterns
exactly (integer arithmetic, no tolerances).  The strand-permutation
action on the sphere, the fixed-complement certificate for twisted
conjugacy, and the finite-generation flag for commutator subgroups are
the application layer over the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .characters import SpherePoint, abelianization, strand_blocks
from .words import DomainError, GroupContext

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


@dataclass(frozen=True)
class TorusCircle:
    i: int
    j: int

    def key(self):
        return ("TorusCircle", self.i, self.j)


@dataclass(frozen=True)
class KleinPoint:
    i: int
    j: int

    def key(self):
        return ("KleinPoint", self.i, self.j)


@dataclass(frozen=True)
class P3Circle:
    i: int
    j: int
    k: int

    def key(self):
        return ("P3Circle", self.i, self.j, self.k)


@dataclass(frozen=True)
class P4Circle:
    i: int
    j: int
    k: int
    l: int

    def key(self):
        return ("P4Circle", self.i, self.j, self.k, self.l)


@dataclass(frozen=True)
class WholeSphere:
    def key(self):
        return ("WholeSphere",)


@dataclass(frozen=True)
class ComplementEnumeration:
    group: GroupContext
    descriptors: tuple
    whole_sphere: bool = False

    @property
    def count(self) -> int:
        return len(self.descriptors)


_SUPPORTED = {
    ("P", "T"), ("P", "K"), ("P", "S2"), ("P", "RP2"),
    ("B", "T"), ("B", "K"), ("B", "D"), ("B", "S2"), ("B", "RP2"),
}


def _require_supported(group: GroupContext) -> None:
    if (group.family, group.surface) not in _SUPPORTED:
        raise UnsupportedGroupError(f"{group}: outside the computed families")


def sphere_is_empty(group: GroupContext) -> bool:
    return abelianization(group).free_rank == 0


# ---------------------------------------------------------------------------
# Pattern matchers

def _match_torus(pt: SpherePoint, n: int):
    a, b = strand_blocks(pt)
    support = [i for i in range(n) if a[i] != 0 or b[i] != 0]
    if len(support) > 2 or not support:
        return None
    if len(support) == 1:
        return None  # would force p = q = 0 at the partner strand
    i, j = support
    if a[i] + a[j] != 0 or b[i] + b[j] != 0:
        return None
    return (i + 1, j + 1, a[i], b[i])


def _match_klein(pt: SpherePoint, n: int):
    _, b = strand_blocks(pt)
    support = [i for i in range(n) if b[i] != 0]
    if len(support) != 2:
        return None
    i, j = support
    if sorted((b[i], b[j])) != [-1, 1]:
        return None
    return (i + 1, j + 1) if b[i] == 1 else (j + 1, i + 1)


def _sphere_coord(pt: SpherePoint, i: int, j: int) -> int:
    return pt.coords[pt.spec.positions[f"A[{i},{j}]"]]


def _match_p3(pt: SpherePoint, n: int, i: int, j: int, k: int):
    inside = {(i, j), (i, k), (j, k)}
    for r, s in combinations(range(1, n + 1), 2):
        if {r, s} != {1, 2} and (r, s) not in inside and _sphere_coord(pt, r, s) != 0:
            return None
    p = _sphere_coord(pt, i, k)
    q = _sphere_coord(pt, j, k)
    if (i, j) == (1, 2):
        if (p, q) == (0, 0):
            return None
    else:
        if (p, q) == (0, 0) or _sphere_coord(pt, i, j) != -(p + q):
            return None
    return (p, q)


def _match_p4(pt: SpherePoint, n: int, i: int, j: int, k: int, l: int):
    inside = {(i, j), (i, k), (i, l), (j, k), (j, l), (k, l)}
    for r, s in combinations(range(1, n + 1), 2):
        if {r, s} != {1, 2} and (r, s) not in inside and _sphere_coord(pt, r, s) != 0:
            return None
    p = _sphere_coord(pt, i, k)
    q = _sphere_coord(pt, i, l)
    if (p, q) == (0, 0):
        return None
    if _sphere_coord(pt, j, l) != p or _sphere_coord(pt, j, k) != q:
        return None
    if _sphere_coord(pt, k, l) != -(p + q):
        return None
    if (i, j) != (1, 2) and _sphere_coord(pt, i, j) != -(p + q):
        return None
    return (p, q)


def _decide_sphere_case(pt: SpherePoint, n: int) -> SigmaVerdict:
    matches: list[tuple[object, tuple]] = []
    for i, j, k in combinations(range(1, n + 1), 3):
        pq = _match_p3(pt, n, i, j, k)
        if pq is not None:
            matches.append((P3Circle(i, j, k), pq))
    for i, j, k, l in combinations(range(1, n + 1), 4):
        pq = _match_p4(pt, n, i, j, k, l)
        if pq is not None:
            matches.append((P4Circle(i, j, k, l), pq))
    if len(matches) > 1:
        raise AssertionError(f"circle systems are not disjoint at {pt.coords}: {matches}")
    if matches:
        desc, _ = matches[0]
        return SigmaVerdict(IN_COMPLEMENT, desc,
                            "matched one circle system exactly")
    return SigmaVerdict(IN_SIGMA1, None, "no circle system matches")


def decide_sigma(group: GroupContext, pt: SpherePoint | None = None) -> SigmaVerdict:
    """Exact membership decision; pt must be canonical (see sphere_point).

    Groups with a torsion-only abelianization take no point and return
    EmptySphere.  For the sphere family, group.n is the coordinate index
    bound (the group has n+1 strands).
    """
    _require_supported(group)
    fam, surf, n = group.family, group.surface, group.n
    if sphere_is_empty(group):
        if pt is not None:
            raise DomainError(f"{group} has an empty character sphere; no points exist")
        return SigmaVerdict(EMPTY_SPHERE, None, "torsion abelianization, no characters")
    if pt is None:
        raise DomainError(f"{group} has a nonempty sphere; a point is required")
    if pt.spec != abelianization(group):
        raise DomainError(f"point lives on {pt.spec.group}, not on {group}")

    if fam == "B":
        return SigmaVerdict(IN_SIGMA1, None, "character does not vanish on the center")

    if surf == "T":
        if n == 1:
            return SigmaVerdict(IN_SIGMA1, None, "abelian group, full invariant")
        a, b = strand_blocks(pt)
        if sum(a) != 0 or sum(b) != 0:
            return SigmaVerdict(IN_SIGMA1, None, "character does not vanish on the center")
        witness = _match_torus(pt, n)
        if witness is None:
            return SigmaVerdict(IN_SIGMA1, None, "no paired-strand pattern matches")
        return SigmaVerdict(IN_COMPLEMENT, witness,
                            "paired strands i,j with opposite (p,q) weights, zero elsewhere")
    if surf == "K":
        if n == 1:
            return SigmaVerdict(IN_SIGMA1, None, "virtually abelian group, full invariant")
        if sum(strand_blocks(pt)[1]) != 0:
            return SigmaVerdict(IN_SIGMA1, None, "character does not vanish on the center")
        witness = _match_klein(pt, n)
        if witness is None:
            return SigmaVerdict(IN_SIGMA1, None, "no opposite-unit-pair pattern matches")
        return SigmaVerdict(IN_COMPLEMENT, witness,
                            "opposite unit weights on strands i,j, zero elsewhere")
    # surf == "S2", nonempty sphere means n >= 3
    if n == 3:
        return SigmaVerdict(IN_COMPLEMENT, WholeSphere(),
                            "free-group factor: the invariant is empty, the complement "
                            "is the whole sphere")
    return _decide_sphere_case(pt, n)


def enumerate_complement(group: GroupContext) -> ComplementEnumeration:
    """All complement pieces, sorted; exact counts per family."""
    _require_supported(group)
    fam, surf, n = group.family, group.surface, group.n
    if fam == "B" or sphere_is_empty(group):
        return ComplementEnumeration(group, ())
    if surf == "T":
        descs = tuple(TorusCircle(i, j) for i, j in combinations(range(1, n + 1), 2))
        return ComplementEnumeration(group, descs)
    if surf == "K":
        descs = tuple(KleinPoint(i, j) for i in range(1, n + 1)
                      for j in range(1, n + 1) if i != j)
        return ComplementEnumeration(group, tuple(sorted(descs, key=KleinPoint.key)))
    if surf == "S2":
        if n == 3:
            return ComplementEnumeration(group, (), whole_sphere=True)
        p3 = tuple(P3Circle(*t) for t in combinations(range(1, n + 1), 3))
        p4 = tuple(P4Circle(*t) for t in combinations(range(1, n + 1), 4))
        return ComplementEnumeration(group, p3 + p4)
    raise UnsupportedGroupError(f"{group}: nothing to enumerate")


# ---------------------------------------------------------------------------
# Permutation action on the sphere

def _check_permutation(tau: Sequence[int], n: int) -> None:
    if sorted(tau) != list(range(1, n + 1)):
        raise DomainError(f"{tau!r} is not a permutation of 1..{n}")


def act_permutation(group: GroupContext, tau: Sequence[int], pt: SpherePoint) -> SpherePoint:
    """Permute strand coordinates: new[i] = old[tau(i)], acting on both the
    a and b blocks for the torus and on the b block for the Klein bottle."""
    if (group.family, group.surface) not in (("P", "T"), ("P", "K")):
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
            if isinstance(entry, bool) or not isinstance(entry, int):
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
    (2*C(n,2))! bounds the subgroup of such automorphisms.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    group = GroupContext("P", "K", n)
    points = [(d.i, d.j) for d in enumerate_complement(group).descriptors]
    if (matrix is None) == (point_permutation is None):
        raise DomainError("pass exactly one of matrix / point_permutation")
    mapping: dict[tuple[int, int], tuple[int, int]] = {}
    if matrix is not None:
        rows = _int_matrix(matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix must be {n}x{n}")
        det = _int_det(rows)
        if det not in (1, -1):
            raise DomainError(f"matrix is not invertible over the integers (det={det})")
        for (i, j) in points:
            vec = [rows[r][i - 1] - rows[r][j - 1] for r in range(n)]
            image = _match_klein(
                SpherePoint(abelianization(group), tuple(vec)), n) \
                if any(vec) else None
            if image is None or image not in points:
                raise DomainError(
                    f"matrix does not preserve the complement: point {(i, j)} "
                    f"maps to coordinates {vec}")
            mapping[(i, j)] = image
    else:
        mapping = {tuple(k): tuple(v) for k, v in point_permutation.items()}
        if sorted(mapping) != sorted(points) or sorted(mapping.values()) != sorted(points):
            raise DomainError("point_permutation must be a bijection of the "
                              f"{len(points)} complement points")
    certified = all(mapping[p] == p for p in points)
    bound = math.factorial(2 * math.comb(n, 2))
    induced = tuple(sorted((p, mapping[p]) for p in points))
    return RInfinityCertificate(n, certified, bound, induced)


_FG_EXCEPTIONS = {("T", 1), ("K", 1), ("S2", 1), ("S2", 2), ("S2", 3)}


def commutator_fg_flag(group: GroupContext) -> bool:
    """Whether the commutator subgroup of P_n(M) is finitely generated.

    Here n counts strands for every surface, including the sphere
    (P_1, P_2, P_3 of the sphere are finite groups).
    """
    if group.family != "P" or group.surface not in ("T", "K", "S2"):
        raise UnsupportedGroupError(f"{group}: flag defined for pure groups of "
                                    "the torus, Klein bottle and sphere")
    return (group.surface, group.n) in _FG_EXCEPTIONS
