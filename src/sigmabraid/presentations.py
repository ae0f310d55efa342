"""
Machine-readable relation tables for the surface braid and pure braid
groups of the torus (T) and the Klein bottle (K), the two surfaces of
``_TABLE_SURFACES``, which ``criterion`` and ``checks`` read too.

``instantiate_presentation`` emits the defining relations of P_n(M)
(eight numbered families) or, for the full braid group B_n(M), the Artin
relations together with the half-twist conjugation rules and the
Artin-letter spellings of the encircling braids C[i,j].  The B relations
hold in B_n(M) but do not present it: in B_2(T) the four twist relations
give a2 and b2 in terms of s1, a1 and b1, and the band relation gives
C[1,2] = s1^2, which leaves <s1, a1, b1> free, while B_2(T) has a
nontrivial centre.  Fox calculus finds the table short at n = 2..6 too;
``verify-relations`` claims only that every listed relation holds.

``instantiate_family`` emits the derived relation families used by the
connectivity certificates:

  S1..S5   single-generator conjugation rules (valid in P_n(M));
  R1..R7   commutation rules between descending a/b products, half twists
           and encircling braids (valid in B_n(M), n >= 2);
  P1..P4   conjugation of strand-n letters by b_n or a_n (valid in
           P_n(M), n >= 3; P3 and P4 only on the torus).

Every table, P, B or derived, is one ``_Table`` record: its group, least
n, torus-only flag and, in row order, blocks of (index tuples at n, row
functions).  One routine, ``_build``, builds them all, and the braid
certificates of ``criterion`` call the row functions of P1, S2, S4, S5 and
of family 5 for the single rows they cite, so each row is written once.

Every relation is stored as an explicit (lhs, rhs) pair of words, one
entry per admissible index tuple; displayed products over j always expand
left to right in ascending j, an order the word-problem oracle validates
at n <= 4.  C[j,j] and C[1,1] are materialised as the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

from .words import (
    DomainError,
    GeneratorSymbol,
    GroupContext,
    IDENTITY,
    Word,
    _reduced,
    aij_word,
    product,
    serialize_word,
    sym_a,
    sym_b,
    sym_C,
    sym_s,
)

# The surfaces with relation tables, named once; criterion and checks read it.
_TABLE_SURFACES = ("T", "K")


class Relation(NamedTuple):
    """One relation lhs = rhs, its row name and its cite.  A NamedTuple, not
    a dataclass: every table builds one per row, and a NamedTuple costs
    under half as much to build."""

    name: str
    lhs: Word
    rhs: Word
    cite: str


@dataclass(frozen=True)
class RelationTable:
    group: GroupContext
    relations: tuple[Relation, ...]

    def __len__(self) -> int:
        return len(self.relations)

    def to_json(self) -> dict:
        return {
            "group": self.group.family,
            "surface": self.group.surface,
            "n": self.group.n,
            "relations": [
                {"name": r.name, "lhs": serialize_word(r.lhs),
                 "rhs": serialize_word(r.rhs), "cite": r.cite}
                for r in self.relations
            ],
        }


# The one-letter words below are shared: each is built once, and a word of
# one letter is reduced, so it skips the check of ``Word.__post_init__``.

@cache
def _C(i: int, j: int, sign: int = 1) -> Word:
    """C[i,j] with the trivial-braid conventions C[j,j] = C[1,1] = empty."""
    if i == j:
        return IDENTITY
    return _reduced((sym_C(i, j, sign),))


@cache
def _a(i: int, sign: int = 1) -> Word:
    return _reduced((sym_a(i, sign),))


@cache
def _b(i: int, sign: int = 1) -> Word:
    return _reduced((sym_b(i, sign),))


@cache
def _s(i: int, sign: int = 1) -> Word:
    return _reduced((sym_s(i, sign),))


# every factor is reduced, so a product cancels letters only at its seams
_cat = product


def signed_generators(surface: str, n: int) -> tuple[GeneratorSymbol, ...]:
    """The generators of P_n(T) or P_n(K) in table order, a_1..a_n, b_1..b_n,
    then C[i,j] row by row, each followed by its inverse."""
    if surface not in _TABLE_SURFACES:
        raise DomainError(f"no presentation table for surface {surface!r}")
    gens = [*map(sym_a, range(1, n + 1)), *map(sym_b, range(1, n + 1)),
            *(sym_C(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))]
    return tuple(s for g in gens for s in (g, g.inverse()))


# One row function per relation kind: (T, n, *indices) -> the relation at
# one index tuple, T true on the torus.  Only families 3, 4 and 8, the twist
# rows and the special rows P1:n, P2:1, P3:n and P4:1 branch on their index.

# ---------------------------------------------------------------------------
# The pure braid presentation, families 1-8

def _pure1(T: bool, n: int, i: int, j: int) -> Relation:
    return Relation(f"1:a{i}-a{j}", _cat(_a(i), _a(j)), _cat(_a(j), _a(i)),
                    "a generators commute")


def _pure2(T: bool, n: int, i: int, j: int) -> Relation:
    return Relation(f"2:a{i}-b{j}", _cat(_a(i, -1), _b(j), _a(i)),
                    _cat(_b(j), _a(j), _C(i, j, -1), _C(i + 1, j), _a(j, -1)),
                    "conjugation of b_j by a_i")


def _pure3(T: bool, n: int, i: int, j: int, k: int) -> Relation:
    lhs = _cat(_a(i, -1), _C(j, k), _a(i))
    if j <= i < k:
        rhs = _cat(_a(k), _C(i + 1, k, -1), _C(i, k), _a(k, -1),
                   _C(j, k), _C(i, k, -1), _C(i + 1, k))
        return Relation(f"3:a{i}-C{j},{k}", lhs, rhs, "conjugation of nested C[j,k] by a_i")
    return Relation(f"3:a{i}-C{j},{k}", lhs, _C(j, k), "a_i commutes with disjoint C[j,k]")


def _pure4(T: bool, n: int, i: int, l: int, j: int, k: int) -> Relation:
    lhs = _cat(_C(i, l, -1), _C(j, k), _C(i, l))
    if i < j <= l:
        rhs = _cat(_C(i, k), _C(l + 1, k, -1), _C(l, k),
                   _C(i, k, -1), _C(j, k), _C(l, k, -1), _C(l + 1, k))
        return Relation(f"4:C{i},{l}-C{j},{k}", lhs, rhs,
                        "conjugation rule for linked encircling braids")
    return Relation(f"4:C{i},{l}-C{j},{k}", lhs, _C(j, k),
                    "disjoint or nested encircling braids commute")


def _pure5(T: bool, n: int, i: int) -> Relation:
    # the low-end braid certificates of ``criterion`` read the lhs at i = 1
    sign = -1 if T else 1
    lhs = _cat(*(w for j in range(i + 1, n + 1)
                 for w in (_C(i, j, sign), _C(i + 1, j, -sign))))
    if T:
        rhs = _cat(_a(i), _b(i), _C(1, i), _a(i, -1), _b(i, -1))
    else:
        rhs = _cat(_b(i), _C(1, i), _a(i, -1), _b(i, -1), _a(i, -1))
    return Relation(f"5:row{i}", lhs, rhs, "wall-crossing relation of strand i")


def _pure6(T: bool, n: int, i: int, j: int) -> Relation:
    tail = () if T else (_C(i, j), _C(i + 1, j, -1))
    return Relation(f"6:b{j}-b{i}", _cat(_b(j), _b(i)), _cat(_b(i), _b(j), *tail),
                    "b generators commute" + ("" if T else " up to encircling braids"))


def _pure7(T: bool, n: int, i: int, j: int) -> Relation:
    inner = (_C(i, j), _C(i + 1, j, -1)) if T else (_C(i + 1, j), _C(i, j, -1))
    return Relation(f"7:b{i}-a{j}", _cat(_b(i, -1), _a(j), _b(i)),
                    _cat(_a(j), _b(j), *inner, _b(j, -1)), "conjugation of a_j by b_i")


def _pure8(T: bool, n: int, i: int, j: int, k: int) -> Relation:
    lhs = _cat(_b(i, -1), _C(j, k), _b(i))
    if j <= i < k:
        inner = (_C(i, k), _C(i + 1, k, -1)) if T else (_C(i + 1, k), _C(i, k, -1))
        rhs = _cat(_C(i + 1, k), _C(i, k, -1), _C(j, k), _b(k), *inner, _b(k, -1))
        return Relation(f"8:b{i}-C{j},{k}", lhs, rhs, "conjugation of nested C[j,k] by b_i")
    return Relation(f"8:b{i}-C{j},{k}", lhs, _C(j, k), "b_i commutes with disjoint C[j,k]")


# ---------------------------------------------------------------------------
# The full braid group table: Artin relations, half-twist conjugation rules
# and Artin-letter spellings of the C braids.

def _artin(T: bool, n: int, i: int) -> Relation:
    return Relation(f"artin:s{i}-s{i+1}", _cat(_s(i), _s(i + 1), _s(i)),
                    _cat(_s(i + 1), _s(i), _s(i + 1)), "braid relation")


def _far(T: bool, n: int, i: int, j: int) -> Relation:
    return Relation(f"artin:s{i}-s{j}", _cat(_s(i), _s(j)), _cat(_s(j), _s(i)),
                    "far commutation")


def _twist_a(T: bool, n: int, i: int, j: int) -> Relation:
    if j == i:
        rhs = _cat(_s(i, -1), _s(i, -1), _a(i + 1))
    elif j == i + 1:
        rhs = _cat(_a(i), _s(i), _s(i))
    else:
        rhs = _a(j)
    return Relation(f"twist:s{i}-a{j}", _cat(_s(i, -1), _a(j), _s(i)), rhs,
                    "half twist moves wall crossings between strands")


def _twist_b(T: bool, n: int, i: int, j: int) -> Relation:
    if j == i:
        rhs = _cat(_b(i + 1), _s(i), _s(i))
    elif j == i + 1:
        rhs = _cat(_s(i, -1), _s(i, -1), _b(i))
    else:
        rhs = _b(j)
    return Relation(f"twist:s{i}-b{j}", _cat(_s(i, -1), _b(j), _s(i)), rhs,
                    "half twist moves wall crossings between strands")


def _band(T: bool, n: int, j: int, k: int) -> Relation:
    return Relation(f"band:C{j},{k}", _C(j, k), aij_word(j, k, n),
                    "encircling braid spelled in half twists")


# ---------------------------------------------------------------------------
# Derived relation families

# The descending products a_j a_{j-1} ... a_i and b_j ... b_i, empty when
# i > j; their letters are distinct, so they are reduced.
@cache
def _alpha(j: int, i: int) -> Word:
    return _reduced([sym_a(k) for k in range(j, i - 1, -1)])


@cache
def _beta(j: int, i: int) -> Word:
    return _reduced([sym_b(k) for k in range(j, i - 1, -1)])


def _s1(T: bool, n: int, i: int, j: int) -> Relation:
    return Relation(f"S1:{i},{j}", _cat(_a(i), _b(j), _a(i, -1)),
                    _cat(_b(j), _C(i, j), _C(i + 1, j, -1)),
                    "outward conjugation of b_j by a_i")


def _s2(T: bool, n: int, i: int, j: int) -> Relation:
    # The two encircling factors do not commute; their order is fixed by
    # the oracle check at n = 3 (swapping them breaks the identity).
    return Relation(f"S2:{i},{j}", _cat(_b(i), _a(j), _b(i, -1)),
                    _cat(_a(j), _C(i, j, -1), _C(i + 1, j)),
                    "outward conjugation of a_j by b_i")


def _s3(T: bool, n: int, i: int, j: int, k: int) -> Relation:
    return Relation(f"S3:{i};{j},{k}", _cat(_a(i), _C(j, k), _a(i, -1)),
                    _cat(_C(i + 1, k), _C(i, k, -1), _C(j, k), _a(k, -1),
                         _C(i, k), _C(i + 1, k, -1), _a(k)),
                    "outward conjugation of C[j,k] by a_i")


def _s4(T: bool, n: int, i: int, j: int, k: int) -> Relation:
    inner = (_C(i + 1, k, -1), _C(i, k)) if T else (_C(i, k, -1), _C(i + 1, k))
    return Relation(f"S4:{i};{j},{k}", _cat(_b(i), _C(j, k), _b(i, -1)),
                    _cat(_b(k, -1), *inner, _b(k), _C(j, k), _C(i, k, -1), _C(i + 1, k)),
                    "outward conjugation of C[j,k] by b_i")


def _s5(T: bool, n: int, i: int, j: int) -> Relation:
    return Relation(f"S5:{i},{j}", _cat(_b(i), _b(j), _b(i, -1)),
                    _b(j) if T else _cat(_C(i + 1, j, -1), _C(i, j), _b(j)),
                    "outward conjugation of b_j by b_i")


def _r1(T: bool, n: int, i: int) -> Relation:
    return Relation(f"R1:{i}", _cat(_a(i + 1), _a(i), _s(i)), _cat(_s(i), _a(i + 1), _a(i)),
                    "adjacent a pair commutes with the half twist")


def _r2(T: bool, n: int, i: int, j: int, k: int) -> Relation:
    return Relation(f"R2:{j},{i};s{k}", _cat(_alpha(j, i), _s(k)), _cat(_s(k), _alpha(j, i)),
                    "descending a product commutes with inner half twists")


def _r3(T: bool, n: int, i: int, j: int, k: int, t: int) -> Relation:
    return Relation(f"R3:{j},{i};C{k},{t}", _cat(_alpha(j, i), _C(k, t)),
                    _cat(_C(k, t), _alpha(j, i)),
                    "descending a product commutes with inner C braids")


def _r4(T: bool, n: int, i: int) -> Relation:
    return Relation(f"R4:{i}", _cat(_b(i + 1), _b(i), _s(i)),
                    _cat(_s(i, 1 if T else -1), _b(i + 1), _b(i)),
                    "adjacent b pair versus the half twist")


def _r5(T: bool, n: int, i: int, j: int, k: int) -> Relation:
    return Relation(f"R5:{j},{i};s{k}", _cat(_beta(j, i), _s(k)),
                    _cat(_s(k, 1 if T else -1), _beta(j, i)),
                    "descending b product versus inner half twists")


def _r6(T: bool, n: int, i: int, j: int, k: int, t: int) -> Relation:
    return Relation(f"R6:{j},{i};C{k},{t}", _cat(_beta(j, i), _C(k, t)),
                    _cat(_C(k, t, 1 if T else -1), _beta(j, i)),
                    "descending b product versus inner C braids")


def _r7(T: bool, n: int, i: int, j: int) -> Relation:
    if T:
        return Relation(f"R7:{j},{i}", _cat(_beta(j, i), _b(j)), _cat(_b(j), _beta(j, i)),
                        "b_j commutes with the descending b product")
    return Relation(f"R7:{j},{i}", _cat(_beta(j, i), _b(j), _C(i, j)), _cat(_b(j), _beta(j, i)),
                    "b_j versus the descending b product")


def _p1(T: bool, n: int, i: int) -> Relation:
    lhs = _cat(_b(n, -1), _a(i), _b(n))
    if i < n:
        return Relation(f"P1:{i}", lhs, _cat(_C(i, n), _C(i + 1, n, -1), _a(i)),
                        "conjugation of a_i by b_n")
    rhs = _cat(_a(n), _C(1, n, -1)) if T else _cat(_C(1, n), _a(n, -1))
    return Relation(f"P1:{n}", lhs, rhs, "conjugation of a_n by b_n")


def _p2(T: bool, n: int, i: int) -> Relation:
    lhs = _cat(_b(n, -1), _C(i, n), _b(n))
    if i > 1:
        return Relation(f"P2:{i}", lhs,
                        _cat(_beta(n - 1, i), _C(i, n, 1 if T else -1), _beta(n - 1, i).inverse()),
                        "conjugation of C[i,n] by b_n")
    delta = _cat(_C(1, n), _C(2, n, -1), _C(3, n))
    if T:
        # The order of the two inner encircling factors is forced by the
        # oracle: the transposed variant fails at n = 3 and 4 (the
        # presentation tests check both orders).
        rhs = _cat(_beta(n - 1, 3), _b(1), _beta(n - 1, 2),
                   _C(3, n, -1), _C(2, n), _beta(n - 1, 2).inverse(),
                   delta, _b(n), _b(1, -1), _beta(n, 3).inverse())
    else:
        rhs = _cat(_beta(n - 1, 3), _b(1), delta.inverse(),
                   _beta(n - 1, 2), _C(3, n), _C(2, n, -1),
                   _beta(n - 1, 2).inverse(), _b(n), delta,
                   _b(1, -1), _beta(n, 3).inverse())
    return Relation("P2:1", lhs, rhs, "conjugation of C[1,n] by b_n")


def _p3(T: bool, n: int, i: int) -> Relation:
    lhs = _cat(_a(n, -1), _b(i), _a(n))
    if i < n:
        return Relation(f"P3:{i}", lhs, _cat(_C(i, n, -1), _C(i + 1, n), _b(i)),
                        "conjugation of b_i by a_n")
    return Relation(f"P3:{n}", lhs, _cat(_b(n), _C(1, n)), "conjugation of b_n by a_n")


def _p4(T: bool, n: int, i: int) -> Relation:
    lhs = _cat(_a(n, -1), _C(i, n), _a(n))
    if i > 1:
        return Relation(f"P4:{i}", lhs,
                        _cat(_alpha(n - 1, i), _C(i, n), _alpha(n - 1, i).inverse()),
                        "conjugation of C[i,n] by a_n")
    delta_bar = _cat(_C(3, n), _C(2, n, -1), _C(1, n))
    rhs = _cat(_alpha(n - 1, 3), _a(1), delta_bar, _alpha(n - 1, 2),
               _C(2, n), _C(3, n, -1), _alpha(n - 1, 2).inverse(),
               _a(n), _a(1, -1), _alpha(n, 3).inverse())
    return Relation("P4:1", lhs, rhs, "conjugation of C[1,n] by a_n")


# The index tuples of a relation kind at n, in row order.
_pairs = lambda n: ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))  # i < j
_nested = lambda n: ((i, j, k) for i in range(1, n + 1) for j in range(1, i + 1)  # j <= i < k
                     for k in range(i + 1, n + 1))
_off = lambda n: ((i, j, k) for i in range(1, n + 1) for j, k in _pairs(n) if i != k)  # j < k, i != k
_quads = lambda n: ((i, l, j, k) for i, l in _pairs(n)  # i < l < k, j < k
                    for j, k in _pairs(n) if l < k)
_adjacent = lambda n: ((i,) for i in range(1, n))  # i < n
_inner = lambda n: ((i,) for i in range(1, n - 1))  # i + 1 < n
_far_pairs = lambda n: ((i, j) for i, j in _pairs(n - 1) if i + 1 < j)  # i + 1 < j < n
_moves = lambda n: ((i, j) for i in range(1, n) for j in range(1, n + 1))  # i < n, j <= n
_twists = lambda n: ((i, j, k) for i, j in _pairs(n) for k in range(i, j))  # i <= k < j
_bands = lambda n: ((i, j, k, t) for i, j in _pairs(n)  # i <= k < t <= j
                    for k in range(i, j) for t in range(k + 1, j + 1))
_strands = lambda n: ((i,) for i in range(1, n + 1))  # i <= n
_first_last = lambda n: ((i,) for i in (*range(2, n), 1))  # 1 < i < n, then the row i = 1


class _Table(NamedTuple):
    group: str  # "P" or "B", the group the rows hold in
    least: int  # the least n
    torus_only: bool
    # in row order, blocks of (the index tuples at n, *row functions): a
    # block calls its row functions in turn at each of its index tuples
    blocks: tuple[tuple[Callable[..., object], ...], ...]


_PRESENTATIONS = {
    "P": _Table("P", 1, False, ((_pairs, _pure1, _pure2), (_off, _pure3), (_quads, _pure4),
                                (_strands, _pure5), (_pairs, _pure6, _pure7), (_off, _pure8))),
    "B": _Table("B", 1, False, ((_inner, _artin), (_far_pairs, _far),
                                (_moves, _twist_a, _twist_b), (_pairs, _band))),
}

# The derived families, in the order all_family_names lists.
_DERIVED = {
    "S1": _Table("P", 1, False, ((_pairs, _s1),)),
    "S2": _Table("P", 1, False, ((_pairs, _s2),)),
    "S3": _Table("P", 1, False, ((_nested, _s3),)),
    "S4": _Table("P", 1, False, ((_nested, _s4),)),
    "S5": _Table("P", 1, False, ((_pairs, _s5),)),
    "R1": _Table("B", 2, False, ((_adjacent, _r1),)),
    "R2": _Table("B", 2, False, ((_twists, _r2),)),
    "R3": _Table("B", 2, False, ((_bands, _r3),)),
    "R4": _Table("B", 2, False, ((_adjacent, _r4),)),
    "R5": _Table("B", 2, False, ((_twists, _r5),)),
    "R6": _Table("B", 2, False, ((_bands, _r6),)),
    "R7": _Table("B", 2, False, ((_pairs, _r7),)),
    "P1": _Table("P", 3, False, ((_strands, _p1),)),
    "P2": _Table("P", 3, False, ((_first_last, _p2),)),
    "P3": _Table("P", 3, True, ((_strands, _p3),)),
    "P4": _Table("P", 3, True, ((_first_last, _p4),)),
}


def _build(table: _Table, ctx: GroupContext) -> RelationTable:
    """Every row of ``table`` in the group ``ctx``, block by block."""
    T, n = ctx.surface == "T", ctx.n
    return RelationTable(ctx, tuple(row(T, n, *idx) for indices, *rows in table.blocks
                                    for idx in indices(n) for row in rows))


def instantiate_presentation(family: str, surface: str, n: int) -> RelationTable:
    """Every relation instance of the P_n or B_n table for the given n; each
    holds in the group, but the B_n table does not present it (see above)."""
    ctx = GroupContext(family, surface, n)
    if surface not in _TABLE_SURFACES:
        raise DomainError(f"no presentation table for surface {surface!r}")
    return _build(_PRESENTATIONS[family], ctx)


def instantiate_family(name: str, surface: str, n: int) -> RelationTable:
    """All index instances of one derived relation family."""
    if surface not in _TABLE_SURFACES:
        raise DomainError(f"no relation families for surface {surface!r}")
    family = _DERIVED.get(name) if isinstance(name, str) else None  # a list is unknown too
    if family is None:
        raise DomainError(f"unknown relation family {name!r}")
    if family.torus_only and surface != "T":
        raise DomainError(f"{name} is a torus-only family")
    # a non-integer n, and n < 1 where the family holds from n = 1, are the
    # group's to refuse, below
    if family.least > 1 and isinstance(n, int) and not isinstance(n, bool) and n < family.least:
        raise DomainError(f"{name} needs n >= {family.least}")
    return _build(family, GroupContext(family.group, surface, n))


def all_family_names() -> tuple[str, ...]:
    return tuple(_DERIVED)
