"""
Machine-readable relation tables for the surface braid and pure braid
groups of the torus (T) and the Klein bottle (K).

``instantiate_presentation`` emits the defining relations of P_n(M)
(eight numbered families) or, for the full braid group B_n(M), the Artin
relations together with the half-twist conjugation rules and the
Artin-letter spellings of the encircling braids C[i,j].

``instantiate_family`` emits the derived relation families used by the
connectivity certificates:

  S1..S5   single-generator conjugation rules (valid in P_n(M));
  R1..R7   commutation rules between descending a/b products, half twists
           and encircling braids (valid in B_n(M));
  P1..P4   conjugation of strand-n letters by b_n or a_n (valid in
           P_n(M), n >= 3; P3 and P4 only on the torus).

Every relation is stored as an explicit (lhs, rhs) pair of words, one
entry per admissible index tuple; displayed products over j always expand
left to right in ascending j, an order the word-problem oracle validates
at n <= 4.  C[j,j] and C[1,1] are materialised as the empty word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .words import (
    DomainError,
    GroupContext,
    IDENTITY,
    Word,
    alpha_beta_word,
    aij_word,
    reduce,
    serialize_word,
    sym_a,
    sym_b,
    sym_C,
    sym_s,
)


@dataclass(frozen=True)
class Relation:
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

    def names(self) -> list[str]:
        return [r.name for r in self.relations]

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

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _w(*symbols) -> Word:
    return Word(tuple(symbols))


def _C(i: int, j: int, sign: int = 1) -> Word:
    """C[i,j] with the trivial-braid conventions C[j,j] = C[1,1] = empty."""
    if i == j:
        return IDENTITY
    return _w(sym_C(i, j, sign))


def _a(i: int, sign: int = 1) -> Word:
    return _w(sym_a(i, sign))


def _b(i: int, sign: int = 1) -> Word:
    return _w(sym_b(i, sign))


def _s(i: int, sign: int = 1) -> Word:
    return _w(sym_s(i, sign))


def _cat(*ws: Word) -> Word:
    return reduce(s for w in ws for s in w.letters)


# ---------------------------------------------------------------------------
# The pure braid presentation

def _pure_relations(surface: str, n: int) -> list[Relation]:
    T = surface == "T"
    rels: list[Relation] = []

    def add(name, lhs, rhs, cite):
        rels.append(Relation(name, lhs, rhs, cite))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(f"1:a{i}-a{j}", _cat(_a(i), _a(j)), _cat(_a(j), _a(i)),
                "a generators commute")
            add(f"2:a{i}-b{j}",
                _cat(_a(i, -1), _b(j), _a(i)),
                _cat(_b(j), _a(j), _C(i, j, -1), _C(i + 1, j), _a(j, -1)),
                "conjugation of b_j by a_i")
    # (3) a_i vs C[j,k]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                lhs = _cat(_a(i, -1), _C(j, k), _a(i))
                if i < j or k < i:
                    add(f"3:a{i}-C{j},{k}", lhs, _C(j, k),
                        "a_i commutes with disjoint C[j,k]")
                elif j <= i < k:
                    rhs = _cat(_a(k), _C(i + 1, k, -1), _C(i, k), _a(k, -1),
                               _C(j, k), _C(i, k, -1), _C(i + 1, k))
                    add(f"3:a{i}-C{j},{k}", lhs, rhs,
                        "conjugation of nested C[j,k] by a_i")
    # (4) C[i,l] vs C[j,k]
    for i in range(1, n + 1):
        for l in range(i + 1, n + 1):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    lhs = _cat(_C(i, l, -1), _C(j, k), _C(i, l))
                    if (i < l < j < k) or (j <= i < l < k):
                        add(f"4:C{i},{l}-C{j},{k}", lhs, _C(j, k),
                            "disjoint or nested encircling braids commute")
                    elif i < j <= l < k:
                        rhs = _cat(_C(i, k), _C(l + 1, k, -1), _C(l, k),
                                   _C(i, k, -1), _C(j, k), _C(l, k, -1), _C(l + 1, k))
                        add(f"4:C{i},{l}-C{j},{k}", lhs, rhs,
                            "conjugation rule for linked encircling braids")
    # (5) surface relation, one row per strand
    for i in range(1, n + 1):
        row: list[Word] = []
        for j in range(i + 1, n + 1):
            row += [_C(i, j, -1), _C(i + 1, j)] if T else [_C(i, j), _C(i + 1, j, -1)]
        prod = _cat(*row)
        if T:
            rhs = _cat(_a(i), _b(i), _C(1, i), _a(i, -1), _b(i, -1))
        else:
            rhs = _cat(_b(i), _C(1, i), _a(i, -1), _b(i, -1), _a(i, -1))
        add(f"5:row{i}", prod, rhs, "wall-crossing relation of strand i")
    # (6)(7)(8)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if T:
                add(f"6:b{j}-b{i}", _cat(_b(j), _b(i)), _cat(_b(i), _b(j)),
                    "b generators commute")
                add(f"7:b{i}-a{j}",
                    _cat(_b(i, -1), _a(j), _b(i)),
                    _cat(_a(j), _b(j), _C(i, j), _C(i + 1, j, -1), _b(j, -1)),
                    "conjugation of a_j by b_i")
            else:
                add(f"6:b{j}-b{i}", _cat(_b(j), _b(i)),
                    _cat(_b(i), _b(j), _C(i, j), _C(i + 1, j, -1)),
                    "b generators commute up to encircling braids")
                add(f"7:b{i}-a{j}",
                    _cat(_b(i, -1), _a(j), _b(i)),
                    _cat(_a(j), _b(j), _C(i + 1, j), _C(i, j, -1), _b(j, -1)),
                    "conjugation of a_j by b_i")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                lhs = _cat(_b(i, -1), _C(j, k), _b(i))
                if i < j or k < i:
                    add(f"8:b{i}-C{j},{k}", lhs, _C(j, k),
                        "b_i commutes with disjoint C[j,k]")
                elif j <= i < k:
                    if T:
                        rhs = _cat(_C(i + 1, k), _C(i, k, -1), _C(j, k), _b(k),
                                   _C(i, k), _C(i + 1, k, -1), _b(k, -1))
                    else:
                        rhs = _cat(_C(i + 1, k), _C(i, k, -1), _C(j, k), _b(k),
                                   _C(i + 1, k), _C(i, k, -1), _b(k, -1))
                    add(f"8:b{i}-C{j},{k}", lhs, rhs,
                        "conjugation of nested C[j,k] by b_i")
    return rels


# ---------------------------------------------------------------------------
# The full braid group table: Artin relations, half-twist conjugation rules
# and Artin-letter spellings of the C braids.

def _braid_relations(surface: str, n: int) -> list[Relation]:
    rels: list[Relation] = []
    for i in range(1, n - 1):
        rels.append(Relation(
            f"artin:s{i}-s{i+1}",
            _cat(_s(i), _s(i + 1), _s(i)), _cat(_s(i + 1), _s(i), _s(i + 1)),
            "braid relation"))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(Relation(
                f"artin:s{i}-s{j}", _cat(_s(i), _s(j)), _cat(_s(j), _s(i)),
                "far commutation"))
    for i in range(1, n):
        for j in range(1, n + 1):
            lhs_a = _cat(_s(i, -1), _a(j), _s(i))
            lhs_b = _cat(_s(i, -1), _b(j), _s(i))
            if j == i:
                rhs_a = _cat(_s(i, -1), _s(i, -1), _a(i + 1))
                rhs_b = _cat(_b(i + 1), _s(i), _s(i))
            elif j == i + 1:
                rhs_a = _cat(_a(i), _s(i), _s(i))
                rhs_b = _cat(_s(i, -1), _s(i, -1), _b(i))
            else:
                rhs_a, rhs_b = _a(j), _b(j)
            rels.append(Relation(f"twist:s{i}-a{j}", lhs_a, rhs_a,
                                 "half twist moves wall crossings between strands"))
            rels.append(Relation(f"twist:s{i}-b{j}", lhs_b, rhs_b,
                                 "half twist moves wall crossings between strands"))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            rels.append(Relation(
                f"band:C{j},{k}", _C(j, k), aij_word(j, k, n),
                "encircling braid spelled in half twists"))
    return rels


def instantiate_presentation(family: str, surface: str, n: int) -> RelationTable:
    """Every relation instance of the P_n or B_n table for the given n."""
    ctx = GroupContext(family, surface, n)
    if surface not in ("T", "K"):
        raise DomainError(f"no presentation table for surface {surface!r}")
    if family == "P":
        return RelationTable(ctx, tuple(_pure_relations(surface, n)))
    rels = _braid_relations(surface, n)
    return RelationTable(ctx, tuple(rels))


# ---------------------------------------------------------------------------
# Derived relation families

def _alpha(j: int, i: int, n: int) -> Word:
    return alpha_beta_word("alpha", j, i, n)


def _beta(j: int, i: int, n: int) -> Word:
    return alpha_beta_word("beta", j, i, n)


def _family_S(name: str, surface: str, n: int) -> list[Relation]:
    T = surface == "T"
    out = []
    if name == "S1":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append(Relation(
                    f"S1:{i},{j}",
                    _cat(_a(i), _b(j), _a(i, -1)),
                    _cat(_b(j), _C(i, j), _C(i + 1, j, -1)),
                    "outward conjugation of b_j by a_i"))
    elif name == "S2":
        # The two encircling factors do not commute; their order is fixed
        # by the oracle check at n = 3 (swapping them breaks the identity).
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append(Relation(
                    f"S2:{i},{j}",
                    _cat(_b(i), _a(j), _b(i, -1)),
                    _cat(_a(j), _C(i, j, -1), _C(i + 1, j)),
                    "outward conjugation of a_j by b_i"))
    elif name == "S3":
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                for k in range(i + 1, n + 1):
                    out.append(Relation(
                        f"S3:{i};{j},{k}",
                        _cat(_a(i), _C(j, k), _a(i, -1)),
                        _cat(_C(i + 1, k), _C(i, k, -1), _C(j, k), _a(k, -1),
                             _C(i, k), _C(i + 1, k, -1), _a(k)),
                        "outward conjugation of C[j,k] by a_i"))
    elif name == "S4":
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                for k in range(i + 1, n + 1):
                    if T:
                        rhs = _cat(_b(k, -1), _C(i + 1, k, -1), _C(i, k), _b(k),
                                   _C(j, k), _C(i, k, -1), _C(i + 1, k))
                    else:
                        rhs = _cat(_b(k, -1), _C(i, k, -1), _C(i + 1, k), _b(k),
                                   _C(j, k), _C(i, k, -1), _C(i + 1, k))
                    out.append(Relation(
                        f"S4:{i};{j},{k}",
                        _cat(_b(i), _C(j, k), _b(i, -1)), rhs,
                        "outward conjugation of C[j,k] by b_i"))
    elif name == "S5":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                rhs = _b(j) if T else _cat(_C(i + 1, j, -1), _C(i, j), _b(j))
                out.append(Relation(
                    f"S5:{i},{j}", _cat(_b(i), _b(j), _b(i, -1)), rhs,
                    "outward conjugation of b_j by b_i"))
    return out


def _family_R(name: str, surface: str, n: int) -> list[Relation]:
    T = surface == "T"
    out = []
    if name == "R1":
        for i in range(1, n):
            out.append(Relation(
                f"R1:{i}",
                _cat(_a(i + 1), _a(i), _s(i)), _cat(_s(i), _a(i + 1), _a(i)),
                "adjacent a pair commutes with the half twist"))
    elif name == "R2":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(i, j):
                    out.append(Relation(
                        f"R2:{j},{i};s{k}",
                        _cat(_alpha(j, i, n), _s(k)), _cat(_s(k), _alpha(j, i, n)),
                        "descending a product commutes with inner half twists"))
    elif name == "R3":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(i, j):
                    for t in range(k + 1, j + 1):
                        out.append(Relation(
                            f"R3:{j},{i};C{k},{t}",
                            _cat(_alpha(j, i, n), _C(k, t)),
                            _cat(_C(k, t), _alpha(j, i, n)),
                            "descending a product commutes with inner C braids"))
    elif name == "R4":
        for i in range(1, n):
            rhs = _cat(_s(i, 1 if T else -1), _b(i + 1), _b(i))
            out.append(Relation(
                f"R4:{i}", _cat(_b(i + 1), _b(i), _s(i)), rhs,
                "adjacent b pair versus the half twist"))
    elif name == "R5":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(i, j):
                    rhs = _cat(_s(k, 1 if T else -1), _beta(j, i, n))
                    out.append(Relation(
                        f"R5:{j},{i};s{k}", _cat(_beta(j, i, n), _s(k)), rhs,
                        "descending b product versus inner half twists"))
    elif name == "R6":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(i, j):
                    for t in range(k + 1, j + 1):
                        rhs = _cat(_C(k, t, 1 if T else -1), _beta(j, i, n))
                        out.append(Relation(
                            f"R6:{j},{i};C{k},{t}",
                            _cat(_beta(j, i, n), _C(k, t)), rhs,
                            "descending b product versus inner C braids"))
    elif name == "R7":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if T:
                    out.append(Relation(
                        f"R7:{j},{i}",
                        _cat(_beta(j, i, n), _b(j)), _cat(_b(j), _beta(j, i, n)),
                        "b_j commutes with the descending b product"))
                else:
                    out.append(Relation(
                        f"R7:{j},{i}",
                        _cat(_beta(j, i, n), _b(j), _C(i, j)),
                        _cat(_b(j), _beta(j, i, n)),
                        "b_j versus the descending b product"))
    return out


def _family_P(name: str, surface: str, n: int) -> list[Relation]:
    T = surface == "T"
    out = []
    delta = _cat(_C(1, n), _C(2, n, -1), _C(3, n))
    delta_bar = _cat(_C(3, n), _C(2, n, -1), _C(1, n))
    if name == "P1":
        for i in range(1, n):
            out.append(Relation(
                f"P1:{i}",
                _cat(_b(n, -1), _a(i), _b(n)),
                _cat(_C(i, n), _C(i + 1, n, -1), _a(i)),
                "conjugation of a_i by b_n"))
        rhs = _cat(_a(n), _C(1, n, -1)) if T else _cat(_C(1, n), _a(n, -1))
        out.append(Relation(f"P1:{n}", _cat(_b(n, -1), _a(n), _b(n)), rhs,
                            "conjugation of a_n by b_n"))
    elif name == "P2":
        for i in range(2, n):
            out.append(Relation(
                f"P2:{i}",
                _cat(_b(n, -1), _C(i, n), _b(n)),
                _cat(_beta(n - 1, i, n), _C(i, n, 1 if T else -1),
                     _beta(n - 1, i, n).inverse()),
                "conjugation of C[i,n] by b_n"))
        if T:
            # The order of the two inner encircling factors is forced by
            # the oracle: the transposed variant fails at n = 3 and 4
            # (see rejected_variant below).
            rhs = _cat(_beta(n - 1, 3, n), _b(1), _beta(n - 1, 2, n),
                       _C(3, n, -1), _C(2, n), _beta(n - 1, 2, n).inverse(),
                       delta, _b(n), _b(1, -1), _beta(n, 3, n).inverse())
        else:
            rhs = _cat(_beta(n - 1, 3, n), _b(1), delta.inverse(),
                       _beta(n - 1, 2, n), _C(3, n), _C(2, n, -1),
                       _beta(n - 1, 2, n).inverse(), _b(n), delta,
                       _b(1, -1), _beta(n, 3, n).inverse())
        out.append(Relation("P2:1", _cat(_b(n, -1), _C(1, n), _b(n)), rhs,
                            "conjugation of C[1,n] by b_n"))
    elif name == "P3":
        for i in range(1, n):
            out.append(Relation(
                f"P3:{i}",
                _cat(_a(n, -1), _b(i), _a(n)),
                _cat(_C(i, n, -1), _C(i + 1, n), _b(i)),
                "conjugation of b_i by a_n"))
        out.append(Relation(f"P3:{n}", _cat(_a(n, -1), _b(n), _a(n)),
                            _cat(_b(n), _C(1, n)),
                            "conjugation of b_n by a_n"))
    elif name == "P4":
        for i in range(2, n):
            out.append(Relation(
                f"P4:{i}",
                _cat(_a(n, -1), _C(i, n), _a(n)),
                _cat(_alpha(n - 1, i, n), _C(i, n), _alpha(n - 1, i, n).inverse()),
                "conjugation of C[i,n] by a_n"))
        rhs = _cat(_alpha(n - 1, 3, n), _a(1), delta_bar, _alpha(n - 1, 2, n),
                   _C(2, n), _C(3, n, -1), _alpha(n - 1, 2, n).inverse(),
                   _a(n), _a(1, -1), _alpha(n, 3, n).inverse())
        out.append(Relation("P4:1", _cat(_a(n, -1), _C(1, n), _a(n)), rhs,
                            "conjugation of C[1,n] by a_n"))
    return out


_S_NAMES = ("S1", "S2", "S3", "S4", "S5")
_R_NAMES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")
_P_NAMES = ("P1", "P2", "P3", "P4")


def instantiate_family(name: str, surface: str, n: int) -> RelationTable:
    """All index instances of one derived relation family."""
    if surface not in ("T", "K"):
        raise DomainError(f"no relation families for surface {surface!r}")
    if name in _S_NAMES:
        ctx = GroupContext("P", surface, n)
        rels = _family_S(name, surface, n)
    elif name in _R_NAMES:
        if n < 2:
            raise DomainError(f"{name} needs n >= 2")
        ctx = GroupContext("B", surface, n)
        rels = _family_R(name, surface, n)
    elif name in _P_NAMES:
        if name in ("P3", "P4") and surface == "K":
            raise DomainError(f"{name} is a torus-only family")
        if n < 3:
            raise DomainError(f"{name} needs n >= 3")
        ctx = GroupContext("P", surface, n)
        rels = _family_P(name, surface, n)
    else:
        raise DomainError(f"unknown relation family {name!r}")
    return RelationTable(ctx, tuple(rels))


def all_family_names() -> tuple[str, ...]:
    return _S_NAMES + _R_NAMES + _P_NAMES


def rejected_variant(name: str, surface: str, n: int) -> Relation:
    """Factor-transposed variants of two shipped rules.

    In both cases the pair of encircling factors on the right-hand side
    does not commute, so transposing them changes the group element; the
    word-problem oracle rejects these variants at n <= 4.  They are kept
    available so the test suite can pin the correct order down.
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
