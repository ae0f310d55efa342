"""
Abelianizations, characters and sphere points.

A character is a homomorphism to the reals, stored as an exact rational
coordinate vector on the free basis of the relevant abelianization.  The
free and torsion bases implemented here:

  P_n(T)   free a1..an, b1..bn
  P_n(K)   free b1..bn, torsion a1..an (order 2)
  P_n(S2)  free A[i,j] for 1 <= i < j <= n, {i,j} != {1,2}
           (the parameter n is the coordinate index bound; the group has
           n+1 strands); plus one order-2 class not visible to characters
  B_n(T)   free a, b, torsion s (order 2); all a_i collapse to a, etc.
  B_n(K)   free b, torsion s and a (order 2)
  B_n(D)   free s (the disc braid group)
  B_n(S2)  torsion s of order 2(n-1); empty character sphere
  B_n(RP2), P_n(RP2)  torsion only; empty character spheres
  models   read off the model records (see sigmabraid.models): G2T free
           x,y,a,b; G2K free y,b and torsion x,a (order 2); G3T free
           x,y,a,b,u,v (w dies); G4T free x,y,a,b,u,v,ub,vb

Each :class:`AbelianizationSpec` owns its coordinate layout: one map from
label to position, free coordinates first, then torsion.  Everything else
addresses coordinates by position; labels are only read and written at
the edges (JSON, the CLI, ``chi["a1"]``).  There is one spec per group
(:func:`abelianization` is cached), and each spec validates a distinct
letter once, when it enters its table of letter slots, which both
:func:`abelianize` and the letter tables read.  One rule places a letter: a
letter of a pure group or a model is its own coordinate, named as it
prints, or it dies (C[i,j]; w, w2, w3); a full braid group forgets strand
indices, sends C[i,j] to 2 s and the full twist D to n(n-1) s.  The torus
and Klein-bottle pure groups lay their coordinates out in strand blocks,
a1..an then b1..bn; :func:`strand_blocks` slices them.  No floating point
is used anywhere: coordinates are ints or fractions.Fraction.

Evaluation runs on integers.  Each character carries one
:class:`LetterTable`, built lazily on first use: its coordinates scaled by
the lcm L of their denominators, and the exact integer value L*chi(g) of
every signed letter g met so far, keyed by the letter's code.
:func:`evaluate` and :func:`nu`
sum and minimise these integers and divide by L once at the end, so they
still return exact Fractions; the ball search and the certificate margins
read the integers directly, since positive scaling keeps every sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .models import ModelId
from .words import (
    AlphabetError,
    DomainError,
    GeneratorSymbol,
    GroupContext,
    Word,
    validate_symbol,
)

GroupLike = Union[GroupContext, ModelId]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class AbelianizationSpec:
    """Free and torsion bases of one group's abelianization.

    ``free_labels`` name the free coordinates in order; ``torsion`` is a
    tuple of (label, order) pairs for the torsion coordinates that letters
    can actually hit.
    """

    group: GroupLike
    free_labels: tuple[str, ...]
    torsion: tuple[tuple[str, int], ...] = ()

    @property
    def free_rank(self) -> int:
        return len(self.free_labels)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Label -> position, free coordinates first, then torsion; not a
        field, so it stays out of eq, hash and repr."""
        labels = self.free_labels + tuple(label for label, _ in self.torsion)
        return {label: k for k, label in enumerate(labels)}

    def free_index(self, label: str) -> int:
        k = self.positions.get(label, -1)
        if 0 <= k < len(self.free_labels):
            return k
        raise ValueError(f"{label!r} is not a free coordinate of {self.group}")

    @cached_property
    def _slot_table(self) -> dict[int, list[tuple[int, int]]]:
        """abs(code) -> slots of each letter validated so far; not a field,
        so it stays out of eq, hash and repr."""
        return {}

    def slots(self, s: GeneratorSymbol) -> list[tuple[int, int]]:
        """Where one letter, read as positive, lands: (position,
        coefficient) pairs.  Each distinct letter is validated against the
        group once, when it enters the table; a letter that fails raises
        AlphabetError and never enters."""
        key = abs(s.code)
        slots = self._slot_table.get(key)
        if slots is None:
            _check_letter(self.group, s)
            slots = self._slot_table[key] = _letter_slots(self, s)
        return slots


def _sphere_labels(n: int) -> tuple[str, ...]:
    return tuple(f"A[{i},{j}]" for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if {i, j} != {1, 2})


@cache
def abelianization(group: GroupLike) -> AbelianizationSpec:
    """The abelianization of a group or model, one shared spec per group."""
    if isinstance(group, ModelId):
        orders = group.letter_orders  # 0 free, 1 trivial, k torsion of order k
        return AbelianizationSpec(group, tuple(name for name, k in orders if k == 0),
                                  tuple((name, k) for name, k in orders if k > 1))
    fam, surf, n = group.family, group.surface, group.n
    if fam == "P":
        if surf == "T":
            labels = tuple(f"a{i}" for i in range(1, n + 1)) + tuple(f"b{i}" for i in range(1, n + 1))
            return AbelianizationSpec(group, labels)
        if surf == "K":
            return AbelianizationSpec(
                group, tuple(f"b{i}" for i in range(1, n + 1)),
                tuple((f"a{i}", 2) for i in range(1, n + 1)))
        if surf == "S2":
            return AbelianizationSpec(group, _sphere_labels(n))
        if surf == "RP2":
            return AbelianizationSpec(group, (), tuple((f"a{i}", 2) for i in range(1, n + 1)))
    else:
        if surf == "T":
            return AbelianizationSpec(group, ("a", "b"), (("s", 2),))
        if surf == "K":
            return AbelianizationSpec(group, ("b",), (("s", 2), ("a", 2)))
        if surf == "D":
            return AbelianizationSpec(group, ("s",) if n >= 2 else ())
        if surf == "S2":
            return AbelianizationSpec(group, (), (("s", 2 * (n - 1)),) if n >= 2 else ())
        if surf == "RP2":
            return AbelianizationSpec(group, (), (("s", 2), ("a", 2)))
    raise DomainError(f"no abelianization table for {group}")


@dataclass(frozen=True)
class AbelianImage:
    spec: AbelianizationSpec
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


def _check_letter(group: GroupLike, s: GeneratorSymbol) -> None:
    if isinstance(group, ModelId):
        if s.indices or s.kind not in group.letter_names:
            raise AlphabetError(f"{s}: not a letter of {group.value}")
    else:
        validate_symbol(s, group)


def _letter_slots(spec: AbelianizationSpec, s: GeneratorSymbol) -> list[tuple[int, int]]:
    """Where one letter, read as positive, lands: (position, coefficient)
    pairs (the module docstring states the rule)."""
    group = spec.group
    if isinstance(group, ModelId) or group.family == "P":
        label, coeff = s.label, 1
    elif s.kind == "C":
        label, coeff = "s", 2
    elif s.kind == "D":
        label, coeff = "s", group.n * (group.n - 1)
    else:
        label, coeff = s.kind, 1
    k = spec.positions.get(label)
    return [] if k is None else [(k, coeff)]


def abelianize(group: GroupLike, w: Word) -> AbelianImage:
    """Sum signed letter exponents on the abelianization basis; torsion
    coordinates are reduced mod their orders."""
    spec = abelianization(group)
    coords = [0] * len(spec.positions)
    for s in w:
        for k, coeff in spec.slots(s):
            coords[k] += s.sign * coeff
    r = spec.free_rank
    return AbelianImage(spec, tuple(coords[:r]),
                        tuple(t % order for t, (_, order) in zip(coords[r:], spec.torsion)))


# ---------------------------------------------------------------------------
# Characters

@dataclass(frozen=True)
class Character:
    """Rational coordinates on the free basis; torsion carries nothing."""

    spec: AbelianizationSpec
    coords: tuple[Fraction, ...]

    def __getitem__(self, label: str) -> Fraction:
        return self.coords[self.spec.free_index(label)]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def scale(self, r: Rational) -> "Character":
        r = _exact(r)
        return Character(self.spec, tuple(c * r for c in self.coords))

    def __neg__(self) -> "Character":
        return self.scale(-1)

    @cached_property
    def letter_table(self) -> "LetterTable":
        """The scaled integer letter table; not a field, so it stays out of
        eq, hash and repr."""
        return LetterTable(self)


class LetterTable:
    """A character on letters as exact integers.

    ``denominator`` is the lcm L of the coordinate denominators; ``values``
    maps the signed code (:attr:`GeneratorSymbol.code`) of each letter met
    so far to L times the character's value on that signed letter;
    ``_scaled`` holds L times each coordinate by position, 0 on torsion.  A
    letter enters on first lookup, both signs at once, placed by the spec's
    validated table (:meth:`AbelianizationSpec.slots`); a letter that fails
    validation raises AlphabetError and never enters.
    """

    __slots__ = ("spec", "denominator", "values", "_scaled")

    def __init__(self, chi: Character):
        self.spec = chi.spec
        self.denominator = math.lcm(*(Fraction(c).denominator for c in chi.coords))
        self._scaled = [int(c * self.denominator) for c in chi.coords] + [0] * len(chi.spec.torsion)
        self.values: dict[int, int] = {}

    def _enter(self, s: GeneratorSymbol) -> int:
        value = s.sign * sum(coeff * self._scaled[k] for k, coeff in self.spec.slots(s))
        self.values[s.code] = value
        self.values[-s.code] = -value
        return value

    def value(self, s: GeneratorSymbol) -> int:
        """L times the character on one signed letter."""
        v = self.values.get(s.code)
        if v is None:
            v = self._enter(s)
        return v

    def total(self, w: Word) -> int:
        """L times the character on a word."""
        return sum(map(self.value, w.letters))

    def lowest(self, value: int, w: Word) -> int:
        """The least of the scaled values met walking ``w`` from a vertex of
        scaled value ``value``, that vertex included: L times the
        chi-minimum of the path."""
        get = self.values.get
        lowest = value
        for s in w.letters:
            v = get(s.code)
            value += self._enter(s) if v is None else v
            if value < lowest:
                lowest = value
        return lowest


def _exact(v: Rational) -> Fraction:
    """An exact rational; a float or a boolean is a DomainError naming it."""
    if isinstance(v, (float, bool)):
        raise DomainError(f"values must be exact rationals (int or Fraction), got {v!r}")
    return Fraction(v)


def character(group: GroupLike, coords: Mapping[str, Rational] | Iterable[Rational]) -> Character:
    """Build a character from a label->value mapping or a full coordinate
    sequence on the free basis."""
    spec = abelianization(group)
    # tuples from lists, not generators: see sphere_point
    if isinstance(coords, Mapping):
        unknown = set(coords) - set(spec.free_labels)
        if unknown:
            raise AlphabetError(f"not free coordinates of {group}: {sorted(unknown)}")
        vec = tuple([_exact(coords.get(label, 0)) for label in spec.free_labels])
    else:
        vec = tuple([_exact(c) for c in coords])
        if len(vec) != spec.free_rank:
            raise DomainError(f"expected {spec.free_rank} coordinates, got {len(vec)}")
    return Character(spec, vec)


def torus_character(n: int, a: Iterable[Rational], b: Iterable[Rational]) -> Character:
    a, b = list(a), list(b)
    if len(a) != n or len(b) != n:
        raise DomainError(f"need {n} a-coordinates and {n} b-coordinates")
    return character(GroupContext("P", "T", n), list(a) + list(b))


def klein_character(n: int, b: Iterable[Rational]) -> Character:
    b = list(b)
    if len(b) != n:
        raise DomainError(f"need {n} b-coordinates")
    return character(GroupContext("P", "K", n), b)


def sphere_character(n: int, values: Mapping[tuple[int, int], Rational]) -> Character:
    mapping = {f"A[{i},{j}]": v for (i, j), v in values.items()}
    return character(GroupContext("P", "S2", n), mapping)


def evaluate(chi: Character, w: Word) -> Fraction:
    """chi on a word: the sum of the signed scaled letter values from the
    character's letter table, divided by its denominator L once.  Equal to
    chi on the free part of the abelianized word; additive on
    concatenation."""
    table = chi.letter_table
    return Fraction(table.total(w), table.denominator)


def nu(chi: Character, start: Word, steps: Word) -> Fraction:
    """Minimum of chi over the path start, start.z1, ..., start.z1...zk.

    The running value and minimum are scaled integers from the letter
    table (:meth:`LetterTable.lowest`); only the minimum is divided by the
    denominator L."""
    table = chi.letter_table
    return Fraction(table.lowest(table.total(start), steps), table.denominator)


# ---------------------------------------------------------------------------
# Strand insertion / deletion

def strand_blocks(x: "Character | SpherePoint") -> tuple[tuple, tuple]:
    """The a and b blocks of a P_n(T) or P_n(K) character or point, strand
    i at index i-1; the a block is empty on the Klein bottle."""
    group = x.spec.group
    if not isinstance(group, GroupContext) or (group.family, group.surface) not in (("P", "T"), ("P", "K")):
        raise DomainError("strand blocks are defined for torus and Klein-bottle pure groups")
    if group.surface == "K":
        return (), x.coords
    return x.coords[:group.n], x.coords[group.n:]


def strand_pullback(chi: Character, n_target: int, strands: Iterable[int]) -> Character:
    """Insert zero coordinates so that strand i of the source becomes
    strand strands[i] of the target (composition with strand erasure)."""
    blocks = strand_blocks(chi)
    group = chi.spec.group
    strands = list(strands)
    k = group.n
    if len(strands) != k or sorted(strands) != strands or strands[0] < 1 or strands[-1] > n_target:
        raise DomainError(f"need {k} increasing target strands within 1..{n_target}")
    target = GroupContext(group.family, group.surface, n_target)
    source = {s: pos for pos, s in enumerate(strands)}  # target strand -> source index
    return character(target, [block[source[t]] if t in source else 0
                              for block in blocks if block for t in range(1, n_target + 1)])


def strand_pushforward(chi: Character, keep: Iterable[int]) -> Character:
    """Restrict to the kept strands; defined only when every deleted
    coordinate vanishes (chi factors through the strand-erasing map)."""
    blocks = strand_blocks(chi)
    group = chi.spec.group
    keep = sorted(set(keep))
    if not keep or keep[0] < 1 or keep[-1] > group.n:
        raise DomainError(f"kept strands must lie in 1..{group.n}")
    for i in range(1, group.n + 1):
        if i not in keep and any(block[i - 1] for block in blocks if block):
            raise DomainError(f"character does not vanish on deleted strand {i}")
    target = GroupContext(group.family, group.surface, len(keep))
    return character(target, [block[s - 1] for block in blocks if block for s in keep])


# ---------------------------------------------------------------------------
# Sphere points

@dataclass(frozen=True)
class SpherePoint:
    """A nonzero character up to positive scaling, in canonical form: the
    primitive integer vector with the same signs (denominators cleared,
    divided by the gcd).  Antipodes stay distinct."""

    spec: AbelianizationSpec
    coords: tuple[int, ...]

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(self.spec, tuple(-c for c in self.coords))

    def __getitem__(self, label: str) -> int:
        return self.coords[self.spec.free_index(label)]

    def character(self) -> Character:
        return Character(self.spec, tuple(Fraction(c) for c in self.coords))


def sphere_point(chi: Character) -> SpherePoint:
    if chi.is_zero():
        raise DomainError("the zero character has no sphere point")
    # Lists, not generators, feed the tuples: CPython sizes a tuple built from
    # a generator by a guess and resizes it, and the freed tuples fill the
    # interpreter's per-size free lists, which keep their memory.
    scale = math.lcm(*[c.denominator for c in chi.coords])
    ints = [int(c * scale) for c in chi.coords]
    g = math.gcd(*ints)
    return SpherePoint(chi.spec, tuple([c // g for c in ints]))


# ---------------------------------------------------------------------------
# Characters through a model dictionary

def model_character(dic, chi: Character) -> Character:
    """Pull a pure braid character through a model dictionary: the model
    letter g gets the value chi(image of g)."""
    from .models import IsoDictionary  # local to avoid import cycle at load

    assert isinstance(dic, IsoDictionary)
    if chi.spec.group != dic.braid_context:
        raise DomainError(f"character lives on {chi.spec.group}, dictionary covers {dic.braid_context}")
    values = {}
    spec = abelianization(dic.model)
    for name in dic.model.letter_names:
        val = evaluate(chi, dic.to_braid[name])
        if name in spec.free_labels:
            values[name] = val
        elif val != 0:
            raise DomainError(f"braid character is nonzero on torsion letter {name}")
    return character(dic.model, values)


# ---------------------------------------------------------------------------
# JSON forms

def rational_to_json(v: Fraction | int):
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def json_field(obj, key: str | int, kinds: tuple[type, ...], what: str):
    """``obj[key]`` of one of the JSON types ``kinds``, ``obj`` an object (or an
    array, for an int ``key``); a DomainError names a missing or mistyped field."""
    shape = list if isinstance(key, int) else dict
    if not isinstance(obj, shape):
        kind = "an array" if shape is list else "an object"
        raise DomainError(f"{what} must be {kind}, got {type(obj).__name__}")
    if not (0 <= key < len(obj) if shape is list else key in obj):
        raise DomainError(f"{what} misses the field {key!r}")
    value = obj[key]
    if not isinstance(value, kinds):
        raise DomainError(f"{what} field {key!r} has the wrong type {type(value).__name__}")
    return value


def json_int_field(obj, key: str | int, what: str) -> int:
    """An integer field, given as a JSON number or a decimal string."""
    value = json_field(obj, key, (int, str), what)
    try:
        if not isinstance(value, bool):  # JSON true/false would pass as 1/0
            return int(value)
    except ValueError:
        pass
    raise DomainError(f"{what} field {key!r} must be an integer, got {value!r}")


def _num_from_json(v) -> Fraction:
    """The one reader of exact rationals: a JSON integer or a 'p/q' string.
    A DomainError names a boolean, a malformed string or a zero denominator."""
    if isinstance(v, (int, str)) and not isinstance(v, bool):  # JSON true/false would pass as 1/0
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"numbers must be integers or exact 'p/q' strings, got {v!r}")


def character_to_json(chi: Character) -> dict:
    group = chi.spec.group
    labelled = zip(chi.spec.free_labels, map(rational_to_json, chi.coords))
    if isinstance(group, ModelId):
        return {"model": group.value, "coords": dict(labelled)}
    out: dict = {"group": group.family, "surface": group.surface, "n": group.n}
    if group.family == "P" and group.surface in ("T", "K"):
        a, b = strand_blocks(chi)
        if group.surface == "T":
            out["a"] = [rational_to_json(v) for v in a]
        out["b"] = [rational_to_json(v) for v in b]
    elif group.family == "P" and group.surface == "S2":
        out["A"] = {label[2:-1]: v for label, v in labelled if v != 0}
    else:
        out.update(labelled)
    return out


_WHAT = "character JSON"


def _num_list_from_json(obj: Mapping, key: str) -> list[Fraction]:
    return [_num_from_json(v) for v in json_field(obj, key, (list,), _WHAT)]


def character_from_json(obj: Mapping) -> Character:
    if not isinstance(obj, Mapping):
        raise DomainError(f"{_WHAT} must be an object, got {type(obj).__name__}")
    if "model" in obj:
        ctx, read = ModelId(obj["model"]), ("model", "coords")
    else:
        fam = json_field(obj, "group", (str,), _WHAT) if "group" in obj else "P"
        surf = json_field(obj, "surface", (str,), _WHAT)
        ctx = GroupContext(fam, surf, json_int_field(obj, "n", _WHAT))
        read = {"T": ("a", "b"), "K": ("b",), "S2": ("A",)}.get(surf) if fam == "P" else None
        read = ("group", "surface", "n", *(read or abelianization(ctx).free_labels))
    unread = sorted(set(obj).difference(read))
    if unread:
        raise DomainError(f"unknown {_WHAT} fields: {unread}")
    if isinstance(ctx, ModelId):
        coords = json_field(obj, "coords", (dict,), _WHAT) if "coords" in obj else {}
        return character(ctx, {k: _num_from_json(v) for k, v in coords.items()})
    if fam == "P" and surf == "T":
        a = _num_list_from_json(obj, "a")
        b = _num_list_from_json(obj, "b")
        if len(a) != ctx.n or len(b) != ctx.n:
            raise DomainError(f"need {ctx.n} entries in 'a' and 'b'")
        return character(ctx, list(a) + list(b))
    if fam == "P" and surf == "K":
        b = _num_list_from_json(obj, "b")
        if len(b) != ctx.n:
            raise DomainError(f"need {ctx.n} entries in 'b'")
        return character(ctx, b)
    if fam == "P" and surf == "S2":
        values = {}
        for key, v in (json_field(obj, "A", (dict,), _WHAT) if "A" in obj else {}).items():
            try:
                i, j = (int(t) for t in key.split(","))
            except ValueError:
                raise DomainError(f"keys of 'A' must read 'i,j', got {key!r}") from None
            values[f"A[{i},{j}]"] = _num_from_json(v)
        return character(ctx, values)
    coords = {label: _num_from_json(obj[label]) for label in abelianization(ctx).free_labels
              if label in obj}
    return character(ctx, coords)
