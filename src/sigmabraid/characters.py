"""
Abelianizations, characters and sphere points.

A character is a homomorphism to the reals, stored as an exact rational
coordinate vector on the free basis of the relevant abelianization.  The
free and torsion bases, the rule that places a letter and the JSON layout
of each group family are read off its record in ``words._FAMILIES``, the
one statement of each family's facts; those of a model are read off its
record in :mod:`sigmabraid.models`.

Each :class:`AbelianizationSpec` owns its coordinate layout: one map from
label to position, free coordinates first, then torsion.  Everything else
addresses coordinates by position; labels are only read and written at
the edges (JSON, the CLI, ``chi["a1"]``).  There is one spec per group
(:func:`abelianization` is cached), and each spec validates a distinct
letter once, when it enters its table of letter slots, which both
:func:`abelianize` and the letter tables read.  A letter of a pure group
or a model is its own coordinate, named as it prints, or it dies (C[i,j];
w, w2, w3).  No floating point is used anywhere.  Each coordinate of a
character is held in one canonical exact form: an int when it is
integral, else a Fraction with denominator > 1.  So an integer character
builds no Fraction on its way to a sphere point: its lcm of denominators
is 1 and its coordinates are already the scaled integers.

Evaluation runs on integers.  Each character carries one
:class:`LetterTable`, built lazily on first use: its coordinates scaled by
the lcm L of their denominators in integer arithmetic alone (as
:func:`sphere_point` scales them), and the exact integer value L*chi(g) of
every signed letter g met so far, keyed by the letter's code.
:func:`evaluate` and :func:`nu`
sum and minimise these integers and divide by L once at the end, so they
still return exact Fractions; the ball search and the certificate margins
read the integers directly, since positive scaling keeps every sign.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .models import IsoDictionary, ModelId, _check_letters
from .words import (
    AlphabetError,
    DomainError,
    GeneratorSymbol,
    GroupContext,
    Word,
    sphere_pairs,
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


@cache
def abelianization(group: GroupLike) -> AbelianizationSpec:
    """The abelianization of a group or model, one shared spec per group."""
    if isinstance(group, ModelId):
        orders = group.letter_orders  # 0 free, 1 trivial, k torsion of order k
        return AbelianizationSpec(group, tuple(name for name, k in orders if k == 0),
                                  tuple((name, k) for name, k in orders if k > 1))
    record = group._record
    if record is None:
        raise DomainError(f"no abelianization table for {group}")
    return AbelianizationSpec(group, record.free(group.n), record.torsion(group.n))


@dataclass(frozen=True)
class AbelianImage:
    spec: AbelianizationSpec
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


def _check_letter(group: GroupLike, s: GeneratorSymbol) -> None:
    if isinstance(group, ModelId):
        _check_letters(group, (s,))
    else:
        validate_symbol(s, group)


def _letter_slots(spec: AbelianizationSpec, s: GeneratorSymbol) -> list[tuple[int, int]]:
    """Where one letter, read as positive, lands: (position, coefficient)
    pairs, by the rule of the group's record (``full``) or as its own label."""
    group = spec.group
    if isinstance(group, ModelId) or not group._record.full:
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
    """Rational coordinates on the free basis; torsion carries nothing.

    Each coordinate is in the canonical form of :func:`_exact`: an int when
    it is integral, else a Fraction with denominator > 1."""

    spec: AbelianizationSpec
    coords: tuple[Rational, ...]

    def __getitem__(self, label: str) -> Rational:
        return self.coords[self.spec.free_index(label)]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def scale(self, r: Rational) -> "Character":
        r = _exact(r)
        return Character(self.spec, tuple([_exact(c * r) for c in self.coords]))

    def __neg__(self) -> "Character":
        return self.scale(-1)

    @cached_property
    def letter_table(self) -> "LetterTable":
        """The scaled integer letter table; not a field, so it stays out of
        eq, hash and repr."""
        return LetterTable(self)


def _scale_to_ints(coords: tuple[Rational, ...]) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the denominators and L times each coordinate, in
    integer arithmetic alone: L * (p/q) is p * (L // q), exact since q
    divides L, so no Fraction is built, multiplied or truncated.  In the
    canonical form L is 1 exactly when every coordinate is an int; then
    the coordinates are returned as they are, read by type alone."""
    if set(map(type, coords)) <= {int}:
        return 1, coords
    scale = math.lcm(*[c.denominator for c in coords])
    return scale, tuple([c.numerator * (scale // c.denominator) for c in coords])


class LetterTable:
    """A character on letters as exact integers.

    ``denominator`` is the lcm L of the coordinate denominators; ``values``
    maps the signed code (:attr:`GeneratorSymbol.code`) of each letter met
    so far to L times the character's value on that signed letter;
    ``_scaled`` holds L times each coordinate by position, 0 on torsion,
    each computed as numerator * (L // denominator) with ints only.  A
    letter enters on first lookup, both signs at once, placed by the spec's
    validated table (:meth:`AbelianizationSpec.slots`); a letter that fails
    validation raises AlphabetError and never enters.
    """

    __slots__ = ("spec", "denominator", "values", "_scaled")

    def __init__(self, chi: Character):
        self.spec = chi.spec
        self.denominator, scaled = _scale_to_ints(chi.coords)
        self._scaled = [*scaled, *[0] * len(chi.spec.torsion)]
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

    def lowest(self, value: int, letters: Iterable[GeneratorSymbol]) -> int:
        """The least of the scaled values met walking ``letters`` (a Word or
        any sequence of letters) from a vertex of scaled value ``value``,
        that vertex included: L times the chi-minimum of the path.  Letters
        are valued in order, so the first foreign one raises AlphabetError."""
        get = self.values.get
        lowest = value
        for s in letters:
            v = get(s.code)
            value += self._enter(s) if v is None else v
            if value < lowest:
                lowest = value
        return lowest


def _exact(v: Rational) -> Rational:
    """An exact rational in canonical form, an int when it is integral and
    else a Fraction with denominator > 1: an int as it is, a Fraction of
    denominator 1 as its numerator, any other Fraction as it is, a string
    as written (:func:`_num_from_json`); a float or bool is a DomainError."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        if isinstance(v, (float, bool)):
            raise DomainError(f"values must be exact rationals (int or Fraction), got {v!r}")
        if isinstance(v, str):
            return _num_from_json(v)
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def character(group: GroupLike, coords: Mapping[str, Rational] | Iterable[Rational]) -> Character:
    """Build a character from a label->value mapping or a full coordinate
    sequence on the free basis."""
    spec = abelianization(group)
    # tuples from lists, not generators: see sphere_point
    if isinstance(coords, Mapping):
        # each given label is placed by position, the rest stay the int 0, so
        # a sparse mapping costs the coordinates it gives
        positions, rank = spec.positions, spec.free_rank
        unknown = [label for label in coords if positions.get(label, rank) >= rank]
        if unknown:
            raise AlphabetError(f"not free coordinates of {group}: {sorted(unknown)}")
        placed = [0] * rank
        for label, v in coords.items():
            placed[positions[label]] = _exact(v)
        vec = tuple(placed)
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
    return character(GroupContext("P", "S2", n), {f"A[{i},{j}]": v for (i, j), v in values.items()})


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
# Strand blocks

def strand_blocks(x: "Character | SpherePoint") -> tuple[tuple, tuple]:
    """The a and b blocks of a P_n(T) or P_n(K) character or point, strand
    i at index i-1; the a block is empty on the Klein bottle."""
    group = x.spec.group
    if isinstance(group, ModelId) or not group._record.blocks:
        raise DomainError("strand blocks are defined for torus and Klein-bottle pure groups")
    r = len(x.coords) - group.n
    return x.coords[:r], x.coords[r:]


# ---------------------------------------------------------------------------
# Sphere points

@dataclass(frozen=True)
class SpherePoint:
    """A nonzero character up to positive scaling, in canonical form: the
    primitive integer vector with the same signs (denominators cleared,
    divided by the gcd).  Antipodes stay distinct.

    The form is an invariant: one int (not a bool) per free coordinate, not
    all zero, with gcd 1; any other tuple is a DomainError naming the group."""

    spec: AbelianizationSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        c = self.coords  # math.gcd of no ints, or of zeros only, is 0
        if len(c) != self.spec.free_rank or not set(map(type, c)) <= {int} or math.gcd(*c) != 1:
            raise DomainError(f"{c!r} is not a sphere point of {self.spec.group}: need "
                              f"{self.spec.free_rank} ints with gcd 1")

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(self.spec, tuple(-c for c in self.coords))

    def character(self) -> Character:
        """The point as a character: its ints are already canonical."""
        return Character(self.spec, self.coords)


def sphere_point(chi: Character) -> SpherePoint:
    """The canonical point of a nonzero character: its coordinates scaled
    to ints by the lcm L of their denominators, each numerator * (L //
    denominator) with no Fraction arithmetic, then divided by their gcd.
    An integer character (L = 1) is read as it is, and a primitive one
    (gcd 1) is not divided, so neither builds a Fraction or a new int."""
    if chi.is_zero():  # every character of a group with an empty sphere is zero
        raise DomainError(f"{chi.spec.group} has an empty character sphere; no points exist"
                          if not chi.spec.free_rank else "the zero character has no sphere point")
    # Lists, not generators, feed the tuples: CPython sizes a tuple built from
    # a generator by a guess and resizes it, and the freed tuples fill the
    # interpreter's per-size free lists, which keep their memory.
    ints = _scale_to_ints(chi.coords)[1]
    g = math.gcd(*ints)
    return SpherePoint(chi.spec, ints if g == 1 else tuple([c // g for c in ints]))


# ---------------------------------------------------------------------------
# Characters through a model dictionary

def model_character(dic, chi: Character) -> Character:
    """Pull a pure braid character through a model dictionary: the model
    letter g gets the value chi(image of g)."""
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
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


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


# the strings read as numbers, and the sphere's 'A' keys: ASCII digits, with no
# blank, '+', '_', point or exponent
_INTEGER, _RATIONAL = re.compile("-?[0-9]+"), re.compile("-?[0-9]+(/[0-9]+)?")
_PAIR = re.compile("[0-9]+,[0-9]+")


def json_int_field(obj, key: str | int, what: str) -> int:
    """An integer field, given as a JSON number or a string reading -?[0-9]+."""
    value = json_field(obj, key, (int, str), what)
    try:
        if type(value) is int or isinstance(value, str) and _INTEGER.fullmatch(value):
            return int(value)  # not a bool: JSON true/false would pass as 1/0
    except ValueError:  # past the int -> str digit limit
        pass
    raise DomainError(f"{what} field {key!r} must be an integer, got {value!r}")


def _num_from_json(v) -> Rational:
    """The one reader of exact rationals, in the canonical form of
    :func:`_exact`: an int that is not a bool, returned as it is with no
    Fraction built, or a string reading -?[0-9]+(/[0-9]+)?.  A DomainError
    names anything else, a zero denominator, or digits past the int -> str
    digit limit."""
    if type(v) is int:
        return v
    if isinstance(v, str) and _RATIONAL.fullmatch(v):
        try:
            f = Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return f.numerator if f.denominator == 1 else f
    raise DomainError(f"numbers must be integers or exact 'p/q' strings, got {v!r}")


def character_to_json(chi: Character) -> dict:
    group = chi.spec.group
    labelled = zip(chi.spec.free_labels, map(rational_to_json, chi.coords))
    if isinstance(group, ModelId):
        return {"model": group.value, "coords": dict(labelled)}
    out: dict = {"group": group.family, "surface": group.surface, "n": group.n}
    record, n = group._record, group.n
    if record.pair_map:
        out["A"] = {f"{i},{j}": rational_to_json(v)
                    for (i, j), v in zip(sphere_pairs(n), chi.coords) if v != 0}
    elif record.blocks:
        for k, name in enumerate(record.blocks):
            out[name] = [rational_to_json(v) for v in chi.coords[k * n:(k + 1) * n]]
    else:
        out.update(labelled)
    return out


_WHAT = "character JSON"


def _num_list_from_json(obj: Mapping, key: str) -> list[Rational]:
    return [_num_from_json(v) for v in json_field(obj, key, (list,), _WHAT)]


def character_from_json(obj: Mapping) -> Character:
    if not isinstance(obj, Mapping):
        raise DomainError(f"{_WHAT} must be an object, got {type(obj).__name__}")
    if "model" in obj:
        name = json_field(obj, "model", (str,), _WHAT)
        if name not in ModelId.__members__:
            raise DomainError(f"{_WHAT} model {name!r} is not a model")
        ctx, read = ModelId(name), ("model", "coords")
    else:
        fam = json_field(obj, "group", (str,), _WHAT) if "group" in obj else "P"
        surf = json_field(obj, "surface", (str,), _WHAT)
        ctx = GroupContext(fam, surf, json_int_field(obj, "n", _WHAT))
        record = ctx._record  # None for P_n(D), which abelianization refuses
        read = record and (("A",) if record.pair_map else record.blocks)
        read = ("group", "surface", "n", *(read or abelianization(ctx).free_labels))
    unread = sorted(set(obj).difference(read))
    if unread:
        raise DomainError(f"unknown {_WHAT} fields: {unread}")
    if isinstance(ctx, ModelId):
        coords = json_field(obj, "coords", (dict,), _WHAT) if "coords" in obj else {}
        return character(ctx, {k: _num_from_json(v) for k, v in coords.items()})
    if record.blocks:
        names = record.blocks
        blocks = [_num_list_from_json(obj, name) for name in names]
        if any(len(block) != ctx.n for block in blocks):
            raise DomainError(f"need {ctx.n} entries in {' and '.join(map(repr, names))}")
        return character(ctx, [v for block in blocks for v in block])
    if record.pair_map:
        values = {}
        for key, v in (json_field(obj, "A", (dict,), _WHAT) if "A" in obj else {}).items():
            try:  # TypeError: no match, None[0]; ValueError: past the int -> str digit limit
                i, j = map(int, _PAIR.fullmatch(key)[0].split(","))
            except (TypeError, ValueError):
                raise DomainError(f"keys of 'A' must read 'i,j', got {key!r}") from None
            if (i, j) in values:  # '1,3' and '01,3' are one pair
                raise DomainError(f"key {key!r} of 'A' names the pair {i},{j} again")
            values[i, j] = _num_from_json(v)
        return sphere_character(ctx.n, values)
    coords = {label: _num_from_json(obj[label]) for label in abelianization(ctx).free_labels
              if label in obj}
    return character(ctx, coords)
