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
  models   G2T free x,y,a,b; G2K free y,b and torsion x,a (order 2);
           G3T free x,y,a,b,u,v (w dies); G4T free x,y,a,b,u,v,ub,vb

Encircling letters C[i,j] always die in the abelianization, and the full
twist D maps to n(n-1) times the sigma class.  No floating point is used
anywhere: coordinates are ints or fractions.Fraction.

Evaluation runs on integers.  Each character carries one
:class:`LetterTable`, built lazily on first use: its coordinates scaled by
the lcm L of their denominators, and the exact integer value L*chi(g) of
every positive letter g met so far.  A letter is validated against the
group once, when it enters the table.  :func:`evaluate` and :func:`nu`
sum and minimise these integers and divide by L once at the end, so they
still return exact Fractions; :func:`letter_values` and the ball sweep
read the integers directly, since positive scaling keeps every sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .models import ModelId
from .words import (
    AlphabetError,
    DomainError,
    GeneratorSymbol,
    GroupContext,
    Word,
    model_sym,
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

    def free_index(self, label: str) -> int:
        return self.free_labels.index(label)


def _sphere_labels(n: int) -> tuple[str, ...]:
    return tuple(f"A[{i},{j}]" for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if {i, j} != {1, 2})


def abelianization(group: GroupLike) -> AbelianizationSpec:
    if isinstance(group, ModelId):
        if group is ModelId.G2T:
            return AbelianizationSpec(group, ("x", "y", "a", "b"))
        if group is ModelId.G2K:
            return AbelianizationSpec(group, ("y", "b"), (("x", 2), ("a", 2)))
        if group is ModelId.G3T:
            return AbelianizationSpec(group, ("x", "y", "a", "b", "u", "v"))
        return AbelianizationSpec(group, ("x", "y", "a", "b", "u", "v", "ub", "vb"))
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


def _letter_slots(spec: AbelianizationSpec, kind: str, index: int | None,
                  n: int) -> list[tuple[str, str, int]]:
    """Where one positive letter lands: list of (block, label, coefficient)."""
    group = spec.group
    if isinstance(group, ModelId):
        if kind in ("w", "w2", "w3"):
            return []
        free = dict.fromkeys(spec.free_labels)
        if kind in free:
            return [("free", kind, 1)]
        return [("torsion", kind, 1)]
    fam, surf = group.family, group.surface
    if kind == "C":
        if fam == "B":
            # C[i,j] collapses to twice the sigma class
            return [("torsion", "s", 2)] if surf != "D" else [("free", "s", 2)]
        return []
    if kind == "D":
        coeff = n * (n - 1)
        return [("free", "s", coeff)] if surf == "D" else [("torsion", "s", coeff)]
    if fam == "B":
        # s, a, b all collapse strand indices
        block = "free" if kind in spec.free_labels else "torsion"
        return [(block, kind, 1)]
    # pure groups: strand-indexed coordinates
    label = f"{kind}{index}"
    if kind == "A":
        return [("free", f"A[{index[0]},{index[1]}]", 1)]  # type: ignore[index]
    block = "free" if label in spec.free_labels else "torsion"
    return [(block, label, 1)]


def abelianize(group: GroupLike, w: Word) -> AbelianImage:
    """Sum signed letter exponents on the abelianization basis; torsion
    coordinates are reduced mod their orders."""
    spec = abelianization(group)
    n = group.n if isinstance(group, GroupContext) else 0
    if isinstance(group, GroupContext):
        for s in w:
            validate_symbol(s, group)
    free = [0] * len(spec.free_labels)
    tor = [0] * len(spec.torsion)
    tor_index = {label: k for k, (label, _) in enumerate(spec.torsion)}
    for s in w:
        idx = s.indices if s.kind == "A" else (s.indices[0] if s.indices else None)
        for block, label, coeff in _letter_slots(spec, s.kind, idx, n):
            if block == "free":
                free[spec.free_index(label)] += s.sign * coeff
            else:
                tor[tor_index[label]] += s.sign * coeff
    tor = [t % order for t, (_, order) in zip(tor, spec.torsion)]
    return AbelianImage(spec, tuple(free), tuple(tor))


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
        r = Fraction(r)
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
    maps (kind, indices) of each positive letter met so far to L times the
    character's value on it.  A letter enters on first lookup, after it
    has been validated against the character's group; a letter that fails
    validation raises AlphabetError and never enters.
    """

    __slots__ = ("spec", "denominator", "values", "_scaled")

    def __init__(self, chi: Character):
        self.spec = chi.spec
        self.denominator = math.lcm(*(Fraction(c).denominator for c in chi.coords))
        self._scaled = {label: int(c * self.denominator)
                        for label, c in zip(chi.spec.free_labels, chi.coords)}
        self.values: dict[tuple[str, tuple[int, ...]], int] = {}

    def _enter(self, s: GeneratorSymbol) -> int:
        group = self.spec.group
        if isinstance(group, ModelId):
            if s.indices or s.kind not in group.letter_names:
                raise AlphabetError(f"{s}: not a letter of {group.value}")
            n = 0
        else:
            validate_symbol(s, group)
            n = group.n
        idx = s.indices if s.kind == "A" else (s.indices[0] if s.indices else None)
        value = sum(coeff * self._scaled[label]
                    for block, label, coeff in _letter_slots(self.spec, s.kind, idx, n)
                    if block == "free")
        self.values[(s.kind, s.indices)] = value
        return value

    def value(self, s: GeneratorSymbol) -> int:
        """L times the character on one signed letter."""
        v = self.values.get((s.kind, s.indices))
        if v is None:
            v = self._enter(s)
        return s.sign * v

    def total(self, w: Word) -> int:
        """L times the character on a word."""
        return sum(map(self.value, w.letters))


def character(group: GroupLike, coords: Mapping[str, Rational] | Iterable[Rational]) -> Character:
    """Build a character from a label->value mapping or a full coordinate
    sequence on the free basis."""
    spec = abelianization(group)
    if isinstance(coords, Mapping):
        unknown = set(coords) - set(spec.free_labels)
        if unknown:
            raise AlphabetError(f"not free coordinates of {group}: {sorted(unknown)}")
        vec = tuple(Fraction(coords.get(label, 0)) for label in spec.free_labels)
    else:
        vec = tuple(Fraction(c) for c in coords)
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


def letter_values(chi: Character) -> dict[tuple[str, int], int]:
    """The letter table on every signed letter of a model alphabet
    (ball-search helper).  Values are L*chi(letter) for the table's
    denominator L: exact integers with the signs and order of chi."""
    group = chi.spec.group
    if not isinstance(group, ModelId):
        raise DomainError("letter_values is only defined for model characters")
    table = chi.letter_table
    return {(name, sign): table.value(model_sym(name, sign))
            for name in group.letter_names for sign in (1, -1)}


def nu(chi: Character, start: Word, steps: Word) -> Fraction:
    """Minimum of chi over the path start, start.z1, ..., start.z1...zk.

    The running value and minimum are scaled integers from the letter
    table; only the minimum is divided by the denominator L."""
    table = chi.letter_table
    value = lowest = table.total(start)
    for s in steps.letters:
        value += table.value(s)
        if value < lowest:
            lowest = value
    return Fraction(lowest, table.denominator)


# ---------------------------------------------------------------------------
# Strand insertion / deletion

def strand_pullback(chi: Character, n_target: int, strands: Iterable[int]) -> Character:
    """Insert zero coordinates so that strand i of the source becomes
    strand strands[i] of the target (composition with strand erasure)."""
    group = chi.spec.group
    if not isinstance(group, GroupContext) or group.surface not in ("T", "K"):
        raise DomainError("strand maps are defined for torus and Klein-bottle pure groups")
    strands = list(strands)
    k = group.n
    if len(strands) != k or sorted(strands) != strands or strands[0] < 1 or strands[-1] > n_target:
        raise DomainError(f"need {k} increasing target strands within 1..{n_target}")
    target = GroupContext(group.family, group.surface, n_target)
    new = {}
    for pos, s in enumerate(strands, start=1):
        if group.surface == "T":
            new[f"a{s}"] = chi[f"a{pos}"]
        new[f"b{s}"] = chi[f"b{pos}"]
    return character(target, new)


def strand_pushforward(chi: Character, keep: Iterable[int]) -> Character:
    """Restrict to the kept strands; defined only when every deleted
    coordinate vanishes (chi factors through the strand-erasing map)."""
    group = chi.spec.group
    if not isinstance(group, GroupContext) or group.surface not in ("T", "K"):
        raise DomainError("strand maps are defined for torus and Klein-bottle pure groups")
    keep = sorted(set(keep))
    if not keep or keep[0] < 1 or keep[-1] > group.n:
        raise DomainError(f"kept strands must lie in 1..{group.n}")
    dropped = [i for i in range(1, group.n + 1) if i not in keep]
    for i in dropped:
        bad = chi[f"b{i}"] != 0 or (group.surface == "T" and chi[f"a{i}"] != 0)
        if bad:
            raise DomainError(f"character does not vanish on deleted strand {i}")
    target = GroupContext(group.family, group.surface, len(keep))
    new = {}
    for pos, s in enumerate(keep, start=1):
        if group.surface == "T":
            new[f"a{pos}"] = chi[f"a{s}"]
        new[f"b{pos}"] = chi[f"b{s}"]
    return character(target, new)


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
    scale = math.lcm(*(c.denominator for c in chi.coords))
    ints = [int(c * scale) for c in chi.coords]
    g = math.gcd(*ints)
    return SpherePoint(chi.spec, tuple(c // g for c in ints))


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
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (int,)):
        return Fraction(v)
    raise DomainError(f"numbers must be integers or exact 'p/q' strings, got {v!r}")


def character_to_json(chi: Character) -> dict:
    group = chi.spec.group
    if isinstance(group, ModelId):
        return {"model": group.value,
                "coords": {label: rational_to_json(chi[label]) for label in chi.spec.free_labels}}
    out: dict = {"group": group.family, "surface": group.surface, "n": group.n}
    if group.family == "P" and group.surface == "T":
        out["a"] = [rational_to_json(chi[f"a{i}"]) for i in range(1, group.n + 1)]
        out["b"] = [rational_to_json(chi[f"b{i}"]) for i in range(1, group.n + 1)]
    elif group.family == "P" and group.surface == "K":
        out["b"] = [rational_to_json(chi[f"b{i}"]) for i in range(1, group.n + 1)]
    elif group.family == "P" and group.surface == "S2":
        out["A"] = {label[2:-1]: rational_to_json(chi[label])
                    for label in chi.spec.free_labels if chi[label] != 0}
    else:
        for label in chi.spec.free_labels:
            out[label] = rational_to_json(chi[label])
    return out


_WHAT = "character JSON"


def _num_list_from_json(obj: Mapping, key: str) -> list[Fraction]:
    return [_num_from_json(v) for v in json_field(obj, key, (list,), _WHAT)]


def character_from_json(obj: Mapping) -> Character:
    if not isinstance(obj, Mapping):
        raise DomainError(f"{_WHAT} must be an object, got {type(obj).__name__}")
    if "model" in obj:
        model = ModelId(obj["model"])
        coords = json_field(obj, "coords", (dict,), _WHAT) if "coords" in obj else {}
        coords = {k: _num_from_json(v) for k, v in coords.items()}
        return character(model, coords)
    fam = json_field(obj, "group", (str,), _WHAT) if "group" in obj else "P"
    surf = json_field(obj, "surface", (str,), _WHAT)
    ctx = GroupContext(fam, surf, json_int_field(obj, "n", _WHAT))
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
