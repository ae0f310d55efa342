"""
Word-problem oracles for the four explicit semidirect-product models of the
small surface pure braid groups, together with the translation dictionaries
between model letters and braid generators.

The models and their layered normal forms:

- ``G2T`` = F(x,y) x Z^2           elements  omega a^n b^m
- ``G2K`` = F(x,y) |x (Z |x Z)     elements  omega a^n b^m,
           base relation a b = b a^-1, base acting on the fiber by
           a^-1 x a = x, a^-1 y a = x^-2 y, b^-1 x b = x^-1, b^-1 y b = x y x
- ``G3T`` = F(u,v,w) |x G2T        elements  mu . (omega a^n b^m)
- ``G4T`` = F(ub,vb,w2,w3) |x G3T  elements  kappa . (mu omega a^n b^m)

Every model is one flat tower of Fadell-Neuwirth levels, P_k(M) =
F |x P_(k-1)(M) down to P_1(M) = pi_1(M): :func:`_surface` builds level 1,
the exponents a^n b^m, and :func:`_extend` adds a level, its fiber letters
with the tables by which every lower letter acts on them.  Each model is
one :class:`_Model` record; every per-model fact is read off it.  A record
lists the model's interned letters once, each followed by its inverse, and
keys by letter code each signed letter's owner: its level and its signed
code there (a = 1 and b = 2 on level 1, the fiber codes above).

Normalisation right-multiplies letter by letter, and each letter belongs to
one component.  An ``a`` or ``b`` updates (n, m) (:func:`_exponent_step`;
on the Klein bottle b^m a = a^((-1)^m) b^m).  A fiber letter z of level k
is pushed left through the tail t = c_(k-1) ... c_2 a^n b^m below it, by
t z = (t z t^-1) t, and :func:`_push` computes the word t z t^-1 that z
appends to its own component c_k: z conjugated by a^n b^m through one
composite table, then by each lower component, innermost first, through
level k's own action tables.  :func:`step` rebuilds only the component the
letter changes.  :func:`normalize` reads each letter once, in one pass: it
checks the letter against the model (so an invalid letter raises when the
pass reaches it, after any budget error of the prefix before it) and
applies it, keeping every component as a list and reducing each appended
word onto it in place, so a letter costs O(|z|), not O(|c_k|).  Level 2
has no lower component, so where a and b act on it trivially (G2T, and
the x, y level of G3T and G4T) its letter pushes or pops its own code;
where they act (G2K) one a^n b^m table serves a whole run of fiber
letters and is dropped when an ``a`` or ``b`` changes (n, m).  The result
equals the fold of :func:`step` from :func:`identity_state`; the tests
lock that in.  Exponents are plain Python ints (arbitrary precision).  Two
elements are equal iff their layered normal forms are componentwise equal;
this decides the word problem.

Where a and b act on a level (G2K), its composite table of z ->
a^n b^m z b^-m a^-n is kept per (n, m), m taken mod 2 where b acts as an
involution, as the product of cached tables of a^(+-2^i) and b^(+-2^i),
one factor per set bit.  Every such table (:class:`_LazyTable`) builds a
letter's image only when the letter is read, so a lone x after a^(2^19)
builds x's image under each power, not y's of 2^20 letters; a table read
again is a plain dict lookup.  The level empties its cache once the
letters its tables hold pass ``FIBER_BUDGET``.  On the torus a and b act
trivially: no tables.

Every appended word z and every fiber component is held to
``FIBER_BUDGET`` letters, tested once per appended word (a level-2 push
tests its component alone, tables are not tested); past it a letter
raises :class:`FiberBudgetError`, so a long G3T or G4T word, whose fibers
grow exponentially with its length, fails fast instead of exhausting
memory.

The tables ``_*_INTO`` store the defining actions g^-1 z g.  The inverse
automorphisms z -> g z g^-1, a record's ``out``, are solved from them by
:func:`_solve`, which solves the dictionaries too: the inverse sends each
row's word g^-1 z g to z and fixes the letters outside the row.  The
composition tests check each pair: applying one table after the other must
fix every letter.  At import each table is expanded once into the images
of all signed letters of its fiber, fixed letters included, so conjugating
a fiber word maps it in a single reducing pass with one lookup per letter.

Free words over a fiber are encoded as tuples of signed small ints
(letter code k, inverse -k), always freely reduced.

Each record also carries two facts read off its defining relators: the
base relator ([a,b] on the torus, a b a b^-1 on the Klein bottle, both of
length 4) and the action relators g^-1 z g img^-1 with img = g^-1 z g, of
length 3 + |img| (a letter a table leaves fixed gives img = z).
:func:`_relator_facts` reads both off the tables.  ``orders`` is the order
of each letter's abelian class (0 free, 1 trivial, k torsion of order k):
an action relator abelianizes to img - z, here always a multiple c z' of
one fiber letter (import fails otherwise), so z' has order dividing c; the
Klein base relator gives 2a.  ``bipartite`` is true iff every relator has
even length, that is, every |img| is odd; then sending every letter to 1
in Z/2 is a homomorphism, and no edge of the Cayley graph joins two
vertices at the same distance from the identity.  G3T and G4T are not
bipartite, because x^-1 v x = u^-1 v u w^-1 has length 7; the same
relator makes w trivial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from .words import (
    AlphabetError,
    DomainError,
    GeneratorSymbol,
    GroupContext,
    Word,
    model_sym,
    parse_symbols,
    product,
    reduce,
    sym_C,
)

if TYPE_CHECKING:
    import random


class ModelId(str, Enum):
    G2T = "G2T"
    G2K = "G2K"
    G3T = "G3T"
    G4T = "G4T"

    def __str__(self) -> str:
        return self.value

    @property
    def letter_names(self) -> tuple[str, ...]:
        return _MODELS[self].alphabet

    @property
    def signed_letters(self) -> tuple[GeneratorSymbol, ...]:
        """The model's letters in alphabet order, each followed by its inverse."""
        return _MODELS[self].letters

    @property
    def letter_orders(self) -> tuple[tuple[str, int], ...]:
        """(letter, order of its abelian class) in alphabet order (module docstring)."""
        return tuple(_MODELS[self].orders.items())

    @property
    def bipartite(self) -> bool:
        """Every defining relator has even length: no edge of the Cayley
        graph joins two vertices at the same distance from the identity."""
        return _MODELS[self].bipartite


class CertificateCase(str, Enum):
    """The six parametrised certificate cases of :mod:`sigmabraid.criterion`
    (character patterns on the 3- and 4-strand torus models).  They live
    here, beside :class:`ModelId`, so the CLI can list them without loading
    the certificate engine."""

    G3T_A = "g3t-a"   # chi(x)=chi(u)=p, chi(y)=q,  t = x
    G3T_B = "g3t-b"   # chi(x)=chi(u)=p, chi(y)=-q, t = x
    G3T_C = "g3t-c"   # chi(x)=chi(u)=p, chi(v)=q,  t = v
    G3T_D = "g3t-d"   # chi(x)=chi(u)=p, chi(v)=-q, t = v^-1
    G4T_A = "g4t-a"   # chi(x)=chi(u)=chi(ub)=p, chi(v)=q,  t = v
    G4T_B = "g4t-b"   # chi(x)=chi(u)=chi(ub)=p, chi(v)=-q, t = v^-1

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown certificate case {value!r}; "
                          f"the cases are {', '.join(case.value for case in cls)}")


class TranslationError(DomainError):
    """A symbol has no image under the requested dictionary direction."""


class FiberBudgetError(DomainError):
    """A fiber word outgrew ``FIBER_BUDGET`` letters (module docstring)."""


# the most letters an appended word or a fiber component may hold
FIBER_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# Signed-int free words

def _fmul(w: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of the reduced words ``w`` and ``v``; letters
    cancel only at the seam."""
    if not w:
        return v
    if len(v) == 1:
        return w[:-1] if w[-1] == -v[0] else w + v
    i, j, m = len(w), 0, len(v)
    while i and j < m and w[i - 1] == -v[j]:
        i -= 1
        j += 1
    return w[:i] + v[j:]


def _over_budget(length: int) -> FiberBudgetError:
    return FiberBudgetError(f"a fiber word of {length} letters passes the budget of "
                            f"{FIBER_BUDGET} letters")


def _finv(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in reversed(w))


def _signed_table(table: dict[int, tuple[int, ...]], rank: int) -> dict[int, tuple[int, ...]]:
    """The images of every signed letter of F(1..rank) under the automorphism
    sending letter k to ``table[k]``; letters without an entry are fixed."""
    signed = {}
    for k in range(1, rank + 1):
        img = table.get(k, (k,))
        signed[k], signed[-k] = img, _finv(img)
    return signed


def _map_signed(signed: dict[int, tuple[int, ...]], w: Iterable[int]) -> list[int]:
    """Image of ``w`` under a signed table, freely reduced in one pass.
    Every image is a nonempty reduced word, so letters cancel only at the
    seam between ``out`` and the image appended."""
    out: list[int] = []
    for c in w:
        img = signed[c]
        if out and out[-1] == -img[0]:
            out.pop()
            k = 1
            while k < len(img) and out and out[-1] == -img[k]:
                out.pop()
                k += 1
            out += img[k:]
        else:
            out += img
    return out


# ---------------------------------------------------------------------------
# Action tables

# G2K base letters acting on the fiber F(x,y); fiber codes x=1, y=2.
_G2K_INTO = {
    "a": {2: (-1, -1, 2)},
    "b": {1: (-1,), 2: (1, 2, 1)},
}

# G3T base letters acting on F(u,v,w); fiber codes u=1, v=2, w=3.
_G3T_INTO = {
    "x": {2: (-1, 2, 1, -3)},
    "y": {1: (-2, 1, 2, 3)},
}

# G4T base letters acting on F(ub,vb,w2,w3); fiber codes ub=1, vb=2, w2=3, w3=4.
# The u and v rows on the barred letters carry the strand-{3,4} band w3,
# not w2: the band index tracks the strands the acting letter involves.
# This is forced by the strand-4 conjugation relations (see the n=4 rows of
# the presentation test suite).
_G4T_INTO = {
    "x": {2: (-1, 2, 1, -3)},
    "y": {1: (-2, 1, 2, 3)},
    "u": {2: (-1, 2, 1, -4), 3: (4, -1, 3, -4, 1)},
    "v": {1: (-2, 1, 2, 4), 3: (-2, -4, 3, 2, 4)},
    "w": {1: (4, -3, 1, 3, -4), 2: (4, -3, 2, 3, -4), 3: (4, 3, -4)},
}


def _solve(images: dict, equations: Iterable[tuple], mul: Callable, inv: Callable,
           neg: Callable) -> dict:
    """Extend ``images``, which maps each known letter and its inverse
    letter ``neg(c)`` to their images, by the equations image(w) = t.  Each
    w must hold exactly one letter c without an image, once: with w = p c q,
    image(c) = image(p)^-1 t image(q)^-1, where ``mul`` multiplies images
    and ``inv`` inverts one.  Equations are solved in the order they become
    solvable; a pass that solves nothing raises ValueError naming them."""
    pending = list(equations)
    while pending:
        waiting = []
        for w, t in pending:
            letters = tuple(w)
            free = [i for i, c in enumerate(letters) if c not in images]
            if len(free) != 1:
                waiting.append((w, t))
                continue
            i = free[0]
            for c in letters[:i]:
                t = mul(images[neg(c)], t)
            for c in reversed(letters[i + 1:]):
                t = mul(t, images[neg(c)])
            images[letters[i]], images[neg(letters[i])] = t, inv(t)
        if len(waiting) == len(pending):
            raise ValueError("cannot solve " + ", ".join(f"image({w}) = {t}" for w, t in waiting))
        pending = waiting
    return images


def _actions(letters: tuple[str, ...], into: dict, out: dict,
             rank: int) -> dict[int, dict[int, tuple[int, ...]]]:
    """Signed table of z -> c z c^-1 on a fiber of ``rank`` letters, for every
    signed code c of a layer's letters."""
    acts = {}
    for code, name in enumerate(letters, 1):
        acts[code] = _signed_table(out.get(name, {}), rank)
        acts[-code] = _signed_table(into.get(name, {}), rank)
    return acts


class _LazyTable(dict):
    """The signed table of f_k(... f_1(z)) for the signed tables ``factors``
    f_1 .. f_k, each image built when first read (module docstring); ``hold``
    is told the letters of each image stored."""

    __slots__ = ("factors", "hold")

    def __init__(self, factors: tuple[dict, ...], hold: Callable[[int], None]):
        super().__init__()
        self.factors, self.hold = factors, hold

    def __missing__(self, c: int) -> tuple[int, ...]:
        if c < 0:
            img = _finv(self[-c])
        else:
            z: Iterable[int] = (c,)
            for table in self.factors:
                z = _map_signed(table, z)
            img = tuple(z)
        self[c] = img
        self.hold(len(img))
        return img


def _exponent_tables(into: dict, out: dict, rank: int) -> Callable[[int, int], dict] | None:
    """(n, m) -> the signed table of z -> a^n b^m z b^-m a^-n on a fiber of
    ``rank`` letters, built from cached powers (module docstring); None
    where a and b act trivially."""
    if "a" not in into and "b" not in into:
        return None
    acts = _actions(("a", "b"), into, out, rank)
    fixed = _signed_table({}, rank)
    # where b^2 acts trivially, m counts mod 2
    involution = all(_map_signed(acts[2], img) == [c] for c, img in acts[2].items())
    powers: dict[tuple[int, int], dict] = {}  # (signed code c, i) -> table of c^(2^i)
    tables: dict[tuple[int, int], dict] = {}  # (n, m) -> composite table
    held = 0

    def hold(letters: int) -> None:
        nonlocal held
        held += letters
        if held > FIBER_BUDGET:
            powers.clear()
            tables.clear()
            held = 0

    def power(c: int, i: int) -> dict:
        if not i:
            return acts[c]
        table = powers.get((c, i))
        if table is None:
            half = power(c, i - 1)
            table = powers[c, i] = _LazyTable((half, half), hold)
        return table

    def composite(n: int, m: int) -> dict:
        m = m & 1 if involution else m
        table = tables.get((n, m))
        if table is None:
            exponents = ((2 if m > 0 else -2, abs(m)), (1 if n > 0 else -1, abs(n)))  # b^m first
            factors = tuple(power(c, i) for c, e in exponents
                            for i in range(e.bit_length()) if e >> i & 1)
            # one factor is a power table already; none leaves every letter fixed
            table = tables[n, m] = (_LazyTable(factors, hold) if len(factors) > 1
                                    else factors[0] if factors else fixed)
        return table

    return composite


# ---------------------------------------------------------------------------
# Model records and the tower
#
# A state lists the fiber components outermost first, then the exponents:
# G2T / G2K (omega, n, m), G3T (mu, omega, n, m), G4T (kappa, mu, omega, n, m).
# Level 1 owns n and m; level k >= 2 owns the component at index -1 - k, so
# adding a level moves no index.

@dataclass(frozen=True, slots=True)
class _Model:
    """The facts of one model; everything else per model is derived from them."""

    surface: str
    layers: tuple[tuple[str, ...], ...]  # fiber letter names, outermost layer first
    alphabet: tuple[str, ...]
    letters: tuple[GeneratorSymbol, ...]  # each letter of the alphabet, then its inverse
    identity: tuple
    owners: dict[int, tuple[int, int]]  # signed letter code -> (its level k, its signed code there)
    # level k >= 2 at index k - 2: (its a^n b^m tables or None, the signed
    # actions on it of each lower level's letters, innermost level first)
    levels: tuple[tuple[Callable[[int, int], dict] | None, tuple[dict, ...]], ...]
    into: dict  # g^-1 z g and g z g^-1 on the outer fiber, per acting letter g
    out: dict
    orders: dict[str, int]  # abelian order of each letter, in alphabet order (module docstring)
    bipartite: bool  # every defining relator has even length (module docstring)

    @property
    def n(self) -> int:
        """Strands of the pure braid group the model is isomorphic to."""
        return len(self.layers) + 1


def _relator_facts(fiber: tuple[str, ...], into: dict) -> tuple[dict[str, int], bool]:
    """The abelian orders of the fiber letters, and whether every action
    relator g^-1 z g img^-1 has even length (module docstring)."""
    orders, odd = dict.fromkeys(fiber, 0), True
    for table in into.values():
        for code, img in table.items():
            odd = odd and len(img) % 2 == 1
            diff = [sum(c // k for c in img if abs(c) == k) - (k == code)  # img - z
                    for k in range(1, len(fiber) + 1)]
            hit = [(name, c) for name, c in zip(fiber, diff) if c]
            if len(hit) > 1:
                raise ValueError(f"an action relator over {fiber} abelianizes to {diff}")
            for name, c in hit:
                orders[name] = math.gcd(orders[name], c)
    return orders, odd


def _pairs(names: tuple[str, ...]) -> tuple[GeneratorSymbol, ...]:
    """Each named model letter, then its inverse."""
    return tuple(s for name in names for s in (model_sym(name), model_sym(name, -1)))


def _owned(k: int, names: tuple[str, ...]) -> dict[int, tuple[int, int]]:
    """Signed letter code -> (k, signed code) for level k's letters, coded 1, 2, ..."""
    return {s.code: (k, s.sign * code) for code, name in enumerate(names, 1)
            for s in (model_sym(name), model_sym(name, -1))}


def _surface(surface: str) -> _Model:
    """Level 1, P_1 = pi_1 of the torus ("T") or the Klein bottle ("K"): the
    exponents alone; the base relator abelianizes to 0 or to 2a."""
    return _Model(surface, (), ("a", "b"), _pairs(("a", "b")), (0, 0), _owned(1, ("a", "b")),
                  (), {}, {}, {"a": 2 if surface == "K" else 0, "b": 0}, True)


def _extend(base: _Model, letters: tuple[str, ...], into: dict) -> _Model:
    """The model F(letters) |x base, one level up the Fadell-Neuwirth tower;
    ``into`` gives the action g^-1 z g of every lower letter g on the new
    fiber (a letter without an entry acts trivially)."""
    k, rank = len(base.layers) + 2, len(letters)
    # z -> g z g^-1, the inverse of g's row: it sends each row word g^-1 z g
    # to z and fixes the letters outside the row
    out = {}
    for g, row in into.items():
        fixed = {c: (c,) for j in range(1, rank + 1) if j not in row for c in (j, -j)}
        images = _solve(fixed, [(img, (z,)) for z, img in row.items()], _fmul, _finv, int.__neg__)
        out[g] = {z: images[z] for z in row}
    lower = tuple(_actions(layer, into, out, rank) for layer in reversed(base.layers))
    orders, odd = _relator_facts(letters, into)
    orders |= base.orders
    # level 2 goes before a and b: the alphabet reads x y a b u v w ...
    alphabet = base.alphabet + letters if base.layers else letters + base.alphabet
    return _Model(base.surface, (letters,) + base.layers, alphabet, _pairs(alphabet),
                  ((),) + base.identity, base.owners | _owned(k, letters),
                  base.levels + ((_exponent_tables(into, out, rank), lower),), into, out,
                  {name: orders[name] for name in alphabet}, base.bipartite and odd)


def _exponent_step(klein: bool, n: int, m: int, c: int) -> tuple[int, int]:
    """a^n b^m times a^+-1 (signed code c = +-1) or b^+-1 (c = +-2)."""
    if c & 1:
        return (n - c if klein and m & 1 else n + c), m
    return n, m + (c >> 1)


def _push(level: tuple, below: Iterable, n: int, m: int, c: int):
    """t c t^-1 for the signed fiber code c of ``level``, where the tail t is
    the components ``below``, innermost first, then a^n b^m: the word that c
    appends to its own component (module docstring)."""
    exponents, lower = level
    z = exponents(n, m)[c] if exponents else (c,)
    for w, acts in zip(below, lower):
        for d in reversed(w):
            z = _map_signed(acts[d], z)
    return z


_G2T = _extend(_surface("T"), ("x", "y"), {})
_G2K = _extend(_surface("K"), ("x", "y"), _G2K_INTO)
_G3T = _extend(_G2T, ("u", "v", "w"), _G3T_INTO)
_G4T = _extend(_G3T, ("ub", "vb", "w2", "w3"), _G4T_INTO)

_MODELS = {ModelId.G2T: _G2T, ModelId.G2K: _G2K, ModelId.G3T: _G3T, ModelId.G4T: _G4T}


@dataclass(frozen=True)
class NormalForm:
    """Layered normal form; equality of states decides the word problem."""

    model: ModelId
    state: tuple

    def as_word(self) -> Word:
        """Spell the normal form kappa mu omega a^n b^m as a Word."""
        spell: list[GeneratorSymbol] = []
        for part, names in zip(self.state[:-2], _MODELS[self.model].layers):
            for c in part:
                spell.append(model_sym(names[abs(c) - 1], 1 if c > 0 else -1))
        n, m = self.state[-2], self.state[-1]
        spell.extend([model_sym("a", 1 if n > 0 else -1)] * abs(n))
        spell.extend([model_sym("b", 1 if m > 0 else -1)] * abs(m))
        return Word(tuple(spell))


def _check_letters(model: ModelId, letters: Iterable[GeneratorSymbol]) -> None:
    owners = _MODELS[model].owners
    for s in letters:
        if s.code not in owners:
            raise AlphabetError(f"{s}: not a letter of {model.value}")


def normalize(model: ModelId, w: Word) -> NormalForm:
    """Normalise a word over the model alphabet (right-multiplication).

    One pass reads each letter once (module docstring): it looks up the
    letter's owner by its code, raising :class:`AlphabetError` when the
    model has none, and applies it.  So an invalid letter raises only when
    the pass reaches it: a prefix whose fibers pass ``FIBER_BUDGET`` raises
    :class:`FiberBudgetError` first; both are :class:`DomainError`.  Every
    component is a list, and each word z that a letter appends is reduced
    onto it in place; every z is reduced, so letters cancel only at the
    seam.  A level-2 letter on which a and b act trivially pushes or pops
    its own code; on a level they act on, one a^n b^m table serves every
    fiber letter until a or b changes (n, m)."""
    rec = _MODELS[model]
    owners, levels, klein = rec.owners, rec.levels, rec.surface == "K"
    comps: list[list[int]] = [[] for _ in levels]  # level k's component at k - 2
    n = m = 0
    table = None  # level 2's a^n b^m table, fetched on the first fiber letter after a or b
    for s in w.letters:
        owner = owners.get(s.code)
        if owner is None:
            raise AlphabetError(f"{s}: not a letter of {model.value}")
        k, c = owner
        if k == 1:  # c = +-1 for a, +-2 for b
            if not c & 1:
                m += c >> 1
            elif klein and m & 1:
                n -= c
            else:
                n += c
            table = None
            continue
        comp = comps[k - 2]
        exponents, lower = level = levels[k - 2]
        if lower:
            z = _push(level, comps, n, m, c)
        elif exponents is None:  # level 2, a and b act trivially: z = (c,)
            if comp and comp[-1] == -c:
                comp.pop()
            else:
                comp.append(c)
                if len(comp) > FIBER_BUDGET:
                    raise _over_budget(len(comp))
            continue
        else:
            if table is None:
                table = exponents(n, m)
            z = table[c]
        if len(z) > FIBER_BUDGET:
            raise _over_budget(len(z))
        if comp and comp[-1] == -z[0]:
            comp.pop()
            i = 1
            while i < len(z) and comp and comp[-1] == -z[i]:
                comp.pop()
                i += 1
            comp += z[i:]
        else:
            comp += z
        if len(comp) > FIBER_BUDGET:
            raise _over_budget(len(comp))
    return NormalForm(model, tuple(map(tuple, reversed(comps))) + (n, m))


def words_equal(model: ModelId, w1: Word, w2: Word) -> bool:
    """Decide the word problem: compare layered normal forms."""
    return normalize(model, w1).state == normalize(model, w2).state


def identity_state(model: ModelId) -> tuple:
    return _MODELS[model].identity


def step(model: ModelId, state: tuple, letter: GeneratorSymbol) -> tuple:
    """Right-multiply a normal-form state by one signed model letter, found
    by its code; only the component the letter owns is rebuilt.  A letter
    outside the model raises :class:`AlphabetError`, as in :func:`normalize`."""
    rec = _MODELS[model]
    owner = rec.owners.get(letter.code)
    if owner is None:
        raise AlphabetError(f"{letter}: not a letter of {model.value}")
    k, c = owner
    n, m = state[-2], state[-1]
    if k == 1:
        return state[:-2] + _exponent_step(rec.surface == "K", n, m, c)
    exponents, lower = level = rec.levels[k - 2]
    z = (tuple(_push(level, state[-3::-1], n, m, c)) if lower  # _push inlined for level 2
         else exponents(n, m)[c] if exponents else (c,))
    if len(z) > FIBER_BUDGET:
        raise _over_budget(len(z))
    comp = _fmul(state[-1 - k], z)
    if len(comp) > FIBER_BUDGET:
        raise _over_budget(len(comp))
    return state[:-1 - k] + (comp,) + state[-k:]


def parse_model_word(text: str, model: ModelId) -> Word:
    symbols = parse_symbols(text)
    w = reduce(symbols)
    _check_letters(model, w.letters)
    return w


# ---------------------------------------------------------------------------
# Reference normaliser for G2K
#
# Maintains the same (omega, n, m) state but computes every fiber
# conjugation letter by letter from the action tables instead of through the
# composite tables of a^n b^m.  Agreement between the two on random words is
# one of the equation-bank checks.

# z -> c z c^-1 for the signed base codes a = 1, b = 2, built once
_G2K_ACTS = _actions(("a", "b"), _G2K.into, _G2K.out, 2)


def bruteforce_normalize_g2k(w: Word) -> NormalForm:
    _check_letters(ModelId.G2K, w.letters)
    omega: tuple[int, ...] = ()
    n = m = 0
    for s in w:
        name, sgn = s.kind, s.sign
        if name == "a":
            # b^m a^(+-1) b^-m = a^(+-(-1)^m)
            n += sgn if m % 2 == 0 else -sgn
        elif name == "b":
            m += sgn
        else:
            z: Iterable[int] = ((1 if name == "x" else 2) * sgn,)
            # (a^n b^m) z (a^n b^m)^-1, conjugating by b^m first, then a^n
            for code, e in ((2, m), (1, n)):
                table = _G2K_ACTS[code if e >= 0 else -code]
                for _ in range(abs(e)):
                    z = _map_signed(table, z)
            omega = _fmul(omega, tuple(z))
    return NormalForm(ModelId.G2K, (omega, n, m))


# ---------------------------------------------------------------------------
# Isomorphism dictionaries

@dataclass(frozen=True)
class IsoDictionary:
    """Letter dictionaries of one model isomorphism.

    ``to_braid`` sends each model letter to a pure braid word;
    ``from_braid``, solved from it by :func:`dictionary`, sends each braid
    generator (a_i, b_i and every C[i,j]) to a model word.  The two
    directions compose to the identity up to the word-problem oracle.
    """

    model: ModelId
    surface: str
    n: int
    to_braid: dict[str, Word]
    from_braid: dict[GeneratorSymbol, Word]

    @property
    def braid_context(self) -> GroupContext:
        return GroupContext("P", self.surface, self.n)

    @cached_property
    def images(self) -> dict[str, dict[int, Word]]:
        """Per direction of :func:`translate`, signed letter code -> image;
        built on first use, after :func:`dictionary` has made ``from_braid``
        final.  Not a field, so it stays out of eq and repr."""
        return {"to_model": _signed_images(self.from_braid.items()),
                "to_braid": _signed_images((model_sym(name), w) for name, w in self.to_braid.items())}


def _mw(text: str) -> Word:
    return reduce(parse_symbols(text))


def _signed_images(pairs: Iterable[tuple[GeneratorSymbol, Word]]) -> dict[int, Word]:
    """Each letter's code -> its image, and the negated code -> the
    inverse image."""
    images: dict[int, Word] = {}
    for s, w in pairs:
        images[s.code] = w
        images[-s.code] = w.inverse()
    return images


def _substitute(images: dict[int, Word], w: Word) -> Word:
    """One lookup per letter in a table of :func:`_signed_images`."""
    get = images.get
    parts: list[Word] = []
    for s in w.letters:
        img = get(s.code)
        if img is None:
            raise TranslationError(f"{s}: no dictionary entry")
        parts.append(img)
    return product(*parts)


def _wall_row(surface: str, n: int, i: int) -> Word:
    """Wall-crossing row i of the pure presentation, lhs = rhs, as the
    relator lhs rhs^-1 (C[i+1,i+1] is trivial).  It restates row 5 of
    ``presentations`` because ``models`` loads only ``words``; the oracle
    suite of ``verify-relations`` checks the two statements agree:

    torus  prod_{j>i} C[i,j]^-1 C[i+1,j]  = a_i b_i C[1,i] a_i^-1 b_i^-1
    Klein  prod_{j>i} C[i,j] C[i+1,j]^-1 = b_i C[1,i] a_i^-1 b_i^-1 a_i^-1
    """
    sign = -1 if surface == "T" else 1
    lhs = reduce(sym_C(k, j, e) for j in range(i + 1, n + 1)
                 for k, e in ((i, sign), (i + 1, -sign)) if k < j)
    rhs = (f"a{i} b{i} C[1,{i}] a{i}^-1 b{i}^-1" if surface == "T"
           else f"b{i} C[1,{i}] a{i}^-1 b{i}^-1 a{i}^-1")
    return lhs * _mw(rhs).inverse()


# the braid word of each model letter, by the strands of the model
_TO_BRAID = {
    2: {"x": "a2", "y": "b2", "a": "a1 a2", "b": "b2 b1"},
    3: {"u": "a3", "v": "b3", "w": "C[2,3]", "x": "a2 a3", "y": "b2 b3",
        "a": "a1 a2 a3", "b": "b1 b2 b3"},
    4: {"ub": "a4", "vb": "b4", "w2": "C[2,4]", "w3": "C[3,4]",
        "u": "a3 a4", "v": "b3 b4", "w": "C[2,3] C[2,4] C[3,4]^-1",
        "x": "a2 a3 a4", "y": "b2 b3 b4", "a": "a1 a2 a3 a4", "b": "b1 b2 b3 b4"},
}


@cache
def dictionary(model: ModelId) -> IsoDictionary:
    n, surface = _MODELS[model].n, _MODELS[model].surface
    to_braid = {name: _mw(text) for name, text in _TO_BRAID[n].items()}
    # each model letter is the image of its braid word; row i's relator maps to 1 (C[1,i])
    equations = [(w, _mw(name)) for name, w in to_braid.items()]
    equations += [(_wall_row(surface, n, i), Word()) for i in range(n, 1, -1)]
    images = _solve({}, equations, product, Word.inverse, GeneratorSymbol.inverse)
    from_braid = {s: img for s, img in images.items() if s.sign > 0}
    return IsoDictionary(model, surface, n, to_braid, from_braid)


def dictionary_for(surface: str, n: int) -> IsoDictionary | None:
    """The dictionary covering P_n(surface), if one of the models does."""
    for model, rec in _MODELS.items():
        if rec.surface == surface and rec.n == n:
            return dictionary(model)
    return None


def translate(dic: IsoDictionary, w: Word, direction: str) -> Word:
    """Substitute letterwise and reduce.  ``direction`` is "to_model"
    (braid generators to model letters) or "to_braid"."""
    if direction not in ("to_model", "to_braid"):
        raise DomainError(f"direction must be 'to_model' or 'to_braid', got {direction!r}")
    return _substitute(dic.images[direction], w)


# ---------------------------------------------------------------------------
# Equation bank

@cache
def _bank() -> dict:
    from importlib import resources

    with resources.files("sigmabraid.data").joinpath("equations.json").open("r") as fh:
        return json.load(fh)


def equation_bank(model: ModelId) -> list[dict]:
    return _bank()[model.value]["equations"]


def random_model_word(model: ModelId, rng: random.Random, max_len: int) -> Word:
    """A reduced random word of at most ``max_len`` letters.  Each raw letter
    is two draws, the letter first, then the sign, each made as
    ``Random.choice`` makes it: one ``rng.getrandbits`` call of the bit
    length of the choice count per attempt, redrawn while it lands past the
    count.  So one seed always gives the same words, the stream that
    ``tests/test_models.py::test_random_model_word_keeps_its_stream`` pins."""
    letters, getrandbits = model.signed_letters, rng.getrandbits
    count = len(letters) // 2  # each letter, then its inverse
    bits = count.bit_length()
    raw = []
    for _ in range(rng.randint(0, max_len)):
        i = getrandbits(bits)
        while i >= count:
            i = getrandbits(bits)
        sign = getrandbits(2)  # a choice of two draws two bits
        while sign >= 2:
            sign = getrandbits(2)
        raw.append(letters[2 * i + sign])
    return reduce(raw)
