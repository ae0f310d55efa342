"""
Typed generator alphabets and freely reduced words.

Everything in this package computes over words in a small set of letter
families:

- ``s``    Artin half-twist generators s1 .. s(n-1);
- ``a, b`` strand-indexed surface pure braid generators a1 .. an, b1 .. bn
           (strand i crossing the two handle walls of the torus or the
           Klein bottle);
- ``C``    the encircling pure braids C[i,j], 1 <= i < j <= n;
- ``A``    the punctured-disc band generators A[i,j] that coordinatise the
           sphere pure braid groups, 1 <= i < j <= n with {i,j} != {1,2};
- ``D``    the full twist of the disc braid group;
- bare model letters x y a b u v w ub vb w2 w3, the generators of the
           semidirect-product models of the small pure braid groups.

Words are kept freely reduced at all times; construction APIs reduce
eagerly, so word-problem engines further up the stack can compare normal
forms by plain sequence equality.

Letters are interned.  The builders (``sym_s``, ``sym_a``, ``sym_b``,
``sym_C``, ``model_sym``), :func:`parse_symbols`, and
:meth:`GeneratorSymbol.inverse` and ``.base`` return one shared instance per
(kind, indices, sign).  That instance is built and validated once, when it
enters the table, together with its inverse, so ``inverse()`` is an attribute
read and ``s.inverse().inverse() is s``.  A letter that fails validation
raises :class:`AlphabetError` and never enters.  Each pair gets a signed
integer ``code`` as it enters, +k for the positive letter and -k for its
inverse, so two letters cancel exactly when their codes sum to zero, and
hot lookups (the seams of :func:`product` and :func:`reduce`, the letter
tables of characters, the braid-to-model dictionaries) key by code.
Codes depend on the order letters are first met, so they belong to the
process: they are never printed, serialized or sorted by.  Equality,
hashing and repr still compare fields, so a directly built
``GeneratorSymbol`` equals the interned one and reads its code.  Each
letter's printed text is formatted once, when it enters (a directly built
letter formats its own on first use); ``str`` and :func:`serialize_word`
read it.  The table lives as long as the process and holds one pair per
distinct letter met.  Beside it, :func:`parse_symbols` keeps a table
from token text to interned letter, so each distinct token is parsed
once per process; a token that fails to parse or validate never enters
it.

A ``Word`` built directly checks that its letters are reduced, while the
results of :func:`reduce`, :meth:`Word.inverse`, ``*`` and :func:`product`
are reduced by construction and skip the check; ``*`` and :func:`product`
cancel only at the seams of their reduced factors.

Text syntax: whitespace-separated tokens ``a1 b3 s2 C[1,3] A[2,4] D x ub w2``
with inverses written ``^-1`` (for example ``C[1,3]^-1``).  Indices are
1-based everywhere.
"""

from __future__ import annotations

import re
from _thread import allocate_lock
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class DomainError(ValueError):
    """Base class for all input errors raised by this package."""


class WordSyntaxError(DomainError):
    """A token could not be parsed; carries the 0-based token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


class AlphabetError(DomainError):
    """A symbol is outside the ambient alphabet or violates index bounds."""


MODEL_LETTER_NAMES = ("x", "y", "a", "b", "u", "v", "w", "ub", "vb", "w2", "w3")

# Letter families.  Indexed families carry strand indices; model letters and
# the full twist carry none.
_INDEXED_ONE = ("s", "a", "b")
_INDEXED_TWO = ("C", "A")


@dataclass(frozen=True)
class GeneratorSymbol:
    """One signed letter: a family tag, optional indices and a sign (+1/-1).

    A symbol with ``kind`` in {"a","b"} and empty indices is a bare model
    letter; with one index it is the strand-indexed braid generator.
    """

    kind: str
    indices: tuple[int, ...] = ()
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise AlphabetError(f"sign must be +1 or -1, got {self.sign}")
        if self.kind in _INDEXED_TWO:
            i, j = self.indices
            if not (1 <= i < j):
                raise AlphabetError(f"{self.kind}[{i},{j}]: indices must satisfy 1 <= i < j")
        elif self.kind in _INDEXED_ONE and self.indices:
            if self.indices[0] < 1:
                raise AlphabetError(f"{self}: index must be >= 1")
        elif self.kind == "D" or self.kind in MODEL_LETTER_NAMES:
            if self.indices:
                raise AlphabetError(f"{self.kind} takes no indices")
        else:
            raise AlphabetError(f"unknown letter family {self.kind!r}")

    def inverse(self) -> "GeneratorSymbol":
        return self._inverse

    @cached_property
    def code(self) -> int:
        """The signed code: +k for the positive letter, -k for its inverse.
        :func:`_letter` sets it on every interned letter; a directly built
        letter reads its interned twin's on first use."""
        return _letter(self.kind, self.indices, self.sign).code

    @cached_property
    def _inverse(self) -> "GeneratorSymbol":
        """The interned inverse.  :func:`_letter` sets it on every interned
        letter; a directly built letter looks it up on first use."""
        return _letter(self.kind, self.indices, -self.sign)

    def _format(self) -> str:
        return self.label + ("^-1" if self.sign == -1 else "")

    # the letter as it prints: :func:`_letter` sets it on every interned
    # letter; a directly built letter formats its own on first use
    _text = cached_property(_format)

    @property
    def base(self) -> "GeneratorSymbol":
        """The interned positive letter underlying this symbol."""
        inverse = self._inverse
        return inverse if self.sign == -1 else inverse._inverse

    @property
    def label(self) -> str:
        """The positive letter as it prints; abelianization coordinates are
        named so."""
        if self.kind in _INDEXED_TWO:
            return f"{self.kind}[{self.indices[0]},{self.indices[1]}]"
        if self.indices:
            return f"{self.kind}{self.indices[0]}"
        return self.kind

    def __str__(self) -> str:
        return self._text


# the interned letters by (kind, indices, sign), each entered with its inverse
_LETTERS: dict[tuple[str, tuple[int, ...], int], GeneratorSymbol] = {}
# held while a letter enters: two threads that miss one letter at once must
# not both enter it, nor two letters take one code
_ENTERING = allocate_lock()


def _letter(kind: str, indices: tuple[int, ...], sign: int) -> GeneratorSymbol:
    """The one shared instance of a letter, built and validated on first use;
    the k-th pair to enter gets the codes +k and -k."""
    key = (kind, indices, sign)
    s = _LETTERS.get(key)
    if s is not None:
        return s
    with _ENTERING:
        s = _LETTERS.get(key)
        if s is None:
            s = GeneratorSymbol(kind, indices, sign)  # raises before anything enters
            inverse = GeneratorSymbol(kind, indices, -sign)
            k = len(_LETTERS) // 2 + 1
            # object.__setattr__, not __dict__: reading __dict__ would turn the
            # letter's inline attribute values into a dict, slower to read
            object.__setattr__(s, "_inverse", inverse)
            object.__setattr__(inverse, "_inverse", s)
            object.__setattr__(s, "code", sign * k)
            object.__setattr__(inverse, "code", -sign * k)
            object.__setattr__(s, "_text", s._format())
            object.__setattr__(inverse, "_text", inverse._format())
            _LETTERS[key] = s
            _LETTERS[(kind, indices, -sign)] = inverse
    return s


def sym_s(i: int, sign: int = 1) -> GeneratorSymbol:
    return _letter("s", (i,), sign)


def sym_a(i: int, sign: int = 1) -> GeneratorSymbol:
    return _letter("a", (i,), sign)


def sym_b(i: int, sign: int = 1) -> GeneratorSymbol:
    return _letter("b", (i,), sign)


def sym_C(i: int, j: int, sign: int = 1) -> GeneratorSymbol:
    return _letter("C", (i, j), sign)


def model_sym(name: str, sign: int = 1) -> GeneratorSymbol:
    if name not in MODEL_LETTER_NAMES:
        raise AlphabetError(f"unknown model letter {name!r}")
    return _letter(name, (), sign)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity.

    ``Word`` values are immutable; ``*`` concatenates with free reduction
    and ``~`` (or :meth:`inverse`) inverts.  Construction rejects
    unreduced letter sequences; use :func:`reduce` to build from raw ones.
    """

    letters: tuple[GeneratorSymbol, ...] = ()

    def __post_init__(self):
        for prev, cur in zip(self.letters, self.letters[1:]):
            if prev.code == -cur.code:
                raise DomainError(f"unreduced word: {prev} {cur} cancel")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[GeneratorSymbol]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return product(self, other)

    def inverse(self) -> "Word":
        return _reduced([s._inverse for s in reversed(self.letters)])

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return reduce(self.letters * k)

    def __str__(self) -> str:
        return serialize_word(self)


IDENTITY = Word()


def _reduced(letters: Iterable[GeneratorSymbol]) -> Word:
    """A Word of letters that are freely reduced by construction, built
    without the check of ``Word.__post_init__``."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", tuple(letters))
    return w


def product(*factors: Word) -> Word:
    """The reduced product of reduced words, left to right.  Letters cancel
    only at the seams, so it costs the letters kept plus those cancelled,
    not a letter-by-letter reduction of the whole concatenation."""
    out: list[GeneratorSymbol] = []
    for w in factors:
        v = w.letters
        j, m = 0, len(v)
        while out and j < m and out[-1].code == -v[j].code:
            out.pop()
            j += 1
        out += v[j:]
    return _reduced(out)


def reduce(raw: Iterable[GeneratorSymbol]) -> Word:
    """Freely reduce a letter sequence (cancel adjacent g g^-1 pairs)."""
    stack: list[GeneratorSymbol] = []
    for s in raw:
        if stack and stack[-1].code == -s.code:
            stack.pop()
        else:
            stack.append(s)
    return _reduced(stack)


def serialize_word(w: Word) -> str:
    return " ".join([s._text for s in w.letters])


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"^(?:(?P<br>[CA])\[(?P<i>\d+),(?P<j>\d+)\]"
    r"|(?P<ix>[sab])(?P<k>\d+)"
    r"|(?P<bare>ub|vb|w2|w3|[xyabuvwD]))"
    r"(?P<inv>\^-1)?$"
)


@dataclass(frozen=True)
class GroupContext:
    """Ambient group for parsing and validation: family P or B, a surface
    tag in {"T","K","S2","RP2","D"} and the strand parameter n.

    For the sphere family the parameter n bounds the A[i,j] indices; the
    underlying pure braid group has n+1 strands (see :mod:`sigmabraid.sigma`).
    """

    family: str
    surface: str
    n: int

    def __post_init__(self):
        if self.family not in ("P", "B"):
            raise DomainError(f"family must be P or B, got {self.family!r}")
        if self.surface not in ("T", "K", "S2", "RP2", "D"):
            raise DomainError(f"unknown surface tag {self.surface!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")

    def __str__(self) -> str:
        return f"{self.family}_{self.n}({self.surface})"


def _context_kinds(ctx: GroupContext) -> tuple[str, ...]:
    if ctx.surface in ("T", "K"):
        return ("a", "b", "C") if ctx.family == "P" else ("a", "b", "C", "s")
    if ctx.surface == "D":
        if ctx.family == "P":
            raise DomainError("pure disc braid words are not supported")
        return ("s", "D")
    if ctx.surface == "S2":
        return ("A",) if ctx.family == "P" else ("s",)
    # RP2
    return ("a",) if ctx.family == "P" else ("s", "a")


def validate_symbol(sym: GeneratorSymbol, ctx: GroupContext) -> None:
    """Check one symbol against the ambient alphabet; raise AlphabetError."""
    kinds = _context_kinds(ctx)
    if sym.kind not in kinds:
        raise AlphabetError(f"{sym}: not a generator of {ctx}")
    n = ctx.n
    if sym.kind == "s":
        if not (1 <= sym.indices[0] <= n - 1):
            raise AlphabetError(f"{sym}: index out of range for {ctx} (need 1..{n-1})")
    elif sym.kind in ("a", "b"):
        if not sym.indices or not (1 <= sym.indices[0] <= n):
            raise AlphabetError(f"{sym}: index out of range for {ctx} (need 1..{n})")
    elif sym.kind in ("C", "A"):
        i, j = sym.indices
        if not (1 <= i < j <= n):
            raise AlphabetError(f"{sym}: indices out of range for {ctx} (need 1<=i<j<={n})")
        if sym.kind == "A" and {i, j} == {1, 2}:
            raise AlphabetError(f"{sym}: A[1,2] is not a coordinate letter")


# token text -> interned letter, for every token parsed so far
_TOKENS: dict[str, GeneratorSymbol] = {}


def _token_letter(token: str, pos: int) -> GeneratorSymbol:
    m = _TOKEN_RE.match(token)
    if m is None:
        raise WordSyntaxError(f"cannot parse {token!r}", pos)
    sign = -1 if m.group("inv") else 1
    # index violations surface as AlphabetError, naming the symbol
    if m.group("br"):
        return _letter(m.group("br"), (int(m.group("i")), int(m.group("j"))), sign)
    if m.group("ix"):
        return _letter(m.group("ix"), (int(m.group("k")),), sign)
    return _letter(m.group("bare"), (), sign)


def parse_symbols(text: str) -> list[GeneratorSymbol]:
    """Tokenize without context validation (model parsers layer on top).
    Each distinct token is parsed once; a token that fails never enters
    the token table."""
    tokens = _TOKENS
    out: list[GeneratorSymbol] = []
    for pos, token in enumerate(text.split()):
        s = tokens.get(token)
        if s is None:
            s = tokens[token] = _token_letter(token, pos)
        out.append(s)
    return out


def parse_word(text: str, context: GroupContext) -> Word:
    """Parse a braid word and validate every symbol against ``context``.

    Round-trips with :func:`serialize_word`.  Model words are parsed by
    :func:`sigmabraid.models.parse_model_word` instead.
    """
    symbols = parse_symbols(text)
    for sym in symbols:
        validate_symbol(sym, context)
    return reduce(symbols)


# ---------------------------------------------------------------------------
# Standard word builders

def alpha_beta_word(kind: str, j: int, i: int, n: int) -> Word:
    """The descending product a_j a_{j-1} ... a_i (kind "alpha") or
    b_j ... b_i (kind "beta"); the empty word when i > j."""
    if kind not in ("alpha", "beta"):
        raise DomainError(f"kind must be 'alpha' or 'beta', got {kind!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise AlphabetError(f"alpha/beta indices must lie in 1..{n}")
    mk = sym_a if kind == "alpha" else sym_b
    return _reduced([mk(k) for k in range(j, i - 1, -1)])  # distinct letters


def aij_word(i: int, j: int, n: int) -> Word:
    """The band generator A[i,j] spelled in Artin letters:
    s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1."""
    if not (1 <= i < j <= n):
        raise AlphabetError(f"A[{i},{j}]: need 1 <= i < j <= {n}")
    head = [sym_s(k) for k in range(j - 1, i, -1)]
    tail = [sym_s(k, -1) for k in range(i + 1, j)]
    return reduce(head + [sym_s(i), sym_s(i)] + tail)
