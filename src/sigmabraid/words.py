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

Letters are interned.  ``GeneratorSymbol(kind, indices, sign)``, the
builders (``sym_s``, ``sym_a``, ``sym_b``, ``sym_C``, ``model_sym``),
:func:`parse_symbols` and :meth:`GeneratorSymbol.inverse` all return one
shared instance per (kind, indices, sign): there is no other way to build
a letter.  That instance is built and validated once, when it enters the
table, together with its inverse, so ``inverse()`` is an attribute read
and ``s.inverse().inverse() is s``.  A letter that fails validation raises
:class:`AlphabetError` and never enters.  A bool or float index or sign
equal to an int would find that int's letter, so a builder passes any
non-int to the validating constructor, which refuses it.  Each pair gets a
signed integer ``code`` as it enters, +k for the positive letter and -k
for its inverse, so two letters cancel exactly when their codes sum to
zero, and hot lookups (the seams of :func:`product` and :func:`reduce`,
the letter tables of characters, the braid-to-model dictionaries) key by
code.  Codes depend on the order letters are first met, so they belong to
the process: they are never printed, serialized or sorted by.  Letters
compare and hash by identity, so neither may order output either.  Each
letter's printed text is formatted once, when it enters; ``str`` and
:func:`serialize_word` read it.  The table lives as long as the process
and holds one pair per distinct letter met.  Beside it,
:func:`parse_symbols` keeps a table from token text to interned letter, so
each distinct token is parsed once per process; a token that fails to
parse or validate never enters it.

A ``Word`` built directly checks that its letters are reduced, while the
results of :func:`reduce`, :meth:`Word.inverse`, ``*`` and :func:`product`
are reduced by construction and skip the check; ``*`` and :func:`product`
cancel only at the seams of their reduced factors.

Text syntax: whitespace-separated tokens ``a1 b3 s2 C[1,3] A[2,4] D x ub w2``
with inverses written ``^-1`` (for example ``C[1,3]^-1``).  Indices are
1-based everywhere.

Each supported group family's facts (its letter kinds, abelianization,
JSON layout, complement rule and strand count) are stated once, in the
record table ``_FAMILIES``, which ``characters``, ``sigma`` and the CLI read.
"""

from __future__ import annotations

import re
from _thread import allocate_lock
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple


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


class GeneratorSymbol:
    """One signed letter: a family tag, its indices and a sign (+1/-1).

    ``GeneratorSymbol(kind, indices, sign)`` returns the interned letter,
    validated and entered on first use (:func:`_letter`).  A letter with
    ``kind`` in {"a","b"} and no indices is a bare model letter; with one
    index it is the strand-indexed braid generator.  Its six attributes are
    set once, when the letter and its inverse enter, and assigning to one
    afterwards raises.  Letters compare and hash by identity, which is
    equality, since each letter has one instance.
    """

    __slots__ = ("kind", "indices", "sign", "code", "_inverse", "_text")

    def __new__(cls, kind: str, indices: tuple[int, ...] = (), sign: int = 1) -> "GeneratorSymbol":
        _validate(kind, indices, sign)  # a bool or float would find the int's letter
        return _letter(kind, indices, sign)

    def __setattr__(self, name, value):
        raise AttributeError(f"letter {self}: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"letter {self}: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"GeneratorSymbol(kind={self.kind!r}, indices={self.indices!r}, sign={self.sign!r})"

    def inverse(self) -> "GeneratorSymbol":
        return self._inverse

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
_set = object.__setattr__  # letters refuse plain assignment


def _validate(kind: str, indices: tuple[int, ...], sign: int) -> None:
    """Raise AlphabetError, naming the letter, unless (kind, indices, sign)
    is a letter: s takes one index, a and b one or none (a bare model
    letter), C and A two, D and the other model letters none; an index and
    the sign are ints, never bools."""
    if type(sign) is not int or sign not in (1, -1):
        raise AlphabetError(f"sign must be +1 or -1, got {sign}")
    if kind in _INDEXED_ONE or kind in _INDEXED_TWO:
        arity = 2 if kind in _INDEXED_TWO else 1
        if (len(indices) != arity and not (kind in ("a", "b") and not indices)) \
                or any(type(i) is not int for i in indices):
            takes = "two integer indices" if arity == 2 else "one integer index"
            raise AlphabetError(f"{kind}{indices}: {kind} takes {takes}")
        if arity == 2 and not 1 <= indices[0] < indices[1]:
            raise AlphabetError(f"{kind}[{indices[0]},{indices[1]}]: indices must satisfy 1 <= i < j")
        if arity == 1 and indices and indices[0] < 1:
            raise AlphabetError(f"{kind}{indices[0]}{'^-1' if sign == -1 else ''}: index must be >= 1")
    elif kind == "D" or kind in MODEL_LETTER_NAMES:
        if indices:
            raise AlphabetError(f"{kind} takes no indices")
    else:
        raise AlphabetError(f"unknown letter family {kind!r}")


def _letter(kind: str, indices: tuple[int, ...], sign: int) -> GeneratorSymbol:
    """The one shared instance of a letter, built and validated on first use;
    the k-th pair to enter gets the codes +k and -k.  The pair enters only
    once every attribute of both letters is set."""
    key = (kind, indices, sign)
    s = _LETTERS.get(key)
    if s is not None:
        return s
    with _ENTERING:
        s = _LETTERS.get(key)
        if s is None:
            _validate(kind, indices, sign)  # raises before anything enters
            k = len(_LETTERS) // 2 + 1
            s, inverse = object.__new__(GeneratorSymbol), object.__new__(GeneratorSymbol)
            for letter, twin, sgn in ((s, inverse, sign), (inverse, s, -sign)):
                _set(letter, "kind", kind)
                _set(letter, "indices", indices)
                _set(letter, "sign", sgn)
                _set(letter, "code", sgn * k)
                _set(letter, "_inverse", twin)
                _set(letter, "_text", letter.label + ("^-1" if sgn == -1 else ""))
            _LETTERS[key] = s
            _LETTERS[kind, indices, -sign] = inverse
    return s


def sym_s(i: int, sign: int = 1) -> GeneratorSymbol:
    return (_letter if i.__class__ is sign.__class__ is int else GeneratorSymbol)("s", (i,), sign)


def sym_a(i: int, sign: int = 1) -> GeneratorSymbol:
    return (_letter if i.__class__ is sign.__class__ is int else GeneratorSymbol)("a", (i,), sign)


def sym_b(i: int, sign: int = 1) -> GeneratorSymbol:
    return (_letter if i.__class__ is sign.__class__ is int else GeneratorSymbol)("b", (i,), sign)


def sym_C(i: int, j: int, sign: int = 1) -> GeneratorSymbol:
    ints = i.__class__ is j.__class__ is sign.__class__ is int
    return (_letter if ints else GeneratorSymbol)("C", (i, j), sign)


def model_sym(name: str, sign: int = 1) -> GeneratorSymbol:
    if name not in MODEL_LETTER_NAMES:
        raise AlphabetError(f"unknown model letter {name!r}")
    return (_letter if sign.__class__ is int else GeneratorSymbol)(name, (), sign)


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


def sphere_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The free coordinates A[i,j] of P_n(S2) as strand pairs in coordinate order, the
    sphere's one layout; a generator, so no copy of size n^2 is kept per n."""
    return ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) != (1, 2))


def _strands(kinds: str, n: int) -> tuple[str, ...]:
    """The labels of one strand block per letter kind, strands 1..n each."""
    return tuple([f"{x}{i}" for x in kinds for i in range(1, n + 1)])


class _Family(NamedTuple):
    """The facts of one supported (family, surface), as data; a function of n
    answers for the group at n.  A NamedTuple, not a dataclass: the class is
    built at every import, and a ten-field dataclass takes several times longer."""

    kinds: tuple[str, ...]                  # the letter kinds of its words
    free: Callable[[int], tuple[str, ...]]  # the free labels of the abelianization
    rank: Callable[[int], int]              # their number, in closed form: none laid out
    # the (label, order) torsion coordinates that letters hit
    torsion: Callable[[int], tuple[tuple[str, int], ...]] = lambda n: ()
    full: bool = False  # letters forget strands: C[i,j] on 2 s, D on n(n-1) s, others on their kind
    blocks: tuple[str, ...] = ()  # strand blocks of the free coordinates: one JSON list each
    pair_map: bool = False  # A[i,j] over sphere_pairs(n): one JSON map "A" from "i,j"
    # the complement of Sigma^1 on a nonempty sphere: None (empty), "pairs" (support
    # on exactly two strands) or "sphere" (the whole sphere, then circle systems)
    complement: str | None = None
    permutes: bool = False  # the strand-permutation action is defined
    extra_strands: int = 0  # strands beyond n: the sphere's n bounds A[i,j] on n+1 strands


# The one statement of each family's facts, for every supported (family,
# surface); P_n(D) has none.  The order gives the CLI its choices.
_FAMILIES = {
    ("P", "T"): _Family(("a", "b", "C"), lambda n: _strands("ab", n), lambda n: 2 * n,
                        blocks=("a", "b"), complement="pairs", permutes=True),
    ("P", "K"): _Family(("a", "b", "C"), lambda n: _strands("b", n), lambda n: n,
                        lambda n: tuple([(x, 2) for x in _strands("a", n)]),
                        blocks=("b",), complement="pairs", permutes=True),
    ("P", "S2"): _Family(("A",), lambda n: tuple([f"A[{i},{j}]" for i, j in sphere_pairs(n)]),
                         lambda n: max(n * (n - 1) // 2 - 1, 0), pair_map=True,
                         complement="sphere", extra_strands=1),
    ("P", "RP2"): _Family(("a",), lambda n: (), lambda n: 0,
                          lambda n: tuple([(x, 2) for x in _strands("a", n)])),
    ("B", "T"): _Family(("a", "b", "C", "s"), lambda n: ("a", "b"), lambda n: 2,
                        lambda n: (("s", 2),), full=True),
    ("B", "K"): _Family(("a", "b", "C", "s"), lambda n: ("b",), lambda n: 1,
                        lambda n: (("s", 2), ("a", 2)), full=True),
    ("B", "D"): _Family(("s", "D"), lambda n: ("s",) if n >= 2 else (), lambda n: min(n - 1, 1),
                        full=True),
    ("B", "S2"): _Family(("s",), lambda n: (), lambda n: 0,
                         lambda n: (("s", 2 * (n - 1)),) if n >= 2 else (), full=True),
    ("B", "RP2"): _Family(("s", "a"), lambda n: (), lambda n: 0,
                          lambda n: (("s", 2), ("a", 2)), full=True),
}
_GROUPS, _SURFACES = (tuple(dict.fromkeys(keys)) for keys in zip(*_FAMILIES))


@dataclass(frozen=True)
class GroupContext:
    """Ambient group for parsing and validation: family P or B, a surface
    tag in {"T","K","S2","RP2","D"} and the strand parameter n, which on the
    sphere bounds the A[i,j] indices of n+1 strands (its record's
    ``extra_strands``)."""

    family: str
    surface: str
    n: int

    def __post_init__(self):
        if self.family not in _GROUPS:
            raise DomainError(f"family must be P or B, got {self.family!r}")
        if self.surface not in _SURFACES:
            raise DomainError(f"unknown surface tag {self.surface!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        # its record (None for P_n(D)), looked up once; not a field, so it
        # stays out of eq, hash and repr
        self.__dict__["_record"] = _FAMILIES.get((self.family, self.surface))

    def __str__(self) -> str:
        return f"{self.family}_{self.n}({self.surface})"


def validate_symbol(sym: GeneratorSymbol, ctx: GroupContext) -> None:
    """Check one symbol against the ambient alphabet; raise AlphabetError."""
    record = ctx._record
    if record is None:
        raise DomainError("pure disc braid words are not supported")
    if sym.kind not in record.kinds:
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

def aij_word(i: int, j: int, n: int) -> Word:
    """The band generator A[i,j] spelled in Artin letters:
    s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1."""
    if not (1 <= i < j <= n):
        raise AlphabetError(f"A[{i},{j}]: need 1 <= i < j <= {n}")
    head = [sym_s(k) for k in range(j - 1, i, -1)]
    tail = [sym_s(k, -1) for k in range(i + 1, j)]
    return reduce(head + [sym_s(i), sym_s(i)] + tail)
