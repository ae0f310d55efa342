"""
The connectivity-criterion engine.

A point [chi] lies in the invariant iff, for some generator t with
chi(t) > 0, every signed generator z admits a path p_z from t to z t whose
chi-minimum exceeds that of the one-edge path (1, z).  A
:class:`PathCertificate` packages such paths as words W_z with
t W_z = z t in the group; :func:`verify_certificate` checks the endpoint
equations against the word-problem oracle and computes the exact margins

    m_z = nu_chi(t, W_z) - nu_chi(1, (z)) ,

all of which must be strictly positive.  The endpoint equations do not
depend on chi; only the margins do.  So the certificates and their
checks are kept per process, and each chi pays for its margins alone:

- ``generate_braid_certificate`` keeps one certificate per group and
  base end, in a store emptied once the path letters it holds pass
  ``CERTIFICATE_BUDGET``; ``generate_lemma_certificates`` keeps one per
  case, six in all.  Both validate their arguments on every call.  The
  trivial-path entries of a letter are one pair, shared by every
  certificate that has them and emptied with the braid store.
- A certificate checks its entries and endpoint equations itself, once
  (:attr:`PathCertificate.endpoints_checked`), and keeps the result when
  they hold; a failing certificate keeps nothing, so it is checked again
  on every call and fails the same way.  It also keeps its margin plan
  (:attr:`PathCertificate.plan`): each entry's printed letter and path
  letters, with the paths that are the letter z alone marked, since
  their margin is chi(t) under every chi.  ``verify_certificate`` reads
  that check and the plan and computes the margins on every call, in the
  scaled integers of the character's letter table, and builds one
  Fraction per distinct scaled margin in a call, dividing by the table's
  denominator L once for each.

Verification decides each inverse pair's endpoint equation once:
t W = z t holds exactly when t W^-1 = z^-1 t, so an entry whose path word
is, letter for letter, the inverse of the word of an earlier entry for
the inverse letter whose endpoint held needs no oracle call.

``generate_lemma_certificates`` assembles the certificates for the six
parametrised character families on the three- and four-strand torus
models (cases A-D on G3T, A-B on G4T), drawing the nontrivial path words
from the shipped equation bank.  ``generate_braid_certificate`` builds
certificates directly over the braid generators for characters whose
extreme b-weight sits on strand n (t = b_n) or strand 1 (t = b_1^-1).
It builds each path word with one seam product of cached one-letter
words, so the products read no more letters than the certificate keeps,
Theta(n^2), instead of copying every partial product, Theta(n^3).
Endpoints are oracle-checked where a model covers the group (torus
n <= 4, Klein bottle n = 2) and are otherwise delegated to the relation
tables, which the report records entry by entry.

``explore_ball`` reports which targets are connected to the base vertex
inside the chi-nonnegative part of a model's Cayley ball.  The ball does
not depend on chi: a breadth-first sweep, canonicalising vertices by
normal form, numbers each vertex once and keeps its parent, its arrival
letter, its abelian class (the exponent vector of the free letters, on
which every character is constant), its row of neighbours and the sample
order.  A ball cut by a vertex budget has the same shape.  One whole
ball per model is kept, the largest swept so far and never larger than
the budget it was swept under; because vertices are numbered in
breadth-first order, a sweep to a smaller radius, or one cut by a vertex
budget, is a prefix of it.  Each query sums chi down the tree of the
prefix's classes, marks the nonnegative vertices by class, and searches
the prefix; it finds its unreached sample and its targets through the
sample order.  A bounded sweep can certify reachability but never
disconnection; the report says so explicitly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain, islice, pairwise
from operator import attrgetter
from typing import NamedTuple, Sequence

from .characters import (
    Character,
    _exact,
    evaluate,  # not called here; bench/selftest.py reads criterion.evaluate
    model_character,
    torus_character,
)
from .models import (
    CertificateCase,
    ModelId,
    NormalForm,
    dictionary,
    dictionary_for,
    equation_bank,
    identity_state,
    normalize,
    parse_model_word,
    step,
    translate,
    words_equal,
)
from .presentations import _C, _a, _b, signed_generators
from .words import (
    DomainError,
    GeneratorSymbol,
    GroupContext,
    IDENTITY,
    Word,
    _reduced,
    model_sym,
    product,
    serialize_word,
    sym_a,
    sym_b,
    sym_C,
)


class CertificateError(DomainError):
    pass


_INVERSE = attrgetter("_inverse")  # a letter's interned inverse


class CertificateEntry(NamedTuple):
    z: GeneratorSymbol
    path_word: Word
    cite: str


@dataclass(frozen=True)
class PathCertificate:
    """A base letter t plus, for every signed generator z, a word W_z with
    t W_z = z t; context is a model or a pure braid group.

    Two character-free reads are kept on the certificate once made:
    :attr:`endpoints_checked`, the entries and endpoint equations, and
    :attr:`plan`, each entry's printed z, z and path letters, None where
    the path is z alone, whose margin is chi(t) for every chi."""

    context: ModelId | GroupContext
    t: GeneratorSymbol
    entries: tuple[CertificateEntry, ...]

    @cached_property
    def endpoints_checked(self) -> bool:
        """The character-free half of :func:`verify_certificate`: every
        signed letter of the alphabet has an entry, and each endpoint
        equation t W_z = z t holds.  True when an oracle checked the
        equations, False when no model covers the context and they rest on
        the relation tables.  Not a field, so it stays out of eq, hash and
        repr; kept once it returns, while a read that raises keeps nothing,
        so a failing certificate raises the same error on every read.

        Raises CertificateError when an entry is missing (naming every
        missing letter) or an endpoint equation fails (naming the first
        failing z in certificate order).  Entries are checked in
        certificate order, each pair of inverse entries with one oracle
        call: an entry for z whose path letters are those of W^-1, where W
        is the path word of an earlier entry for z^-1 whose endpoint held
        and that no other entry has been paired with, holds too (t W =
        z^-1 t gives t W^-1 = z t).  Every other entry is normalized and
        compared, among them duplicates and words equal to W^-1 in the
        group but spelled otherwise, so the first failing entry is the one
        a check of every entry would find."""
        context = self.context
        is_model = isinstance(context, ModelId)
        signed = context.signed_letters if is_model else signed_generators(context.surface, context.n)
        missing = {s.code for s in signed}.difference(e.z.code for e in self.entries)
        if missing:
            names = sorted(str(s) for s in signed if s.code in missing)
            raise CertificateError(f"certificate misses entries for: {names}")
        dic = None if is_model else dictionary_for(context.surface, context.n)
        if not is_model and dic is None:
            return False
        t_word = Word((self.t,))
        pending = {}  # code of z -> the path letters of an unpaired entry whose endpoint held
        for z, path_word, _ in self.entries:
            letters = path_word.letters
            partner = pending.get(-z.code)
            if partner is not None and tuple(map(_INVERSE, reversed(partner))) == letters:
                # t W = z^-1 t held, so t W^-1 = z t holds: the pair is decided
                del pending[-z.code]
                continue
            if is_model:
                ok = words_equal(context, t_word * path_word, Word((z,)) * t_word)
            else:
                ok = words_equal(dic.model, translate(dic, t_word * path_word, "to_model"),
                                 translate(dic, Word((z,)) * t_word, "to_model"))
            if not ok:
                raise CertificateError(f"endpoint condition fails for z = {z}")
            pending[z.code] = letters
        return True

    @cached_property
    def plan(self) -> tuple[tuple[str, GeneratorSymbol, tuple[GeneratorSymbol, ...] | None], ...]:
        """The character-free half of every margin, read by
        :func:`verify_certificate`: one (printed z, z, path letters) triple
        per entry, in entry order.  The letters are None when the path is
        the letter z alone, since that margin is chi(t) under every
        character: min(chi(t), chi(t) + chi(z)) - min(0, chi(z)) = chi(t).
        The mark is read off each entry, so a certificate of any kind, built
        or parsed from JSON, has it.  Not a field, so it stays out of eq,
        hash and repr; built on the first read and kept."""
        plan = []
        for z, path_word, _ in self.entries:
            letters = path_word.letters
            plan.append((str(z), z, None if letters == (z,) else letters))
        return tuple(plan)


class MarginLine(NamedTuple):
    z: str
    margin: Fraction
    endpoint_checked: bool
    positive: bool


@dataclass(frozen=True)
class CertificateReport:
    context: str
    t: str
    lines: tuple[MarginLine, ...]
    passed: bool
    endpoints_checked: bool


def verify_certificate(cert: PathCertificate, chi: Character) -> CertificateReport:
    """Check endpoints against the oracle and compute all margins.

    The context must be a model, P_n(T) or P_n(K), and chi must live on it;
    otherwise a DomainError names the context or the character's group.
    Margins are computed on every call, in the scaled integers of
    ``chi.letter_table``, from the certificate's kept
    :attr:`PathCertificate.plan`: with L the table's denominator, L m_z is
    the least scaled value on the path t, t W_z (:meth:`LetterTable.lowest`,
    the one walk) less min(0, L chi(z)), and for an entry whose path is z
    alone it is L chi(t), the identity the plan records, though z is still
    valued, so a letter foreign to chi raises as it would on the walk.
    Each distinct scaled margin is divided by L once per call, its Fraction
    shared by the lines that have it.

    The entries and the endpoint equations do not depend on chi: they
    are checked by the certificate's :attr:`PathCertificate.endpoints_checked`,
    which is kept on the certificate once it holds, so later calls for the
    same certificate object compute the margins alone.  A certificate that
    fails keeps nothing and raises the same error on every call.  Raises
    CertificateError when chi(t) <= 0, an entry is missing or an endpoint
    equation fails (naming the offending generator); margins that are
    merely nonpositive only mark the report as failed.
    """
    context = cert.context
    if not isinstance(context, ModelId) and \
            (context.family, context.surface) not in (("P", "T"), ("P", "K")):
        raise DomainError(f"{context}: certificates cover the models, P_n(T) and P_n(K)")
    if chi.spec.group != context:
        raise DomainError(f"character lives on {chi.spec.group}, not {context}")
    table = chi.letter_table
    chi_t = table.value(cert.t)
    if chi_t <= 0:
        raise CertificateError(f"base letter {cert.t} needs chi(t) > 0, "
                               f"got {Fraction(chi_t, table.denominator)}")

    checked = cert.endpoints_checked
    value, lowest = table.value, table.lowest
    margins = {}  # one Fraction per distinct scaled margin
    lines = []
    for text, z, letters in cert.plan:
        if letters is None:  # the path z alone
            value(z)  # valued all the same, so a foreign z raises here
            margin = chi_t
        else:
            margin = lowest(chi_t, letters) - min(0, value(z))
        fraction = margins.get(margin)
        if fraction is None:
            fraction = margins[margin] = Fraction(margin, table.denominator)
        lines.append(MarginLine(text, fraction, checked, margin > 0))
    passed = all(line.positive for line in lines)
    return CertificateReport(str(context), str(cert.t),
                             tuple(lines), passed, checked)


# ---------------------------------------------------------------------------
# The six parametrised certificate cases
# (character patterns on the 3- and 4-strand torus models; the enum
# ``CertificateCase`` lives in models, beside ModelId)

# model, braid character (a- and b-coordinates), base letter t, and the
# banked path word of each letter that does not commute with t; every other
# letter takes the trivial path, which the endpoint check confirms
_CASES = {
    CertificateCase.G3T_A: (ModelId.G3T, ((-1, 0, 1), (-1, 1, 0)), model_sym("x"),
                            {"v": "conj-x-v-via-y", "y": "conj-x-y-via-y"}),
    CertificateCase.G3T_B: (ModelId.G3T, ((-1, 0, 1), (1, -1, 0)), model_sym("x"),
                            {"v": "conj-x-v-via-y-neg", "y": "conj-x-y-via-y-neg"}),
    CertificateCase.G3T_C: (ModelId.G3T, ((-1, 0, 1), (0, -1, 1)), model_sym("v"),
                            {"u": "conj-v-u-via-v", "x": "conj-v-x-via-v", "w": "conj-v-w-via-v"}),
    CertificateCase.G3T_D: (ModelId.G3T, ((-1, 0, 1), (0, 1, -1)), model_sym("v", -1),
                            {"u": "conj-v-u-out", "x": "conj-v-x-out", "w": "conj-v-w-out"}),
    CertificateCase.G4T_A: (ModelId.G4T, ((-1, 0, 0, 1), (0, -1, 1, 0)), model_sym("v"),
                            {"u": "conj-v-u-via-v", "x": "conj-v-x-via-v", "w": "conj-v-w-via-v",
                             "ub": "into-v-ub", "w2": "into-v-w2"}),
    CertificateCase.G4T_B: (ModelId.G4T, ((-1, 0, 0, 1), (0, 1, -1, 0)), model_sym("v", -1),
                            {"u": "conj-v-u-out", "x": "conj-v-x-out", "w": "conj-v-w-out",
                             "ub": "out-v-ub", "w2": "out-v-w2"}),
}


def case_character(case: CertificateCase, p, q) -> tuple[Character, Character]:
    """The (model character, braid character) pair the case certifies; p
    and q must be exact positive rationals."""
    case = CertificateCase(case)
    p, q = _exact(p), _exact(q)
    if p <= 0 or q <= 0:
        raise DomainError("the case parameters need p, q > 0")
    model, (a, b), _, _ = _CASES[case]
    braid = torus_character(len(a), [p * c for c in a], [q * c for c in b])
    return model_character(dictionary(model), braid), braid


def generate_lemma_certificates(case: CertificateCase, p, q) -> PathCertificate:
    """Assemble the certificate for one parametrised case; the banked
    equations supply the nontrivial paths, every other letter takes the
    trivial path (the endpoint check confirms that it commutes with t),
    and inverse letters get the inverted relation.

    The certificate does not depend on p and q, which fix only the
    character (:func:`case_character`): each call validates the case and
    reads p and q as exact rationals (a float or a boolean is a
    DomainError), then returns the certificate kept for the case, built
    on the first call for it.  Six certificates are kept in all."""
    case = CertificateCase(case)
    _exact(p), _exact(q)  # validate numerics early
    return _lemma_certificate(case)


@cache  # the certificate of each case, built on first use
def _lemma_certificate(case: CertificateCase) -> PathCertificate:
    model, _, t, banked = _CASES[case]
    bank = {eq["name"]: eq for eq in equation_bank(model)}
    if model is ModelId.G4T:
        # the 3-strand path words remain valid in the 4-strand model
        for eq in equation_bank(ModelId.G3T):
            bank.setdefault(eq["name"], eq)
    entries: list[CertificateEntry] = []
    for z in model.signed_letters[::2]:
        if z.label not in banked:
            entries += _triv(z)
            continue
        eq = bank[banked[z.label]]
        w = parse_model_word(eq["rhs"], model)
        entries.append(CertificateEntry(z, w, f"equation bank: {eq['name']}"))
        entries.append(CertificateEntry(z.inverse(), w.inverse(),
                                        f"inverted bank equation {eq['name']}"))
    return PathCertificate(model, t, tuple(entries))


# ---------------------------------------------------------------------------
# Certificates over the braid generators (general strand count)

@cache  # entries are immutable, so every certificate that has them shares one pair
def _triv(z: GeneratorSymbol, note: str = "commuting letter, trivial path") -> tuple[CertificateEntry, ...]:
    """The trivial-path entries of a letter and its inverse."""
    z_inv = z.inverse()
    return (CertificateEntry(z, _reduced((z,)), note),
            CertificateEntry(z_inv, _reduced((z_inv,)), note))


def _pair(z: GeneratorSymbol, w: Word, note: str) -> list[CertificateEntry]:
    return [CertificateEntry(z, w, note),
            CertificateEntry(z.inverse(), w.inverse(), note + " (inverted)")]


# the most path letters the kept braid certificates may hold together.  A
# certificate's own entries and words take 9-13 bytes per path letter, the
# trivial-path pairs it shares (``_triv``, two letters each) about 540
# bytes a pair, emptied with the store, and its margin plan, once verified,
# 72 bytes an entry: one P_200(T) certificate, 199,800 letters in 40,600
# entries, holds 1.9 + 10.7 + 2.9 MB
CERTIFICATE_BUDGET = 2 ** 18


class _Kept(dict):
    """Braid certificates by (surface, n, top end), and the path letters
    they hold; emptied once those pass ``CERTIFICATE_BUDGET``."""

    letters = 0

    def keep(self, key: tuple[str, int, bool], cert: PathCertificate) -> PathCertificate:
        self.letters += sum(len(e.path_word) for e in cert.entries)
        if self.letters > CERTIFICATE_BUDGET:
            self.clear()
        else:
            self[key] = cert
        return cert

    def clear(self) -> None:
        super().clear()
        _triv.cache_clear()  # lemma certificates keep the pairs they hold
        self.letters = 0


_BRAID_CERTS = _Kept()


def generate_braid_certificate(group: GroupContext, chi: Character) -> PathCertificate:
    """Certificate over the braid generators of P_n(T) or P_n(K) with base
    t = b_n (when chi(b_n) > 0) or t = b_1^-1 (when chi(b_1) < 0).

    Margins are positive when the base weight strictly dominates: use the
    permutation action first to sort the b-block if needed.  At n <= 4 on
    the torus and n = 2 on the Klein bottle the endpoint equations are
    oracle-checked; for larger n they rest on the relation tables.

    chi must live on the group.  Each call validates the group and chi and
    picks the base end from chi's b-weights; the certificate depends on
    the surface, n and that end alone.  It is built on the first call for
    them and kept for later ones, in a store that is emptied once the
    path letters of its certificates pass ``CERTIFICATE_BUDGET``.
    """
    if (group.family, group.surface) not in (("P", "T"), ("P", "K")):
        raise DomainError(f"{group}: braid certificates cover P_n(T) and P_n(K)")
    n = group.n
    if n < 2:
        raise DomainError("need n >= 2")
    if chi.spec.group != group:
        raise DomainError(f"character lives on {chi.spec.group}, not {group}")
    # the b-weights scaled by the letter table's positive denominator, which
    # keeps every sign and comparison below
    value = chi.letter_table.value
    b = [value(sym_b(i)) for i in range(1, n + 1)]
    b_top, b_low = b[-1], b[0]
    # prefer the end whose weight strictly dominates every partner sum,
    # so the certificate's margins can come out positive
    top_ok = b_top > 0 and all(b_top + v > 0 for v in b[:-1])
    low_ok = b_low < 0 and all(-b_low - v > 0 for v in b[1:])
    use_top = top_ok or (not low_ok and b_top > 0)
    if not use_top and b_low >= 0:
        raise DomainError("need chi(b_n) > 0 or chi(b_1) < 0; "
                          "sort the b-block with act_permutation first")
    key = (group.surface, n, use_top)
    cert = _BRAID_CERTS.get(key)
    if cert is None:
        cert = _BRAID_CERTS.keep(key, _braid_certificate(group, use_top))
    return cert


def _braid_certificate(group: GroupContext, use_top: bool) -> PathCertificate:
    """The certificate with base b_n (``use_top``) or b_1^-1."""
    n = group.n
    K = group.surface == "K"
    # every path word is one product of cached one-letter words (C[j,j] is
    # the empty word)
    entries: list[CertificateEntry] = []
    if use_top:
        t = sym_b(n)
        for i in range(1, n):
            entries += _pair(sym_a(i), product(_C(i, n), _C(i + 1, n, -1), _a(i)),
                             "strand conjugation rule P1")
        w_an = product(_C(1, n), _a(n, -1)) if K else product(_a(n), _C(1, n, -1))
        entries += _pair(sym_a(n), w_an, "strand conjugation rule P1, top row")
        for i in range(1, n):
            w = product(_b(i), _C(i + 1, n), _C(i, n, -1)) if K else _b(i)
            entries += _pair(sym_b(i), w, "b-commutation rule")
        entries += _triv(sym_b(n))
        for i in range(1, n):
            for j in range(i + 1, n):
                entries += _triv(sym_C(i, j), "disjoint encircling braid")
        # the S4 bands b_k C[k,n] C[k+1,n]^-1 b_k^-1 (the band inverted on
        # the Klein bottle) for k = n-1 down to 1, four factors each; the
        # word for C[i,n] is the bands down to k = i
        bands: list[Word] = []
        for k in range(n - 1, 0, -1):
            band = (_C(k + 1, n), _C(k, n, -1)) if K else (_C(k, n), _C(k + 1, n, -1))
            bands += (_b(k), *band, _b(k, -1))
        for i in range(1, n):
            entries += _pair(sym_C(i, n), product(*bands[:4 * (n - i)]),
                             "iterated outward conjugation S4")
    else:
        t = sym_b(1, -1)
        entries += _triv(sym_b(1))
        for j in range(2, n + 1):
            w = product(_C(2, j, -1), _C(1, j), _b(j)) if K else _b(j)
            entries += _pair(sym_b(j), w, "outward conjugation S5")
        for j in range(2, n + 1):
            entries += _pair(sym_a(j), product(_a(j), _C(1, j, -1), _C(2, j)),
                             "outward conjugation S2")
        bands = []
        for j in range(2, n + 1):
            bands += (_C(1, j), _C(2, j, -1)) if K else (_C(1, j, -1), _C(2, j))
        w_a1_inv = product(*bands, _a(1)) if K else product(_a(1, -1), *bands)
        entries += _pair(sym_a(1, -1), w_a1_inv, "wall-crossing relation, first strand")
        for j in range(2, n + 1):
            middle = (_C(1, j, -1), _C(2, j)) if K else (_C(2, j, -1), _C(1, j))
            entries += _pair(sym_C(1, j), product(_b(j, -1), *middle, _b(j), _C(2, j)),
                             "outward conjugation S4, first strand")
        for j in range(2, n + 1):
            for k in range(j + 1, n + 1):
                entries += _triv(sym_C(j, k), "disjoint encircling braid")
    return PathCertificate(group, t, tuple(entries))


# ---------------------------------------------------------------------------
# Bounded Cayley-ball exploration

_DEFAULT_BUDGET = 10 ** 6
_NOTE = ("bounded breadth-first sweep: reachability within the ball is "
         "certified, non-reachability is not a disconnection proof")


@dataclass(frozen=True)
class TargetReport:
    word: str
    in_ball: bool
    nonnegative: bool
    reachable: bool


@dataclass(frozen=True)
class BallReport:
    model: ModelId
    radius: int
    base: str
    vertex_count: int
    nonnegative_count: int
    reachable_count: int
    truncated: bool
    unreached_sample: tuple[str, ...]
    targets: tuple[TargetReport, ...]
    note: str = _NOTE

    def to_json(self) -> dict:
        return {
            "model": self.model.value,
            "radius": self.radius,
            "base": self.base,
            "vertices": self.vertex_count,
            "nonnegative": self.nonnegative_count,
            "reachable": self.reachable_count,
            "truncated": self.truncated,
            "unreached_sample": list(self.unreached_sample),
            "targets": [vars(t) for t in self.targets],
            "note": self.note,
        }


def _ball_budget(budget: int | None) -> int:
    """The vertex cap: the argument, else 10^6; a cap that is not an integer
    or is below 1 is an error."""
    budget = _DEFAULT_BUDGET if budget is None else budget
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise DomainError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    return budget


@dataclass(frozen=True, eq=False)
class _Ball:
    """The character-free part of a breadth-first sweep of a model's Cayley
    ball: vertices are numbered in discovery order, and nothing but numbers
    is kept, apart from the words of the vertices sampled so far.

    ``sizes[d]`` counts the vertices at distance <= d.  Vertex v > 0 was
    discovered from ``parent[v]`` by the letter ``model.signed_letters[letter[v]]``.
    ``cls[v]`` is v's abelian class: the exponent vector of the free letters
    along its parent path, so every character is constant on a class.
    Classes are numbered in discovery order, ``csizes[d]`` counts those met
    at distance <= d, and class c > 0 was met from class ``cparent[c]`` by
    the letter ``cletter[c]``, which is free.  Every vertex v has its row
    of neighbours in ``rows[v]``.  The row of a vertex below distance r,
    and every row of a cut sweep, holds one number per letter, where the
    ball's size stands for a state outside it; the row of a vertex of the
    radius-r shell of a whole sweep holds its neighbours inside the ball
    only.  ``order`` lists the vertices in the sample order of
    :func:`_order`, and ``texts`` holds the spelled word of each vertex
    sampled so far."""

    radius: int
    sizes: array
    parent: array
    letter: array
    cls: array
    csizes: array
    cparent: array
    cletter: array
    rows: list[tuple[int, ...]]
    order: array
    texts: dict[int, str]


# the whole ball of the largest radius swept so far, one per model
_BALLS: dict[ModelId, _Ball] = {}


def _shell_rows(model: ModelId, rows: list[tuple[int, ...]], states: list[tuple],
                index: dict[tuple, int]) -> list[list[int]]:
    """The in-ball neighbours of each vertex of the radius-r shell, the
    vertices len(rows) .. len(states) - 1, after a whole sweep.

    A shell vertex has neighbours inside the ball at distance r - 1 or r
    only.  The graph is undirected (u = s g iff s = u g^-1, and
    ``ModelId.signed_letters`` lists each letter next to its inverse), so
    every edge to distance r - 1 already sits in a row at distance r - 1:
    these reverse edges are read off the rows.  An edge between two shell vertices closes a cycle of
    2r + 1 edges, which needs a defining relator of odd length.  So on a
    bipartite model (``ModelId.bipartite``) the reverse edges are all.  On
    the others each shell vertex is stepped by the positive letters that
    have no reverse edge: an edge s g = s' inside the shell is also
    s' g^-1 = s, so it is found from the end where its letter is positive
    and entered at both ends."""
    first, n = len(rows), len(states)
    shell: list[list[int]] = [[] for _ in range(first, n)]
    known = [0] * (n - first)  # bit k: letter k leads back to distance r - 1
    for u, row in enumerate(rows):
        for k, w in enumerate(row):
            if w >= first:
                # u g = w, so w g^-1 = u: g^-1 is letter k ^ 1
                shell[w - first].append(u)
                known[w - first] |= 1 << (k ^ 1)
    if not model.bipartite:
        signed = model.signed_letters
        for j, row in enumerate(shell):
            state = states[first + j]
            for k in range(0, len(signed), 2):  # the positive letters
                if not known[j] >> k & 1:
                    w = index.get(step(model, state, signed[k]))
                    if w is not None:  # not at distance r - 1, so in the shell
                        row.append(w)
                        shell[w - first].append(first + j)
    return shell


def _order(sizes: array, states: list[tuple]) -> array:
    """The vertices sorted by distance, then by the repr of their states,
    one distance at a time: the sample order, which :func:`_vertex_of` bisects."""
    return array("i", chain.from_iterable(sorted(range(lo, hi), key=lambda v: repr(states[v]))
                                          for lo, hi in pairwise([0, *sizes])))


class _Classes:
    """The abelian classes of a sweep, numbered as they are met: each is
    the exponent vector of the free letters, and moving along a letter that
    is not free (torsion or trivial) keeps the class."""

    def __init__(self, model: ModelId):
        free = [name for name, order in model.letter_orders if order == 0]
        # signed letter k -> (position, exponent) of its free letter, or None
        self.moves = [(free.index(s.label), s.sign) if s.label in free else None
                      for s in model.signed_letters]
        self.vectors = [(0,) * len(free)]
        self.index = {self.vectors[0]: 0}
        self.parent = array("i", [0])
        self.letter = array("b", [0])

    def next(self, c: int, k: int) -> int:
        """The class of a vertex of class c moved by letter k."""
        move = self.moves[k]
        if move is None:
            return c
        vec = list(self.vectors[c])
        vec[move[0]] += move[1]
        vec = tuple(vec)
        d = self.index.get(vec)
        if d is None:
            d = self.index[vec] = len(self.vectors)
            self.vectors.append(vec)
            self.parent.append(c)
            self.letter.append(k)
        return d


def _sweep(model: ModelId, radius: int, budget: int) -> tuple[_Ball, bool]:
    """Sweep the radius-r ball breadth first, numbering at most ``budget``
    vertices (normal-form states) once each, in discovery order.

    Each vertex below distance r gets its row of neighbour numbers, one
    per letter, and each new vertex its abelian class from
    :class:`_Classes`; after a whole sweep each shell vertex gets the row
    of its in-ball neighbours from :func:`_shell_rows`, so ``rows`` holds
    one row per vertex.  Once a new vertex would exceed the budget the
    sweep is cut: a state not yet numbered then gets the number
    ``budget``, the ball's size, which stands for every state outside it.
    A cut sweep finishes its distance and steps the vertices one further
    out by every letter, so each of its vertices has a full row.  Returns
    (ball, truncated)."""
    signed = model.signed_letters
    ident = identity_state(model)
    index = {ident: 0}
    states = [ident]
    parent = array("i", [0])
    letter = array("b", [0])
    classes = _Classes(model)
    cls = array("i", [0])
    sizes = array("i")
    csizes = array("i")
    rows: list[tuple[int, ...]] = []
    truncated = False
    for _ in range(radius):
        sizes.append(len(states))
        csizes.append(len(classes.parent))
        for v in range(len(rows), len(states)):
            state = states[v]
            c = cls[v]
            row = []
            for k, s in enumerate(signed):
                nxt = step(model, state, s)
                w = index.get(nxt)
                if w is None:
                    w = len(states)
                    if w >= budget:
                        truncated = True  # w = budget: outside the ball
                    else:
                        index[nxt] = w
                        states.append(nxt)
                        parent.append(v)
                        letter.append(k)
                        cls.append(classes.next(c, k))
                row.append(w)
            rows.append(tuple(row))
        if truncated:
            break
    sizes.append(len(states))
    csizes.append(len(classes.parent))
    if truncated:  # the vertices one distance further out have no row yet
        rows += [tuple(index.get(step(model, state, s), budget) for s in signed)
                 for state in states[len(rows):]]
    else:
        rows += map(tuple, _shell_rows(model, rows, states, index))
    ball = _Ball(radius, sizes, parent, letter, cls, csizes, classes.parent, classes.letter,
                 rows, _order(sizes, states), {})
    return ball, truncated


def _vertex_state(model: ModelId, ball: _Ball, v: int) -> tuple:
    """The state of one vertex: its parent path, a geodesic, normalised."""
    path = []
    while v:
        path.append(model.signed_letters[ball.letter[v]])
        v = ball.parent[v]
    return normalize(model, Word(tuple(reversed(path)))).state


def _spelled(model: ModelId, ball: _Ball, v: int) -> str:
    """The word of vertex v as the sample prints it, spelled once per ball."""
    text = ball.texts.get(v)
    if text is None:
        state = _vertex_state(model, ball, v)
        text = ball.texts[v] = serialize_word(NormalForm(model, state).as_word()) or "1"
    return text


def _vertex_of(model: ModelId, ball: _Ball, n: int, state: tuple) -> int | None:
    """The number of the vertex with this state among the vertices
    0 .. n - 1, or None.  ``order`` sorts each distance's vertices by the
    repr of their states, so one bisection per distance finds the state
    if the ball holds it; each probe normalises its vertex's parent path,
    so a hit is exact and the ball stores nothing for it."""
    text = repr(state)
    key = lambda v: repr(_vertex_state(model, ball, v))
    order = ball.order
    lo = 0
    for hi in ball.sizes:
        if lo >= n:
            break
        i = bisect_left(order, text, lo, hi, key=key)
        if i < hi and key(order[i]) == text:
            return order[i] if order[i] < n else None
        lo = hi
    return None


def _class_values(ball: _Ball, n: int, moves: list[int]) -> list[int]:
    """The scaled character on each abelian class met by the vertices
    0 .. n - 1, summed down the class tree; these classes are the first
    ones, since classes are numbered as they are met."""
    d = bisect_left(ball.sizes, n)
    count = ball.csizes[d] if ball.sizes[d] == n else max(ball.cls[:n]) + 1
    cparent, cletter = ball.cparent, ball.cletter
    value = [0] * count
    for c in range(1, count):
        value[c] = value[cparent[c]] + moves[cletter[c]]
    return value


def explore_ball(model: ModelId, chi: Character, radius: int = 6,
                 targets: Sequence[Word] = (), budget: int | None = None) -> BallReport:
    """Bounded sweep of the radius-r Cayley ball of the model, then a
    search from the base vertex through the chi-nonnegative part of it.

    The ball does not depend on chi.  :func:`_sweep` numbers its
    vertices in breadth-first order and keeps, for each, its parent, its
    arrival letter, its abelian class and its row of neighbours, and
    sorts the vertices into the sample order.  A whole ball is kept per
    model (``_BALLS``) and replaced only by a whole ball of larger
    radius, so at most one ball per model is kept, and none larger than
    the budget it was swept under.  A sweep to radius r cut by the
    budget B keeps the first min(|B(r)|, B) vertices of the
    breadth-first order, and these are a prefix of every larger ball.
    So a query reads that prefix of the kept ball when the ball's radius
    is at least r or B cuts inside it, and otherwise sweeps anew; a
    sweep the budget cut is used once, not kept.

    A query reads the scaled integer value of each signed letter from
    ``chi.letter_table`` (scaling by the table's positive denominator
    keeps every sign); the base is the first letter of positive value,
    or the identity when chi is zero.  It sums these values down the
    tree of the prefix's abelian classes, which are far fewer than its
    vertices, and marks the nonnegative vertices by their class.  The
    search reads one row per reached vertex and keeps only the
    neighbours inside the prefix: every number from n on stands for a
    state outside it.  The unreached sample is the first ten unreached
    vertices in the ball's ``order``; each is spelled once per ball and
    its text reused.  Each target is normalised and looked up in
    ``order`` by :func:`_vertex_of`.

    The budget caps the number of vertices; it defaults to 10^6 and must
    be at least 1."""
    if isinstance(radius, bool) or not isinstance(radius, int):
        raise DomainError(f"radius must be an integer, got {radius!r}")
    if radius < 1:
        raise DomainError("radius must be >= 1")
    if chi.spec.group != model:
        raise DomainError(f"character lives on {chi.spec.group}, not {model.value}")
    budget = _ball_budget(budget)
    table = chi.letter_table
    signed = model.signed_letters
    moves = [table.value(s) for s in signed]
    # the base letter: the first letter of positive value, preferring a
    # generator (even k) to an inverse (odd k); a nonzero chi has one, as
    # signed_letters lists each letter next to its inverse
    base_k = min((k for k, v in enumerate(moves) if v > 0), key=lambda k: k & 1, default=None)

    ball = _BALLS.get(model)
    if ball is not None and (radius <= ball.radius or budget < ball.sizes[-1]):
        whole = ball.sizes[min(radius, ball.radius)]
        n, truncated = min(whole, budget), whole > budget
    else:
        ball, truncated = _sweep(model, radius, budget)
        n = ball.sizes[-1]
        if not truncated:
            _BALLS[model] = ball

    value = _class_values(ball, n, moves)

    if base_k is None:
        base_word = IDENTITY
        base = 0
    else:
        base_word = Word((signed[base_k],))
        base = ball.rows[0][base_k]

    # open_[v]: v is nonnegative and not yet reached; every id from n on
    # stands for a state outside the prefix
    open_ = list(map([val >= 0 for val in value].__getitem__, ball.cls[:n]))
    nonnegative = sum(open_)
    open_ += [False] * (len(ball.parent) + 1 - n)
    reached = 0
    if open_[base]:
        open_[base] = False
        reached = 1
        todo = [base]
        rows = ball.rows
        while todo:
            for w in rows[todo.pop()]:
                if open_[w]:
                    open_[w] = False
                    reached += 1
                    todo.append(w)

    unreached = islice(filter(open_.__getitem__, ball.order), min(nonnegative - reached, 10))
    sample = tuple(_spelled(model, ball, v) for v in unreached)
    target_reports = []
    for tw in targets:
        w = _vertex_of(model, ball, n, normalize(model, tw).state)
        nonneg = w is not None and value[ball.cls[w]] >= 0
        target_reports.append(TargetReport(
            serialize_word(tw), w is not None, nonneg, nonneg and not open_[w]))
    return BallReport(model, radius, serialize_word(base_word) or "1",
                      n, nonnegative, reached, truncated, sample, tuple(target_reports))
