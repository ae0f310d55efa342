"""
The connectivity-criterion engine.

A point [chi] lies in the invariant iff, for some generator t with
chi(t) > 0, every signed generator z admits a path p_z from t to z t whose
chi-minimum exceeds that of the one-edge path (1, z).  A
:class:`PathCertificate` packages such paths as words W_z with
t W_z = z t in the group; :func:`verify_certificate` checks the endpoint
equations against the word-problem oracle and computes the exact margins

    m_z = nu_chi(t, W_z) - nu_chi(1, (z)) ,

all of which must be strictly positive.

``generate_lemma_certificates`` assembles the certificates for the six
parametrised character families on the three- and four-strand torus
models (cases A-D on G3T, A-B on G4T), drawing the nontrivial path words
from the shipped equation bank.  ``generate_braid_certificate`` builds
certificates directly over the braid generators for characters whose
extreme b-weight sits on strand n (t = b_n) or strand 1 (t = b_1^-1);
endpoints are oracle-checked where a model covers the group (torus
n <= 4, Klein bottle n = 2) and are otherwise delegated to the relation
tables, which the report records entry by entry.

``explore_ball`` runs a bounded breadth-first sweep of the Cayley ball of
a model, canonicalising vertices by normal form, and reports which
targets are connected to the base vertex inside the chi-nonnegative part.
A bounded sweep can certify reachability but never disconnection; the
report says so explicitly.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .characters import (
    Character,
    evaluate,
    letter_values,
    model_character,
    nu,
    torus_character,
)
from .models import (
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
from .presentations import _C
from .words import (
    DomainError,
    GeneratorSymbol,
    GroupContext,
    IDENTITY,
    Word,
    model_sym,
    serialize_word,
    sym_a,
    sym_b,
    sym_C,
)


class CertificateError(DomainError):
    pass


@dataclass(frozen=True)
class CertificateEntry:
    z: GeneratorSymbol
    path_word: Word
    cite: str


@dataclass(frozen=True)
class PathCertificate:
    """A base letter t plus, for every signed generator z, a word W_z with
    t W_z = z t; context is a model or a pure braid group."""

    context: ModelId | GroupContext
    t: GeneratorSymbol
    entries: tuple[CertificateEntry, ...]

    def entry(self, z: GeneratorSymbol) -> CertificateEntry:
        for e in self.entries:
            if e.z == z:
                return e
        raise KeyError(str(z))


@dataclass(frozen=True)
class MarginLine:
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


def _signed_alphabet(letters: Iterable[GeneratorSymbol]) -> list[GeneratorSymbol]:
    out = []
    for s in letters:
        out.append(s)
        out.append(s.inverse())
    return out


def _model_alphabet(model: ModelId) -> list[GeneratorSymbol]:
    return [model_sym(name) for name in model.letter_names]


def verify_certificate(cert: PathCertificate, chi: Character) -> CertificateReport:
    """Check endpoints against the oracle and compute all margins.

    Raises CertificateError when chi(t) <= 0 or an endpoint equation
    fails (naming the offending generator); margins that are merely
    nonpositive only mark the report as failed.
    """
    t_word = Word((cert.t,))
    chi_t = evaluate(chi, t_word)
    if chi_t <= 0:
        raise CertificateError(f"base letter {cert.t} needs chi(t) > 0, got {chi_t}")
    is_model = isinstance(cert.context, ModelId)
    dic = None if is_model else dictionary_for(cert.context.surface, cert.context.n)

    if is_model:
        alphabet = _model_alphabet(cert.context)
    else:
        n = cert.context.n
        alphabet = [sym_a(i) for i in range(1, n + 1)] + \
                   [sym_b(i) for i in range(1, n + 1)] + \
                   [sym_C(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    required = {str(z) for z in _signed_alphabet(alphabet)}
    provided = {str(e.z) for e in cert.entries}
    missing = required - provided
    if missing:
        raise CertificateError(f"certificate misses entries for: {sorted(missing)}")

    lines = []
    endpoints_all = True
    for e in cert.entries:
        if is_model:
            ok = words_equal(cert.context, t_word * e.path_word, Word((e.z,)) * t_word)
            checked = True
        elif dic is not None:
            ok = words_equal(dic.model, translate(dic, t_word * e.path_word, "to_model"),
                             translate(dic, Word((e.z,)) * t_word, "to_model"))
            checked = True
        else:
            ok, checked = True, False
        if checked and not ok:
            raise CertificateError(f"endpoint condition fails for z = {e.z}")
        endpoints_all = endpoints_all and checked
        margin = nu(chi, t_word, e.path_word) - nu(chi, IDENTITY, Word((e.z,)))
        lines.append(MarginLine(str(e.z), margin, checked, margin > 0))
    passed = all(line.positive for line in lines)
    return CertificateReport(str(cert.context), str(cert.t),
                             tuple(lines), passed, endpoints_all)


# ---------------------------------------------------------------------------
# The six parametrised certificate cases
# (character patterns on the 3- and 4-strand torus models)

class CertificateCase(str, Enum):
    G3T_A = "g3t-a"   # chi(x)=chi(u)=p, chi(y)=q,  t = x
    G3T_B = "g3t-b"   # chi(x)=chi(u)=p, chi(y)=-q, t = x
    G3T_C = "g3t-c"   # chi(x)=chi(u)=p, chi(v)=q,  t = v
    G3T_D = "g3t-d"   # chi(x)=chi(u)=p, chi(v)=-q, t = v^-1
    G4T_A = "g4t-a"   # chi(x)=chi(u)=chi(ub)=p, chi(v)=q,  t = v
    G4T_B = "g4t-b"   # chi(x)=chi(u)=chi(ub)=p, chi(v)=-q, t = v^-1


_CASE_MODEL = {
    CertificateCase.G3T_A: ModelId.G3T, CertificateCase.G3T_B: ModelId.G3T,
    CertificateCase.G3T_C: ModelId.G3T, CertificateCase.G3T_D: ModelId.G3T,
    CertificateCase.G4T_A: ModelId.G4T, CertificateCase.G4T_B: ModelId.G4T,
}

_CASE_BRAID_COORDS = {
    CertificateCase.G3T_A: ((-1, 0, 1), (-1, 1, 0)),
    CertificateCase.G3T_B: ((-1, 0, 1), (1, -1, 0)),
    CertificateCase.G3T_C: ((-1, 0, 1), (0, -1, 1)),
    CertificateCase.G3T_D: ((-1, 0, 1), (0, 1, -1)),
    CertificateCase.G4T_A: ((-1, 0, 0, 1), (0, -1, 1, 0)),
    CertificateCase.G4T_B: ((-1, 0, 0, 1), (0, 1, -1, 0)),
}

# base letter, banked path-word names, letters taking the trivial path
_CASE_PLAN = {
    CertificateCase.G3T_A: ("x", 1, {"v": "conj-x-v-via-y", "y": "conj-x-y-via-y"},
                            ("a", "b", "u", "w", "x")),
    CertificateCase.G3T_B: ("x", 1, {"v": "conj-x-v-via-y-neg", "y": "conj-x-y-via-y-neg"},
                            ("a", "b", "u", "w", "x")),
    CertificateCase.G3T_C: ("v", 1, {"u": "conj-v-u-via-v", "x": "conj-v-x-via-v",
                                     "w": "conj-v-w-via-v"},
                            ("a", "b", "y", "v")),
    CertificateCase.G3T_D: ("v", -1, {"u": "conj-v-u-out", "x": "conj-v-x-out",
                                      "w": "conj-v-w-out"},
                            ("a", "b", "y", "v")),
    CertificateCase.G4T_A: ("v", 1, {"u": "conj-v-u-via-v", "x": "conj-v-x-via-v",
                                     "w": "conj-v-w-via-v", "ub": "into-v-ub",
                                     "w2": "into-v-w2"},
                            ("a", "b", "y", "v", "vb", "w3")),
    CertificateCase.G4T_B: ("v", -1, {"u": "conj-v-u-out", "x": "conj-v-x-out",
                                      "w": "conj-v-w-out", "ub": "out-v-ub",
                                      "w2": "out-v-w2"},
                            ("a", "b", "y", "v", "vb", "w3")),
}


def case_character(case: CertificateCase, p, q) -> tuple[Character, Character]:
    """The (model character, braid character) pair the case certifies."""
    p, q = Fraction(p), Fraction(q)
    if p <= 0 or q <= 0:
        raise DomainError("the case parameters need p, q > 0")
    model = _CASE_MODEL[case]
    a, b = _CASE_BRAID_COORDS[case]
    braid = torus_character(len(a), [p * c for c in a], [q * c for c in b])
    return model_character(dictionary(model), braid), braid


def generate_lemma_certificates(case: CertificateCase, p, q) -> PathCertificate:
    """Assemble the certificate for one parametrised case; the banked
    equations supply the nontrivial paths, commuting letters take the
    trivial path, and inverse letters get the inverted relation."""
    case = CertificateCase(case)
    Fraction(p), Fraction(q)  # validate numerics early
    model = _CASE_MODEL[case]
    t_name, t_sign, banked, trivial = _CASE_PLAN[case]
    bank = {eq["name"]: eq for eq in equation_bank(model)}
    if model is ModelId.G4T:
        # the 3-strand path words remain valid in the 4-strand model
        for eq in equation_bank(ModelId.G3T):
            bank.setdefault(eq["name"], eq)
    entries: list[CertificateEntry] = []
    for name in model.letter_names:
        z = model_sym(name)
        if name in banked:
            eq = bank[banked[name]]
            w = parse_model_word(eq["rhs"], model)
            entries.append(CertificateEntry(z, w, f"equation bank: {eq['name']}"))
            entries.append(CertificateEntry(z.inverse(), w.inverse(),
                                            f"inverted bank equation {eq['name']}"))
        elif name in trivial:
            entries.append(CertificateEntry(z, Word((z,)), "commuting letter, trivial path"))
            entries.append(CertificateEntry(z.inverse(), Word((z.inverse(),)),
                                            "commuting letter, trivial path"))
        else:  # pragma: no cover - the plans cover every letter
            raise AssertionError(f"case plan misses letter {name}")
    return PathCertificate(model, model_sym(t_name, t_sign), tuple(entries))


# ---------------------------------------------------------------------------
# Certificates over the braid generators (general strand count)

def _triv(z: GeneratorSymbol, note: str = "commuting letter, trivial path") -> list[CertificateEntry]:
    return [CertificateEntry(z, Word((z,)), note),
            CertificateEntry(z.inverse(), Word((z.inverse(),)), note)]


def _pair(z: GeneratorSymbol, w: Word, note: str) -> list[CertificateEntry]:
    return [CertificateEntry(z, w, note),
            CertificateEntry(z.inverse(), w.inverse(), note + " (inverted)")]


def generate_braid_certificate(group: GroupContext, chi: Character) -> PathCertificate:
    """Certificate over the braid generators of P_n(T) or P_n(K) with base
    t = b_n (when chi(b_n) > 0) or t = b_1^-1 (when chi(b_1) < 0).

    Margins are positive when the base weight strictly dominates: use the
    permutation action first to sort the b-block if needed.  At n <= 4 on
    the torus and n = 2 on the Klein bottle the endpoint equations are
    oracle-checked; for larger n they rest on the relation tables.
    """
    if (group.family, group.surface) not in (("P", "T"), ("P", "K")):
        raise DomainError(f"{group}: braid certificates cover P_n(T) and P_n(K)")
    n = group.n
    if n < 2:
        raise DomainError("need n >= 2")
    K = group.surface == "K"
    b = [evaluate(chi, Word((sym_b(i),))) for i in range(1, n + 1)]
    b_top, b_low = b[-1], b[0]
    # prefer the end whose weight strictly dominates every partner sum,
    # so the certificate's margins can come out positive
    top_ok = b_top > 0 and all(b_top + v > 0 for v in b[:-1])
    low_ok = b_low < 0 and all(-b_low - v > 0 for v in b[1:])
    use_top = top_ok or (not low_ok and b_top > 0)
    entries: list[CertificateEntry] = []
    if use_top:
        t = sym_b(n)
        for i in range(1, n):
            w = _C(i, n) * _C(i + 1, n).inverse() * Word((sym_a(i),))
            entries += _pair(sym_a(i), w, "strand conjugation rule P1")
        w_an = Word((sym_a(n),)) * _C(1, n).inverse() if not K \
            else _C(1, n) * Word((sym_a(n, -1),))
        entries += _pair(sym_a(n), w_an, "strand conjugation rule P1, top row")
        for i in range(1, n):
            w = Word((sym_b(i),)) if not K \
                else Word((sym_b(i),)) * _C(i + 1, n) * _C(i, n).inverse()
            entries += _pair(sym_b(i), w, "b-commutation rule")
        entries += _triv(sym_b(n))
        for i in range(1, n):
            for j in range(i + 1, n):
                entries += _triv(sym_C(i, j), "disjoint encircling braid")
        for i in range(1, n):
            w = IDENTITY
            for j in range(1, n - i + 1):
                band = _C(n - j, n) * _C(n - j + 1, n).inverse()
                if K:
                    band = band.inverse()
                w = w * Word((sym_b(n - j),)) * band * Word((sym_b(n - j, -1),))
            entries += _pair(sym_C(i, n), w, "iterated outward conjugation S4")
    elif b_low < 0:
        t = sym_b(1, -1)
        entries += _triv(sym_b(1))
        for j in range(2, n + 1):
            w = Word((sym_b(j),)) if not K \
                else _C(2, j).inverse() * _C(1, j) * Word((sym_b(j),))
            entries += _pair(sym_b(j), w, "outward conjugation S5")
        for j in range(2, n + 1):
            w = Word((sym_a(j),)) * _C(1, j).inverse() * _C(2, j)
            entries += _pair(sym_a(j), w, "outward conjugation S2")
        w1 = IDENTITY
        for j in range(2, n + 1):
            band = _C(1, j) * _C(2, j).inverse() if K else _C(1, j).inverse() * _C(2, j)
            w1 = w1 * band
        if K:
            w_a1_inv = w1 * Word((sym_a(1),))
        else:
            w_a1_inv = Word((sym_a(1, -1),)) * w1
        entries += _pair(sym_a(1, -1), w_a1_inv, "wall-crossing relation, first strand")
        for j in range(2, n + 1):
            if not K:
                w = Word((sym_b(j, -1),)) * _C(2, j).inverse() * _C(1, j) * \
                    Word((sym_b(j),)) * _C(2, j)
            else:
                w = Word((sym_b(j, -1),)) * _C(1, j).inverse() * _C(2, j) * \
                    Word((sym_b(j),)) * _C(2, j)
            entries += _pair(sym_C(1, j), w, "outward conjugation S4, first strand")
        for j in range(2, n + 1):
            for k in range(j + 1, n + 1):
                entries += _triv(sym_C(j, k), "disjoint encircling braid")
    else:
        raise DomainError("need chi(b_n) > 0 or chi(b_1) < 0; "
                          "sort the b-block with act_permutation first")
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
    """The vertex cap: the argument, else ``SIGMA_BRAID_BALL_BUDGET``, else
    10^6; a cap below 1 or a variable that is not an integer is an error
    naming where it came from."""
    source = "budget"
    if budget is None:
        source = "SIGMA_BRAID_BALL_BUDGET"
        text = os.environ.get(source)
        if not text:
            return _DEFAULT_BUDGET
        try:
            budget = int(text)
        except ValueError:
            raise DomainError(f"{source} must be an integer, got {text!r}") from None
    if budget < 1:
        raise DomainError(f"{source} must be >= 1, got {budget}")
    return budget


def _shell_edges(rows: list[list[int]], lo: int, n: int) -> tuple[list[int], list[int]]:
    """The reverse edges into the radius-r shell, the vertices len(rows) .. n - 1.

    Every edge from a shell vertex s to distance r - 1 sits in the row of a
    vertex u at distance r - 1 (the vertices lo .. len(rows) - 1): u g = s
    iff s g^-1 = u.  Returns (ends, sources): shell vertex j = s - len(rows)
    has the sources ``sources[ends[j]:ends[j + 1]]``."""
    first = len(rows)
    # count the sources of shell vertex j in ends[j + 2] and sum the counts
    # up: ends[j + 1] then starts j, and moves to its end as j fills up
    shift = first - 2
    ends = [0] * (n - shift)
    for row in rows[lo:]:
        for w in row:
            if w >= first:
                ends[w - shift] += 1
    ends = list(accumulate(ends))
    sources = [0] * ends[-1]
    shift += 1
    for u in range(lo, first):
        for w in rows[u]:
            if w >= first:
                j = w - shift
                at = ends[j]
                sources[at] = u
                ends[j] = at + 1
    return ends, sources


def explore_ball(model: ModelId, chi: Character, radius: int = 6,
                 targets: Sequence[Word] = (), budget: int | None = None) -> BallReport:
    """Bounded sweep of the radius-r Cayley ball of the model, then a
    search from the base vertex through the chi-nonnegative part of it.

    One breadth-first sweep numbers each vertex (a normal-form state) once,
    in discovery order, and keeps distances and values in lists indexed by
    that number.  For each vertex it expands with every signed letter, the
    sweep keeps the row of neighbour numbers.  The reach search reads those
    rows for the vertices the sweep expanded.

    A vertex of the radius-r shell has no row of its own.  Its neighbours
    inside the ball lie at distance r - 1 or r.  The graph is undirected
    (u = s g iff s = u g^-1, and ``signed`` lists each letter next to its
    inverse), so after a whole sweep every edge to distance r - 1 already
    sits in a row at distance r - 1: the reach search reads these reverse
    edges from one flat table built from those rows.  An edge between two
    shell vertices closes a cycle of 2r + 1 edges, which needs a defining
    relator of odd length.  So on a bipartite model (``ModelId.bipartite``)
    the search never steps the shell; on the others it steps a shell vertex
    only by the letters that have no reverse edge.  When the budget cuts
    the sweep short, every vertex without a row is stepped by every letter.

    The budget caps the number of vertices; it comes from the argument or
    else from ``SIGMA_BRAID_BALL_BUDGET`` and must be at least 1.

    Vertex values are the character's scaled integer letter values summed
    along the sweep; scaling by the table's positive denominator keeps
    every sign test."""
    if radius < 1:
        raise DomainError("radius must be >= 1")
    if chi.spec.group != model:
        raise DomainError(f"character lives on {chi.spec.group}, not {model.value}")
    budget = _ball_budget(budget)
    values = letter_values(chi)
    signed = [(name, sign) for name in model.letter_names for sign in (1, -1)]

    base_letter = None
    for sign in (1, -1):
        for name in model.letter_names:
            if values[(name, sign)] > 0:
                base_letter = (name, sign)
                break
        if base_letter:
            break
    if base_letter is None and any(v != 0 for v in values.values()):
        raise DomainError("no generator with positive value: unsupported base choice")

    ident = identity_state(model)
    index: dict[tuple, int] = {ident: 0}
    states = [ident]
    dist = [0]
    value = [0]
    rows: list[list[int]] = []  # rows[v]: the neighbours of vertex v, in `signed` order
    row: list[int] = []
    moves = [(name, sign, values[(name, sign)]) for name, sign in signed]
    truncated = False
    v = 0
    while v < len(states) and dist[v] < radius:
        state, d, val = states[v], dist[v] + 1, value[v]
        row = []
        for name, sign, dv in moves:
            nxt = step(model, state, name, sign)
            w = index.get(nxt)
            if w is None:
                w = len(states)
                if w >= budget:
                    truncated = True
                    break
                index[nxt] = w
                states.append(nxt)
                dist.append(d)
                value.append(val + dv)
            row.append(w)
        else:
            rows.append(row)
            v += 1
            continue
        break

    n = len(states)
    if base_letter is None:
        base_word = IDENTITY
        base: int | None = 0
    else:
        base_word = Word((model_sym(*base_letter),))
        k = signed.index(base_letter)
        known = rows[0] if rows else row  # the identity's row, partial if the budget cut it
        if k < len(known):
            base = known[k]
        elif k == len(known):
            base = None  # the letter that met the budget leads out of the ball
        else:
            base = index.get(step(model, ident, *base_letter))

    # open_[v]: v is nonnegative and not yet reached; id n stands for every
    # state outside the ball
    open_ = [val >= 0 for val in value]
    nonnegative = sum(open_)
    open_.append(False)
    reached = 0
    if base is not None and open_[base]:
        open_[base] = False
        reached = 1
        todo = [base]
        expanded = len(rows)
        reverse = not truncated and expanded < n
        if reverse:
            ends, sources = _shell_edges(rows, bisect_left(dist, radius - 1, 0, expanded), n)
            bipartite = model.bipartite
            bits = [(1 << k, name, sign) for k, (name, sign) in enumerate(signed)]
        while todo:
            v = todo.pop()
            if v < expanded:
                nbrs = rows[v]
            elif reverse:
                j = v - expanded
                nbrs = sources[ends[j]:ends[j + 1]]
                if not bipartite:
                    # u's row holds v at the index k of one letter g, and
                    # v g^-1 = u: step v by every letter but these k ^ 1
                    known = 0
                    for u in nbrs:
                        known |= 1 << (rows[u].index(v) ^ 1)
                    state = states[v]
                    nbrs += [index.get(step(model, state, name, sign), n)
                             for bit, name, sign in bits if not known & bit]
            else:
                state = states[v]
                nbrs = [index.get(step(model, state, name, sign), n) for name, sign in signed]
            for w in nbrs:
                if open_[w]:
                    open_[w] = False
                    reached += 1
                    todo.append(w)

    unreached = sorted((v for v in range(n) if open_[v]),
                       key=lambda v: (dist[v], repr(states[v])))
    sample = tuple(serialize_word(NormalForm(model, states[v]).as_word()) or "1"
                   for v in unreached[:10])
    target_reports = []
    for tw in targets:
        w = index.get(normalize(model, tw).state)
        nonneg = w is not None and value[w] >= 0
        target_reports.append(TargetReport(
            serialize_word(tw), w is not None, nonneg, nonneg and not open_[w]))
    return BallReport(model, radius, serialize_word(base_word) or "1",
                      n, nonnegative, reached, truncated, sample, tuple(target_reports))
