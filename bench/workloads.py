"""
Seeded inputs for the four benchmark workloads.

Each builder turns a seed into a fixed list of :class:`Op` values.  An op
calls the library through module attributes (so the tracer's wrappers see
every call) and returns a small plain summary of the answer; the expected
summary is fixed when the input is built, from how it was built:

- ``certify``  certificates for characters whose extreme b-weight
  dominates pass; a character that breaks dominance fails a margin; a
  corrupted path word breaks an oracle-checked endpoint.
- ``classify`` points placed on a complement circle (or pair point) are
  in the complement with that descriptor; points with every coordinate
  nonzero are in the invariant; torsion-only groups have empty spheres.
- ``oracle``   inserting a banked relator leaves a word's element alone;
  appending a letter with a nonzero abelian image changes it; translated
  relations hold.
- ``ball``     counts match the table recorded at the baseline commit
  (``ball_expected.json``), plus two controls that follow from the
  character alone.

The seed picks values, positions and word letters; the structure of each
input set (which groups, which n, which word lengths, how many of each)
is fixed, so two seeds exercise the same mix of costs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from sigmabraid import characters, cli, criterion, models, presentations, sigma, words
from sigmabraid.criterion import CertificateCase, CertificateEntry, CertificateError, PathCertificate
from sigmabraid.models import ModelId
from sigmabraid.words import DomainError, GroupContext, Word, model_sym, sym_b

HERE = os.path.dirname(os.path.abspath(__file__))
BALL_TABLE = os.path.join(HERE, "ball_expected.json")

WORKLOADS = ("certify", "classify", "oracle", "ball")


@dataclass
class Op:
    """One closed-loop operation and the answer it must give."""

    kind: str
    run: Callable[[], object]
    expect: object
    n: int = 0              # growth key: strand bound or word length
    model: str = ""

    def check(self, answer) -> bool:
        return answer == self.expect


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Shared helpers

# Fraction arithmetic takes a shortcut when two denominators are coprime,
# so the seed picks numerators only: each value keeps the denominator its
# caller fixes, and every seed gets the same mix of denominators.

def _frac(rng: random.Random, den: int) -> Fraction:
    """A nonzero value in [-4, 4] with denominator exactly ``den``."""
    return Fraction(rng.choice([k for k in range(-4 * den, 4 * den + 1) if k and math.gcd(k, den) == 1]), den)


def _pos_frac(rng: random.Random, den: int = 2) -> Fraction:
    """A value in (0, 5] with denominator exactly ``den``."""
    return Fraction(rng.choice([k for k in range(1, 5 * den + 1) if math.gcd(k, den) == 1]), den)


def _nonzero(rng: random.Random, bound: int = 5) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _json_num(v: Fraction) -> int | str:
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _char_json(chi: characters.Character) -> str:
    group = chi.spec.group
    if isinstance(group, ModelId):
        doc = {"model": group.value,
               "coords": {label: _json_num(v) for label, v in zip(chi.spec.free_labels, chi.coords)}}
        return json.dumps(doc)
    doc: dict = {"group": group.family, "surface": group.surface, "n": group.n}
    values = dict(zip(chi.spec.free_labels, chi.coords))
    if group.family == "P" and group.surface in ("T", "K"):
        if group.surface == "T":
            doc["a"] = [_json_num(values[f"a{i}"]) for i in range(1, group.n + 1)]
        doc["b"] = [_json_num(values[f"b{i}"]) for i in range(1, group.n + 1)]
    elif group.family == "P" and group.surface == "S2":
        doc["A"] = {label[2:-1]: _json_num(v) for label, v in values.items() if v}
    else:
        doc.update({label: _json_num(v) for label, v in values.items()})
    return json.dumps(doc)


def _run_cli(argv: list[str]) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    text = out.getvalue()
    return rc, (json.loads(text) if text else None)


# ---------------------------------------------------------------------------
# certify: path certificates, hot spot characters.evaluate / nu

_ORACLE_COVERED = {("T", 2), ("T", 3), ("T", 4), ("K", 2)}


def _braid_character(rng: random.Random, surface: str, n: int, end: str) -> characters.Character:
    """A character whose b-weight at strand n (end "top") or strand 1
    (end "low", negative) strictly exceeds every other |b_i|."""
    b = [_frac(rng, 1 + i % 3) for i in range(n)]
    if end == "top":
        b[-1] = max(abs(v) for v in b[:-1]) + _pos_frac(rng)
    else:
        b[0] = -(max(abs(v) for v in b[1:]) + _pos_frac(rng))
    if surface == "T":
        return characters.torus_character(n, [_frac(rng, 1 + (i + 1) % 3) for i in range(n)], b)
    return characters.klein_character(n, b)


def _break_dominance(chi: characters.Character, end: str) -> characters.Character:
    """Make the opposite end outweigh the base letter.  For t = b_n the
    path for C[1,n] passes through value chi(b_n) + chi(b_1) < 0; for
    t = b_1^-1 the path for C[1,n] passes through -chi(b_1) - chi(b_n) < 0,
    while the one-letter paths have minimum 0, so a margin is negative."""
    group = chi.spec.group
    values = dict(zip(chi.spec.free_labels, chi.coords))
    n = group.n
    if end == "top":
        values["b1"] = -values[f"b{n}"] - 1
    else:
        values[f"b{n}"] = -values["b1"] + 1
    return characters.character(group, values)


def _corrupt(cert: PathCertificate, index: int, letter) -> PathCertificate:
    """Append a letter with a nonzero abelian image to one path word: the
    endpoint t W g = z t then fails, since t W = z t and g != 1."""
    entries = list(cert.entries)
    e = entries[index]
    entries[index] = CertificateEntry(e.z, e.path_word * Word((letter,)), e.cite)
    return PathCertificate(cert.context, cert.t, tuple(entries))


def _late_index(rng: random.Random, cert: PathCertificate) -> int:
    """An entry in the last quarter: verification stops at the corrupted
    entry, so this keeps the cost of the control close to a full check."""
    count = len(cert.entries)
    return rng.randrange(count - max(1, count // 4), count)


def _cert_json(cert: PathCertificate) -> str:
    if isinstance(cert.context, ModelId):
        ctx: object = cert.context.value
    else:
        ctx = {"group": cert.context.family, "surface": cert.context.surface, "n": cert.context.n}
    return json.dumps({"context": ctx, "t": str(cert.t),
                       "entries": [{"z": str(e.z), "word": str(e.path_word), "cite": e.cite}
                                   for e in cert.entries]})


def _op_braid(group: GroupContext, chi):
    cert = criterion.generate_braid_certificate(group, chi)
    report = criterion.verify_certificate(cert, chi)
    return str(cert.t), report.passed


def _op_verify(cert, chi):
    return criterion.verify_certificate(cert, chi).passed


def _op_verify_expect_error(cert, chi):
    try:
        criterion.verify_certificate(cert, chi)
    except CertificateError:
        return "CertificateError"
    return "accepted"


def _op_lemma(case: CertificateCase, p, q):
    cert = criterion.generate_lemma_certificates(case, p, q)
    chi_model, _ = criterion.case_character(case, p, q)
    report = criterion.verify_certificate(cert, chi_model)
    return report.passed, report.endpoints_checked


def _op_cli_verify_cert(cert_text: str, char_text: str):
    rc, doc = _run_cli(["verify-cert", "--cert", cert_text, "--char", char_text])
    return rc, doc["passed"] if doc else None


def _certify(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for surface in ("T", "K"):
        for n in range(2, 13):
            group = GroupContext("P", surface, n)
            tag = f"P_{n}({surface})"
            for end in ("top", "low"):
                chi = _braid_character(rng, surface, n, end)
                t = f"b{n}" if end == "top" else "b1^-1"
                ops.append(Op(f"braid-{end}", lambda g=group, c=chi: _op_braid(g, c),
                              (t, True), n=n, model=tag))
            # the two ends build differently shaped certificates; alternate
            # them by n so every seed has the same mix
            end = "top" if (n + (surface == "K")) % 2 else "low"
            chi = _braid_character(rng, surface, n, end)
            cert = criterion.generate_braid_certificate(group, chi)
            bad = _break_dominance(chi, end)
            ops.append(Op("margin-control", lambda c=cert, x=bad: _op_verify(c, x),
                          False, n=n, model=tag))
            if (surface, n) in _ORACLE_COVERED:
                broken = _corrupt(cert, _late_index(rng, cert), sym_b(1))
                ops.append(Op("corrupt-control",
                              lambda c=broken, x=chi: _op_verify_expect_error(c, x),
                              "CertificateError", n=n, model=tag))
            if n <= 8:
                ops.append(Op("cli-verify-cert",
                              lambda a=_cert_json(cert), b=_char_json(chi): _op_cli_verify_cert(a, b),
                              (0, True), n=n, model=tag))
    for case in CertificateCase:
        for _ in range(3):
            p, q = _pos_frac(rng, 2), _pos_frac(rng, 3)
            ops.append(Op("lemma", lambda c=case, p=p, q=q: _op_lemma(c, p, q),
                          (True, True), model=case.value))
        p, q = _pos_frac(rng, 2), _pos_frac(rng, 3)
        cert = criterion.generate_lemma_certificates(case, p, q)
        chi_model, _ = criterion.case_character(case, p, q)
        broken = _corrupt(cert, _late_index(rng, cert), model_sym("a"))
        ops.append(Op("corrupt-control", lambda c=broken, x=chi_model: _op_verify_expect_error(c, x),
                      "CertificateError", model=case.value))
        ops.append(Op("cli-verify-cert",
                      lambda a=_cert_json(cert), b=_char_json(chi_model): _op_cli_verify_cert(a, b),
                      (0, True), model=case.value))
    return ops


# ---------------------------------------------------------------------------
# classify: exact membership decisions, hot spot sigma._decide_sphere_case

def _summary(verdict) -> tuple:
    """Membership plus, for complement verdicts, the descriptor."""
    if verdict.membership != sigma.IN_COMPLEMENT:
        return (verdict.membership, None)
    w = verdict.witness
    return (verdict.membership, w.key() if hasattr(w, "key") else tuple(w))


def _op_decide(group: GroupContext, chi):
    pt = characters.sphere_point(chi) if chi is not None else None
    return _summary(sigma.decide_sigma(group, pt))


def _op_cli_classify(group: GroupContext, char_text: str | None):
    argv = ["classify", "--group", group.family, "--surface", group.surface, "--n", str(group.n)]
    if char_text is not None:
        argv += ["--char", char_text]
    rc, doc = _run_cli(argv)
    if doc is None:
        return rc, None, None
    witness = doc["witness"] if doc["membership"] == sigma.IN_COMPLEMENT else None
    return rc, doc["membership"], witness


def _cli_witness(key: tuple | None):
    if key is None:
        return None
    if key == ("WholeSphere",):
        return "whole-sphere"
    return list(key)


def _evenly(lo: int, hi: int, count: int) -> list[int]:
    """``count`` values spread evenly over lo..hi."""
    width = (hi - lo + 1) / count
    return [lo + int((k + 0.5) * width) for k in range(count)]


def _sphere_circle(rng: random.Random, n: int, size: int, lowest: int):
    """A point on a P3 (size 3) or P4 (size 4) circle with strands
    ``lowest``, ``lowest + 1`` and the rest spread evenly above them; the
    seed picks the weights.  Returns the character and the descriptor key."""
    idx = (lowest, lowest + 1, *_evenly(lowest + 2, n, size - 2))
    p, q = _nonzero(rng), _nonzero(rng)
    vals: dict[tuple[int, int], int] = {}
    if size == 3:
        i, j, k = idx
        vals[(i, k)], vals[(j, k)] = p, q
        if (i, j) != (1, 2):
            vals[(i, j)] = -(p + q)
        key = ("P3Circle", i, j, k)
    else:
        i, j, k, l = idx
        vals[(i, k)], vals[(i, l)], vals[(j, l)], vals[(j, k)] = p, q, p, q
        vals[(k, l)] = -(p + q)
        if (i, j) != (1, 2):
            vals[(i, j)] = -(p + q)
        key = ("P4Circle", i, j, k, l)
    scale = _pos_frac(rng)
    vals = {ij: v * scale for ij, v in vals.items() if v}
    return characters.sphere_character(n, vals), key


def _sphere_dense(rng: random.Random, n: int):
    vals = {(i, j): _nonzero(rng) for i, j in combinations(range(1, n + 1), 2) if (i, j) != (1, 2)}
    return characters.sphere_character(n, vals)


def _classify(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    cli_every = 8

    def add(kind, group, chi, expect, n=0):
        ops.append(Op(kind, lambda g=group, c=chi: _op_decide(g, c), expect, n=n, model=str(group)))
        if len(ops) % cli_every == 0:
            text = _char_json(chi) if chi is not None else None
            ops.append(Op("cli-classify", lambda g=group, t=text: _op_cli_classify(g, t),
                          (0, expect[0], _cli_witness(expect[1])), n=n, model=str(group)))

    # sphere pure groups: half the points on circles, half dense points.
    # The decision's cost rises steeply with a circle's strands, and strands
    # placed by the seed spread the 90th percentile by 14% between seeds,
    # so the strands are spread evenly and the seed picks the weights.
    for n in range(5, 15):
        group = GroupContext("P", "S2", n)
        for size in (3, 4):
            for lowest in _evenly(1, n - size + 1, 5):
                chi, key = _sphere_circle(rng, n, size, lowest)
                add("S2-circle", group, chi, (sigma.IN_COMPLEMENT, key), n)
        for _ in range(10):
            add("S2-dense", group, _sphere_dense(rng, n), (sigma.IN_SIGMA1, None), n)
    add("S2-whole", GroupContext("P", "S2", 3), _sphere_dense(rng, 3),
        (sigma.IN_COMPLEMENT, ("WholeSphere",)), 3)

    for n in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
        torus, klein = GroupContext("P", "T", n), GroupContext("P", "K", n)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        p, q = _nonzero(rng), _nonzero(rng)
        scale = _pos_frac(rng)
        a, b = [0] * n, [0] * n
        a[i - 1], a[j - 1], b[i - 1], b[j - 1] = p, -p, q, -q
        g = math.gcd(p, q)
        chi = characters.torus_character(n, [v * scale for v in a], [v * scale for v in b])
        add("T-circle", torus, chi, (sigma.IN_COMPLEMENT, (i, j, p // g, q // g)), n)
        if n >= 3:
            chi = characters.torus_character(n, [_nonzero(rng) for _ in range(n)],
                                             [_nonzero(rng) for _ in range(n)])
            add("T-dense", torus, chi, (sigma.IN_SIGMA1, None), n)
        i, j = rng.sample(range(1, n + 1), 2)
        b = [0] * n
        b[i - 1], b[j - 1] = scale, -scale
        add("K-pair", klein, characters.klein_character(n, b), (sigma.IN_COMPLEMENT, (i, j)), n)
        if n >= 3:
            chi = characters.klein_character(n, [_nonzero(rng) for _ in range(n)])
            add("K-dense", klein, chi, (sigma.IN_SIGMA1, None), n)

    for n in (2, 3, 5, 8):
        add("B-group", GroupContext("B", "T", n),
            characters.character(GroupContext("B", "T", n), [_nonzero(rng), _frac(rng, 3)]),
            (sigma.IN_SIGMA1, None), n)
        add("B-group", GroupContext("B", "K", n),
            characters.character(GroupContext("B", "K", n), [_nonzero(rng)]),
            (sigma.IN_SIGMA1, None), n)
        add("B-group", GroupContext("B", "D", n),
            characters.character(GroupContext("B", "D", n), [_nonzero(rng)]),
            (sigma.IN_SIGMA1, None), n)
        for family, surface in (("P", "RP2"), ("B", "S2"), ("B", "RP2")):
            add("empty-sphere", GroupContext(family, surface, n), None, (sigma.EMPTY_SPHERE, None), n)
    return ops


# ---------------------------------------------------------------------------
# oracle: word problem in the four models, free-group fiber arithmetic

_FREE_LETTERS = {
    ModelId.G2T: ("x", "y", "a", "b"),
    ModelId.G2K: ("y", "b"),
    ModelId.G3T: ("x", "y", "a", "b", "u", "v"),
    ModelId.G4T: ("x", "y", "a", "b", "u", "v", "ub", "vb"),
}

# (word lengths, words per length).  G3T and G4T fibers grow exponentially
# with word length and their cost has a heavy tail: at 30 letters one G4T
# word in two hundred took 50 s, so the caps sit where the slowest of two
# hundred words stays near 10 ms (G3T 32 letters, G4T 16).
_WORDS = {
    ModelId.G2T: (range(40, 401, 40), 12),
    ModelId.G2K: (range(40, 401, 40), 12),
    ModelId.G3T: (range(4, 33, 4), 24),
    ModelId.G4T: (range(2, 17, 2), 32),
}


def _random_word(rng: random.Random, model: ModelId, length: int) -> Word:
    """A freely reduced word of exactly ``length`` letters."""
    letters: list = []
    names = model.letter_names
    while len(letters) < length:
        s = model_sym(rng.choice(names), rng.choice((1, -1)))
        if letters and letters[-1] == s.inverse():
            continue
        letters.append(s)
    return Word(tuple(letters))


def _relator(rng: random.Random, model: ModelId) -> Word:
    eq = rng.choice(models.equation_bank(model))
    return models.parse_model_word(eq["lhs"], model) * models.parse_model_word(eq["rhs"], model).inverse()


def _op_words(model: ModelId, w: Word, same: Word, other: Word):
    return models.words_equal(model, w, same), models.words_equal(model, w, other)


def _op_relations(surface: str, n: int, family: str | None):
    dic = models.dictionary_for(surface, n)
    if family is None:
        table = presentations.instantiate_presentation("P", surface, n)
    else:
        table = presentations.instantiate_family(family, surface, n)
    return all(models.words_equal(dic.model, models.translate(dic, r.lhs, "to_model"),
                                  models.translate(dic, r.rhs, "to_model"))
               for r in table.relations)


def _op_verify_relations():
    rc, doc = _run_cli(["verify-relations", "--max-n", "6"])
    return rc, doc["healthy"] if doc else None


def _translatable_tables() -> list[tuple[str, int, str | None]]:
    out = []
    for surface, n in sorted(_ORACLE_COVERED):
        out.append((surface, n, None))
        for family in presentations.all_family_names():
            try:
                table = presentations.instantiate_family(family, surface, n)
            except DomainError:
                continue
            if table.group.family == "P":
                out.append((surface, n, family))
    return out


def _oracle(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for model, (lengths, per_length) in _WORDS.items():
        for length in lengths:
            for _ in range(per_length):
                w = _random_word(rng, model, length)
                pos = rng.randint(0, length)
                same = words.reduce(w.letters[:pos] + _relator(rng, model).letters + w.letters[pos:])
                g = model_sym(rng.choice(_FREE_LETTERS[model]), rng.choice((1, -1)))
                other = w * Word((g,))
                ops.append(Op("words", lambda m=model, a=w, b=same, c=other: _op_words(m, a, b, c),
                              (True, False), n=length, model=model.value))
    for surface, n, family in _translatable_tables():
        ops.append(Op("relations", lambda s=surface, k=n, f=family: _op_relations(s, k, f),
                      True, n=n, model=f"P_{n}({surface})"))
    ops.append(Op("cli-verify-relations", _op_verify_relations, (0, True)))
    return ops


# ---------------------------------------------------------------------------
# ball: bounded Cayley-ball sweeps, one-letter models.step calls

BALL_BUDGET = 10 ** 6

# (model, radius, sweeps per input set), cheapest first.  The counts put
# the median op in the middle of the G2T radius-4 sweeps and the 90th
# percentile inside the G2T radius-5 sweeps: strata whose cost barely
# depends on the character, so neither quantile sits at the edge between
# strata of unequal cost.
BALL_STRATA = (
    ("G2T", 3, 14), ("G2K", 3, 12), ("G3T", 2, 12),
    ("G2T", 4, 20),
    ("G4T", 2, 12), ("G2K", 4, 12),
    ("G2T", 5, 8),
    ("G3T", 3, 2), ("G2K", 5, 4), ("G4T", 3, 1),
)


def _load_ball_table() -> dict:
    with open(BALL_TABLE) as fh:
        return json.load(fh)


def _op_ball(model: ModelId, chi, radius: int):
    r = criterion.explore_ball(model, chi, radius=radius, budget=BALL_BUDGET)
    return r.vertex_count, r.nonnegative_count, r.reachable_count, r.truncated


def _op_ball_unreached(chi, radius: int, target_text: str):
    target = models.parse_model_word(target_text, ModelId.G2K)
    r = criterion.explore_ball(ModelId.G2K, chi, radius=radius, targets=[target], budget=BALL_BUDGET)
    t = r.targets[0]
    return t.in_ball, t.nonnegative, t.reachable


def _op_ball_connected(model: ModelId, chi, radius: int):
    r = criterion.explore_ball(model, chi, radius=radius, budget=BALL_BUDGET)
    return r.reachable_count == r.nonnegative_count


def _op_ball_budget(chi, budget: int):
    r = criterion.explore_ball(ModelId.G2T, chi, radius=5, budget=budget)
    return r.vertex_count, r.truncated


def _ball(rng: random.Random) -> list[Op]:
    table = _load_ball_table()
    ops: list[Op] = []
    for model_name, radius, count in BALL_STRATA:
        model = ModelId(model_name)
        rows = [row for row in table["sweeps"] if row["model"] == model_name and row["radius"] == radius]
        for row in rng.sample(rows, count):
            # positive scaling keeps every sign, hence every count
            scale = _pos_frac(rng)
            chi = characters.character(model, {k: Fraction(v) * scale for k, v in row["coords"].items()})
            expect = (row["vertices"], row["nonnegative"], row["reachable"], False)
            ops.append(Op("sweep", lambda m=model, c=chi, r=radius: _op_ball(m, c, r),
                          expect, n=radius, model=model_name))
    for radius in (3, 4):
        # chi(y) < 0: y x y^-1 has value 0 but its only short paths from
        # the base y^-1 dip below zero
        chi = characters.character(ModelId.G2K, {"y": -_pos_frac(rng)})
        ops.append(Op("unreached-control", lambda c=chi, r=radius: _op_ball_unreached(c, r, "y x y^-1"),
                      (True, True, False), n=radius, model="G2K"))
    for model_name, radius in (("G2T", 4), ("G2K", 4)):
        chi = characters.character(ModelId(model_name), {"b": _pos_frac(rng)})
        ops.append(Op("connected-control",
                      lambda m=ModelId(model_name), c=chi, r=radius: _op_ball_connected(m, c, r),
                      True, n=radius, model=model_name))
    budget = rng.randint(200, 800)
    chi = characters.character(ModelId.G2T, {"a": _pos_frac(rng), "x": -_pos_frac(rng)})
    ops.append(Op("budget-control", lambda c=chi, b=budget: _op_ball_budget(c, b),
                  (budget, True), n=5, model="G2T"))
    return ops


_BUILDERS = {"certify": _certify, "classify": _classify, "oracle": _oracle, "ball": _ball}
