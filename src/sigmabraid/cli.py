"""
Command-line front end.

One JSON document per invocation on stdout (or an aligned table with
--format table); diagnostics on stderr.  Exit codes: 0 success, 1 domain
error, 2 usage error.  All numbers are integers or exact "p/q" strings;
output ordering is deterministic.

Inline JSON arguments also accept @path to read the value from a file.

Each JSON document is written by one pass of :func:`_json_text`, a small
recursive writer whose text is ``json.dumps(doc, indent=2)``'s, byte for
byte, strings escaped by ``json``'s own ASCII encoder.  ``json.dumps``
itself is not used: CPython takes its C encoder only when ``indent`` is
None, so the indented layout would be written by the pure-Python encoder
at about twice the cost.

Importing this module loads ``characters``, ``models`` and ``words``, which
every command needs to read its arguments.  A command loads the rest of
what it uses when it runs: ``classify``, ``enumerate``, ``act`` and
``r-infinity`` load ``sigma``; ``verify-cert``, ``gen-cert`` and ``ball``
load ``criterion``; ``verify-relations`` loads ``checks``.  Handlers call
through module attributes (``sigma.decide_sigma``), so a wrapper bound
over a library function later is seen on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import characters, models
from .characters import (
    _INTEGER,
    _num_from_json,
    character_from_json,
    character_to_json,
    json_field,
    json_int_field,
    rational_to_json,
    sphere_point,
)
from .models import CertificateCase, ModelId
from .words import _GROUPS, _SURFACES, DomainError, GroupContext, parse_word, serialize_word

if TYPE_CHECKING:
    from .criterion import PathCertificate


def _read_json_arg(value: str, option: str):
    try:
        if value.startswith("@"):
            with open(value[1:], "r") as fh:
                return json.load(fh)
        return json.loads(value)
    except RecursionError:
        raise DomainError(f"{option}: JSON nested too deeply to read") from None


# the text of each JSON scalar, by exact type, as json.dumps writes it
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: ("false", "true").__getitem__, type(None): {None: "null"}.__getitem__}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, each line after the
    first starting with ``indent`` (a newline and spaces).  Scalars and
    nonempty lists, tuples and str-keyed dicts are written here; anything
    else (an empty container, a float, a dict with a key that is not a
    str) is written by ``json.dumps`` itself and re-indented."""
    scalar = _SCALARS.get(value.__class__)
    if scalar is not None:
        return scalar(value)
    kind, inner, text = value.__class__, indent + "  ", _SCALARS.get
    if (kind is list or kind is tuple) and value:
        items = [s(v) if (s := text(v.__class__)) else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict and value:
        try:  # encode_basestring_ascii refuses a key that is not a str
            items = [encode_basestring_ascii(k) + ": "
                     + (s(v) if (s := text(v.__class__)) else _json_text(v, inner))
                     for k, v in value.items()]
        except TypeError:
            pass
        else:
            return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value, indent=2).replace("\n", indent)


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(doc) + "\n")
    else:
        _emit_table(doc)


def _emit_table(doc, prefix: str = "") -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                sys.stdout.write(f"{prefix}{key}:\n")
                _emit_table(value, prefix + "  ")
            else:
                sys.stdout.write(f"{prefix}{key}: {value}\n")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                _emit_table(value, prefix + "  ")
                sys.stdout.write("\n" if prefix == "" else "")
            else:
                sys.stdout.write(f"{prefix}- {value}\n")


def _integer(text: str) -> int:
    """The ``type`` of every integer option: read as written, ASCII
    -?[0-9]+ as the JSON fields are, so no non-ASCII digit, '_', blank or
    '+' passes; a bad value is a usage error (exit 2).  Range checks stay
    with each command."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the int -> str digit limit
            pass
    raise argparse.ArgumentTypeError(f"must be an integer in ASCII digits, got {text!r}")


def _group(args, parser) -> GroupContext:
    if args.n < 1:
        parser.error("--n must be >= 1")
    return GroupContext(args.group, args.surface, args.n)  # the choices leave it nothing to refuse


def _witness_json(witness):
    if witness is None:
        return None
    key = witness if isinstance(witness, tuple) else witness.key()  # sphere-point ints or a piece
    return "whole-sphere" if key == ("WholeSphere",) else list(key)


def _add_group_args(sub):
    sub.add_argument("--group", required=True, choices=_GROUPS)
    sub.add_argument("--surface", required=True, choices=_SURFACES)
    sub.add_argument("--n", required=True, type=_integer)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_classify(args, parser) -> dict:
    group = _group(args, parser)
    pt = None
    if args.char is not None:
        chi = character_from_json(_read_json_arg(args.char, "--char"))
        if chi.spec.group != group:
            raise DomainError(f"character lives on {chi.spec.group}, not {group}")
        pt = sphere_point(chi)
    from . import sigma
    verdict = sigma.decide_sigma(group, pt)
    return {"membership": verdict.membership,
            "witness": _witness_json(verdict.witness),
            "cite": verdict.justification}


def _cmd_enumerate(args, parser) -> dict:
    group = _group(args, parser)
    from . import sigma
    enum = sigma.enumerate_complement(group)
    return {"group": group.family, "surface": group.surface, "n": group.n,
            "count": enum.count, "whole_sphere": enum.whole_sphere,
            "descriptors": [list(d.key()) for d in enum.descriptors]}  # already sorted by key


def _cmd_act(args, parser) -> dict:
    group = _group(args, parser)
    try:  # TypeError: a token that does not read -?[0-9]+, None[0]; ValueError: the digit limit
        tau = tuple(int(_INTEGER.fullmatch(t)[0]) for t in args.tau.split())
    except (TypeError, ValueError):
        parser.error(f"--tau must list integers, got {args.tau!r}")
    chi = character_from_json(_read_json_arg(args.char, "--char"))
    from . import sigma
    pt = sigma.act_permutation(group, tau, sphere_point(chi))
    return character_to_json(pt.character())


def _certificate_to_json(cert: PathCertificate) -> dict:
    ctx = cert.context.value if isinstance(cert.context, ModelId) else {
        "group": cert.context.family, "surface": cert.context.surface, "n": cert.context.n}
    return {"context": ctx, "t": str(cert.t),
            "entries": [{"z": str(e.z), "word": serialize_word(e.path_word),
                         "cite": e.cite} for e in cert.entries]}


def _certificate_from_json(doc) -> PathCertificate:
    from .criterion import CertificateEntry, PathCertificate
    what = "certificate JSON"
    ctx = json_field(doc, "context", (str, dict), what)
    if isinstance(ctx, str):
        if ctx not in ModelId.__members__:
            raise DomainError(f"certificate context {ctx!r} is not a model")
        context = ModelId(ctx)
        parse = lambda text: models.parse_model_word(text, context)
    else:
        context = GroupContext(json_field(ctx, "group", (str,), "certificate context"),
                               json_field(ctx, "surface", (str,), "certificate context"),
                               json_int_field(ctx, "n", "certificate context"))
        parse = lambda text: parse_word(text, context)
    parse = functools.cache(parse)  # each distinct word text is parsed once

    def letter(obj, key: str, owner: str):
        text = json_field(obj, key, (str,), owner)
        letters = parse(text)
        if len(letters) != 1:
            raise DomainError(f"{owner} field {key!r} must be one letter, got {text!r}")
        return letters.letters[0]

    t = letter(doc, "t", what)
    raw = json_field(doc, "entries", (list,), what)
    entries = []
    for e in raw:
        if e.__class__ is dict:  # the quick read of a well-formed entry
            z, word, cite = e.get("z"), e.get("word"), e.get("cite", "")
            if z.__class__ is word.__class__ is cite.__class__ is str:
                letters = parse(z).letters
                if len(letters) == 1:
                    entries.append(CertificateEntry(letters[0], parse(word), cite))
                    continue
        # an entry the quick read refuses: the checks that name what is wrong
        z = letter(e, "z", "certificate entry")
        path = parse(json_field(e, "word", (str,), "certificate entry"))
        cite = json_field(e, "cite", (str,), "certificate entry") if "cite" in e else ""
        entries.append(CertificateEntry(z, path, cite))
    return PathCertificate(context, t, tuple(entries))


def _report_to_json(report) -> dict:
    return {"context": report.context, "t": report.t, "passed": report.passed,
            "endpoints_checked": report.endpoints_checked,
            "margins": [{"z": line.z, "margin": rational_to_json(line.margin),
                         "endpoint_checked": line.endpoint_checked,
                         "positive": line.positive} for line in report.lines]}


def _cmd_verify_cert(args, parser) -> dict:
    cert = _certificate_from_json(_read_json_arg(args.cert, "--cert"))
    chi = character_from_json(_read_json_arg(args.char, "--char"))
    from . import criterion
    report = criterion.verify_certificate(cert, chi)
    return _report_to_json(report)


def _cmd_gen_cert(args, parser) -> dict:
    case = CertificateCase(args.case)
    p, q = _num_from_json(args.p), _num_from_json(args.q)
    from . import criterion
    cert = criterion.generate_lemma_certificates(case, p, q)
    chi_model, chi_braid = criterion.case_character(case, p, q)
    return {"certificate": _certificate_to_json(cert),
            "character": character_to_json(chi_model),
            "braid_character": character_to_json(chi_braid)}


def _cmd_ball(args, parser) -> dict:
    model = ModelId(args.model)
    chi = character_from_json(_read_json_arg(args.char, "--char"))
    targets = [models.parse_model_word(t, model) for t in args.target or []]
    from . import criterion
    report = criterion.explore_ball(model, chi, radius=args.radius,
                                    targets=targets, budget=args.budget)
    return report.to_json()


def _perm_from_json(doc) -> dict:
    """``--perm``: a JSON array of [[i,j],[i',j']] complement point pairs."""
    if not isinstance(doc, list):
        raise DomainError(f"--perm must be an array, got {type(doc).__name__}")

    def point(pair, k: int) -> tuple[int, int]:
        p = json_field(pair, k, (list,), "--perm pair")
        if len(p) != 2:
            raise DomainError(f"--perm point must read [i, j], got {p!r}")
        return json_int_field(p, 0, "--perm point"), json_int_field(p, 1, "--perm point")

    return {point(pair, 0): point(pair, 1) for pair in doc}


def _cmd_r_infinity(args, parser) -> dict:
    if args.n < 2:
        parser.error("--n must be >= 2")
    if (args.matrix is None) == (args.perm is None):
        parser.error("pass exactly one of --matrix / --perm")
    from . import sigma
    if args.matrix is not None:
        cert = sigma.r_infinity_certificate(args.n, matrix=_read_json_arg(args.matrix, "--matrix"))
    else:
        mapping = _perm_from_json(_read_json_arg(args.perm, "--perm"))
        cert = sigma.r_infinity_certificate(args.n, point_permutation=mapping)
    return {"n": cert.n, "certified": cert.certified, "index_bound": cert.index_bound,
            "moved_points": [[list(s), list(d)] for s, d in cert.moved_points()]}


def _cmd_abelianize(args, parser) -> dict:
    group = _group(args, parser)
    w = parse_word(args.word, group)
    image = characters.abelianize(group, w)
    spec = image.spec
    return {"group": group.family, "surface": group.surface, "n": group.n,
            "word": serialize_word(w),
            "free": {label: v for label, v in zip(spec.free_labels, image.free)},
            "torsion": {label: v for (label, _), v in zip(spec.torsion, image.torsion)}}


def _cmd_verify_relations(args, parser) -> dict:
    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    if args.random_words < 0:
        parser.error("--random-words must be >= 0")
    from . import checks
    results = checks.relation_checks(args.max_n, args.random_words)
    failures = [{"check": c.kind, "group": c.group, "family": c.family or None,
                 "relation": c.relation} for c in results if not c.passed]
    return {"checks": len(results), "failures": failures, "healthy": not failures}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmabraid",
        description="Exact BNS (Sigma^1) computations for surface braid groups.")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="decide membership of a character class")
    _add_group_args(p)
    p.add_argument("--char", help="character JSON (or @file); omit for empty-sphere groups")

    p = subs.add_parser("enumerate", help="enumerate the complement pieces")
    _add_group_args(p)

    p = subs.add_parser("act", help="apply a strand permutation to a sphere point")
    _add_group_args(p)
    p.add_argument("--tau", required=True, help="permutation as images of 1..n, e.g. '2 1 3'")
    p.add_argument("--char", required=True)

    p = subs.add_parser("verify-cert", help="verify a path certificate against a character")
    p.add_argument("--cert", required=True)
    p.add_argument("--char", required=True)

    p = subs.add_parser("gen-cert", help="generate a parametrised path certificate")
    p.add_argument("--case", required=True, choices=[c.value for c in CertificateCase])
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = subs.add_parser("ball", help="bounded Cayley-ball connectivity sweep")
    p.add_argument("--model", required=True, choices=[m.value for m in ModelId])
    p.add_argument("--char", required=True)
    p.add_argument("--radius", type=_integer, default=6)
    p.add_argument("--budget", type=_integer, default=None,
                   help="vertex cap (default 10^6)")
    p.add_argument("--target", action="append", help="word to test; may repeat")

    p = subs.add_parser("verify-relations", help="run the relation and equation suites")
    p.add_argument("--max-n", type=_integer, default=6)
    p.add_argument("--random-words", type=_integer, default=2000)

    p = subs.add_parser("r-infinity", help="twisted-conjugacy certificate for P_n(K)")
    p.add_argument("--n", required=True, type=_integer)
    p.add_argument("--matrix", help="integer matrix JSON acting on the b coordinates")
    p.add_argument("--perm", help="JSON list of [[i,j],[i',j']] complement point pairs")

    p = subs.add_parser("abelianize", help="abelianize a word")
    _add_group_args(p)
    p.add_argument("--word", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`: built on its first call, then reused."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # looked up per call, not stored in the reused parser, so a wrapper
    # bound over a handler later (bench/tracing.py) still sees each call
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        doc = handler(args, parser)
    except (OSError, KeyError, ValueError) as exc:  # DomainError and JSONDecodeError among them
        sys.stderr.write(f"error: {exc}\n")
        return 1
    # r-infinity's exact bound passes the int -> str digit limit from n = 40
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        _emit(doc, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if args.command == "verify-relations" and not doc["healthy"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
