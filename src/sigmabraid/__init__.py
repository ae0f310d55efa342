"""
sigmabraid: exact computations with the first BNS invariant (Sigma^1) of
braid and pure braid groups of the disc, sphere, projective plane, torus
and Klein bottle.

The package is organised around a small tower:

- :mod:`sigmabraid.words` - typed generator alphabets and freely reduced
  words, the currency of every other module;
- :mod:`sigmabraid.presentations` - explicit relation tables;
- :mod:`sigmabraid.models` - word-problem oracles for the semidirect
  models of the small pure braid groups, plus translation dictionaries;
- :mod:`sigmabraid.characters` - abelianizations, rational characters,
  path minima and sphere points;
- :mod:`sigmabraid.sigma` - exact membership decisions, complement
  enumeration, the strand-permutation action and the twisted-conjugacy
  application layer;
- :mod:`sigmabraid.criterion` - path certificates and bounded Cayley-ball
  exploration;
- :mod:`sigmabraid.checks` - the relation suites, one record per check;
- :mod:`sigmabraid.cli` - the ``sigmabraid`` command.

All arithmetic is exact (integers and fractions); no floating point
enters any decision.

Importing the package loads none of its modules.  Each exported name
(``from sigmabraid import decide_sigma``, ``sigmabraid.normalize``) loads
the module that defines it on first use, and that module loads what it
imports in turn:

- ``words`` loads nothing else;
- ``models`` and ``presentations`` load ``words``;
- ``characters`` loads ``models``;
- ``sigma`` loads ``characters``;
- ``criterion`` and ``checks`` load ``characters`` and ``presentations``;
- ``cli`` loads ``characters``; each command loads ``sigma``,
  ``criterion`` or ``checks`` when it runs.

So ``import sigmabraid.models`` loads ``words`` and ``models`` only.  A
name is looked up in its module on every access, not copied here, so a
rebinding of the module's attribute is seen through the package too.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Character", "SpherePoint", "abelianization", "abelianize", "character",
        "character_from_json", "character_to_json", "evaluate", "klein_character",
        "model_character", "nu", "sphere_character", "sphere_point", "strand_pullback",
        "strand_pushforward", "torus_character"), "characters"),
    **dict.fromkeys((
        "BallReport", "PathCertificate", "case_character", "explore_ball",
        "generate_braid_certificate", "generate_lemma_certificates",
        "verify_certificate"), "criterion"),
    **dict.fromkeys((
        "CertificateCase", "IsoDictionary", "ModelId", "NormalForm", "dictionary",
        "normalize", "parse_model_word", "translate", "words_equal"), "models"),
    "verify_equation_bank": "checks",
    **dict.fromkeys((
        "RelationTable", "instantiate_family", "instantiate_presentation"), "presentations"),
    **dict.fromkeys((
        "ComplementEnumeration", "SigmaVerdict", "act_permutation", "commutator_fg_flag",
        "decide_sigma", "enumerate_complement", "r_infinity_certificate"), "sigma"),
    **dict.fromkeys((
        "GeneratorSymbol", "GroupContext", "Word", "parse_word", "reduce",
        "serialize_word"), "words"),
}
_MODULES = frozenset(("characters", "checks", "cli", "criterion", "models", "presentations",
                      "sigma", "words"))

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULES | set(_EXPORTS))
