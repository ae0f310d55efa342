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
"""

from .characters import (
    Character,
    SpherePoint,
    abelianization,
    abelianize,
    character,
    character_from_json,
    character_to_json,
    evaluate,
    klein_character,
    model_character,
    nu,
    sphere_character,
    sphere_point,
    strand_pullback,
    strand_pushforward,
    torus_character,
)
from .criterion import (
    BallReport,
    CertificateCase,
    PathCertificate,
    case_character,
    explore_ball,
    generate_braid_certificate,
    generate_lemma_certificates,
    verify_certificate,
)
from .models import (
    IsoDictionary,
    ModelId,
    NormalForm,
    dictionary,
    normalize,
    parse_model_word,
    translate,
    verify_equation_bank,
    words_equal,
)
from .presentations import (
    RelationTable,
    instantiate_family,
    instantiate_presentation,
)
from .sigma import (
    ComplementEnumeration,
    SigmaVerdict,
    act_permutation,
    commutator_fg_flag,
    decide_sigma,
    enumerate_complement,
    r_infinity_certificate,
)
from .words import (
    GeneratorSymbol,
    GroupContext,
    Word,
    parse_word,
    reduce,
    serialize_word,
)

__version__ = "0.1.0"
