"""
The relation suites behind ``sigmabraid verify-relations``, one record per
check: ``abelianization`` (every relation of the torus and Klein-bottle P
and B tables and derived families, n up to a bound, dies in the
abelianization), ``oracle`` (every relation of a pure table that a model
covers holds in the model) and ``bank`` (the banked model equations).
One call builds each table once; the oracle suite reads the tables that the
abelianization suite built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from . import characters, models, presentations
from .models import ModelId
from .words import DomainError


@dataclass(frozen=True, slots=True)
class RelationCheck:
    """One check: its kind, the group (a model for ``bank``), the relation or
    equation name, the verdict and the derived family of a family table."""

    kind: str
    group: str
    relation: str
    passed: bool
    family: str = ""


def _table(name: str, surface: str, n: int):
    """The P or B presentation table, or the derived family table ``name``;
    None where the family is not defined."""
    if name in ("P", "B"):
        return presentations.instantiate_presentation(name, surface, n)
    try:
        return presentations.instantiate_family(name, surface, n)
    except DomainError:
        return None


def _abelian(group, r) -> bool:
    """lhs and rhs have one abelian image: their letter slots, summed with
    opposite signs, vanish (torsion modulo its order)."""
    spec = characters.abelianization(group)
    coords = [0] * len(spec.positions)
    for w, sign in ((r.lhs, 1), (r.rhs, -1)):
        for s in w:
            e = sign * s.sign
            for k, coeff in spec.slots(s):
                coords[k] += e * coeff
    free = spec.free_rank
    return not any(coords[:free]) and all(
        c % order == 0 for c, (_, order) in zip(coords[free:], spec.torsion))


def relation_checks(max_n: int = 6, random_words: int = 2000) -> list[RelationCheck]:
    """Run the three suites; ``random_words`` feeds the G2K rewrite check."""
    checks: list[RelationCheck] = []
    # only the tables of the groups a model covers are kept for the oracle
    # suite; every other table dies after its run, which bounds peak memory
    covered = {(dic.surface, dic.n) for dic in map(models.dictionary, ModelId)}
    tables: dict[tuple[str, str, int], presentations.RelationTable | None] = {}

    def table(name: str, surface: str, n: int):
        key = (name, surface, n)
        if key in tables:
            return tables[key]
        built = _table(name, surface, n)
        if (surface, n) in covered:
            tables[key] = built
        return built

    def run(kind: str, table, holds, family: str = "") -> None:
        group = str(table.group)
        checks.extend(RelationCheck(kind, group, r.name, holds(table.group, r), family)
                      for r in table.relations)

    for surface in presentations._TABLE_SURFACES:
        for family in ("P", "B"):
            for n in range(1, max_n + 1):
                run("abelianization", table(family, surface, n), _abelian)
        for name in presentations.all_family_names():
            for n in range(1, max_n + 1):
                family_table = table(name, surface, n)
                if family_table is not None:
                    run("abelianization", family_table, _abelian, name)
    for model in ModelId:
        dic = models.dictionary(model)

        def oracle(group, r) -> bool:
            return models.words_equal(model, models.translate(dic, r.lhs, "to_model"),
                                      models.translate(dic, r.rhs, "to_model"))

        run("oracle", table("P", dic.surface, dic.n), oracle)
        for name in presentations.all_family_names():
            family_table = table(name, dic.surface, dic.n)
            if family_table is not None and family_table.group.family == "P":
                run("oracle", family_table, oracle)
    for model in ModelId:
        checks += verify_equation_bank(model, random_words=random_words)
    return checks


def verify_equation_bank(model: ModelId, random_words: int = 2000) -> list[RelationCheck]:
    """Check every banked equation for the model by normal form; for G2K
    also check normal forms against the letterwise conjugation reference on
    ``random_words`` seeded words of up to 12 letters (never negative)."""
    if isinstance(random_words, bool) or not isinstance(random_words, int):
        raise DomainError(f"random_words must be an integer, got {random_words!r}")
    if random_words < 0:
        raise DomainError(f"random_words must be >= 0, got {random_words}")
    word = partial(models.parse_model_word, model=model)
    checks = [RelationCheck("bank", model.value, eq["name"],
                            models.words_equal(model, word(eq["lhs"]), word(eq["rhs"])))
              for eq in models.equation_bank(model)]
    if model is ModelId.G2K and random_words:
        rng = random.Random(0)
        agree = all(models.normalize(model, w).state == models.bruteforce_normalize_g2k(w).state
                    for w in (models.random_model_word(model, rng, 12)
                              for _ in range(random_words)))
        name = f"rewrite-rules-vs-letterwise-action({random_words} words)"
        checks.append(RelationCheck("bank", model.value, name, agree))
    return checks
