"""
The relation suites behind ``sigmabraid verify-relations``, one record per
check: ``abelianization`` (every relation of the torus and Klein-bottle P
and B tables and derived families, n up to a bound, dies in the
abelianization), ``oracle`` (every relation of a pure table that a model
covers holds in the model) and ``bank`` (the banked model equations).
One call builds each table once; the oracle suite reads the tables that the
abelianization suite built.  The abelianization suite reads each letter's
abelian image from one map per group, keyed by signed code, so each
distinct letter of a group is placed once.  The G2K rewrite check
normalises each distinct drawn word once, by both normalisers: the 2,000
words of seed 0 hold 1,434 distinct ones.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, NamedTuple

from . import characters, models, presentations
from .models import ModelId
from .words import DomainError, GroupContext


class RelationCheck(NamedTuple):
    """One check: its kind, the group (a model for ``bank``), the relation or
    equation name, the verdict and the derived family of a family table.  A
    NamedTuple, not a dataclass: a run builds one per relation."""

    kind: str
    group: str
    relation: str
    passed: bool
    family: str = ""


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is a bool, is not an int, or is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


def _table(name: str, surface: str, n: int):
    """The P or B presentation table, or the derived family table ``name``;
    None where the family is not defined."""
    if name in ("P", "B"):
        return presentations.instantiate_presentation(name, surface, n)
    try:
        return presentations.instantiate_family(name, surface, n)
    except DomainError:
        return None


def _abelian(group) -> Callable[[presentations.Relation], bool]:
    """The test, in ``group``, that lhs and rhs have one abelian image: their
    letter slots, summed with opposite signs, vanish (torsion modulo its
    order).  Each letter's (position, signed coefficient) is read from one
    map keyed by signed code; ``slots`` validates and places a letter once,
    when the map first meets it or its inverse."""
    spec = characters.abelianization(group)
    size, free = len(spec.positions), spec.free_rank
    orders = [(free + t, order) for t, (_, order) in enumerate(spec.torsion)]
    placed: dict[int, tuple[int, int]] = {}
    get = placed.get

    def place(s) -> tuple[int, int]:
        # a letter lands in at most one slot; one that lands nowhere adds 0
        # at the spare position ``size``
        [(k, coeff)] = spec.slots(s) or [(size, 0)]
        placed[-s.code] = (k, -s.sign * coeff)
        slot = placed[s.code] = (k, s.sign * coeff)
        return slot

    def holds(r: presentations.Relation) -> bool:
        coords = [0] * (size + 1)
        for s in r.lhs.letters:
            k, e = get(s.code) or place(s)
            coords[k] += e
        for s in r.rhs.letters:
            k, e = get(s.code) or place(s)
            coords[k] -= e
        return not any(coords[:free]) and all(coords[k] % order == 0 for k, order in orders)

    return holds


def relation_checks(max_n: int = 6, random_words: int = 2000) -> list[RelationCheck]:
    """Run the three suites on the tables at n = 1..``max_n`` (an int >= 1);
    ``random_words`` (an int >= 0) feeds the G2K rewrite check.  Both are
    checked before any work."""
    _check_count("max_n", max_n, 1)
    _check_count("random_words", random_words, 0)
    checks: list[RelationCheck] = []
    # only the tables of the groups a model covers are kept for the oracle
    # suite; every other table dies after its run, which bounds peak memory
    covered = {(dic.surface, dic.n) for dic in map(models.dictionary, ModelId)}
    tables: dict[tuple[str, str, int], presentations.RelationTable | None] = {}
    abelian: dict[GroupContext, Callable[[presentations.Relation], bool]] = {}  # one test per group

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
        checks.extend(RelationCheck(kind, group, r.name, holds(r), family)
                      for r in table.relations)

    def run_abelian(table, family: str = "") -> None:
        holds = abelian.get(table.group)
        if holds is None:
            holds = abelian[table.group] = _abelian(table.group)
        run("abelianization", table, holds, family)

    for surface in presentations._TABLE_SURFACES:
        for family in ("P", "B"):
            for n in range(1, max_n + 1):
                run_abelian(table(family, surface, n))
        for name in presentations.all_family_names():
            for n in range(1, max_n + 1):
                family_table = table(name, surface, n)
                if family_table is not None:
                    run_abelian(family_table, name)
    for model in ModelId:
        dic = models.dictionary(model)

        def oracle(r: presentations.Relation) -> bool:
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
    ``random_words`` seeded words of up to 12 letters (never negative), each
    distinct word normalised once by each side."""
    _check_count("random_words", random_words, 0)
    word = partial(models.parse_model_word, model=model)
    checks = [RelationCheck("bank", model.value, eq["name"],
                            models.words_equal(model, word(eq["lhs"]), word(eq["rhs"])))
              for eq in models.equation_bank(model)]
    if model is ModelId.G2K and random_words:
        rng = random.Random(0)
        drawn = dict.fromkeys(models.random_model_word(model, rng, 12)
                              for _ in range(random_words))
        agree = all(models.normalize(model, w).state == models.bruteforce_normalize_g2k(w).state
                    for w in drawn)
        name = f"rewrite-rules-vs-letterwise-action({random_words} words)"
        checks.append(RelationCheck("bank", model.value, name, agree))
    return checks
