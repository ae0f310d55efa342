"""
The relation suites behind ``sigmabraid verify-relations``, one record per
check: ``abelianization`` (every relation of the torus and Klein-bottle P
and B tables and derived families, n up to a bound, dies in the
abelianization), ``oracle`` (every relation of a pure table that a model
covers holds in the model) and ``bank`` (the banked model equations).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __str__(self) -> str:
        table = f"{self.family} {self.group}" if self.family else self.group
        return f"{self.kind}: {table} {self.relation}"


def _family_table(name: str, surface: str, n: int):
    """The derived family table, or None where the family is not defined."""
    try:
        return presentations.instantiate_family(name, surface, n)
    except DomainError:
        return None


def _abelian(group, r) -> bool:
    return characters.abelianize(group, r.lhs * r.rhs.inverse()).is_zero()


def relation_checks(max_n: int = 6, random_words: int = 2000) -> list[RelationCheck]:
    """Run the three suites; ``random_words`` feeds the G2K rewrite check."""
    checks: list[RelationCheck] = []

    def run(kind: str, table, holds, family: str = "") -> None:
        group = str(table.group)
        checks.extend(RelationCheck(kind, group, r.name, holds(table.group, r), family)
                      for r in table.relations)

    for surface in ("T", "K"):
        for family in ("P", "B"):
            for n in range(1, max_n + 1):
                run("abelianization", presentations.instantiate_presentation(family, surface, n),
                    _abelian)
        for name in presentations.all_family_names():
            for n in range(1, max_n + 1):
                table = _family_table(name, surface, n)
                if table is not None:
                    run("abelianization", table, _abelian, name)
    for model in ModelId:
        dic = models.dictionary(model)

        def oracle(group, r) -> bool:
            return models.words_equal(model, models.translate(dic, r.lhs, "to_model"),
                                      models.translate(dic, r.rhs, "to_model"))

        run("oracle", presentations.instantiate_presentation("P", dic.surface, dic.n), oracle)
        for name in presentations.all_family_names():
            table = _family_table(name, dic.surface, dic.n)
            if table is not None and table.group.family == "P":
                run("oracle", table, oracle)
    for model in ModelId:
        for check in models.verify_equation_bank(model, random_words=random_words).checks:
            checks.append(RelationCheck("bank", model.value, check.name, check.passed))
    return checks
