"""
Cost laws stated as counts of the unit of work, not as times, so a shared
host makes them no flakier.
"""

import pytest

from sigmabraid import characters, checks, presentations


def _tables(max_n):
    """Every table that relation_checks(max_n) runs the abelianization suite on."""
    for surface in presentations._TABLE_SURFACES:
        for name in ("P", "B", *presentations.all_family_names()):
            for n in range(1, max_n + 1):
                table = checks._table(name, surface, n)
                if table is not None:
                    yield table


# max_n -> (slot computations, distinct letters summed over the groups,
# letter occurrences in the suite's relations)
_ABELIAN_LAW = {2: (26, 26, 289), 4: (128, 128, 4_307), 6: (334, 334, 21_420)}


@pytest.mark.parametrize("max_n", sorted(_ABELIAN_LAW))
def test_the_abelianization_suite_places_each_letter_of_a_group_once(monkeypatch, max_n):
    # AbelianizationSpec.slots, which validates a letter and finds its
    # abelian slot, runs once per distinct letter per group, not once per
    # letter occurrence: 334 against 21,420 calls at max_n = 6
    calls = []
    real = characters.AbelianizationSpec.slots

    def spy(spec, s):
        calls.append((spec.group, abs(s.code)))
        return real(spec, s)

    monkeypatch.setattr(characters.AbelianizationSpec, "slots", spy)
    results = checks.relation_checks(max_n=max_n, random_words=0)
    monkeypatch.undo()
    assert all(c.passed for c in results)
    letters = {(t.group, abs(s.code)) for t in _tables(max_n)
               for r in t.relations for s in (*r.lhs, *r.rhs)}
    occurrences = sum(len(r.lhs) + len(r.rhs) for t in _tables(max_n) for r in t.relations)
    assert len(calls) == len(set(calls))
    assert set(calls) == letters
    assert (len(calls), len(letters), occurrences) == _ABELIAN_LAW[max_n]
