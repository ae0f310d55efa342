import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sigmabraid.characters import (
    Character,
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
    strand_blocks,
    strand_pullback,
    strand_pushforward,
    torus_character,
)
from sigmabraid.criterion import explore_ball
from sigmabraid.models import ModelId, dictionary, equation_bank, parse_model_word, random_model_word
from sigmabraid.words import (
    AlphabetError,
    DomainError,
    GeneratorSymbol,
    GroupContext,
    IDENTITY,
    Word,
    model_sym,
    parse_word,
    reduce,
    sym_a,
    sym_b,
    sym_C,
    sym_s,
    validate_symbol,
)


def test_abelianize_examples():
    ctx = GroupContext("P", "T", 2)
    image = abelianize(ctx, parse_word("a1 b1 C[1,2]", ctx))
    assert image.free == (1, 0, 1, 0)  # a = (1,0), b = (1,0); C dies

    ctx = GroupContext("P", "K", 2)
    image = abelianize(ctx, parse_word("a1 a1", ctx))
    assert image.free == (0, 0) and image.torsion == (0, 0)

    ctx = GroupContext("B", "K", 3)
    image = abelianize(ctx, parse_word("s1 s2", ctx))
    assert image.free == (0,) and image.torsion == (0, 0)  # 1 + 1 = 0 mod 2

    with pytest.raises(AlphabetError):
        abelianize(ModelId.G2T, Word((model_sym("u"),)))


def test_abelianization_shapes():
    assert abelianization(GroupContext("P", "T", 3)).free_rank == 6
    spec = abelianization(GroupContext("P", "K", 3))
    assert spec.free_rank == 3 and [o for _, o in spec.torsion] == [2, 2, 2]
    assert abelianization(GroupContext("P", "S2", 4)).free_rank == 5
    assert abelianization(GroupContext("P", "S2", 2)).free_rank == 0
    assert abelianization(GroupContext("B", "T", 5)).free_rank == 2
    assert abelianization(GroupContext("B", "K", 5)).free_rank == 1
    assert abelianization(GroupContext("B", "D", 5)).free_rank == 1
    assert abelianization(GroupContext("B", "S2", 3)).torsion == (("s", 4),)
    assert abelianization(GroupContext("P", "RP2", 2)).free_rank == 0
    assert abelianization(ModelId.G3T).free_labels == ("x", "y", "a", "b", "u", "v")


def test_evaluate_examples():
    chi = klein_character(3, [1, -1, 0])
    ctx = GroupContext("P", "K", 3)
    assert evaluate(chi, parse_word("b1 b2^-1", ctx)) == 2
    assert evaluate(chi, IDENTITY) == 0
    chi_t = torus_character(3, [1, -1, 0], [2, -2, 0])
    assert evaluate(chi_t, Word((sym_C(1, 3),))) == 0


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 10), st.integers(0, 42))
def test_evaluate_is_additive(c1, c2, length, seed):
    chi = character(ModelId.G2T, {"x": c1, "y": c2, "a": 1})
    rng = random.Random(seed)
    w1 = random_model_word(ModelId.G2T, rng, length)
    w2 = random_model_word(ModelId.G2T, rng, length)
    assert evaluate(chi, w1 * w2) == evaluate(chi, w1) + evaluate(chi, w2)


def test_nu_examples():
    chi = character(ModelId.G2T, {"x": 1, "y": -1})
    steps = parse_model_word("x y x", ModelId.G2T)
    assert nu(chi, IDENTITY, steps) == 0
    t = parse_model_word("x", ModelId.G2T)
    assert nu(chi, t, IDENTITY) == 1

    # prefix evaluation of the banked path word for v at the base x
    chi3 = character(ModelId.G3T, {"x": 1, "u": 1, "y": 1})
    eq = {e["name"]: e for e in equation_bank(ModelId.G3T)}["conj-x-v-via-y"]
    steps = parse_model_word(eq["rhs"], ModelId.G3T)
    assert nu(chi3, parse_model_word("x", ModelId.G3T), steps) == 1


def test_nu_lower_bound_property():
    rng = random.Random(23)
    chi = character(ModelId.G2K, {"y": 2, "b": -1})
    for _ in range(50):
        start = random_model_word(ModelId.G2K, rng, 6)
        steps = random_model_word(ModelId.G2K, rng, 10)
        lowest = nu(chi, start, steps)
        assert lowest <= evaluate(chi, start)
        assert lowest <= evaluate(chi, start * steps)


def test_nu_ignores_prepended_nonnegative_loops():
    # a loop with zero total weight and nonnegative partial sums never
    # lowers the path minimum
    chi = character(ModelId.G2T, {"x": 1, "y": -1})
    start = parse_model_word("x", ModelId.G2T)
    steps = parse_model_word("y x y", ModelId.G2T)
    loop = parse_model_word("x y x y^-1 x^-1 x^-1", ModelId.G2T)  # partials 1,0,1,2,1,0
    assert evaluate(chi, loop) == 0
    assert nu(chi, start, loop * steps) == nu(chi, start, steps)


def test_sphere_point_canonicalization():
    chi = klein_character(2, [Fraction(1, 2), Fraction(-1, 3)])
    pt = sphere_point(chi)
    assert pt.coords == (3, -2)
    assert sphere_point(chi.scale(3)) == pt
    assert sphere_point(-chi) != pt
    assert sphere_point(-chi).coords == (-3, 2)
    with pytest.raises(DomainError):
        sphere_point(klein_character(2, [0, 0]))


def test_strand_maps():
    chi = klein_character(2, [1, -1])
    up = strand_pullback(chi, 3, [1, 3])
    assert [up[f"b{i}"] for i in (1, 2, 3)] == [1, 0, -1]

    chi_t = torus_character(3, [1, 0, -1], [0, 0, 0])
    down = strand_pushforward(chi_t, [1, 3])
    assert [down[f"a{i}"] for i in (1, 2)] == [1, -1]

    with pytest.raises(DomainError, match="strand 3"):
        strand_pushforward(klein_character(3, [1, -1, 5]), [1, 2])


def test_strand_blocks():
    chi = torus_character(3, [1, 0, -1], [2, 3, 4])
    assert strand_blocks(chi) == ((1, 0, -1), (2, 3, 4))
    assert strand_blocks(sphere_point(klein_character(2, [2, -4]))) == ((), (1, -2))
    for group in (GroupContext("P", "S2", 4), GroupContext("B", "T", 3), ModelId.G2T):
        with pytest.raises(DomainError, match="strand blocks"):
            strand_blocks(character(group, [1] * abelianization(group).free_rank))


def test_strand_maps_are_mutually_inverse():
    chi = torus_character(2, [2, -2], [1, 3])
    assert strand_pushforward(strand_pullback(chi, 4, [2, 4]), [2, 4]) == chi


def test_character_json_roundtrip():
    chi = klein_character(3, [1, -1, 0])
    doc = character_to_json(chi)
    assert doc == {"group": "P", "surface": "K", "n": 3, "b": [1, -1, 0]}
    assert character_from_json(doc) == chi

    chi_t = torus_character(2, [Fraction(1, 2), 1], [0, -1])
    doc = character_to_json(chi_t)
    assert doc["a"] == ["1/2", 1]
    assert character_from_json(doc) == chi_t

    chi_s = sphere_character(4, {(1, 3): 1, (3, 4): -2})
    doc = character_to_json(chi_s)
    assert doc["A"] == {"1,3": 1, "3,4": -2}
    assert character_from_json(doc) == chi_s

    chi_m = character(ModelId.G2K, {"y": Fraction(-1, 2)})
    assert character_from_json(character_to_json(chi_m)) == chi_m


def test_model_character_through_dictionary():
    chi = torus_character(3, [-2, 0, 2], [-3, 3, 0])
    m = model_character(dictionary(ModelId.G3T), chi)
    assert m["x"] == 2 and m["u"] == 2 and m["y"] == 3
    assert m["v"] == 0 and m["a"] == 0 and m["b"] == 0


def test_model_character_rejects_torsion_weight():
    # a Klein character never weighs the torsion letters x, a
    chi = klein_character(2, [1, 1])
    m = model_character(dictionary(ModelId.G2K), chi)
    assert m["b"] == 2 and m["y"] == 1
    spec = abelianization(ModelId.G2K)
    assert spec.free_labels == ("y", "b")


def test_character_validation():
    with pytest.raises(DomainError):
        character(ModelId.G2T, {"zz": 1})
    with pytest.raises(DomainError):
        torus_character(2, [1], [0, 0])
    with pytest.raises(DomainError):
        character_from_json({"group": "P", "surface": "K", "n": 2, "b": [0.5, 1]})


@pytest.mark.parametrize("build, shown", [
    (lambda: character(ModelId.G2T, {"x": 0.1}), "0.1"),
    (lambda: character(ModelId.G2T, {"x": True}), "True"),
    (lambda: torus_character(2, [0.5, 1], [0, 0]), "0.5"),
    (lambda: torus_character(2, [1, True], [0, 0]), "True"),
    (lambda: klein_character(2, [1, False]), "False"),
    (lambda: character(ModelId.G2T, {"x": 1}).scale(0.5), "0.5"),
    (lambda: character(ModelId.G2T, {"x": 1}).scale(True), "True"),
])
def test_characters_reject_floats_and_booleans(build, shown):
    # a binary float would store 0.1 as 3602879701896397/36028797018963968,
    # and a boolean as 0 or 1
    with pytest.raises(DomainError, match=f"exact rationals .*got {shown}$"):
        build()


def test_characters_keep_exact_values():
    chi = character(ModelId.G2T, {"x": Fraction(1, 10), "y": 3})
    assert chi["x"] == Fraction(1, 10) and chi["y"] == 3
    assert chi.scale(Fraction(10)).coords == (1, 30, 0, 0)


# ---------------------------------------------------------------------------
# The scaled integer letter table against the abelianization definition

def _random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6, 7)))


def sym_A(i, j, sign=1):
    return GeneratorSymbol("A", (i, j), sign)


def _braid_alphabet(ctx):
    """The positive letters of a braid group context."""
    n = ctx.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    candidates = ([sym_a(i) for i in range(1, n + 1)] + [sym_b(i) for i in range(1, n + 1)]
                  + [sym_s(i) for i in range(1, n)] + [GeneratorSymbol("D")]
                  + [sym_C(i, j) for i, j in pairs] + [sym_A(i, j) for i, j in pairs])
    out = []
    for s in candidates:
        try:
            validate_symbol(s, ctx)
        except AlphabetError:
            continue
        out.append(s)
    return out


_TABLE_GROUPS = [GroupContext("P", "T", 3), GroupContext("P", "T", 5),
                 GroupContext("P", "K", 4), GroupContext("P", "S2", 5),
                 GroupContext("B", "T", 4), GroupContext("B", "K", 3),
                 GroupContext("B", "D", 4)] + list(ModelId)


def _label(group):
    """The test id and seed label of a group, fixed so ids and data stay stable."""
    return f"ModelId.{group.value}" if isinstance(group, ModelId) else str(group)


def _random_word(group, rng, length):
    if isinstance(group, ModelId):
        return random_model_word(group, rng, length)
    alphabet = _braid_alphabet(group)
    return reduce(rng.choice(alphabet).inverse() if rng.random() < 0.5 else rng.choice(alphabet)
                  for _ in range(rng.randint(0, length)))


def _reference_evaluate(chi, w):
    image = abelianize(chi.spec.group, w)
    return sum((c * e for c, e in zip(chi.coords, image.free)), Fraction(0))


@pytest.mark.parametrize("group", _TABLE_GROUPS, ids=_label)
def test_table_evaluate_matches_abelianization(group):
    rng = random.Random(f"evaluate {_label(group)}")
    for _ in range(5):
        chi = character(group, [_random_fraction(rng)
                                for _ in range(abelianization(group).free_rank)])
        for _ in range(20):
            w = _random_word(group, rng, 12)
            value = evaluate(chi, w)
            assert isinstance(value, Fraction)
            assert value == _reference_evaluate(chi, w)


@pytest.mark.parametrize("group", _TABLE_GROUPS, ids=_label)
def test_table_nu_is_the_prefix_minimum(group):
    rng = random.Random(f"nu {_label(group)}")
    for _ in range(5):
        chi = character(group, [_random_fraction(rng)
                                for _ in range(abelianization(group).free_rank)])
        for _ in range(10):
            start = _random_word(group, rng, 6)
            steps = _random_word(group, rng, 12)
            prefixes = [Word(steps.letters[:k]) for k in range(len(steps) + 1)]
            expected = min(_reference_evaluate(chi, start) + _reference_evaluate(chi, p)
                           for p in prefixes)
            value = nu(chi, start, steps)
            assert isinstance(value, Fraction) and value == expected


def test_table_keeps_validating_after_warmup():
    ctx = GroupContext("P", "T", 3)
    chi = torus_character(3, [Fraction(1, 2), 0, 1], [Fraction(-1, 3), 2, 1])
    assert evaluate(chi, parse_word("a1 b2 b3 C[1,3]", ctx)) == Fraction(7, 2)
    with pytest.raises(AlphabetError):
        evaluate(chi, Word((sym_b(5),)))
    with pytest.raises(AlphabetError):
        nu(chi, IDENTITY, Word((sym_b(1), sym_b(5))))
    code = sym_b(5).code
    assert code not in chi.letter_table.values and -code not in chi.letter_table.values
    with pytest.raises(AlphabetError):
        evaluate(character(ModelId.G2T, {"x": 1}), Word((model_sym("u"),)))


def test_each_letter_is_validated_once_per_group(monkeypatch):
    from sigmabraid import characters

    checked = []
    check = characters._check_letter
    monkeypatch.setattr(characters, "_check_letter",
                        lambda group, s: checked.append((group, s.kind, s.indices)) or check(group, s))
    abelianization.cache_clear()  # specs compare by fields, so others' specs still match
    ctx = GroupContext("P", "K", 5)
    assert abelianization(ctx) is abelianization(GroupContext("P", "K", 5))
    w = parse_word("a1 b2 a1 C[1,3] b2^-1 C[1,3]^-1 a1^-1 b4", ctx)
    abelianize(ctx, w)
    abelianize(ctx, w.inverse())
    for seed in range(3):
        chi = klein_character(5, [seed, 1, -1, 2, Fraction(1, 3)])
        evaluate(chi, w)
        nu(chi, w, w.inverse())
    assert sorted(checked) == [(ctx, "C", (1, 3)), (ctx, "a", (1,)), (ctx, "b", (2,)), (ctx, "b", (4,))]
    # a bad letter raises every time and never enters the table
    for _ in range(2):
        with pytest.raises(AlphabetError):
            abelianize(ctx, Word((sym_b(6),)))
    assert abelianization(ctx)._slot_table.keys() == {
        abs(s.code) for s in (sym_C(1, 3), sym_a(1), sym_b(2), sym_b(4))}


def test_table_stays_out_of_eq_hash_repr():
    chi = klein_character(2, [Fraction(1, 2), Fraction(-1, 3)])
    twin = klein_character(2, [Fraction(1, 2), Fraction(-1, 3)])
    evaluate(chi, Word((sym_b(1),)))
    assert chi == twin and hash(chi) == hash(twin) and repr(chi) == repr(twin)
    code = sym_b(1).code
    assert chi.letter_table.denominator == 6 and chi.letter_table.values == {code: 3, -code: -3}


def test_letter_values_are_scaled_integers():
    chi = character(ModelId.G2K, {"y": Fraction(-1, 2), "b": Fraction(2, 3)})
    table = chi.letter_table
    assert table.denominator == 6
    assert table.value(model_sym("y")) == -3 and table.value(model_sym("y", -1)) == 3
    assert table.value(model_sym("b")) == 4 and table.value(model_sym("x")) == 0
    for name in ModelId.G2K.letter_names:
        for sign in (1, -1):
            v = table.value(model_sym(name, sign))
            assert type(v) is int
            assert Fraction(v, 6) == evaluate(chi, Word((model_sym(name, sign),)))


@pytest.mark.parametrize("model, coords, radius", [
    (ModelId.G2K, {"y": Fraction(-1, 2), "b": Fraction(3, 7)}, 4),
    (ModelId.G2T, {"x": Fraction(1, 3), "y": Fraction(-2, 5), "a": 1}, 3),
    (ModelId.G3T, {"x": Fraction(1, 2), "u": Fraction(1, 2), "y": Fraction(-1, 3)}, 2),
])
def test_ball_counts_match_integer_rescaling(model, coords, radius):
    chi = character(model, coords)
    rescaled = chi.scale(chi.letter_table.denominator)
    assert all(c.denominator == 1 for c in rescaled.coords)
    targets = [random_model_word(model, random.Random(k), 4) for k in range(6)]
    frac = explore_ball(model, chi, radius=radius, targets=targets)
    whole = explore_ball(model, rescaled, radius=radius, targets=targets)
    assert frac.to_json() == whole.to_json()
    assert frac.nonnegative_count < frac.vertex_count


def test_character_json_errors_name_the_field():
    with pytest.raises(DomainError, match="misses the field 'a'"):
        character_from_json({"surface": "T", "n": 2, "b": [0, 1]})
    with pytest.raises(DomainError, match="misses the field 'b'"):
        character_from_json({"surface": "K", "n": 2})
    with pytest.raises(DomainError, match="must be an object"):
        character_from_json([1, 2])
    with pytest.raises(DomainError, match="'1;3'"):
        character_from_json({"surface": "S2", "n": 4, "A": {"1;3": 1}})


def test_character_json_refuses_the_fields_it_does_not_read():
    # a mistyped key is an error, not a coordinate read as zero
    with pytest.raises(DomainError, match=r"^unknown character JSON fields: \['B'\]$"):
        character_from_json({"group": "B", "surface": "K", "n": 3, "B": 2})
    with pytest.raises(DomainError, match=r"^unknown character JSON fields: \['bb'\]$"):
        character_from_json({"group": "B", "surface": "T", "n": 2, "a": 1, "bb": 5})
    chi = character_from_json({"group": "B", "surface": "T", "n": 2, "a": 1, "b": 5})
    assert chi.coords == (1, 5)
    for doc in ({"model": "G2T", "coords": {}, "x": 1},
                {"surface": "K", "n": 2, "a": [0, 0], "b": [0, 0]},
                {"surface": "S2", "n": 4, "A": {}, "b": 1},
                {"group": "B", "surface": "D", "n": 3, "c": 1}):
        with pytest.raises(DomainError, match="unknown character JSON fields"):
            character_from_json(doc)


# ---------------------------------------------------------------------------
# Differential check against the label-based abelianization rule
#
# The reference below restates each letter's image by coordinate label and
# the model abelianizations as literal tables, independently of the
# position map and of the model records the library derives them from.

_REFERENCE_MODEL_SPECS = {
    ModelId.G2T: (("x", "y", "a", "b"), ()),
    ModelId.G2K: (("y", "b"), (("x", 2), ("a", 2))),
    ModelId.G3T: (("x", "y", "a", "b", "u", "v"), ()),
    ModelId.G4T: (("x", "y", "a", "b", "u", "v", "ub", "vb"), ()),
}


def _reference_spec(group):
    if isinstance(group, ModelId):
        return _REFERENCE_MODEL_SPECS[group]
    spec = abelianization(group)
    return spec.free_labels, spec.torsion


def _reference_slots(group, free_labels, kind, index, n):
    """Where one positive letter lands: list of (block, label, coefficient)."""
    if isinstance(group, ModelId):
        if kind in ("w", "w2", "w3"):
            return []
        return [("free" if kind in free_labels else "torsion", kind, 1)]
    fam, surf = group.family, group.surface
    if kind == "C":
        if fam == "B":
            return [("torsion", "s", 2)] if surf != "D" else [("free", "s", 2)]
        return []
    if kind == "D":
        coeff = n * (n - 1)
        if coeff == 0:  # B_1(D) is trivial and has no s coordinate
            return []
        return [("free", "s", coeff)] if surf == "D" else [("torsion", "s", coeff)]
    if fam == "B":
        return [("free" if kind in free_labels else "torsion", kind, 1)]
    if kind == "A":
        return [("free", f"A[{index[0]},{index[1]}]", 1)]
    label = f"{kind}{index}"
    return [("free" if label in free_labels else "torsion", label, 1)]


def _reference_abelianize(group, w):
    free_labels, torsion = _reference_spec(group)
    n = group.n if isinstance(group, GroupContext) else 0
    free = [0] * len(free_labels)
    tor = [0] * len(torsion)
    tor_labels = [label for label, _ in torsion]
    for s in w:
        idx = s.indices if s.kind == "A" else (s.indices[0] if s.indices else None)
        for block, label, coeff in _reference_slots(group, free_labels, s.kind, idx, n):
            if block == "free":
                free[free_labels.index(label)] += s.sign * coeff
            else:
                tor[tor_labels.index(label)] += s.sign * coeff
    return tuple(free), tuple(t % order for t, (_, order) in zip(tor, torsion))


_EVERY_FAMILY = [GroupContext(fam, surf, n)
                 for fam, surf, ns in [("P", "T", (1, 2, 4)), ("P", "K", (1, 3)),
                                       ("P", "S2", (2, 3, 4, 6)), ("P", "RP2", (2, 3)),
                                       ("B", "T", (2, 4)), ("B", "K", (3,)),
                                       ("B", "D", (1, 2, 5)), ("B", "S2", (2, 4)),
                                       ("B", "RP2", (3,))]
                 for n in ns] + list(ModelId)


@pytest.mark.parametrize("group", _EVERY_FAMILY, ids=_label)
def test_abelianize_and_evaluate_match_the_label_reference(group):
    free_labels, torsion = _reference_spec(group)
    spec = abelianization(group)
    assert (spec.free_labels, spec.torsion) == (free_labels, torsion)
    rng = random.Random(f"reference {_label(group)}")
    has_letters = isinstance(group, ModelId) or _braid_alphabet(group)
    for _ in range(4):
        chi = character(group, [_random_fraction(rng) for _ in free_labels])
        for _ in range(25):
            w = _random_word(group, rng, 14) if has_letters else IDENTITY
            free, tor = _reference_abelianize(group, w)
            image = abelianize(group, w)
            assert (image.free, image.torsion) == (free, tor)
            assert evaluate(chi, w) == sum((c * e for c, e in zip(chi.coords, free)), Fraction(0))
