import hashlib
import random

import pytest

from sigmabraid import models
from sigmabraid.checks import verify_equation_bank
from sigmabraid.models import (
    FiberBudgetError,
    ModelId,
    bruteforce_normalize_g2k,
    dictionary,
    dictionary_for,
    equation_bank,
    identity_state,
    normalize,
    parse_model_word,
    random_model_word,
    step,
    translate,
    words_equal,
)
from sigmabraid.models import (  # internals under test
    _G2K_ACTS, _MODELS, _actions, _finv, _fmul, _map_signed, _relator_facts, _signed_table,
)
from sigmabraid.words import AlphabetError, DomainError, Word, model_sym, reduce, sym_a, sym_b, sym_C


def w(text, model):
    return parse_model_word(text, model)


def _apply_auto(table, w, rank):
    """Image of ``w`` under the automorphism of F(1..rank) sending letter k to
    ``table[k]`` (letters without an entry are fixed), through the full
    signed table that the models use."""
    return tuple(_map_signed(_signed_table(table, rank), w))


def word_of_length(model, rng, k):
    """A freely reduced random word of exactly k letters."""
    out = []
    while len(out) < k:
        s = model_sym(rng.choice(model.letter_names), rng.choice((1, -1)))
        if not (out and out[-1] == s.inverse()):
            out.append(s)
    return Word(tuple(out))


def naive_reduce(letters):
    """Free reduction by deleting the leftmost cancelling pair until none is left."""
    out = list(letters)
    i = 0
    while i + 1 < len(out):
        if out[i] == -out[i + 1]:
            del out[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(out)


def fold_step(model, word):
    state = identity_state(model)
    for s in word:
        state = step(model, state, s.kind, s.sign)
    return state


def test_normalize_examples():
    nf = normalize(ModelId.G2K, w("b a", ModelId.G2K))
    assert nf.state == ((), -1, 1)  # a^-1 b
    nf = normalize(ModelId.G2K, w("a b y", ModelId.G2K))
    assert nf.state == ((1, 1, 1, 2, 1), 1, 1)  # x^3 y x a b
    nf = normalize(ModelId.G3T, w("x^-1 v x", ModelId.G3T))
    assert nf.state == ((-1, 2, 1, -3), (), 0, 0)  # u^-1 v u w^-1
    assert nf.as_word() == w("u^-1 v u w^-1", ModelId.G3T)


def test_words_equal_examples():
    assert words_equal(ModelId.G2K, w("a b", ModelId.G2K), w("b a^-1", ModelId.G2K))
    assert words_equal(ModelId.G3T, w("x v x^-1", ModelId.G3T), w("u v w u^-1", ModelId.G3T))
    assert words_equal(ModelId.G2T, w("x a", ModelId.G2T), w("a x", ModelId.G2T))


def test_alphabet_violation():
    with pytest.raises(AlphabetError):
        normalize(ModelId.G2T, Word((model_sym("u"),)))
    with pytest.raises(AlphabetError):
        normalize(ModelId.G3T, Word((sym_a(1),)))
    # the pass checks each letter when it reaches it, after a valid prefix
    with pytest.raises(AlphabetError, match=r"^u: not a letter of G2T$"):
        normalize(ModelId.G2T, Word((model_sym("x"), model_sym("a"), model_sym("u"))))
    with pytest.raises(AlphabetError, match=r"^a1: not a letter of G3T$"):
        normalize(ModelId.G3T, Word((model_sym("x"), model_sym("y"), sym_a(1))))


def test_normal_form_uniqueness_under_splitting():
    rng = random.Random(7)
    for model in ModelId:
        for _ in range(120):
            w1 = random_model_word(model, rng, 12)
            w2 = random_model_word(model, rng, 12)
            direct = normalize(model, w1 * w2)
            staged = normalize(model, normalize(model, w1).as_word() * w2)
            assert direct.state == staged.state


def test_action_tables_compose_to_identity():
    for model in (ModelId.G2K, ModelId.G3T, ModelId.G4T):
        rec = _MODELS[model]
        into, out = rec.into, rec.out
        rank = len(rec.layers[0])
        letters = list(range(1, rank + 1))
        for name in set(into) | set(out):
            fwd, bwd = into.get(name, {}), out.get(name, {})
            for z in letters:
                for first, then in ((bwd, fwd), (fwd, bwd)):
                    assert _apply_auto(then, _apply_auto(first, (z,), rank), rank) == (z,)


def test_action_tables_are_automorphisms():
    rng = random.Random(11)
    for model in (ModelId.G2K, ModelId.G3T, ModelId.G4T):
        rec = _MODELS[model]
        into, out = rec.into, rec.out
        rank = len(rec.layers[0])
        letters = list(range(1, rank + 1))
        for table in list(into.values()) + list(out.values()):
            for _ in range(30):
                u = tuple(rng.choice(letters) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8)))
                v = tuple(rng.choice(letters) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8)))
                lhs = _apply_auto(table, _fmul(u, v), rank)
                rhs = _fmul(_apply_auto(table, u, rank), _apply_auto(table, v, rank))
                assert lhs == rhs
                assert _apply_auto(table, _finv(u), rank) == _finv(_apply_auto(table, u, rank))


def test_central_letters_commute_in_torus_models():
    rng = random.Random(3)
    for model in (ModelId.G2T, ModelId.G3T, ModelId.G4T):
        for name in ("a", "b"):
            g = Word((model_sym(name),))
            for _ in range(40):
                word = random_model_word(model, rng, 10)
                assert words_equal(model, g * word, word * g)
    # on the Klein bottle the base acts: a and b are not central
    y = w("y", ModelId.G2K)
    for name in ("a", "b"):
        g = Word((model_sym(name),))
        assert not words_equal(ModelId.G2K, g * y, y * g)


def test_g2t_is_a_direct_product():
    rng = random.Random(5)
    for name in ("x", "y"):
        g = Word((model_sym(name),))
        for other in ("a", "b"):
            h = Word((model_sym(other),))
            assert words_equal(ModelId.G2T, g * h, h * g)
    for _ in range(20):
        word = random_model_word(ModelId.G2T, rng, 10)
        nf = normalize(ModelId.G2T, word)
        assert normalize(ModelId.G2T, nf.as_word()).state == nf.state


def test_g2k_rules_match_letterwise_reference():
    rng = random.Random(0)
    for _ in range(3000):
        word = random_model_word(ModelId.G2K, rng, 12)
        assert normalize(ModelId.G2K, word).state == bruteforce_normalize_g2k(word).state


def test_equation_banks_pass():
    for model in ModelId:
        checks = verify_equation_bank(model, random_words=1000)
        assert all(c.passed for c in checks), [str(c) for c in checks if not c.passed]
        assert {c.kind for c in checks} == {"bank"} and {c.group for c in checks} == {model.value}
    assert len(verify_equation_bank(ModelId.G3T, random_words=0)) == 12


def test_equation_bank_rejects_a_negative_count():
    with pytest.raises(DomainError, match="random_words must be >= 0, got -5"):
        verify_equation_bank(ModelId.G2K, random_words=-5)


def test_dictionary_roundtrip_model_words():
    rng = random.Random(13)
    for model in ModelId:
        dic = dictionary(model)
        for _ in range(60):
            word = random_model_word(model, rng, 8)
            back = translate(dic, translate(dic, word, "to_braid"), "to_model")
            assert words_equal(model, word, back)


def test_dictionary_roundtrip_braid_words():
    rng = random.Random(17)
    for model in ModelId:
        dic = dictionary(model)
        gens = list(dic.from_braid)
        for _ in range(40):
            raw = [rng.choice(gens) for _ in range(rng.randint(0, 8))]
            braid = reduce(g if rng.random() < 0.5 else g.inverse() for g in raw)
            back = translate(dic, translate(dic, braid, "to_model"), "to_braid")
            # no braid-side oracle: compare the two braid words through the model
            assert words_equal(model, translate(dic, braid, "to_model"),
                               translate(dic, back, "to_model"))


def test_dictionary_covers_all_generators():
    for model, n in ((ModelId.G2T, 2), (ModelId.G2K, 2), (ModelId.G3T, 3), (ModelId.G4T, 4)):
        dic = dictionary(model)
        for i in range(1, n + 1):
            assert sym_a(i) in dic.from_braid and sym_b(i) in dic.from_braid
            for j in range(i + 1, n + 1):
                assert sym_C(i, j) in dic.from_braid


def test_translate_examples():
    psi = dictionary(ModelId.G4T)
    assert translate(psi, w("ub", ModelId.G4T), "to_braid").letters == (sym_a(4),)
    phi3 = dictionary(ModelId.G3T)
    img = translate(phi3, Word((sym_a(2),)), "to_model")
    assert words_equal(ModelId.G3T, img, w("x u^-1", ModelId.G3T))
    phi2 = dictionary(ModelId.G2T)
    img = translate(phi2, Word((sym_a(1), sym_a(2))), "to_model")
    assert words_equal(ModelId.G2T, img, w("a", ModelId.G2T))


def test_klein_b_image_order_matters():
    # b maps to b2 b1 (in that order); on the Klein bottle the reversed
    # product differs by an encircling braid
    dic = dictionary(ModelId.G2K)
    assert words_equal(ModelId.G2K,
                       translate(dic, Word((sym_b(2), sym_b(1))), "to_model"),
                       w("b", ModelId.G2K))
    reversed_image = translate(dic, Word((sym_b(1), sym_b(2))), "to_model")
    assert not words_equal(ModelId.G2K, reversed_image, w("b", ModelId.G2K))


def test_translate_unknown_symbol():
    from sigmabraid.models import TranslationError
    dic = dictionary(ModelId.G2T)
    with pytest.raises(TranslationError, match="a3"):
        translate(dic, Word((sym_a(3),)), "to_model")


def test_dictionary_for():
    assert dictionary_for("T", 3).model is ModelId.G3T
    assert dictionary_for("K", 2).model is ModelId.G2K
    assert dictionary_for("T", 5) is None
    assert dictionary_for("K", 3) is None
    covered = {(surface, n): dictionary_for(surface, n)
               for surface in ("T", "K", "S2", "RP2", "D") for n in range(1, 9)}
    covered = {key: dic.model for key, dic in covered.items() if dic is not None}
    assert covered == {("T", 2): ModelId.G2T, ("T", 3): ModelId.G3T,
                       ("T", 4): ModelId.G4T, ("K", 2): ModelId.G2K}


def test_tower_records():
    # the alphabet order is part of the interface: explore_ball takes the
    # first positive letter in this order as its base
    alphabets = {
        ModelId.G2T: ("x", "y", "a", "b"),
        ModelId.G2K: ("x", "y", "a", "b"),
        ModelId.G3T: ("x", "y", "a", "b", "u", "v", "w"),
        ModelId.G4T: ("x", "y", "a", "b", "u", "v", "w", "ub", "vb", "w2", "w3"),
    }
    layers = {
        ModelId.G2T: (("x", "y"),),
        ModelId.G2K: (("x", "y"),),
        ModelId.G3T: (("u", "v", "w"), ("x", "y")),
        ModelId.G4T: (("ub", "vb", "w2", "w3"), ("u", "v", "w"), ("x", "y")),
    }
    identities = {
        ModelId.G2T: ((), 0, 0),
        ModelId.G2K: ((), 0, 0),
        ModelId.G3T: ((), (), 0, 0),
        ModelId.G4T: ((), (), (), 0, 0),
    }
    # G3T and G4T have odd relators: x^-1 v x = u^-1 v u w^-1 has length 7
    bipartite = {ModelId.G2T: True, ModelId.G2K: True, ModelId.G3T: False, ModelId.G4T: False}
    for model in ModelId:
        assert model.letter_names == alphabets[model]
        assert _MODELS[model].layers == layers[model]
        assert model.bipartite is _MODELS[model].bipartite is bipartite[model]
        assert identity_state(model) == identities[model]
        assert str(model) == f"{model}" == model.value


def test_letter_orders_from_the_relators():
    # 0 free, 1 trivial, k torsion of order k
    orders = {
        ModelId.G2T: {},
        ModelId.G2K: {"x": 2, "a": 2},  # b^-1 x b = x^-1 and a b a b^-1
        ModelId.G3T: {"w": 1},  # x^-1 v x = u^-1 v u w^-1
        ModelId.G4T: {"w": 1, "w2": 1, "w3": 1},
    }
    for model in ModelId:
        assert model.letter_orders == tuple((name, orders[model].get(name, 0))
                                            for name in model.letter_names)


def test_relator_facts_take_the_gcd_and_refuse_mixed_images():
    # u -> u^5 and u -> u^7 give 4u = 6u = 0, so u has order 2; v is untouched
    orders, odd = _relator_facts(("u", "v"), {"g": {1: (1,) * 5}, "h": {1: (1,) * 7}})
    assert orders == {"u": 2, "v": 0} and odd
    # v -> u v u^-1 abelianizes to 0 and says nothing; its length 3 is odd
    assert _relator_facts(("u", "v"), {"g": {2: (1, 2, -1)}}) == ({"u": 0, "v": 0}, True)
    assert _relator_facts(("u", "v"), {"g": {2: (2, 2)}})[1] is False
    with pytest.raises(ValueError, match="abelianizes to"):
        _relator_facts(("u", "v"), {"g": {1: (2,)}})


def test_big_exponents_are_exact():
    # iterated doubling through the y rule pushes x exponents far past any
    # fixed word length
    word = w("a", ModelId.G2K) ** 40 * w("y", ModelId.G2K)
    nf = normalize(ModelId.G2K, word)
    omega, n, m = nf.state
    assert n == 40 and m == 0 and len(omega) == 81


def test_normal_forms_match_the_recorded_digest():
    # SHA-256 of the states of 400 seeded random words, recorded from the
    # rules that took and returned whole states, before they returned the
    # appended fiber word instead
    rng = random.Random(47)
    digest = hashlib.sha256()
    for model, max_len in ((ModelId.G2T, 200), (ModelId.G2K, 200),
                           (ModelId.G3T, 24), (ModelId.G4T, 12)):
        for _ in range(100):
            digest.update(repr(normalize(model, random_model_word(model, rng, max_len)).state).encode())
    assert digest.hexdigest() == "b3adf5391a3d89ff1c56a86168e547d7685d67b9e8010c4464745c166f6e1477"


def test_normalize_is_the_fold_of_step():
    rng = random.Random(29)
    lengths = {ModelId.G2T: (0, 1, 40, 400), ModelId.G2K: (0, 1, 40, 400),
               ModelId.G3T: (8, 24, 40), ModelId.G4T: (8, 16, 24)}
    for model, ks in lengths.items():
        for k in ks:
            for _ in range(12):
                word = word_of_length(model, rng, k)
                assert normalize(model, word).state == fold_step(model, word)
    # long fibers: the in-place outer component reaches hundreds of letters
    peaks = {}
    for model, k in ((ModelId.G3T, 40), (ModelId.G4T, 24)):
        for _ in range(12):
            word = word_of_length(model, rng, k)
            state = normalize(model, word).state
            assert state == fold_step(model, word)
            peaks[model] = max(peaks.get(model, 0), len(state[0]))
    assert min(peaks.values()) >= 300, peaks
    # G2K with large |n|: the y rule pushes x^(2n) tails
    peak = 0
    for _ in range(12):
        letters = []
        for _ in range(8):
            letters += [model_sym("a", rng.choice((1, -1)))] * rng.randint(20, 80)
            letters += [model_sym(rng.choice("xyb"), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 4))]
        word = reduce(letters)
        state = normalize(ModelId.G2K, word).state
        assert state == fold_step(ModelId.G2K, word)
        peak = max(peak, len(state[0]))
    assert peak >= 300


def test_apply_auto_is_the_product_of_the_images():
    rng = random.Random(31)
    for model in (ModelId.G2K, ModelId.G3T, ModelId.G4T):
        rec = _MODELS[model]
        into, out = rec.into, rec.out
        rank = len(rec.layers[0])
        letters = list(range(1, rank + 1))
        for table in list(into.values()) + list(out.values()):
            for k in (0, 1, 50, 500):
                u = naive_reduce(rng.choice(letters) * rng.choice((1, -1)) for _ in range(k))
                images = []
                for c in u:
                    img = table.get(abs(c), (abs(c),))
                    images += img if c > 0 else [-d for d in reversed(img)]
                assert _apply_auto(table, u, rank) == naive_reduce(images)


def test_fmul_is_free_reduction():
    rng = random.Random(37)
    for _ in range(300):
        u = naive_reduce(rng.choice((1, 2, 3)) * rng.choice((1, -1))
                         for _ in range(rng.randint(0, 30)))
        v = naive_reduce(rng.choice((1, 2, 3)) * rng.choice((1, -1))
                         for _ in range(rng.randint(0, 30)))
        assert _fmul(u, v) == naive_reduce(u + v)
        # full cancellation, from either side
        assert _fmul(u, _finv(u)) == ()
        assert _fmul(_finv(u), u) == ()
        # partial cancellation of a shared suffix
        assert _fmul(u + v, _finv(v)) == u


def test_long_g2k_word_equals_itself_with_a_relator_inserted():
    rng = random.Random(41)
    model = ModelId.G2K
    word = word_of_length(model, rng, 6400)
    relators = [w(eq["lhs"], model) * w(eq["rhs"], model).inverse()
                for eq in equation_bank(model)]
    relators = [r for r in relators if r]
    assert relators
    for relator in relators:
        pos = rng.randint(0, len(word))
        same = reduce(word.letters[:pos] + relator.letters + word.letters[pos:])
        assert same != word
        assert words_equal(model, word, same)
    assert not words_equal(model, word, word * w("y", model))


def test_action_tables_map_every_signed_fiber_code():
    # (signed action tables, rank of the fiber they act on, acting letters)
    cases = [(_G2K_ACTS, 2, ("a", "b"))]
    for model in (ModelId.G3T, ModelId.G4T):
        rec = _MODELS[model]
        rank = len(rec.layers[0])
        cases += [(_actions(layer, rec.into, rec.out, rank), rank, layer)
                  for layer in rec.layers[1:]]
    for acts, rank, letters in cases:
        assert set(acts) == {c for k in range(1, len(letters) + 1) for c in (k, -k)}
        for table in acts.values():
            assert set(table) == {c for k in range(1, rank + 1) for c in (k, -k)}
            for k in range(1, rank + 1):
                assert table[-k] == _finv(table[k])


def test_fiber_budget_bounds_components_and_appended_words(monkeypatch):
    monkeypatch.setattr(models, "FIBER_BUDGET", 5)
    # a component of exactly the budget is fine, one letter more is not
    assert normalize(ModelId.G2T, w("x x x x x a", ModelId.G2T)).state == ((1,) * 5, 1, 0)
    with pytest.raises(FiberBudgetError, match="a fiber word of 6 letters passes the budget of 5"):
        normalize(ModelId.G2T, w("x x x x x a x", ModelId.G2T))
    state = fold_step(ModelId.G2T, w("x x x x x", ModelId.G2T))
    with pytest.raises(FiberBudgetError):
        step(ModelId.G2T, state, "x", 1)
    # the G2K y rule appends x^4 y after a^2: 5 letters pass, a^3 y appends 7
    assert normalize(ModelId.G2K, w("a a y", ModelId.G2K)).state == ((1, 1, 1, 1, 2), 2, 0)
    with pytest.raises(FiberBudgetError, match="7 letters"):
        normalize(ModelId.G2K, w("a a a y", ModelId.G2K))
    with pytest.raises(FiberBudgetError, match="7 letters"):
        fold_step(ModelId.G2K, w("a a a y", ModelId.G2K))
    # level 2 of G3T and G4T pushes and pops the letter's own code
    for model in (ModelId.G3T, ModelId.G4T):
        assert normalize(model, w("x x x x x a x^-1 b x", model)).state[-3:] == ((1,) * 5, 1, 1)
        for text in ("x x x x x a x^-1 b x x", "y^-1 a y^-1 y^-1 b y^-1 y^-1 y^-1"):
            word = w(text, model)
            with pytest.raises(FiberBudgetError,
                               match="^a fiber word of 6 letters passes the budget of 5 letters$"):
                normalize(model, word)
            with pytest.raises(FiberBudgetError,
                               match="^a fiber word of 6 letters passes the budget of 5 letters$"):
                fold_step(model, word)


def test_a_prefix_over_the_budget_raises_before_a_later_invalid_letter(monkeypatch):
    monkeypatch.setattr(models, "FIBER_BUDGET", 5)
    word = Word((model_sym("x"),) * 6 + (model_sym("u"),))
    with pytest.raises(FiberBudgetError, match="6 letters"):
        normalize(ModelId.G2T, word)
    word = Word((model_sym("a"),) * 3 + (model_sym("y"), sym_a(1)))
    with pytest.raises(FiberBudgetError, match="7 letters"):
        normalize(ModelId.G2K, word)


def test_fiber_budget_stops_a_long_g4t_word(monkeypatch):
    rng = random.Random(43)
    word = word_of_length(ModelId.G4T, rng, 16)
    state = normalize(ModelId.G4T, word).state  # the default budget lets it pass
    assert max(len(part) for part in state[:-2]) > 40
    assert models.FIBER_BUDGET == 10 ** 6
    monkeypatch.setattr(models, "FIBER_BUDGET", 40)
    with pytest.raises(FiberBudgetError, match="passes the budget of 40 letters"):
        normalize(ModelId.G4T, word)
    with pytest.raises(FiberBudgetError):
        fold_step(ModelId.G4T, word)
    with pytest.raises(DomainError):  # a FiberBudgetError is a DomainError
        words_equal(ModelId.G4T, word, word)



def test_g2k_powers_of_a_match_the_letterwise_reference():
    # words a^k b^j z reach every bit of the cached power tables up to 2^12.
    # The reference conjugates y by a^k in O(k^2) steps (1.2 s at k = 2^12),
    # so y meets it up to |k| = 2^9 + 1 and the closed form above that:
    # a^k b^j y = x^(2k) y a^k b^j for even j, x^(2k+1) y x a^k b^j for odd j.
    # x is fixed by a, so it meets the reference at every k.
    ks = [0, 2 ** 12 - 1, 1 - 2 ** 12] + [s * (2 ** i + d) for i in range(13)
                                         for d in (0, 1) for s in (1, -1)]
    for k in ks:
        for j in (-2, 3):
            for name in ("x", "y"):
                for sign in (1, -1):
                    word = Word((model_sym("a", 1 if k > 0 else -1),) * abs(k)
                                + (model_sym("b", 1 if j > 0 else -1),) * abs(j)
                                + (model_sym(name, sign),))
                    state = normalize(ModelId.G2K, word).state
                    if name == "x" or abs(k) <= 2 ** 9 + 1:
                        assert state == bruteforce_normalize_g2k(word).state, (k, j, name, sign)
                        continue
                    e = 2 * k + j % 2
                    omega = ((1,) * e if e > 0 else (-1,) * -e) + ((2, 1) if j % 2 else (2,))
                    assert state == (omega if sign > 0 else _finv(omega), k, j), (k, j, sign)


def test_g2k_states_do_not_depend_on_the_table_cache(monkeypatch):
    # A fresh record starts with an empty cache.  At a budget of 120 letters
    # no appended word or component of these words reaches the budget, but
    # their tables hold about 1,900 letters, so the cache is emptied often.
    rng = random.Random(53)
    words = [random_model_word(ModelId.G2K, rng, 16) for _ in range(400)]
    words += [w("a", ModelId.G2K) ** k * word for k in (7, -9, 13) for word in words[:40]]
    expected = [normalize(ModelId.G2K, word).state for word in words]
    fresh = models._extend(models._surface("K"), ("x", "y"), models._G2K_INTO, models._G2K_OUT)
    monkeypatch.setitem(_MODELS, ModelId.G2K, fresh)
    monkeypatch.setattr(models, "FIBER_BUDGET", 120)
    assert [normalize(ModelId.G2K, word).state for word in words] == expected
    assert [fold_step(ModelId.G2K, word) for word in words] == expected


def test_a_huge_power_of_a_normalises_past_the_budget_of_its_tables():
    # the table of a^(2^19) sends y to x^(2^20) y, past the budget of 10^6
    # letters; only appended words and components are held to the budget
    word = Word((model_sym("a"),) * 2 ** 19 + (model_sym("x"),))
    assert normalize(ModelId.G2K, word).state == ((1,), 524288, 0)


def _letters_held(table, seen):
    """Letters stored in a lazy exponent table and the lazy tables it reads."""
    if id(table) in seen or not isinstance(table, models._LazyTable):
        return 0
    seen.add(id(table))
    return sum(map(len, table.values())) + sum(_letters_held(f, seen) for f in table.factors)


def test_a_lone_letter_after_a_huge_power_builds_only_its_own_images(monkeypatch):
    # x is fixed by a, so each power of a is read at x alone: about one
    # letter per power, not the 2^20 letters of y's image under a^(2^19)
    fresh = models._extend(models._surface("K"), ("x", "y"), models._G2K_INTO, models._G2K_OUT)
    monkeypatch.setitem(_MODELS, ModelId.G2K, fresh)
    word = Word((model_sym("a"),) * 2 ** 19 + (model_sym("x"),))
    assert normalize(ModelId.G2K, word).state == ((1,), 2 ** 19, 0)
    exponents = fresh.levels[0][0]
    assert _letters_held(exponents(2 ** 19, 0), set()) <= 20
    # the same table still builds y's image, x^(2^20) y, when y is read
    with pytest.raises(FiberBudgetError, match="1048577 letters"):
        normalize(ModelId.G2K, word * Word((model_sym("y"),)))


def _g2k_runs_word(rng, big, y_bound):
    """A G2K word of a and b runs, each moving n to a target of |n| <= ``big``
    with m of either parity, then a run of fiber letters; y only where
    |n| <= ``y_bound``.  Returns the word and the (n, m) of each fiber run."""
    letters, seen, n, m = [], [], 0, 0
    for _ in range(6):
        target = rng.randint(-big, big)
        e = n - target if m % 2 else target - n  # b^m a = a^((-1)^m) b^m
        letters += [model_sym("a", 1 if e > 0 else -1)] * abs(e)
        j = rng.randint(-3, 3)
        letters += [model_sym("b", 1 if j > 0 else -1)] * abs(j)
        n, m = target, m + j
        names = "xy" if abs(n) <= y_bound else "x"
        letters += [model_sym(rng.choice(names), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 4))]
        seen.append((n, m))
    return reduce(letters), seen


def test_g2k_runs_of_fiber_letters_read_the_table_of_their_own_exponents():
    # normalize fetches one a^n b^m table per run of fiber letters and drops
    # it when a or b changes (n, m); step fetches one per letter.  The
    # letterwise reference conjugates y by a^n in O(n^2) steps, so it meets
    # y only up to |n| = 2^7 and x up to 2^12.
    rng = random.Random(61)
    seen = []
    for big, y_bound in ((2 ** 12, 2 ** 12), (2 ** 12, 2 ** 7), (2 ** 7, 2 ** 7)):
        for _ in range(6):
            word, runs = _g2k_runs_word(rng, big, y_bound)
            state = normalize(ModelId.G2K, word).state
            assert state == fold_step(ModelId.G2K, word)
            if y_bound <= 2 ** 7:
                assert state == bruteforce_normalize_g2k(word).state
            seen += runs
    assert max(abs(n) for n, _ in seen) > 2 ** 11
    assert {m % 2 for _, m in seen} == {0, 1}
