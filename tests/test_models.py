import random

import pytest

from sigmabraid.models import (
    ModelId,
    bruteforce_normalize_g2k,
    conjugation_tables,
    dictionary,
    dictionary_for,
    equation_bank,
    fiber_codes,
    identity_state,
    normalize,
    parse_model_word,
    random_model_word,
    step,
    translate,
    verify_equation_bank,
    words_equal,
)
from sigmabraid.models import _apply_auto, _finv, _fmul  # engine internals under test
from sigmabraid.words import AlphabetError, Word, model_sym, reduce, sym_a, sym_b, sym_C


def w(text, model):
    return parse_model_word(text, model)


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
        into, out = conjugation_tables(model)
        letters = sorted(fiber_codes(model).values())
        for name in set(into) | set(out):
            fwd, bwd = into.get(name, {}), out.get(name, {})
            for z in letters:
                assert _apply_auto(fwd, _apply_auto(bwd, (z,))) == (z,)
                assert _apply_auto(bwd, _apply_auto(fwd, (z,))) == (z,)


def test_action_tables_are_automorphisms():
    rng = random.Random(11)
    for model in (ModelId.G2K, ModelId.G3T, ModelId.G4T):
        into, out = conjugation_tables(model)
        letters = sorted(fiber_codes(model).values())
        for table in list(into.values()) + list(out.values()):
            for _ in range(30):
                u = tuple(rng.choice(letters) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8)))
                v = tuple(rng.choice(letters) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8)))
                lhs = _apply_auto(table, _fmul(u, v))
                rhs = _fmul(_apply_auto(table, u), _apply_auto(table, v))
                assert lhs == rhs
                assert _apply_auto(table, _finv(u)) == _finv(_apply_auto(table, u))


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
        report = verify_equation_bank(model, random_words=1000)
        assert report.passed, report.failures()
    g3t = verify_equation_bank(ModelId.G3T, random_words=0)
    assert len(g3t.checks) == 12


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


def test_big_exponents_are_exact():
    # iterated doubling through the y rule pushes x exponents far past any
    # fixed word length
    word = w("a", ModelId.G2K) ** 40 * w("y", ModelId.G2K)
    nf = normalize(ModelId.G2K, word)
    omega, n, m = nf.state
    assert n == 40 and m == 0 and len(omega) == 81


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
        into, out = conjugation_tables(model)
        letters = sorted(fiber_codes(model).values())
        for table in list(into.values()) + list(out.values()):
            for k in (0, 1, 50, 500):
                u = naive_reduce(rng.choice(letters) * rng.choice((1, -1)) for _ in range(k))
                images = []
                for c in u:
                    img = table.get(abs(c), (abs(c),))
                    images += img if c > 0 else [-d for d in reversed(img)]
                assert _apply_auto(table, u) == naive_reduce(images)


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
