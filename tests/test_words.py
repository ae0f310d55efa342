import pytest
from hypothesis import given, strategies as st

from sigmabraid.characters import abelianize
from sigmabraid import words
from sigmabraid.words import (
    AlphabetError,
    DomainError,
    GeneratorSymbol,
    GroupContext,
    IDENTITY,
    Word,
    WordSyntaxError,
    aij_word,
    alpha_beta_word,
    model_sym,
    parse_symbols,
    parse_word,
    reduce,
    serialize_word,
    sym_a,
    sym_b,
    sym_C,
    sym_s,
)

X, Y = model_sym("x"), model_sym("y")


def test_reduce_examples():
    assert reduce([X, X.inverse(), Y]).letters == (Y,)
    assert reduce([sym_a(1), sym_b(2)]).letters == (sym_a(1), sym_b(2))
    assert reduce([sym_C(1, 3), sym_C(1, 3, -1)]) == IDENTITY


_POOL = [sym_a(1), sym_a(2), sym_b(1), sym_s(1), sym_C(1, 3), model_sym("ub"), model_sym("w2")]
_LETTERS = st.sampled_from([s for p in _POOL for s in (p, p.inverse())])


@given(st.lists(_LETTERS, max_size=30))
def test_reduce_idempotent(raw):
    once = reduce(raw)
    assert reduce(once.letters) == once


@given(st.lists(_LETTERS, max_size=30))
def test_serialize_parse_roundtrip(raw):
    w = reduce(raw)
    assert reduce(parse_symbols(serialize_word(w))) == w


@given(st.lists(_LETTERS, max_size=30), st.lists(_LETTERS, max_size=30))
def test_words_built_unchecked_pass_the_check(left, right):
    # reduce, inverse and * skip the reducedness check of a direct Word(...)
    u, v = reduce(left), reduce(right)
    for w in (u, u.inverse(), u * v, v * u.inverse()):
        assert Word(w.letters) == w


@given(st.lists(_LETTERS, max_size=30), st.lists(_LETTERS, max_size=30), st.integers(0, 30))
def test_product_cancels_at_the_seam_like_reduce(left, right, k):
    # v opens with the inverse of up to k trailing letters of u, so the seam
    # cancels deeply, sometimes through the whole of u or of v
    u = reduce(left)
    v = reduce(list(u.inverse().letters[:k]) + right)
    expected = reduce(u.letters + v.letters)
    assert u * v == expected
    # directly built letters cancel against interned ones
    direct = Word(tuple(GeneratorSymbol(s.kind, s.indices, s.sign) for s in v.letters))
    assert u * direct == expected


def test_direct_word_keeps_its_check():
    with pytest.raises(DomainError, match="unreduced"):
        Word((X, Y, Y.inverse()))


def test_builders_return_one_interned_letter():
    assert sym_a(2) is sym_a(2) is parse_symbols("a2")[0] is sym_a(2, -1).inverse()
    assert sym_b(3, -1) is parse_symbols("b3^-1")[0] is sym_b(3).inverse()
    assert sym_s(1) is parse_symbols("s1")[0]
    assert sym_C(1, 3, -1) is sym_C(1, 3, -1) is parse_symbols("C[1,3]^-1")[0]
    assert model_sym("ub") is parse_symbols("ub")[0] is model_sym("ub", -1).inverse()
    for s in parse_symbols("a1 b2^-1 s3 C[2,4]^-1 A[1,3] D^-1 x w2^-1"):
        assert s.inverse().inverse() is s
        assert s.base is s.inverse().base is parse_symbols(s.label)[0]
        assert s.base.sign == 1


def test_direct_letters_equal_the_interned_ones():
    d, d_inv = parse_symbols("D D^-1")
    direct = GeneratorSymbol("D")
    assert direct == d and hash(direct) == hash(d) and direct is not d
    assert direct.inverse() is d_inv and direct.base is d
    assert GeneratorSymbol("D", (), -1).base is d


def test_invalid_letters_raise_and_do_not_enter():
    before = dict(words._LETTERS)
    tokens = dict(words._TOKENS)
    for _ in range(2):  # a bad token raises every time
        for build in (lambda: sym_C(3, 1), lambda: sym_a(0), lambda: sym_s(1, 2),
                      lambda: parse_symbols("C[2,2]"), lambda: parse_symbols("b0^-1")):
            with pytest.raises(AlphabetError):
                build()
        with pytest.raises(AlphabetError, match="unknown model letter"):
            model_sym("q")
        with pytest.raises(WordSyntaxError, match="token 0"):
            parse_symbols("q7")
    assert words._LETTERS.keys() == before.keys()
    assert all(words._LETTERS[key] is s for key, s in before.items())
    assert words._TOKENS == tokens


def test_codes_are_signed_and_follow_the_fields():
    letters = parse_symbols("a1 a2 b1 s1 s2 C[1,3] C[2,3] A[1,3] D x a b ub w2")
    for s in letters:
        assert s.code > 0 and s.code == -s.inverse().code
    assert len({s.code for s in letters}) == len(letters)
    # a directly built letter reads its interned twin's code, even before
    # the twin was ever built; equality, hash and repr still use the fields
    direct = GeneratorSymbol("C", (7, 977), -1)
    assert direct.code == sym_C(7, 977, -1).code == -sym_C(7, 977).code
    assert direct == sym_C(7, 977, -1) and repr(direct) == repr(sym_C(7, 977, -1))
    assert "code" not in repr(direct) and str(direct) == "C[7,977]^-1"


def test_letters_entered_from_many_threads_get_one_instance_and_code():
    import sys
    import threading

    indices = range(7001, 7401)  # letters no other test builds
    got = [[] for _ in range(8)]

    def build(k):
        order = indices if k % 2 else reversed(indices)
        got[k] = {i: sym_b(i, 1 if k % 4 < 2 else -1).inverse().inverse() for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in indices:
        positive = sym_b(i)
        assert all(g[i] is (positive if k % 4 < 2 else positive.inverse()) for k, g in enumerate(got))
    codes = [sym_b(i).code for i in indices]
    assert len(set(codes)) == len(codes) and all(sym_b(i, -1).code == -sym_b(i).code for i in indices)


def test_each_token_is_parsed_once():
    first = parse_symbols("a31 b31^-1 a31")
    assert first[0] is first[2] is sym_a(31) and first[1] is sym_b(31, -1)
    assert words._TOKENS["a31"] is sym_a(31) and words._TOKENS["b31^-1"] is sym_b(31, -1)
    # a second spelling of one letter is its own token, read as that letter
    assert parse_symbols("a031")[0] is sym_a(31)


def test_parse_examples():
    ctx = GroupContext("P", "T", 3)
    w = parse_word("a1 b2^-1 C[1,3]", ctx)
    assert len(w) == 3 and w.letters[1] == sym_b(2, -1)
    assert parse_word("s2 s2^-1", GroupContext("B", "T", 3)) == IDENTITY
    with pytest.raises(AlphabetError, match=r"C\[3,1\]"):
        parse_word("C[3,1]", ctx)


def test_parse_errors():
    ctx = GroupContext("P", "T", 3)
    with pytest.raises(WordSyntaxError, match="token 1") as err:
        parse_word("a1 ??", ctx)
    assert err.value.position == 1
    with pytest.raises(AlphabetError, match="a4"):
        parse_word("a4", ctx)
    with pytest.raises(AlphabetError):
        parse_word("s1", ctx)  # half twists live in the full braid group
    with pytest.raises(AlphabetError):
        parse_word("x", ctx)  # bare model letters are not braid generators
    with pytest.raises(AlphabetError):
        parse_word("A[1,2]", GroupContext("P", "S2", 4))


def test_word_algebra():
    w = parse_word("a1 b2", GroupContext("P", "T", 2))
    assert (w * w.inverse()) == IDENTITY
    assert serialize_word(~w) == "b2^-1 a1^-1"
    assert (w ** 2).letters == (sym_a(1), sym_b(2), sym_a(1), sym_b(2))


def test_alpha_beta_examples():
    assert alpha_beta_word("beta", 3, 2, 4).letters == (sym_b(3), sym_b(2))
    assert alpha_beta_word("alpha", 2, 3, 4) == IDENTITY
    assert alpha_beta_word("alpha", 3, 1, 3).letters == (sym_a(3), sym_a(2), sym_a(1))


def test_alpha_beta_inverse_cancels():
    for j in range(1, 5):
        for i in range(1, 5):
            w = alpha_beta_word("beta", j, i, 4)
            assert w * w.inverse() == IDENTITY


def delta_word(n: int) -> Word:
    """The full twist spelled in Artin letters:
    A[1,2] (A[1,3] A[2,3]) ... (A[1,n] ... A[n-1,n])."""
    if n < 2:
        raise AlphabetError("the full twist needs n >= 2")
    return reduce(s for k in range(2, n + 1) for i in range(1, k) for s in aij_word(i, k, n))


def test_aij_delta_examples():
    assert serialize_word(aij_word(1, 2, 2)) == "s1 s1"
    assert serialize_word(aij_word(1, 3, 3)) == "s2 s1 s1 s2^-1"
    assert serialize_word(delta_word(2)) == "s1 s1"


def test_aij_abelianizes_to_two_half_twists():
    for n in range(2, 7):
        ctx = GroupContext("B", "D", n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                image = abelianize(ctx, aij_word(i, j, n))
                assert image.free == (2,)


def test_delta_abelianizes_to_full_degree():
    for n in range(2, 6):
        image = abelianize(GroupContext("B", "D", n), delta_word(n))
        assert image.free == (n * (n - 1),)


def test_index_validation():
    with pytest.raises(AlphabetError):
        sym_C(2, 2)
    with pytest.raises(AlphabetError):
        alpha_beta_word("alpha", 5, 1, 4)
    with pytest.raises(AlphabetError):
        aij_word(2, 2, 4)


@pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", None])
def test_group_context_needs_an_integer_n(n):
    # GroupContext("P", "T", True) once printed as P_True(T)
    with pytest.raises(DomainError, match=f"n must be an integer, got {n!r}"):
        GroupContext("P", "T", n)
