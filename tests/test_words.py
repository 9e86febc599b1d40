import pytest
from hypothesis import given
from hypothesis import strategies as st

from matdecide.words import FreeWord

letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20)
words = st.builds(lambda ls: FreeWord(ls, 2), letters)


def w(text: str) -> FreeWord:
    return FreeWord.from_text(text, 2)


def test_concat_examples():
    assert w("a b'") * w("b a'") == FreeWord.identity(2)
    assert w("a") * w("b") == w("a b")
    # the right operand reduces to "b" on construction
    assert w("a b") * FreeWord([-2, 2], 2) == w("a b")


def test_invert_examples():
    assert FreeWord.identity(2).inverse() == FreeWord.identity(2)
    assert w("a b").inverse() == w("b' a'")
    assert w("a a b'").inverse() == w("b a' a'")


def test_is_identity():
    assert FreeWord.identity(2).is_identity()
    assert not w("a").is_identity()
    assert w("a b").concat(w("b' a'")).is_identity()


def test_construction_reduces_eagerly():
    assert FreeWord([1, -1, 2], 2) == w("b")
    assert FreeWord([1, 2, -2, -1], 2).is_identity()


def test_letter_validation():
    with pytest.raises(ValueError):
        FreeWord([3], 2)
    with pytest.raises(ValueError):
        FreeWord([0], 2)
    with pytest.raises(ValueError):
        FreeWord([], 0)


def test_rank_mismatch():
    with pytest.raises(ValueError):
        FreeWord([1], 2) * FreeWord([1], 3)


def test_text_roundtrip():
    for text in ("a b' a", "a", "b'", "ε"):
        assert w(text).to_text() == text
    assert FreeWord.from_text("a^-1 b", 2) == w("a' b")
    assert FreeWord.from_text("", 2).is_identity()
    with pytest.raises(ValueError):
        FreeWord.from_text("q", 2)
    with pytest.raises(ValueError):
        FreeWord.from_text("c", 2)


def _is_reduced(word: FreeWord) -> bool:
    return all(word.letters[i] != -word.letters[i + 1] for i in range(len(word) - 1))


@given(words, words)
def test_concat_output_reduced(u, v):
    assert _is_reduced(u * v)
    assert len(u * v) <= len(u) + len(v)


@given(words, words, words)
def test_concat_associative(u, v, x):
    assert (u * v) * x == u * (v * x)


@given(words)
def test_inverse_cancels(u):
    assert len(u * u.inverse()) == 0
    assert len(u.inverse() * u) == 0


@given(words)
def test_inverse_involution(u):
    assert u.inverse().inverse() == u


def test_immutability_and_hashing():
    u = w("a b")
    with pytest.raises(AttributeError):
        u.letters = ()
    assert len({u, w("a b"), w("b a")}) == 2


@st.composite
def word_pairs(draw):
    rank = draw(st.integers(1, 3))
    alphabet = [x for i in range(1, rank + 1) for x in (i, -i)]
    u, v = (FreeWord(draw(st.lists(st.sampled_from(alphabet), max_size=20)), rank)
            for _ in range(2))
    return u, v


@given(word_pairs())
def test_computed_words_match_validated_ones(pair):
    u, v = pair
    for result in (u.concat(v), u * v, u.inverse(), v.inverse()):
        fresh = FreeWord(result.letters, result.rank)
        assert result == fresh and fresh == result
        assert hash(result) == hash(fresh)
        assert type(result.letters) is tuple
        assert all(type(x) is int for x in result.letters)
        assert {fresh: "v"}[result] == "v"
        assert {result: "v"}[fresh] == "v"
