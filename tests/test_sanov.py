import random
from collections import Counter

import pytest

from matdecide.matrix import IntMatrix
from matdecide.sanov import (
    GEN_A,
    GEN_B,
    build_coset_table,
    default_coset_table,
    eval_word,
    factor_in_sanov,
    schreier_rewrite,
)
from matdecide.words import FreeWord

from conftest import A, I2, J, S, T, random_reduced_word, random_unimodular


def w(text):
    return FreeWord.from_text(text, 2)


def test_generators_satisfy_invariants():
    for g in (GEN_A, GEN_B):
        assert g.det() == 1
        assert all(
            g.entries[i][j] % 2 == (1 if i == j else 0) for i in range(2) for j in range(2)
        )


def test_eval_word_examples():
    assert eval_word(FreeWord.identity(2)) == I2
    assert eval_word(w("a")) == IntMatrix([[1, 2], [0, 1]])
    assert eval_word(w("a b")) == IntMatrix([[5, 2], [2, 1]])
    assert eval_word(w("a'")) == A.inverse_unimodular()


def test_eval_word_rejects_wrong_rank():
    with pytest.raises(ValueError):
        eval_word(FreeWord([1], 3))


def test_factor_examples():
    assert factor_in_sanov(I2) == FreeWord.identity(2)
    assert factor_in_sanov(IntMatrix([[5, 2], [2, 1]])) == w("a b")
    assert factor_in_sanov(IntMatrix([[-1, 0], [0, -1]])) is None
    assert factor_in_sanov(IntMatrix([[1, 1], [0, 1]])) is None  # wrong parity
    assert factor_in_sanov(IntMatrix([[2, 0], [0, 1]])) is None  # det 2
    assert factor_in_sanov(J) is None  # det -1


def test_factor_rejects_non_2x2():
    with pytest.raises(ValueError):
        factor_in_sanov(IntMatrix.identity(3))


def test_factor_roundtrip_short_words(rng):
    for _ in range(300):
        word = random_reduced_word(rng, 12)
        assert factor_in_sanov(eval_word(word)) == word


def _assert_like_validated(word: FreeWord) -> None:
    """word, built without FreeWord's checks, equals the validated word."""
    fresh = FreeWord(word.letters, 2)
    assert fresh == word and hash(fresh) == hash(word)
    assert type(word.letters) is tuple and word.rank == 2


def test_factor_builds_valid_words_on_seeded_products():
    # Letter sequences are not reduced, so the factorization must also undo
    # the cancellations; the reduced form of the sequence is the one answer.
    rng = random.Random(9)
    table = {1: GEN_A, -1: GEN_A.inverse_unimodular(), 2: GEN_B, -2: GEN_B.inverse_unimodular()}
    for _ in range(2000):
        seq = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 30))]
        m = I2
        for x in seq:
            m = m * table[x]
        word = factor_in_sanov(m)
        _assert_like_validated(word)
        assert word == FreeWord(seq, 2)
        assert eval_word(word) == m


def test_rewrite_builds_valid_words_for_long_shears():
    table = default_coset_table()
    for k in range(1, 301):
        g = IntMatrix([[1, k], [0, 1]])
        for c in range(table.size):
            _assert_like_validated(schreier_rewrite(table, c, g)[1])


def test_factor_rejects_cosets_of_minus_identity(rng):
    minus = IntMatrix([[-1, 0], [0, -1]])
    for _ in range(50):
        m = eval_word(random_reduced_word(rng, 6)) * minus
        assert factor_in_sanov(m) is None


def test_coset_table_closes_at_24():
    table = build_coset_table()
    assert table.size == 24
    assert table.reps[0] == I2


def test_coset_reps_pairwise_distinct():
    table = default_coset_table()
    for i, ri in enumerate(table.reps):
        for j, rj in enumerate(table.reps):
            same = factor_in_sanov(ri * rj.inverse_unimodular()) is not None
            assert same == (i == j)


def test_generator_action_permutes_cosets():
    table = default_coset_table()
    for g in (S, T, J):
        images = [schreier_rewrite(table, c, g)[0] for c in range(table.size)]
        assert sorted(images) == list(range(table.size))


def test_schreier_examples():
    table = default_coset_table()
    assert schreier_rewrite(table, 0, I2) == (0, FreeWord.identity(2))
    assert schreier_rewrite(table, 0, GEN_A) == (0, w("a"))
    c2, word = schreier_rewrite(table, 0, T)
    assert c2 != 0
    assert word.is_identity()
    assert T == eval_word(word) * table.reps[c2]


def test_schreier_rejects_non_unimodular():
    table = default_coset_table()
    with pytest.raises(ValueError):
        schreier_rewrite(table, 0, IntMatrix([[2, 0], [0, 1]]))


def test_schreier_defining_equation(rng):
    table = default_coset_table()
    for _ in range(60):
        g = random_unimodular(rng, 5)
        for c in range(table.size):
            c2, word = schreier_rewrite(table, c, g)
            assert table.reps[c] * g == eval_word(word) * table.reps[c2]


def test_schreier_cocycle_property(rng):
    # chasing g then h lands where chasing g*h does, with the words composing
    table = default_coset_table()
    for _ in range(40):
        g = random_unimodular(rng, 4)
        h = random_unimodular(rng, 4)
        c = rng.randrange(table.size)
        c1, w1 = schreier_rewrite(table, c, g)
        c2, w2 = schreier_rewrite(table, c1, h)
        c_direct, w_direct = schreier_rewrite(table, c, g * h)
        assert c_direct == c2
        assert w_direct == w1 * w2


def test_coset_index_identifies_membership(rng):
    table = default_coset_table()
    for _ in range(30):
        m = eval_word(random_reduced_word(rng, 5))
        assert schreier_rewrite(table, 0, m)[0] == 0
    assert schreier_rewrite(table, 0, T)[0] != 0


def test_coset_index_matches_factorization_scan(rng):
    # Reference: the coset is the unique c with m * reps[c]^-1 in the subgroup.
    table = default_coset_table()
    dets = set()
    for _ in range(300):
        m = random_unimodular(rng, 10)
        dets.add(m.det())
        hits = [
            c for c in range(table.size)
            if factor_in_sanov(m * table.rep_invs[c]) is not None
        ]
        assert hits == [schreier_rewrite(table, 0, m)[0]]
    assert dets == {1, -1}
    assert len(table.residues) == 96
    assert Counter(table.residues.values()) == {c: 4 for c in range(table.size)}
