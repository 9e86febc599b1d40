import random

import pytest

from matdecide.matrix import IntMatrix
from matdecide.oracle import enumerate_products, group_word_search

from conftest import A, A_INV, B, B_INV, I2, J, S, T, naive_mul

NEG_I = IntMatrix([[-1, 0], [0, -1]])


def reference_group_word_search(y, gens, max_len):
    """Breadth-first group word search: the first product equal to y in
    enumerate_products over [g1, g1^-1, g2, g2^-1, ...]."""
    if y == IntMatrix.identity(y.n):
        return ()
    symbols = [m for g in gens for m in (g, g.inverse_unimodular())]
    for prod, seq in enumerate_products(symbols, max_len):
        if prod == y:
            return tuple((j + 1) // 2 if j % 2 else -(j // 2) for j in seq)
    return None


def test_enumerate_single_generator():
    got = list(enumerate_products([A], 3))
    assert [m for m, _ in got] == [A, A * A, A * A * A]
    assert [seq for _, seq in got] == [(1,), (1, 1), (1, 1, 1)]


def test_enumerate_two_generators_length_one():
    got = list(enumerate_products([A, B], 1))
    assert got == [(A, (1,)), (B, (2,))]


def test_enumerate_reaches_identity():
    products = {m for m, _ in enumerate_products([A, A_INV], 2)}
    assert I2 in products


def test_enumerate_witnesses_remultiply():
    for m, seq in enumerate_products([A, B, A_INV], 4):
        check = I2
        for i in seq:
            check = naive_mul(check, [A, B, A_INV][i - 1])
        assert check == m


def test_enumerate_deduplicates_deterministically():
    first = list(enumerate_products([A, A_INV, A], 3))
    second = list(enumerate_products([A, A_INV, A], 3))
    assert first == second
    seen = [m for m, _ in first]
    assert len(seen) == len(set(seen))


def test_enumerate_validation():
    with pytest.raises(ValueError):
        list(enumerate_products([], 2))
    with pytest.raises(ValueError):
        list(enumerate_products([A, IntMatrix.identity(3)], 2))


def test_group_search_identity_is_empty_word():
    assert group_word_search(I2, [A], 3) == ()


def test_group_search_finds_conjugate():
    y = A * B * A_INV
    witness = group_word_search(y, [A, B], 3)
    assert witness == (1, 2, -1)


def test_group_search_respects_bound():
    assert group_word_search(B, [A], 8) is None


def test_group_search_requires_unimodular():
    with pytest.raises(ValueError):
        group_word_search(I2, [IntMatrix([[2, 0], [0, 1]])], 2)


def test_group_search_witness_remultiplies():
    gens = [A, B]
    y = B * A_INV * B
    witness = group_word_search(y, gens, 4)
    assert witness is not None
    check = I2
    for sym in witness:
        g = gens[abs(sym) - 1]
        check = check * (g if sym > 0 else g.inverse_unimodular())
    assert check == y


def test_group_search_matches_breadth_first_reference():
    """Same witness as breadth-first search: shortest, then least in the
    symbol order. Pools mix torsion (S, J, -I), the parabolic T and the free
    Sanov generators. Most targets are planted words of up to 10 symbols, so
    some need more than the depth; the rest come from a fixed list and need
    not lie in the generated group at all."""
    rng = random.Random(5)
    pool = [S, T, J, NEG_I, A, B, A_INV, B_INV, S * T, A * B]
    outside = [T, S, J, NEG_I, B * T]
    answers = {"found": 0, "none": 0}
    for _ in range(480):
        gens = rng.sample(pool, rng.randint(1, 3))
        depth = rng.randint(0, 8)
        if rng.random() < 0.1:
            y = rng.choice(outside)
        else:
            y = I2
            for _ in range(rng.randint(0, 10)):
                g = rng.choice(gens)
                y = y * (g if rng.random() < 0.5 else g.inverse_unimodular())
        witness = group_word_search(y, gens, depth)
        assert witness == reference_group_word_search(y, gens, depth), (gens, y, depth)
        if witness is None:
            answers["none"] += 1
            continue
        answers["found"] += 1
        check = I2
        for sym in witness:
            g = gens[abs(sym) - 1]
            check = naive_mul(check, g if sym > 0 else g.inverse_unimodular())
        assert check == y
    assert answers["none"] >= 100 and answers["found"] >= 300, answers
