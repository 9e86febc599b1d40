import random
import time

import pytest

from matdecide.deciders import identity_in_semigroup_bounded, membership_bounded
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


def test_enumerate_stops_at_the_first_empty_layer():
    # [[1]] gives one product; every later layer is empty, so a bound of
    # 10**8 must not cost 10**8 turns of the loop
    one = IntMatrix([[1]])
    start = time.process_time()
    assert list(enumerate_products([one], 10**8)) == [(one, (1,))]
    assert membership_bounded(IntMatrix([[2]]), [one], 10**8) is None
    assert time.process_time() - start < 1.0


def test_group_search_identity_is_empty_word():
    assert group_word_search(I2, [A], 3) == ()
    # length 0 is searched like any other: the empty word matches I only
    assert group_word_search(I2, [A], 0) == ()
    assert group_word_search(A, [A], 0) is None
    singular = [IntMatrix([[2, 0], [0, 1]]), IntMatrix([[0, 0], [1, 3]])]
    assert group_word_search(I2, singular, 4) == ()


def test_group_search_finds_conjugate():
    y = A * B * A_INV
    witness = group_word_search(y, [A, B], 3)
    assert witness == (1, 2, -1)


def test_group_search_respects_bound():
    assert group_word_search(B, [A], 8) is None


def test_group_search_skips_singular_generators():
    d = IntMatrix([[2, 0], [0, 1]])
    assert group_word_search(A, [d, A], 3) == (2,)
    assert group_word_search(A_INV * B, [d, A, d, B], 3) == (-2, 4)
    assert group_word_search(I2, [d], 2) == ()
    assert group_word_search(A, [d], 3) is None
    assert group_word_search(d, [d, A], 3) is None


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


def test_group_search_stops_once_the_layers_repeat(product_budget):
    """In a finite group the products of exactly t symbols repeat with period
    2 from some length on, and then no longer word can match: the search
    answers at once, whatever the bound, with the breadth-first witness."""
    finite = [[S], [J], [NEG_I], [S, J], [NEG_I, J], [J, S * J], [S, S * S]]
    targets = [I2, S, S * S, J, S * J, NEG_I, T, A]
    for gens in finite:
        for y in targets:
            for depth in (0, 3, 7, 40):
                witness = group_word_search(y, gens, depth)
                assert witness == reference_group_word_search(y, gens, depth), (gens, y)
    # S has order 4, so words over S and S^-1 give I, S, S^2 and S^3 only
    product_budget[0] = 100
    assert group_word_search(J, [S], 10**6) is None


def unimodular_witness(gens, search):
    """Reference for how the searches treat singular generators: run search
    on the unimodular generators only, then map its signed letters back to
    positions in gens."""
    positions = [i for i, g in enumerate(gens, start=1) if g.is_unimodular()]
    found = search([gens[i - 1] for i in positions]) if positions else None
    if found is None:
        return None
    return tuple(positions[abs(s) - 1] * (1 if s > 0 else -1) for s in found)


def _shear3(i, j, k):
    rows = [[int(r == c) for c in range(3)] for r in range(3)]
    rows[i][j] = k
    return IntMatrix(rows)


POOL2 = [A, B, S, T, J, NEG_I, A * B, S * T]
POOL3 = [_shear3(0, 1, 1), _shear3(1, 2, -1), _shear3(2, 0, 2),
         IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]


def _random_singular(rng, n):
    while True:
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if not m.is_unimodular():
            return m


def _random_product(rng, gens, length, inverses):
    y = IntMatrix.identity(gens[0].n)
    for _ in range(length):
        g = rng.choice(gens)
        if inverses and rng.random() < 0.5:
            g = g.inverse_unimodular()
        y = y * g
    return y


def test_searches_skip_singular_generators_and_keep_input_positions():
    """Each search over a list with singular generators returns exactly the
    witness of the same search over the unimodular generators alone,
    renumbered to input positions; a singular target is searched over every
    generator. Lists are 2x2 and 3x3, some of them all singular."""
    rng = random.Random(18)
    found = {"group": 0, "product": 0, "identity": 0, "singular target": 0, "renumbered": 0}
    lists = 0
    for n, pool in ((2, POOL2), (3, POOL3)) * 350:
        if rng.random() < 0.1:
            unimodular = []
        else:
            unimodular = rng.sample(pool, rng.randint(1, 3))
        gens = list(unimodular)
        for _ in range(rng.randint(1, 3)):
            gens.insert(rng.randint(0, len(gens)), _random_singular(rng, n))
        lists += 1
        depth = rng.randint(0, 4)
        kind = rng.random()
        if unimodular and kind < 0.6:
            y = _random_product(rng, unimodular, rng.randint(0, 4), rng.random() < 0.5)
        elif kind < 0.85:  # a product with singular factors, so usually singular
            y = _random_product(rng, gens, rng.randint(1, 3), False)
        else:
            y = rng.choice([IntMatrix.identity(n), pool[0], _random_singular(rng, n)])

        expected = () if y.is_identity() else unimodular_witness(
            gens, lambda us: group_word_search(y, us, depth))
        got = group_word_search(y, gens, depth)
        assert got == expected, (gens, y, depth)
        found["group"] += got is not None

        if y.is_unimodular():
            expected = unimodular_witness(gens, lambda us: membership_bounded(y, us, depth))
        else:
            expected = next((seq for prod, seq in enumerate_products(gens, depth)
                             if prod == y), None)
            found["singular target"] += expected is not None
        got = membership_bounded(y, gens, depth)
        assert got == expected, (gens, y, depth)
        found["product"] += got is not None

        expected = unimodular_witness(gens, lambda us: identity_in_semigroup_bounded(us, depth))
        got = identity_in_semigroup_bounded(gens, depth)
        assert got == expected, (gens, depth)
        found["identity"] += got is not None
        found["renumbered"] += got is not None and got != unimodular_witness(
            unimodular, lambda us: identity_in_semigroup_bounded(us, depth))
    assert lists >= 600
    assert min(found.values()) >= 20, found
