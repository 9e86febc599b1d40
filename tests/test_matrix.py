import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matdecide.automata import build_membership_automaton
from matdecide.matrix import IntMatrix, _det
from matdecide.sanov import build_coset_table
from matdecide.words import FreeWord

from conftest import GL2_POOL, I2, naive_mul, perm_det

matrices_2x2 = st.builds(
    IntMatrix,
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), min_size=2, max_size=2),
)
matrices_3x3 = st.builds(
    IntMatrix,
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3),
)


def test_identity_law():
    m = IntMatrix([[3, 1], [5, 2]])
    assert I2 * m == m
    assert m * I2 == m


def test_product_examples():
    assert IntMatrix([[1, 2], [0, 1]]) * IntMatrix([[1, 0], [2, 1]]) == IntMatrix([[5, 2], [2, 1]])
    a = IntMatrix([[1, 2], [0, 1]])
    assert a * a == IntMatrix([[1, 4], [0, 1]])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        I2 * IntMatrix.identity(3)


def test_determinant_examples():
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix([[1, 2], [0, 1]]).det() == 1
    assert IntMatrix([[2, 0], [0, 1]]).det() == 2
    assert IntMatrix([[1]]).det() == 1


def test_is_unimodular():
    assert IntMatrix([[1, 2], [0, 1]]).is_unimodular()
    assert not IntMatrix([[1, 0], [0, 0]]).is_unimodular()
    assert IntMatrix([[3, 1], [5, 2]]).is_unimodular()  # det = 3*2 - 1*5 = 1


def test_inverse_examples():
    assert I2.inverse_unimodular() == I2
    inv = IntMatrix([[1, 2], [0, 1]]).inverse_unimodular()
    assert inv == IntMatrix([[1, -2], [0, 1]])
    assert IntMatrix([[1, 2], [0, 1]]) * inv == I2
    with pytest.raises(ValueError, match="not invertible over the integers"):
        IntMatrix([[2, 0], [0, 1]]).inverse_unimodular()


def test_identity_builder():
    assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
    assert IntMatrix.identity(1) == IntMatrix([[1]])
    assert IntMatrix.identity(4).entries == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    with pytest.raises(ValueError):
        IntMatrix.identity(0)


def test_immutability_and_hashing():
    m = IntMatrix([[1, 2], [0, 1]])
    with pytest.raises(AttributeError):
        m.n = 3
    assert len({m, IntMatrix([[1, 2], [0, 1]]), I2}) == 2


def test_rejects_non_square():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])


@given(matrices_2x2, matrices_2x2, matrices_2x2)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(matrices_2x2, matrices_2x2)
def test_product_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


@given(matrices_3x3)
def test_determinant_matches_permutation_expansion(m):
    assert m.det() == perm_det(m)


@given(matrices_2x2, matrices_2x2)
def test_determinant_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@settings(max_examples=50)
@given(st.lists(st.integers(0, len(GL2_POOL) - 1), min_size=0, max_size=8))
def test_inverse_roundtrip_on_unimodular_products(picks):
    m = I2
    for i in picks:
        m = m * GL2_POOL[i]
    assert m * m.inverse_unimodular() == IntMatrix.identity(2)
    assert m.inverse_unimodular() * m == IntMatrix.identity(2)


def test_long_products_stay_exact():
    # entries blow far past any fixed-width integer type; the product must
    # agree with an independently computed one at full precision
    rng = random.Random(2)
    factors = [
        IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        for _ in range(50)
    ]
    fast = IntMatrix.identity(2)
    slow = IntMatrix.identity(2)
    for f in factors:
        fast = fast * f
        slow = naive_mul(slow, f)
    assert fast == slow
    assert fast.max_abs_entry() > 2**63


def test_inverse_of_4x4_unimodular():
    m = IntMatrix(
        [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
    )
    assert m.det() == 1
    assert m * m.inverse_unimodular() == IntMatrix.identity(4)


def _assert_like_validated(m: IntMatrix) -> None:
    """m, built by arithmetic, cannot be told apart from the same entries
    passed through the validating constructor."""
    fresh = IntMatrix(m.entries)
    assert m == fresh and fresh == m
    assert hash(m) == hash(fresh)
    assert m.n == fresh.n == len(m.entries)
    assert type(m.entries) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in m.entries)
    assert {fresh: "v"}[m] == "v"
    assert {m: "v"}[fresh] == "v"


def _random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """Random row operations, sign flips and a row shuffle applied to I."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
    rng.shuffle(rows)
    return IntMatrix(rows)


def _zero_pivot_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """P * U with U upper unitriangular and P the cyclic row shift: the
    leading entry is 0 for n >= 2, so elimination must swap rows."""
    upper = [[0] * i + [1] + [rng.randint(-4, 4) for _ in range(n - i - 1)] for i in range(n)]
    return IntMatrix(upper[1:] + upper[:1])


@pytest.mark.parametrize("n", range(1, 6))
def test_computed_matrices_match_validated_ones(n):
    rng = random.Random(1000 + n)
    ident = IntMatrix.identity(n)
    _assert_like_validated(ident)
    assert ident == IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    for _ in range(15):
        a, b = _random_unimodular(rng, n), _zero_pivot_unimodular(rng, n)
        if n >= 2:
            assert b[0, 0] == 0
        for m in (a, b):
            inv = m.inverse_unimodular()
            _assert_like_validated(inv)
            assert m * inv == ident
            assert inv * m == ident
            assert m.det() == perm_det(m) in (1, -1)
        for prod in (a * b, b * a, a * a):
            _assert_like_validated(prod)
            assert prod.det() == perm_det(prod)
        assert a * b == naive_mul(a, b)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows[0][0] = 0
        m = IntMatrix(rows)
        assert m.det() == perm_det(m)


@pytest.mark.parametrize("kind", ["matrix", "word", "automaton", "coset_table"])
def test_values_survive_pickle_and_copy(kind):
    value = {
        "matrix": lambda: IntMatrix([[3, 1], [5, 2]]),
        "word": lambda: FreeWord([1, -2, 1], 2),
        "automaton": lambda: build_membership_automaton(I2, [IntMatrix([[1, 2], [0, 1]])]),
        "coset_table": build_coset_table,
    }[kind]()
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        other = clone(value)
        assert type(other) is type(value) and other == value
        if type(value).__hash__ is not None:
            assert hash(other) == hash(value)
        if kind == "coset_table":
            # derived in __post_init__, so rebuilt rather than shared
            assert other.residues is not value.residues
            assert dict(other.residues) == dict(value.residues)
            assert other.rep_invs == value.rep_invs


# The 2x2 closed forms against the general n x n code. Entries mix 0, +-1,
# small values and values up to 10**40; the three matrix families give
# determinant 0, determinant +-1 and (mostly) any other determinant.
entries = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9),
                    st.integers(-10**40, 10**40))
_any_2x2 = st.builds(lambda a, b, c, d: IntMatrix([[a, b], [c, d]]),
                     entries, entries, entries, entries)
_singular_2x2 = st.builds(lambda a, b, k, l: IntMatrix([[k * a, k * b], [l * a, l * b]]),
                          entries, entries, entries, entries)


def _elementary_product(steps) -> IntMatrix:
    """Product of upper and lower shears by p and of J, in plain tuples."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for kind, p in steps:
        if kind == 0:  # right-multiply by [[1, p], [0, 1]]
            b, d = b + a * p, d + c * p
        elif kind == 1:  # by [[1, 0], [p, 1]]
            a, c = a + b * p, c + d * p
        else:  # by [[1, 0], [0, -1]]
            b, d = -b, -d
    return IntMatrix([[a, b], [c, d]])


_unimodular_2x2 = st.builds(
    _elementary_product, st.lists(st.tuples(st.integers(0, 2), entries), max_size=6))
any_det_2x2 = st.one_of(_any_2x2, _singular_2x2, _unimodular_2x2)


def _adjugate_inverse(m: IntMatrix) -> IntMatrix:
    """The general path's inverse: cofactor minors from _det, times det."""
    d, e, n = _det(m.entries), m.entries, m.n
    minor = lambda i, j: _det([r[:j] + r[j + 1:] for k, r in enumerate(e) if k != i])  # noqa: E731
    return IntMatrix([[(-1) ** (i + j) * minor(j, i) * d for j in range(n)] for i in range(n)])


def _identity_by_loop(m: IntMatrix) -> bool:
    return all(m.entries[i][j] == (1 if i == j else 0) for i in range(m.n) for j in range(m.n))


@given(any_det_2x2, any_det_2x2)
def test_closed_form_product_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


@given(any_det_2x2)
def test_closed_form_determinant_matches_bareiss_and_permutations(m):
    assert m.det() == _det(m.entries) == perm_det(m)
    assert m.is_unimodular() == (perm_det(m) in (1, -1))


@given(_unimodular_2x2)
def test_closed_form_inverse_matches_adjugate(m):
    assert m.is_unimodular()
    inv = m.inverse_unimodular()
    assert inv == _adjugate_inverse(m)
    assert m * inv == inv * m == I2


@given(st.one_of(_any_2x2, _singular_2x2))
def test_closed_form_inverse_rejects_other_determinants(m):
    if perm_det(m) in (1, -1):
        return
    with pytest.raises(ValueError) as info:
        m.inverse_unimodular()
    assert str(info.value) == "not invertible over the integers"


@given(st.integers(1, 3).flatmap(lambda n: st.one_of(
    st.just(IntMatrix.identity(n)),
    st.lists(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=n, max_size=n),
             min_size=n, max_size=n).map(IntMatrix))))
def test_is_identity_matches_the_entrywise_loop(m):
    assert m.is_identity() == _identity_by_loop(m)


def test_other_dimensions_keep_the_general_path():
    big = 10**40
    one = IntMatrix([[-1]])
    assert one.det() == -1 and one.inverse_unimodular() == one and one.is_unimodular()
    assert IntMatrix([[big]]) * IntMatrix([[3]]) == IntMatrix([[3 * big]])
    with pytest.raises(ValueError, match="^not invertible over the integers$"):
        IntMatrix([[2]]).inverse_unimodular()
    m = IntMatrix([[1, big, 0], [0, 1, 0], [-3, 0, 1]])
    inv = m.inverse_unimodular()
    assert m.det() == perm_det(m) == 1
    assert inv == _adjugate_inverse(m)
    assert m * inv == naive_mul(m, inv) == IntMatrix.identity(3)
    singular = IntMatrix([[1, 2, 3], [2, 4, 6], [0, 0, big]])
    assert singular.det() == perm_det(singular) == 0 and not singular.is_unimodular()
    with pytest.raises(ValueError, match="^not invertible over the integers$"):
        singular.inverse_unimodular()
    assert IntMatrix.identity(3).is_identity() and not m.is_identity()
