import pytest

from matdecide.automata import (
    build_identity_automaton,
    build_identity_universe_automaton,
    build_membership_automaton,
    build_membership_universe_automaton,
)
from matdecide.deciders import (
    decide_identity_in_semigroup,
    decide_subgroup_membership,
    identity_in_semigroup_bounded,
    membership_bounded,
)
from matdecide.matrix import IntMatrix
from matdecide.oracle import enumerate_products, group_word_search
from matdecide.sanov import eval_word

from conftest import A, A_INV, B, I2, J, S, T, random_reduced_word, random_unimodular


def test_membership_examples():
    assert decide_subgroup_membership(I2, [A]).answer
    assert decide_subgroup_membership(IntMatrix([[5, 2], [2, 1]]), [A, B]).answer
    assert not decide_subgroup_membership(A, [B]).answer
    assert not decide_subgroup_membership(IntMatrix([[2, 0], [0, 1]]), [A, B]).answer


def test_membership_uses_inverses():
    # A * B^-1 is in the group generated by {A, B} but is no positive product
    assert decide_subgroup_membership(A * B.inverse_unimodular(), [A, B]).answer


def test_repeated_generators_give_the_same_membership_machine(rng):
    # the machine keeps the first copy of a repeated edge, so the symmetrized
    # list needs no deduplication; J, -I and S^2 are their own inverses
    pool = [A, A_INV, B, S, T, J, S * S, S * T]
    repeated = 0
    for _ in range(500):
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        sym = gens + [g.inverse_unimodular() for g in gens]
        y = random_unimodular(rng)
        repeated += len(set(sym)) < len(sym)
        unique = list(dict.fromkeys(sym))
        assert build_membership_automaton(y, sym) == build_membership_automaton(y, unique)
    assert repeated > 250


def test_membership_determinant_gate_reason():
    decision = decide_subgroup_membership(IntMatrix([[2, 0], [0, 1]]), [A, B])
    assert not decision.answer
    assert "determinant" in decision.reason


def test_membership_with_no_usable_generators():
    doubler = IntMatrix([[2, 0], [0, 2]])
    assert decide_subgroup_membership(I2, [doubler]).answer
    assert not decide_subgroup_membership(A, [doubler]).answer


def test_membership_dimension_errors():
    with pytest.raises(ValueError):
        decide_subgroup_membership(IntMatrix.identity(3), [IntMatrix.identity(3)])
    with pytest.raises(ValueError):
        decide_subgroup_membership(I2, [IntMatrix.identity(3)])


def test_identity_examples():
    assert decide_identity_in_semigroup([A, A_INV]).answer
    assert not decide_identity_in_semigroup([A]).answer
    assert decide_identity_in_semigroup([S]).answer  # S has order 4


def test_identity_errors():
    with pytest.raises(ValueError):
        decide_identity_in_semigroup([])
    with pytest.raises(ValueError):
        decide_identity_in_semigroup([IntMatrix.identity(4)])


def test_identity_prunes_non_unimodular():
    doubler = IntMatrix([[2, 0], [0, 2]])
    assert not decide_identity_in_semigroup([doubler]).answer
    assert decide_identity_in_semigroup([doubler, S]).answer


def test_checked_mode_agrees():
    assert decide_subgroup_membership(A * B, [A, B], checked=True).answer
    assert not decide_subgroup_membership(A, [B], checked=True).answer
    assert decide_identity_in_semigroup([S], checked=True).answer


def test_bounded_identity_examples():
    assert identity_in_semigroup_bounded([A, A_INV], 2) == (1, 2)
    assert identity_in_semigroup_bounded([A], 10) is None
    block = IntMatrix(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    assert identity_in_semigroup_bounded([block], 4) == (1, 1, 1, 1)


def test_bounded_membership_examples():
    assert membership_bounded(A * A, [A], 3) == (1, 1)
    assert membership_bounded(IntMatrix([[5, 2], [2, 1]]), [A, B], 3) == (1, 2)
    assert membership_bounded(B, [A], 6) is None


def test_bounded_membership_ties_break_lexicographically():
    # both generators equal the identity; the first index must win
    assert membership_bounded(I2, [I2, I2], 3) == (1,)


def test_bounded_membership_validation():
    with pytest.raises(ValueError):
        membership_bounded(I2, [], 3)
    with pytest.raises(ValueError):
        membership_bounded(I2, [IntMatrix.identity(3)], 3)


def test_planted_witnesses_accepted(rng):
    for _ in range(40):
        gens = [random_unimodular(rng, 3) for _ in range(rng.randint(1, 4))]
        y = I2
        for _ in range(rng.randint(0, 5)):
            g = rng.choice(gens)
            y = y * (g if rng.random() < 0.5 else g.inverse_unimodular())
        assert decide_subgroup_membership(y, gens).answer


def test_oracle_positive_implies_decider_positive(rng):
    checked = 0
    for _ in range(30):
        gens = [eval_word(random_reduced_word(rng, 4)) for _ in range(2)]
        gens.append(random_unimodular(rng, 3))
        y = random_unimodular(rng, 4)
        witness = group_word_search(y, gens, 4)
        if witness is not None:
            assert decide_subgroup_membership(y, gens).answer
            checked += 1
    assert checked > 10


def test_conjugation_invariance(rng):
    for _ in range(10):
        gens = [random_unimodular(rng, 3) for _ in range(2)]
        y = random_unimodular(rng, 4)
        p = random_unimodular(rng, 4)
        p_inv = p.inverse_unimodular()
        left = decide_subgroup_membership(y, gens).answer
        conjugated = [p * g * p_inv for g in gens]
        right = decide_subgroup_membership(p * y * p_inv, conjugated).answer
        assert left == right


def test_identity_decider_matches_bounded_search(rng):
    hits = 0
    for _ in range(30):
        gens = [random_unimodular(rng, 3) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            gens.append(rng.choice(gens).inverse_unimodular())
        witness = identity_in_semigroup_bounded(gens, 8)
        if witness is not None:
            assert decide_identity_in_semigroup(gens).answer
            hits += 1
        elif not decide_identity_in_semigroup(gens).answer:
            # decider says no: the bounded search must indeed have found nothing
            assert witness is None
    assert hits > 5


def test_determinant_gate_on_random_targets(rng):
    for _ in range(20):
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        if not m.is_unimodular():
            assert not decide_subgroup_membership(m, [A, B, S]).answer


I3 = IntMatrix.identity(3)
TWO_BY_TWO_ONLY = "the exact decision procedure requires 2x2 matrices, got 3x3"


@pytest.mark.parametrize(
    "call, mixed_message",
    [
        (lambda gens: build_membership_automaton(A, gens), None),
        (build_identity_automaton, None),
        (lambda gens: build_membership_universe_automaton(A, gens), None),
        (build_identity_universe_automaton, None),
        (lambda gens: membership_bounded(A, gens, 2), None),
        (lambda gens: identity_in_semigroup_bounded(gens, 2), None),
        (lambda gens: list(enumerate_products(gens, 2)), None),
        (lambda gens: group_word_search(A, gens, 2), None),
        (decide_identity_in_semigroup, TWO_BY_TWO_ONLY),
    ],
    ids=[
        "membership_automaton", "identity_automaton", "membership_universe",
        "identity_universe", "membership_bounded", "identity_bounded",
        "enumerate_products", "group_word_search", "decide_identity",
    ],
)
def test_generator_list_messages(call, mixed_message):
    with pytest.raises(ValueError) as empty:
        call([])
    assert str(empty.value) == "generator list must be nonempty"
    with pytest.raises(ValueError) as mixed:
        call([A, I3])
    assert str(mixed.value) == (mixed_message or "matrices of mixed dimensions: [2, 3]")


def test_membership_accepts_the_empty_generator_list():
    assert decide_subgroup_membership(I2, []).answer
    assert not decide_subgroup_membership(A, []).answer
