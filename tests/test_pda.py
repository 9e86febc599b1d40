import pytest

from matdecide.automata import (
    Edge,
    SimResult,
    ValenceAutomaton,
    WordLabels,
    bounded_accepts,
    build_membership_automaton,
    prune_noninvertible,
    to_free_group_automaton,
)
from matdecide.pda import (
    Pda,
    free_automaton_emptiness,
    from_free_automaton,
    pda_bounded_accepts,
    pda_emptiness,
)
from matdecide.sanov import default_coset_table
from matdecide.words import FreeWord

from conftest import A, A_INV, random_word_automaton


def word_automaton(edges, states, initial, accepting, alphabet=("a",)):
    return ValenceAutomaton(states, alphabet, WordLabels(2), edges, initial, accepting)


def w(text):
    return FreeWord.from_text(text, 2)


def epsilon():
    return FreeWord.identity(2)


def test_empty_label_becomes_plain_transition():
    v = word_automaton([Edge("p", "a", epsilon(), "q")], ("p", "q"), "p", ("q",))
    pda = from_free_automaton(v)
    assert pda.hops == ((0, "a", 0, 1),)
    assert (pda.initial, pda.accepting) == (0, frozenset({1}))
    assert pda_bounded_accepts(pda, "a")


def test_push_then_pop_accepts():
    v = word_automaton(
        [Edge("p", "a", w("a"), "q"), Edge("q", "a", w("a'"), "r")],
        ("p", "q", "r"), "p", ("r",),
    )
    pda = from_free_automaton(v)
    assert pda_bounded_accepts(pda, "aa")
    assert not pda_bounded_accepts(pda, "a")


def test_inverse_first_still_accepts():
    # a' then a reduces to the identity; the signed-letter stack must push a'
    # and then pop it, which an unsigned push/pop discipline cannot do
    v = word_automaton(
        [Edge("p", "a", w("a'"), "q"), Edge("q", "a", w("a"), "r")],
        ("p", "q", "r"), "p", ("r",),
    )
    pda = from_free_automaton(v)
    assert pda_bounded_accepts(pda, "aa")
    assert not free_automaton_emptiness(v)
    assert not pda_emptiness(pda)


def test_multi_letter_labels_add_intermediate_states():
    v = word_automaton([Edge("p", "a", w("a b a"), "q")], ("p", "q"), "p", ("q",))
    pda = from_free_automaton(v)
    assert pda.n_states == 2 + 2  # k-letter label needs k-1 fresh states
    # one hop per letter (a b a is 1 2 1); the input symbol goes on the first
    assert pda.hops == ((0, "a", 1, 2), (2, None, 2, 3), (3, None, 1, 1))
    assert not pda_bounded_accepts(pda, "a")  # register a b a is not identity


def test_pda_emptiness_examples():
    accepting_eps = word_automaton([Edge("p", "a", epsilon(), "q")], ("p", "q"), "p", ("q",))
    assert not pda_emptiness(from_free_automaton(accepting_eps))

    push_only = word_automaton([Edge("p", "a", w("a"), "q")], ("p", "q"), "p", ("q",))
    assert pda_emptiness(from_free_automaton(push_only))

    pipeline = to_free_group_automaton(
        prune_noninvertible(build_membership_automaton(A, [A_INV])),
        default_coset_table(),
    )
    assert not pda_emptiness(from_free_automaton(pipeline))
    assert bounded_accepts(pipeline, "aa") is SimResult.ACCEPTED  # witness


def test_pda_emptiness_on_random_hop_machines(rng):
    # hops between arbitrary states, against the bounded reference
    found = 0
    for _ in range(300):
        hops = tuple(
            (rng.randrange(4), None, rng.choice([0, 1, -1, 2, -2]), rng.randrange(4))
            for _ in range(rng.randint(1, 10))
        )
        pda = Pda(4, (), 2, hops, 0, frozenset({3}))
        if pda_bounded_accepts(pda, (), stack_cap=6):
            assert not pda_emptiness(pda), hops
            found += 1
    assert found > 20


def test_free_automaton_emptiness_examples():
    direct = word_automaton([Edge("p", None, epsilon(), "p")], ("p",), "p", ("p",))
    assert not free_automaton_emptiness(direct)

    one_letter = word_automaton([Edge("p", "a", w("a"), "q")], ("p", "q"), "p", ("q",))
    assert free_automaton_emptiness(one_letter)

    cancel = word_automaton(
        [Edge("p", "a", w("a"), "q"), Edge("q", "a", w("a'"), "r")],
        ("p", "q", "r"), "p", ("r",),
    )
    assert not free_automaton_emptiness(cancel)


def test_emptiness_with_no_accepting_states():
    v = word_automaton([Edge("p", "a", epsilon(), "p")], ("p",), "p", ())
    assert free_automaton_emptiness(v)
    assert pda_emptiness(from_free_automaton(v))


def test_emptiness_engines_agree(rng):
    nonempty_seen = 0
    for _ in range(60):
        v = random_word_automaton(rng)
        by_saturation = free_automaton_emptiness(v)
        by_pda = pda_emptiness(from_free_automaton(v))
        assert by_saturation == by_pda, v.edges
        nonempty_seen += not by_saturation
    assert nonempty_seen > 5


def test_bounded_witnesses_imply_nonempty(rng):
    found = 0
    for _ in range(40):
        v = random_word_automaton(rng)
        for s in ((), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")):
            if bounded_accepts(v, s, register_cap=12, config_budget=5000) is SimResult.ACCEPTED:
                assert not free_automaton_emptiness(v)
                assert not pda_emptiness(from_free_automaton(v))
                found += 1
                break
    assert found > 5


@pytest.mark.parametrize("rank", [1, 3])
def test_engines_agree_on_other_stack_widths(rng, rank):
    nonempty_seen = found = 0
    for _ in range(60):
        v = random_word_automaton(rng, rank)
        empty = free_automaton_emptiness(v)
        assert pda_emptiness(from_free_automaton(v)) == empty, v.edges
        nonempty_seen += not empty
        for s in ((), ("a",), ("b",), ("a", "b")):
            if bounded_accepts(v, s, register_cap=12, config_budget=5000) is SimResult.ACCEPTED:
                assert not empty
                found += 1
                break
    assert nonempty_seen > 20
    assert found > 20
