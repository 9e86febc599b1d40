from collections import deque

import pytest

from matdecide.automata import (
    DEFAULT_CONFIG_BUDGET,
    Edge,
    MatrixLabels,
    SimResult,
    ValenceAutomaton,
    WordLabels,
    bounded_accepts,
    build_identity_automaton,
    build_identity_universe_automaton,
    build_membership_automaton,
    build_membership_universe_automaton,
    prune_noninvertible,
    shortest_accepted_string,
    to_free_group_automaton,
)
from matdecide.matrix import IntMatrix
from matdecide.sanov import CosetTable, default_coset_table, eval_word, schreier_rewrite
from matdecide.words import FreeWord

from conftest import (
    A,
    A_INV,
    B,
    I2,
    J,
    S,
    T,
    all_strings,
    random_matrix_automaton,
    random_reduced_word,
    random_word_automaton,
)

ACCEPT = SimResult.ACCEPTED


def test_membership_machine_shape():
    v = build_membership_automaton(A, [B])
    assert v.states == ("q1", "q2")
    assert v.alphabet == ("a",)
    assert v.initial == "q1"
    assert v.accepting == frozenset({"q2"})
    assert len(v.edges) == 2


def test_membership_machine_examples():
    assert bounded_accepts(build_membership_automaton(I2, [A]), "a") is ACCEPT
    assert bounded_accepts(build_membership_automaton(A, [A_INV]), "aa") is ACCEPT
    v = build_membership_automaton(A, [B])
    for k in range(7):
        assert bounded_accepts(v, "a" * k) is not ACCEPT


def test_membership_machine_validation():
    with pytest.raises(ValueError):
        build_membership_automaton(A, [])
    with pytest.raises(ValueError):
        build_membership_automaton(A, [IntMatrix.identity(3)])


def test_identity_machine_examples():
    assert bounded_accepts(build_identity_automaton([A, A_INV]), "aa", 100) is ACCEPT
    v = build_identity_automaton([A])
    for k in range(1, 9):
        assert bounded_accepts(v, "a" * k) is not ACCEPT
    assert bounded_accepts(build_identity_automaton([I2]), "a") is ACCEPT


def test_identity_machine_never_accepts_empty_string():
    assert bounded_accepts(build_identity_automaton([I2]), "") is not ACCEPT


def test_membership_universe_machine_examples():
    v = build_membership_universe_automaton(I2, [A, A_INV])
    assert bounded_accepts(v, "") is ACCEPT
    assert bounded_accepts(v, "a") is ACCEPT
    assert bounded_accepts(v, "aa") is ACCEPT
    v2 = build_membership_universe_automaton(A, [B])
    assert bounded_accepts(v2, "a", 10**4) is not ACCEPT


def test_identity_universe_machine_examples():
    v = build_identity_universe_automaton([A, A_INV])
    assert bounded_accepts(v, "") is ACCEPT
    assert bounded_accepts(v, "a", 100) is ACCEPT  # needs one epsilon move
    v2 = build_identity_universe_automaton([A])
    assert bounded_accepts(v2, "") is ACCEPT
    assert bounded_accepts(v2, "a", 10**4) is not ACCEPT


def test_prune_noninvertible():
    v = build_membership_automaton(A, [B])
    assert prune_noninvertible(v).edges == v.edges

    singular = IntMatrix([[1, 0], [0, 0]])
    v2 = ValenceAutomaton(
        ("p", "q"), ("a",), MatrixLabels(2),
        [Edge("p", "a", singular, "q")], "p", ("q",),
    )
    assert prune_noninvertible(v2).edges == ()

    doubled = IntMatrix([[2, 0], [0, 2]])
    v3 = build_membership_automaton(A, [A, doubled])
    pruned = prune_noninvertible(v3)
    assert len(pruned.edges) == 2  # the target edge and the A loop survive
    assert all(e.label.is_unimodular() for e in pruned.edges)


def test_prune_requires_matrix_labels():
    v = ValenceAutomaton(
        ("p",), ("a",), WordLabels(2),
        [Edge("p", "a", FreeWord([1], 2), "p")], "p", ("p",),
    )
    with pytest.raises(ValueError):
        prune_noninvertible(v)


def test_coset_conversion_shape_and_language():
    table = default_coset_table()
    v = build_membership_automaton(A, [A_INV])
    image = to_free_group_automaton(v, table)
    assert image.states == ("q1|0", "q2|0")  # A lies in the Sanov subgroup
    assert image.label_domain == WordLabels(2)
    assert bounded_accepts(image, "aa") is ACCEPT


def full_product_conversion(v: ValenceAutomaton, table: CosetTable) -> ValenceAutomaton:
    """Reference conversion: every edge rewritten from all 24 cosets, states
    are all (state, coset) pairs."""
    def pair(q, c):
        return f"{q}|{c}"

    edges = []
    for e in v.edges:
        for c in range(table.size):
            c2, w = schreier_rewrite(table, c, e.label)
            edges.append(Edge(pair(e.src, c), e.symbol, w, pair(e.dst, c2)))
    return ValenceAutomaton(
        [pair(q, c) for q in v.states for c in range(table.size)],
        v.alphabet, WordLabels(2), edges, pair(v.initial, 0),
        [pair(q, 0) for q in v.accepting],
    )


def restrict_to_reachable(v: ValenceAutomaton):
    """States, edges and accepting states of v reachable from its initial state."""
    seen = {v.initial}
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for e in v.edges:
            if e.src == q and e.dst not in seen:
                seen.add(e.dst)
                queue.append(e.dst)
    return seen, {e for e in v.edges if e.src in seen}, v.accepting & seen


def test_coset_conversion_is_full_product_on_reachable_pairs(rng):
    table = default_coset_table()
    machines = [random_matrix_automaton(rng) for _ in range(20)]
    machines += [build_membership_automaton(T, [S, T]), build_membership_automaton(T, [S, T, J])]
    sizes = []
    for v in machines:
        image = to_free_group_automaton(v, table)
        states, edges, accepting = restrict_to_reachable(full_product_conversion(v, table))
        assert image.initial == f"{v.initial}|0"
        assert set(image.states) == states
        assert set(image.edges) == edges
        assert image.accepting == accepting
        sizes.append(len(image.states))
    assert sizes[-2:] == [13, 25]


def test_coset_conversion_epsilon_identity_edge():
    table = default_coset_table()
    v = ValenceAutomaton(
        ("p", "q"), ("a",), MatrixLabels(2),
        [Edge("p", None, I2, "q")], "p", ("q",),
    )
    image = to_free_group_automaton(v, table)
    assert bounded_accepts(image, "") is ACCEPT


def test_coset_conversion_rejects_bad_labels():
    table = default_coset_table()
    v = ValenceAutomaton(
        ("p", "q"), ("a",), MatrixLabels(2),
        [Edge("p", "a", IntMatrix([[2, 0], [0, 1]]), "q")], "p", ("q",),
    )
    with pytest.raises(ValueError, match="prune"):
        to_free_group_automaton(v, table)
    v3 = build_membership_automaton(IntMatrix.identity(3), [IntMatrix.identity(3)])
    with pytest.raises(ValueError):
        to_free_group_automaton(v3, table)


def test_bounded_accepts_tristate():
    # exhausting the space with nothing cut is a definitive no
    assert bounded_accepts(build_identity_automaton([A]), "a") is SimResult.NO
    # growing registers cut at the cap leave the answer open
    v = build_membership_universe_automaton(A, [B])
    assert bounded_accepts(v, "a", 100) is SimResult.REJECTED_AT_BOUND


def _dead_start_3x3() -> ValenceAutomaton:
    # s0 loops on epsilon with a growing register and has no edge towards s1
    loop = IntMatrix([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    return ValenceAutomaton(
        ("s0", "s1"), ("a",), MatrixLabels(3), [Edge("s0", None, loop, "s0")], "s0", ("s1",)
    )


def test_bounded_accepts_skips_states_that_cannot_accept():
    # a run through a state off every initial-to-accepting path never
    # accepts, so the answer is a definitive no, not a cut at the cap
    v = _dead_start_3x3()
    assert bounded_accepts(v, ()) is SimResult.NO
    assert bounded_accepts(v, "a") is SimResult.NO
    assert shortest_accepted_string(v, max_len=3) is None


def test_bounded_accepts_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        bounded_accepts(build_identity_automaton([A]), "x")


def test_bounded_accepts_deterministic():
    v = build_identity_universe_automaton([A, A_INV])
    results = {bounded_accepts(v, "aa", 200) for _ in range(5)}
    assert results == {ACCEPT}


def test_coset_conversion_preserves_language_at_desk_scale(rng):
    # original and image must agree whenever both simulations are definitive;
    # modest caps keep unipotent-label cycles from flooding the BFS
    table = default_coset_table()
    definitive = (ACCEPT, SimResult.NO)
    compared = accepted = 0
    for _ in range(20):
        v = random_matrix_automaton(rng)
        image = to_free_group_automaton(v, table)
        for s in all_strings(("a", "b"), 3):
            r1 = bounded_accepts(v, s, register_cap=500)
            r2 = bounded_accepts(image, s, register_cap=32)
            if r1 in definitive and r2 in definitive:
                assert r1 is r2, (v.edges, s, r1, r2)
                compared += 1
                accepted += r1 is ACCEPT
    assert compared > 50
    assert accepted > 0


def test_prune_preserves_definitive_answers(rng):
    for _ in range(20):
        v = random_matrix_automaton(rng, with_singular=True)
        pruned = prune_noninvertible(v)
        for s in all_strings(("a", "b"), 3):
            r1 = bounded_accepts(v, s, register_cap=500)
            r2 = bounded_accepts(pruned, s, register_cap=500)
            if r1 is ACCEPT or r2 is ACCEPT:
                assert r1 is r2 is ACCEPT
            if r1 is SimResult.NO:
                assert r2 is SimResult.NO


def test_shortest_accepted_string():
    v = build_membership_automaton(A, [A_INV])
    assert shortest_accepted_string(v) == ("a", "a")
    v2 = build_membership_automaton(A, [B])
    assert shortest_accepted_string(v2, max_len=4, register_cap=10**4) is None


def shortlex_reference(v: ValenceAutomaton, max_len: int, register_cap: int):
    """The per-candidate search: the first input in shortlex order over the
    alphabet that bounded_accepts accepts, each candidate searched afresh."""
    for s in all_strings(v.alphabet, max_len):
        if bounded_accepts(v, s, register_cap) is ACCEPT:
            return tuple(s)
    return None


def test_search_over_runs_agrees_with_the_per_candidate_search(rng, moves):
    # caps small enough that neither search reaches the configuration budget:
    # a search that makes fewer moves than the budget never stops at it, and
    # then both searches see every run under the cap
    def bounded(search, *args):
        moves[0] = 0
        result = search(*args)
        assert moves[0] < DEFAULT_CONFIG_BUDGET
        return result

    found = draws = 0
    for draw, cap in ((random_matrix_automaton, 20), (random_word_automaton, 6)):
        kept = 0
        while kept < 30:
            draws += 1  # 276 with the fixture's seed
            assert draws < 1000, "no search moves: the fixture counts nothing"
            v = draw(rng)
            witness = bounded(shortest_accepted_string, v, 3, cap)
            if not moves[0]:
                # the initial state is off every accepting path or accepts
                # the empty input at once: the search compares nothing
                continue
            kept += 1
            reference = bounded(shortlex_reference, v, 3, cap)
            assert moves[0] and (witness is None) == (reference is None), v.edges
            if witness is not None:
                found += 1
                assert len(witness) <= 3
                assert bounded(bounded_accepts, v, witness, cap) is ACCEPT and moves[0]
    assert 0 < found < 60


def test_search_over_runs_keys_inputs_by_symbols():
    # symbols longer than one character: the consumed input is a tuple of
    # symbols, so its length counts symbols and the order follows the
    # alphabet; ordering the joined strings would pick "aa"
    x = FreeWord([1], 2)
    v = ValenceAutomaton(
        ("p", "q", "r"), ("ab", "a"), WordLabels(2),
        [Edge("p", "a", x, "q"), Edge("p", "ab", x, "q"), Edge("q", "a", x.inverse(), "r")],
        "p", ("r",),
    )
    assert bounded_accepts(v, ("ab", "a")) is ACCEPT
    assert bounded_accepts(v, ("a", "ab")) is SimResult.NO
    assert bounded_accepts(v, ("ab",)) is SimResult.NO
    assert shortest_accepted_string(v, max_len=2) == ("ab", "a")
    assert shortlex_reference(v, 2, 4) == ("ab", "a")
    assert shortest_accepted_string(v, max_len=1) is None


def test_machines_over_free_words_directly(rng):
    # sanity: a word-labeled machine whose single loop label cancels itself
    word = random_reduced_word(rng, 3)
    v = ValenceAutomaton(
        ("p", "q", "r"), ("a",), WordLabels(2),
        [
            Edge("p", "a", word, "q"),
            Edge("q", "a", word.inverse(), "r"),
        ],
        "p", ("r",),
    )
    assert bounded_accepts(v, "aa") is ACCEPT
    assert eval_word(word) * eval_word(word.inverse()) == I2
