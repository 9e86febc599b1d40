import random
from collections import deque

import pytest

from matdecide import pda
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
    pda_emptiness,
)
from matdecide.sanov import default_coset_table
from matdecide.words import FreeWord

from conftest import (
    A,
    A_INV,
    parity_word_automaton,
    random_word_automaton,
    reference_closure_rows,
)


def word_automaton(edges, states, initial, accepting, alphabet=("a",)):
    return ValenceAutomaton(states, alphabet, WordLabels(2), edges, initial, accepting)


def w(text):
    return FreeWord.from_text(text, 2)


def epsilon():
    return FreeWord.identity(2)


def pda_bounded_accepts(p: Pda, w, stack_cap: int = 64) -> bool:
    """Pushdown test reference: BFS over (state, stack, position)
    configurations with a stack-depth cap; True means w is definitely
    accepted."""
    by_src: dict = {}
    for hop in p.hops:
        by_src.setdefault(hop[0], []).append(hop)

    start = (p.initial, (), 0)
    if p.initial in p.accepting and len(w) == 0:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        state, stack, pos = queue.popleft()
        for _, symbol, letter, dst in by_src.get(state, ()):
            if symbol is None:
                npos = pos
            elif pos < len(w) and w[pos] == symbol:
                npos = pos + 1
            else:
                continue
            if letter == 0:
                nstack = stack
            elif stack and stack[-1] == -letter:
                nstack = stack[:-1]
            else:
                nstack = stack + (letter,)
                if len(nstack) > stack_cap:
                    continue
            conf = (dst, nstack, npos)
            if conf in seen:
                continue
            if dst in p.accepting and not nstack and npos == len(w):
                return True
            seen.add(conf)
            queue.append(conf)
    return False


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

    # the tables follow the letters used: one far past any small rank, and a
    # pushed 7 whose inverse no hop has
    big = 10**8
    hops = ((0, "x", big, 1), (1, None, -big, 2), (2, None, 7, 3))
    assert not pda_emptiness(Pda(4, hops, 0, frozenset({2})))
    assert pda_emptiness(Pda(4, hops, 0, frozenset({3})))


def test_pda_emptiness_on_random_hop_machines(rng):
    # hops between arbitrary states, against the bounded reference
    found = 0
    for _ in range(300):
        hops = tuple(
            (rng.randrange(4), None, rng.choice([0, 1, -1, 2, -2]), rng.randrange(4))
            for _ in range(rng.randint(1, 10))
        )
        pda = Pda(4, hops, 0, frozenset({3}))
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


def test_engines_require_word_labels():
    v = build_membership_automaton(A, [A_INV])
    for engine in (free_automaton_emptiness, from_free_automaton):
        with pytest.raises(ValueError, match="free-word labels"):
            engine(v)


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


def test_engines_agree_on_dense_planted_automata():
    # 20-30 states and 60-80 edges, the regime where rows fill up: both
    # engines must give the planted answer, and on a few automata the full
    # closure rows of the hop graph must match the reference closure
    rng = random.Random(2510)
    for i in range(24):
        nonempty = i % 2 == 0
        v = parity_word_automaton(rng, nonempty)
        assert free_automaton_emptiness(v) is not nonempty, v.edges
        assert pda_emptiness(from_free_automaton(v)) is not nonempty, v.edges
        if i < 4:
            _, n, hops, _ = pda._split_hops(v, v.states)
            rows = pda._closure_rows(n, hops)
            assert [{q for q in range(n) if row >> q & 1} for row in rows] == (
                reference_closure_rows(n, hops)
            )


def test_emptiness_calls_the_closure_through_its_positional_seam(monkeypatch):
    # The pipeline benchmark times the closure by wrapping this module global
    # and reads the state count and the edges from the first two positional
    # arguments, so they must stay positional.
    calls = []
    real = pda.dyck_nonempty

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pda, "dyck_nonempty", recording)
    v = word_automaton(
        [Edge("p", "a", w("a b"), "q"), Edge("q", None, w("b' a'"), "r")],
        ("p", "q", "r"), "p", ("r",),
    )
    assert not free_automaton_emptiness(v)
    [(args, kwargs)] = calls
    assert kwargs == {}
    n_states, edges, initial, accepting = args
    assert (n_states, len(edges), initial, list(accepting)) == (5, 4, 0, [2])
