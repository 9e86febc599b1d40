"""The identity-reachability closure, checked on examples and against a
set-based reference closure."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import matdecide
from matdecide import pda

from conftest import reference_closure_rows


def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    return [
        (rng.randrange(n), rng.choice([0, 1, -1, 2, -2]), rng.randrange(n))
        for _ in range(m)
    ]


def reference_closure(n_states, edges):
    fwd = reference_closure_rows(n_states, edges)
    return {(p, q) for p in range(n_states) for q in fwd[p]}


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dyck_closure(n_states, edges):
    """The full closure as a set of pairs, read off `pda._closure_rows` with
    no goal. The rows function is looked up at each call, so a test that
    patches it sees this call too."""
    fwd = pda._closure_rows(n_states, edges)
    return {(p, q) for p in range(n_states) for q in _bits(fwd[p])}


def test_dyck_closure_tiny():
    # 0 -a-> 1 -a'-> 2 wraps to give R(0,2); 3 is unreachable
    edges = [(0, 1, 1), (1, -1, 2)]
    closure = dyck_closure(4, edges)
    assert (0, 2) in closure
    assert (0, 1) not in closure
    assert all((p, p) in closure for p in range(4))
    assert pda.dyck_nonempty(4, edges, 0, [2])
    assert not pda.dyck_nonempty(4, edges, 0, [1])


def test_dyck_closure_epsilon_and_transitivity():
    edges = [(0, 0, 1), (1, 2, 2), (2, -2, 3), (3, 0, 4)]
    closure = dyck_closure(5, edges)
    assert (0, 4) in closure  # eps, wrap(b b'), eps, chained transitively


def test_dyck_closure_bounded_additions():
    rng = random.Random(11)
    n = 12
    edges = random_edges(rng, n, 30)
    closure = dyck_closure(n, edges)
    assert len(closure) <= n * n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 40), st.integers(0, 2**30))
def test_dyck_matches_reference(n, m, seed):
    rng = random.Random(seed)
    edges = random_edges(rng, n, m)
    assert dyck_closure(n, edges) == reference_closure(n, edges)
    initial = rng.randrange(n)
    accepting = [q for q in range(n) if rng.random() < 0.3]
    row = reference_closure_rows(n, edges)[initial]
    assert pda.dyck_nonempty(n, edges, initial, accepting) == any(q in row for q in accepting)


def test_dyck_nonempty_stops_at_the_goal_with_pairs_still_queued(monkeypatch):
    # 0 -a-> 1 -a'-> 2 meets the goal once row 1 is processed, while the
    # nested chain 3 -a-> ... -a-> 13 -a'-> ... -a'-> 23 still has pairs to
    # derive.
    edges = [(0, 1, 1), (1, -1, 2)]
    edges += [(q, 1, q + 1) for q in range(3, 13)] + [(q, -1, q + 1) for q in range(13, 23)]
    n = 24
    rows = []
    real = pda._closure_rows

    def recording(*args):
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setattr(pda, "_closure_rows", recording)
    assert pda.dyck_nonempty(n, edges, 0, [2])
    assert dyck_closure(n, edges) == reference_closure(n, edges)
    stopped, full = rows
    assert not stopped[3] >> 23 & 1 and full[3] >> 23 & 1
    full_sets = [{q for q in range(n) if row >> q & 1} for row in full]
    assert full_sets == reference_closure_rows(n, edges)


def hop_graph(rng: random.Random) -> tuple[int, list[tuple[int, int, int]]]:
    """A graph shaped like the emptiness pipeline's: between a few main states,
    freely reduced labels split into one hop per letter through fresh
    states, empty-label edges (self-loops included), and the letter 3, whose
    inverse never occurs."""
    n = rng.randint(1, 6)
    main = n
    edges = []
    for _ in range(rng.randint(0, 12)):
        src, dst = rng.randrange(main), rng.randrange(main)
        word: list[int] = []
        for _ in range(rng.randint(0, 4)):
            x = rng.choice([1, -1, 2, -2, 3])
            if not word or word[-1] != -x:
                word.append(x)
        if not word:
            edges.append((src, 0, dst))
            continue
        hops = [src] + list(range(n, n + len(word) - 1)) + [dst]
        n += len(word) - 1
        edges += [(a, x, b) for a, x, b in zip(hops, word, hops[1:])]
    for _ in range(rng.randint(0, 2)):
        q = rng.randrange(main)
        edges.append((q, 0, q))
    rng.shuffle(edges)
    return n, edges


def test_dyck_matches_reference_on_hop_graphs():
    rng = random.Random(1606)
    for _ in range(200):
        n, edges = hop_graph(rng)
        ref = reference_closure_rows(n, edges)
        rows = pda._closure_rows(n, edges)
        assert [{q for q in range(n) if row >> q & 1} for row in rows] == ref, edges
        initial = rng.randrange(n)
        accepting = [q for q in range(n) if rng.random() < 0.2]
        expected = any(q in ref[initial] for q in accepting)
        assert pda.dyck_nonempty(n, edges, initial, accepting) == expected, edges


def test_rows_at_a_goal_stop_hold_only_pairs_of_the_closure():
    # The goal stop leaves rows partial and shaped by the processing order,
    # so every bit set by then must still be a pair of the full closure.
    rng = random.Random(2025)
    partial = 0
    for i in range(300):
        if i % 2:
            n, edges = hop_graph(rng)
        else:
            n = rng.randint(1, 14)
            edges = random_edges(rng, n, rng.randint(0, 40))
        ref = reference_closure_rows(n, edges)
        initial = rng.randrange(n)
        targets = sum(1 << q for q in range(n) if rng.random() < 0.2)
        rows = pda._closure_rows(n, edges, initial, targets)
        for p, row in enumerate(rows):
            got = {q for q in range(n) if row >> q & 1}
            assert p in got and got <= ref[p], (edges, initial, targets)
        assert bool(rows[initial] & targets) == any(targets >> q & 1 for q in ref[initial])
        partial += any(len(ref[p]) > bin(row).count("1") for p, row in enumerate(rows))
    assert partial > 20  # the goal did stop the work early, with rows left to grow


def test_full_rows_on_long_chains_and_rings():
    k = 200
    # the nested chain a^k a'^k: row i holds i, and 2k - i while i <= k
    nested = [(q, 1, q + 1) for q in range(k)] + [(q, -1, q + 1) for q in range(k, 2 * k)]
    # a bidirected ring, a one way and a' the other: R is only reflexive
    ring = [(q, 1, (q + 1) % k) for q in range(k)] + [((q + 1) % k, -1, q) for q in range(k)]
    # magnitude's shape: a chain b^k into a hub, with rings a^k, a'^k, b^k
    # and b'^k through the hub
    hub, n = k, k + 1
    shaped = [(q, 2, q + 1) for q in range(k)]
    for letter in (1, -1, 2, -2):
        cycle = [hub] + list(range(n, n + k - 1)) + [hub]
        n += k - 1
        shaped += [(a, letter, b) for a, b in zip(cycle, cycle[1:])]
    for n_states, edges in ((2 * k + 1, nested), (k, ring), (n, shaped)):
        rows = pda._closure_rows(n_states, edges)
        ref = reference_closure_rows(n_states, edges)
        assert [{q for q in range(n_states) if row >> q & 1} for row in rows] == ref
    assert pda._closure_rows(2 * k + 1, nested) == [
        1 << q | 1 << (2 * k - q) if q <= k else 1 << q for q in range(2 * k + 1)
    ]
    assert pda._closure_rows(k, ring) == [1 << q for q in range(k)]
    assert pda._closure_rows(n, shaped)[0] >> hub & 1  # b^k then one b' ring
    assert pda.dyck_nonempty(n, shaped, 0, [hub])


def test_wraps_start_at_reflexive_pairs_and_use_every_in_edge():
    # R(0,2) has one derivation, and it starts from the reflexive pair (1,1)
    # wrapped by 0 -a-> 1 -a'-> 2.
    edges = [(0, 1, 1), (1, -1, 2)]
    assert pda._closure_rows(3, edges) == [0b101, 0b010, 0b100]
    assert pda.dyck_nonempty(3, edges, 0, [2])
    # State 2 has two in-edges, and each wraps around its own out-edge.
    edges = [(0, 1, 2), (1, 2, 2), (2, -1, 3), (2, -2, 4)]
    closure = dyck_closure(5, edges)
    assert {(0, 3), (1, 4)} <= closure and not {(0, 4), (1, 3)} & closure
    assert closure == reference_closure(5, edges)
    assert pda.dyck_nonempty(5, edges, 1, [4])
    assert not pda.dyck_nonempty(5, edges, 1, [3])


def test_dyck_matches_reference_larger_instance():
    rng = random.Random(99)
    n = 120
    edges = random_edges(rng, n, 400)
    assert dyck_closure(n, edges) == reference_closure(n, edges)


def test_selected_backend_exposes_contract():
    # the two names the pipeline benchmark reads through matdecide._kernel
    assert matdecide.kernel_backend() == "pure"
    assert matdecide._kernel.dyck_nonempty is pda.dyck_nonempty
