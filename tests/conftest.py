"""Shared constants, independent oracles, and seeded instance generators."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from matdecide.matrix import IntMatrix
from matdecide.words import FreeWord

A = IntMatrix([[1, 2], [0, 1]])
B = IntMatrix([[1, 0], [2, 1]])
A_INV = IntMatrix([[1, -2], [0, 1]])
B_INV = IntMatrix([[1, 0], [-2, 1]])
S = IntMatrix([[0, -1], [1, 0]])
T = IntMatrix([[1, 1], [0, 1]])
J = IntMatrix([[1, 0], [0, -1]])
I2 = IntMatrix.identity(2)

GL2_POOL = [A, B, A_INV, B_INV, S, T, J, S.inverse_unimodular(), T.inverse_unimodular()]


def naive_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Textbook product, written independently of IntMatrix.__mul__."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        rows.append(row)
    return IntMatrix(rows)


def perm_det(m: IntMatrix) -> int:
    """Permutation-expansion determinant; independent of Bareiss elimination."""
    n = m.n
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m.entries[i][perm[i]]
        total += term
    return total


def random_reduced_word(rng: random.Random, max_len: int, rank: int = 2) -> FreeWord:
    length = rng.randint(0, max_len)
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice([i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)])
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return FreeWord(letters, rank)


def random_unimodular(rng: random.Random, max_factors: int = 4) -> IntMatrix:
    m = I2
    for _ in range(rng.randint(0, max_factors)):
        m = m * rng.choice(GL2_POOL)
    return m


def random_matrix_automaton(rng: random.Random, with_singular: bool = False):
    """Small automaton with unimodular 2x2 labels (optionally salted with
    singular ones), up to 4 states and 8 edges over {a, b} plus epsilon."""
    from matdecide.automata import Edge, MatrixLabels, ValenceAutomaton

    n_states = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    edges = []
    for _ in range(rng.randint(1, 8)):
        label = random_unimodular(rng, 4)
        if with_singular and rng.random() < 0.3:
            label = IntMatrix([[rng.randint(-2, 2), 0], [0, 0]])
        edges.append(
            Edge(
                rng.choice(states),
                rng.choice(["a", "b", None]),
                label,
                rng.choice(states),
            )
        )
    accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
    return ValenceAutomaton(states, ("a", "b"), MatrixLabels(2), edges, states[0], accepting)


def random_word_automaton(rng: random.Random, rank: int = 2):
    """Word-labeled automaton with up to 8 states, 20 edges, labels of up to
    3 letters over `rank` generators, over {a, b} plus epsilon."""
    from matdecide.automata import Edge, ValenceAutomaton, WordLabels

    n_states = rng.randint(1, 8)
    states = [f"s{i}" for i in range(n_states)]
    edges = []
    for _ in range(rng.randint(1, 20)):
        edges.append(
            Edge(
                rng.choice(states),
                rng.choice(["a", "b", None]),
                random_reduced_word(rng, 3, rank),
                rng.choice(states),
            )
        )
    accepting = [q for q in states if rng.random() < 0.4]
    return ValenceAutomaton(states, ("a", "b"), WordLabels(rank), edges, states[0], accepting)


def parity_word_automaton(rng: random.Random, nonempty: bool, rank: int = 2):
    """Dense word-labeled automaton of 20-30 states and 60-80 edges, labels of
    up to 4 letters, whose emptiness is known by construction.

    Each state gets a colour in {0, 1}, and every label has the length parity
    of the XOR of its end colours. Free reduction removes letters in pairs,
    so every path's reduced label has the parity of its end colours, and a
    path that reduces to the empty word ends on its first state's colour.
    The initial state has colour 0. Empty case: every accepting state has
    colour 1. Nonempty case: a path spelling u u^-1 in pieces of 1-3 letters
    is planted, and its last state accepts.
    """
    from matdecide.automata import Edge, ValenceAutomaton, WordLabels

    n = rng.randint(20, 30)
    colour = [0] + [rng.randrange(2) for _ in range(n - 1)]
    colour[rng.randrange(1, n)] = 1  # both colours occur
    by_colour = [[q for q in range(n) if colour[q] == c] for c in (0, 1)]
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]

    def reduced(length: int) -> list[int]:
        word: list[int] = []
        while len(word) < length:
            x = rng.choice(letters)
            if not word or word[-1] != -x:
                word.append(x)
        return word

    def edge(src: int, word: list[int], dst: int) -> Edge:
        return Edge(f"s{src}", rng.choice(["a", "b", None]), FreeWord(word, rank), f"s{dst}")

    edges = []
    if nonempty:
        half = reduced(rng.randint(2, 5))
        spelled = half + [-x for x in reversed(half)]
        cur = 0
        while spelled:
            piece = spelled[: rng.randint(1, 3)]
            spelled = spelled[len(piece) :]
            nxt = rng.choice(by_colour[colour[cur] ^ (len(piece) % 2)])
            edges.append(edge(cur, piece, nxt))
            cur = nxt
        accepting = [cur]
    else:
        accepting = rng.sample(by_colour[1], min(3, len(by_colour[1])))
    for _ in range(rng.randint(60, 80) - len(edges)):
        src, dst = rng.randrange(n), rng.randrange(n)
        odd = colour[src] ^ colour[dst]
        edges.append(edge(src, reduced(rng.choice([1, 3] if odd else [0, 2, 4])), dst))
    rng.shuffle(edges)
    states = [f"s{q}" for q in range(n)]
    return ValenceAutomaton(
        states, ("a", "b"), WordLabels(rank), edges, "s0", [f"s{q}" for q in accepting]
    )


def reference_closure_rows(n_states, edges):
    """The identity-reachability closure with set rows, applying each rule
    one pair at a time; edges are (src, letter, dst)."""
    fwd = [set() for _ in range(n_states)]
    bwd = [set() for _ in range(n_states)]
    in_by_dst = [[] for _ in range(n_states)]  # dst -> [(letter, src)]
    out_by = {}  # (src, letter) -> [dst]
    work = deque()

    def add(p, q):
        if q not in fwd[p]:
            fwd[p].add(q)
            bwd[q].add(p)
            work.append((p, q))

    for src, letter, dst in edges:
        if letter == 0:
            add(src, dst)
        else:
            in_by_dst[dst].append((letter, src))
            out_by.setdefault((src, letter), []).append(dst)
    for p in range(n_states):
        add(p, p)

    while work:
        p, q = work.popleft()
        for letter, u in in_by_dst[p]:
            for v in out_by.get((q, -letter), ()):
                add(u, v)
        for r in tuple(fwd[q]):
            add(p, r)
        for o in tuple(bwd[p]):
            add(o, q)

    return fwd


def all_strings(alphabet, max_len):
    yield ()
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0537)


@pytest.fixture
def moves(monkeypatch) -> list[int]:
    """A one-item counter of the bounded search's moves: every move checks
    the size of one register."""
    from matdecide import automata

    count = [0]
    size = automata._register_size

    def counted(reg):
        count[0] += 1
        return size(reg)

    monkeypatch.setattr(automata, "_register_size", counted)
    return count


@pytest.fixture
def product_budget(monkeypatch) -> list[float]:
    """A one-item budget of IntMatrix products, unlimited until a test sets
    it: each product spends one, and a product past the budget fails the
    test, so a search that does not stop fails before it fills memory."""
    budget = [float("inf")]
    mul = IntMatrix.__mul__

    def spend(a, b):
        budget[0] -= 1
        assert budget[0] >= 0, "the product budget is spent"
        return mul(a, b)

    monkeypatch.setattr(IntMatrix, "__mul__", spend)
    return budget
