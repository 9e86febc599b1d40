"""Shared constants, independent oracles, and seeded instance generators."""

from __future__ import annotations

import itertools
import random

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
