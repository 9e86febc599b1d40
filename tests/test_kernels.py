"""Word reduction and the identity-reachability closure, checked on examples
and against a set-based reference closure."""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from matdecide import _kernel


def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    return [
        (rng.randrange(n), rng.choice([0, 1, -1, 2, -2]), rng.randrange(n))
        for _ in range(m)
    ]


def reference_closure_rows(n_states, edges):
    """The closure with set rows, applying each rule one pair at a time."""
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


def reference_closure(n_states, edges):
    fwd = reference_closure_rows(n_states, edges)
    return {(p, q) for p in range(n_states) for q in fwd[p]}


def test_reduce_examples():
    assert _kernel.reduce_letters([1, -1]) == ()
    assert _kernel.reduce_letters([1, 2, -2, -1, 1]) == (1,)
    assert _kernel.concat_reduce_letters((1, 2), (-2, -1)) == ()
    assert _kernel.concat_reduce_letters((1, 2), (2,)) == (1, 2, 2)


def test_dyck_closure_tiny():
    # 0 -a-> 1 -a'-> 2 wraps to give R(0,2); 3 is unreachable
    edges = [(0, 1, 1), (1, -1, 2)]
    closure = _kernel.dyck_closure(4, edges)
    assert (0, 2) in closure
    assert (0, 1) not in closure
    assert all((p, p) in closure for p in range(4))
    assert _kernel.dyck_nonempty(4, edges, 0, [2])
    assert not _kernel.dyck_nonempty(4, edges, 0, [1])


def test_dyck_closure_epsilon_and_transitivity():
    edges = [(0, 0, 1), (1, 2, 2), (2, -2, 3), (3, 0, 4)]
    closure = _kernel.dyck_closure(5, edges)
    assert (0, 4) in closure  # eps, wrap(b b'), eps, chained transitively


def test_dyck_closure_bounded_additions():
    rng = random.Random(11)
    n = 12
    edges = random_edges(rng, n, 30)
    closure = _kernel.dyck_closure(n, edges)
    assert len(closure) <= n * n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 40), st.integers(0, 2**30))
def test_dyck_matches_reference(n, m, seed):
    rng = random.Random(seed)
    edges = random_edges(rng, n, m)
    assert _kernel.dyck_closure(n, edges) == reference_closure(n, edges)
    initial = rng.randrange(n)
    accepting = [q for q in range(n) if rng.random() < 0.3]
    row = reference_closure_rows(n, edges)[initial]
    assert _kernel.dyck_nonempty(n, edges, initial, accepting) == any(q in row for q in accepting)


def test_dyck_nonempty_stops_at_the_goal_with_pairs_still_queued(monkeypatch):
    # 0 -a-> 1 -a'-> 2 meets the goal at the second pop, while the nested
    # chain 3 -a-> ... -a-> 13 -a'-> ... -a'-> 23 still has pairs to derive.
    edges = [(0, 1, 1), (1, -1, 2)]
    edges += [(q, 1, q + 1) for q in range(3, 13)] + [(q, -1, q + 1) for q in range(13, 23)]
    n = 24
    rows = []
    real = _kernel._closure_rows

    def recording(*args):
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setattr(_kernel, "_closure_rows", recording)
    assert _kernel.dyck_nonempty(n, edges, 0, [2])
    assert _kernel.dyck_closure(n, edges) == reference_closure(n, edges)
    stopped, full = rows
    assert not stopped[3] >> 23 & 1 and full[3] >> 23 & 1
    full_sets = [{q for q in range(n) if row >> q & 1} for row in full]
    assert full_sets == reference_closure_rows(n, edges)


def test_dyck_matches_reference_larger_instance():
    rng = random.Random(99)
    n = 120
    edges = random_edges(rng, n, 400)
    assert _kernel.dyck_closure(n, edges) == reference_closure(n, edges)


def test_selected_backend_exposes_contract():
    assert _kernel.kernel_backend() in ("compiled", "pure")
    assert _kernel.reduce_letters([1, -1]) == ()
