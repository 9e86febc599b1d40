#!/usr/bin/env python3
"""Time the kernels on the two hot paths: the identity-reachability closure
that powers the emptiness decider (the goal-directed `dyck_nonempty` and the
full fixpoint `dyck_closure`), and reduced word concatenation. Synthetic
instances mirror what the decision pipeline produces (single-letter edges
from split coset-product machines).

Run: python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

from matdecide import _kernel


def pipeline_like_instance(rng: random.Random, n_units: int):
    """Edge chains that look like split Schreier-rewrite labels: per unit, a
    short chain of letters into a hub, the mirrored inverse chain out of it,
    and sparse epsilon links between hubs."""
    edges = []
    hubs = []
    next_state = 0

    def fresh():
        nonlocal next_state
        next_state += 1
        return next_state - 1

    entry = fresh()
    for _ in range(n_units):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
        cur = entry
        for x in word:
            nxt = fresh()
            edges.append((cur, x, nxt))
            cur = nxt
        hub = cur
        hubs.append(hub)
        for x in reversed(word):
            nxt = fresh()
            edges.append((cur, -x, nxt))
            cur = nxt
        edges.append((cur, 0, entry))
        if len(hubs) > 1 and rng.random() < 0.5:
            edges.append((hub, 0, rng.choice(hubs)))
    accepting = [rng.choice(hubs) for _ in range(max(1, n_units // 8))]
    return next_state, edges, entry, accepting


def bench_dyck(label: str, n_units: int, repeats: int) -> None:
    """Time the goal-directed emptiness test beside the full fixpoint."""
    rng = random.Random(42)
    instances = [pipeline_like_instance(rng, n_units) for _ in range(repeats)]

    t0 = time.perf_counter()
    for n, edges, init, acc in instances:
        _kernel.dyck_nonempty(n, edges, init, acc)
    nonempty_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for n, edges, _, _ in instances:
        _kernel.dyck_closure(n, edges)
    closure_s = time.perf_counter() - t0
    states = instances[0][0]
    print(f"{label:<28} {nonempty_s * 1000:8.1f} ms nonempty {closure_s * 1000:8.1f} ms closure"
          f"   (~{states} states x{repeats})")


def bench_concat(label: str, word_len: int, repeats: int) -> None:
    # register words in the simulators stay short (the default cap is 64
    # letters), so short-word throughput is what matters
    rng = random.Random(7)

    def reduced(k):
        out = []
        while len(out) < k:
            x = rng.choice([1, -1, 2, -2])
            if out and out[-1] == -x:
                continue
            out.append(x)
        return tuple(out)

    pairs = [(reduced(word_len), reduced(word_len)) for _ in range(repeats)]

    t0 = time.perf_counter()
    for u, v in pairs:
        _kernel.concat_reduce_letters(u, v)
    elapsed = time.perf_counter() - t0
    print(f"{label:<28} {elapsed * 1000:8.1f} ms")


def main() -> None:
    bench_dyck("closure, small machines", 12, 60)
    bench_dyck("closure, medium machines", 30, 5)
    bench_dyck("closure, large machines", 60, 1)
    bench_concat("concat, 16-letter words", 16, 200_000)
    bench_concat("concat, 64-letter words", 64, 100_000)


if __name__ == "__main__":
    main()
