"""Kernels for the two hot paths: free-word reduction and the
identity-reachability closure behind the emptiness decider.

Letters are nonzero signed ints: +i is generator i, -i its inverse, and 0 is
reserved for the empty label on normalized automaton edges.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x, -x pairs)."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat_reduce_letters(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """Reduced concatenation of two already-reduced letter sequences.

    Cancellation can only happen at the seam, so this is O(cancelled length).
    """
    i = len(u) - 1
    j = 0
    while i >= 0 and j < len(v) and u[i] == -v[j]:
        i -= 1
        j += 1
    return tuple(u[: i + 1]) + tuple(v[j:])


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure_rows(
    n_states: int, edges: Sequence[tuple[int, int, int]], initial: int = 0, targets: int = 0
) -> list[int]:
    """Rows of the closure as bitsets: bit q of row p is set iff R(p,q).

    Every row starts with its reflexive bit. Each pair enters the FIFO
    worklist once, when its bit is set; a reflexive pair (p,p) is queued only
    where an edge into p can wrap around an edge out of p, since popping any
    other one derives nothing. Every bit set along the way is a pair of R, so
    the worklist may stop as soon as row `initial` meets the bitset
    `targets`; the rows are then partial. With no targets, the default, it
    runs to the full fixpoint.
    """
    unit = [1 << p for p in range(n_states)]
    fwd = unit[:]  # row p: the q with R(p,q)
    bwd = unit[:]  # column q: the p with R(p,q)
    out: dict[int, list[int]] = {}  # letter y -> row q: the v with q -y-> v
    work: deque[tuple[int, int]] = deque()
    for src, letter, dst in edges:
        if letter:
            row = out.get(letter)
            if row is None:
                row = out[letter] = [0] * n_states
            succ = row[src]  # a row with one successor shares its unit bitset
            row[src] = succ | unit[dst] if succ else unit[dst]
        elif not fwd[src] & unit[dst]:
            fwd[src] |= unit[dst]
            bwd[dst] |= unit[src]
            work.append((src, dst))
    # wraps[p]: (u, out[-x]) for every edge u -x-> p whose inverse letter
    # occurs; R(p,q) then gives R(u,v) for every v in out[-x][q]
    wraps: list[list[tuple[int, list[int]]]] = [[] for _ in range(n_states)]
    seeds: set[int] = set()
    for src, letter, dst in edges:
        row = out.get(-letter)
        if row is not None:
            wraps[dst].append((src, row))
            if row[dst]:
                seeds.add(dst)
    work.extend((p, p) for p in sorted(seeds))

    popleft, append = work.popleft, work.append
    while work and not fwd[initial] & targets:
        p, q = popleft()
        for u, row in wraps[p]:
            # new = row[q] & ~fwd[u], without complementing a long row
            new = row[q]
            new ^= new & fwd[u]
            if new:
                fwd[u] |= new
                bit = unit[u]
                while new:
                    v = new.bit_length() - 1
                    bwd[v] |= bit
                    append((u, v))
                    new ^= unit[v]
        # transitivity on both sides: R(q,r) gives R(p,r), R(o,p) gives R(o,q)
        new = fwd[q]
        new ^= new & fwd[p]
        if new:
            fwd[p] |= new
            bit = unit[p]
            while new:
                r = new.bit_length() - 1
                bwd[r] |= bit
                append((p, r))
                new ^= unit[r]
        new = bwd[p]
        new ^= new & bwd[q]
        if new:
            bwd[q] |= new
            bit = unit[q]
            while new:
                o = new.bit_length() - 1
                fwd[o] |= bit
                append((o, q))
                new ^= unit[o]

    return fwd


def dyck_closure(n_states: int, edges: Sequence[tuple[int, int, int]]) -> set[tuple[int, int]]:
    """Least relation R on states closed under:

      R(p,p); R(p,q) for every empty-label edge p->q; transitivity; and the
      wrap rule: edges p -x-> p', q' -(-x)-> q with R(p',q') give R(p,q).

    R(p,q) says q is reachable from p along a path whose letters freely reduce
    to the empty word. Edges are (src, letter, dst) with letter 0 meaning the
    empty label. The worklist fixpoint adds each pair once, so it terminates
    after at most n_states**2 additions.
    """
    fwd = _closure_rows(n_states, edges)
    return {(p, q) for p in range(n_states) for q in _bits(fwd[p])}


def dyck_nonempty(
    n_states: int,
    edges: Sequence[tuple[int, int, int]],
    initial: int,
    accepting: Sequence[int],
) -> bool:
    """True iff some accepting state is identity-reachable from the initial one.

    The closure stops as soon as the initial row holds an accepting state.
    """
    targets = 0
    for q in accepting:
        targets |= 1 << q
    if not targets:
        return False
    return bool(_closure_rows(n_states, edges, initial, targets)[initial] & targets)
