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

    Every bit set along the way is a pair of R, so the worklist may stop as
    soon as row `initial` meets the bitset `targets`; the rows are then
    partial. With no targets, the default, it runs to the full fixpoint.
    """
    fwd = [0] * n_states  # row p: the q with R(p,q)
    bwd = [0] * n_states  # column q: the p with R(p,q)
    in_by_dst: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]  # dst -> [(letter, src)]
    out_by: dict[tuple[int, int], list[int]] = {}  # (src, letter) -> [dst]
    work: deque[tuple[int, int]] = deque()

    def add(p: int, q: int) -> None:
        if not fwd[p] >> q & 1:
            fwd[p] |= 1 << q
            bwd[q] |= 1 << p
            work.append((p, q))

    for src, letter, dst in edges:
        if letter == 0:
            add(src, dst)
        else:
            in_by_dst[dst].append((letter, src))
            out_by.setdefault((src, letter), []).append(dst)
    for p in range(n_states):
        add(p, p)

    while work and not fwd[initial] & targets:
        p, q = work.popleft()
        for letter, u in in_by_dst[p]:
            for v in out_by.get((q, -letter), ()):
                add(u, v)
        # transitivity on both sides: R(q,r) gives R(p,r), R(o,p) gives R(o,q)
        new = fwd[q] & ~fwd[p]
        if new:
            fwd[p] |= new
            for r in _bits(new):
                bwd[r] |= 1 << p
                work.append((p, r))
        new = bwd[p] & ~bwd[q]
        if new:
            bwd[q] |= new
            for o in _bits(new):
                fwd[o] |= 1 << q
                work.append((o, q))

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
