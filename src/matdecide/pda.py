"""Emptiness of a word-labeled valence automaton, the question every 2x2
decision ends in, and the hop graph both of its engines read.

One split turns the edges into hops that carry one letter each: a k-letter
label becomes k hops, and an empty label becomes one hop with letter 0.
Letters are nonzero signed ints, +i for generator i and -i for its inverse.
The exact decider is the identity-reachability closure over that hop graph.
The cross-check reads the same hops as a `Pda` with a fixed stack discipline
over the signed letters: letter 0 leaves the stack alone, and letter x pops
when the top is -x and pushes x otherwise. The stack therefore always holds
the free reduction of the register word, and the register is the identity iff
the stack is empty. (Popping only the letter itself would block on words like
a'a, which reduce to the identity without ever having pushed a.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from matdecide.automata import ValenceAutomaton, WordLabels, _live_states


def _split_hops(
    v: ValenceAutomaton, states: Iterable[str]
) -> tuple[dict[str, int], int, list[tuple[int, int, int]], list[Optional[str]]]:
    """Number `states` in order, then split the label of every edge between
    two of them into single-letter hops, numbering the fresh intermediate
    states after them. The input symbol is consumed on the first hop and the
    rest run on epsilon; an empty label becomes one letter-0 hop.

    Returns the numbering, the state count, the hops as (src, letter, dst)
    and, in a parallel list, the input symbol of each hop.
    """
    idx = {q: i for i, q in enumerate(states)}
    n_states = len(idx)
    hops: list[tuple[int, int, int]] = []
    symbols: list[Optional[str]] = []
    for src, symbol, label, dst in v.edges:
        if src not in idx or dst not in idx:
            continue
        letters = label.letters
        cur = idx[src]
        for x in letters[:-1]:
            hops.append((cur, x, n_states))
            symbols.append(symbol)
            symbol = None
            cur = n_states
            n_states += 1
        hops.append((cur, letters[-1] if letters else 0, idx[dst]))
        symbols.append(symbol)
    return idx, n_states, hops, symbols


def _closure_rows(
    n_states: int, edges: Sequence[tuple[int, int, int]], initial: int = 0, targets: int = 0
) -> list[int]:
    """Rows of the closure as bitsets: bit q of row p is set iff R(p,q).

    R is the least relation on states closed under R(p,p); R(p,q) for every
    letter-0 edge p->q; transitivity; and the wrap rule: edges p -x-> p' and
    q' -(-x)-> q with R(p',q') give R(p,q). So R(p,q) says q is reachable
    from p along a path whose letters freely reduce to the empty word. Edges
    are (src, letter, dst).

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


def free_automaton_emptiness(v: ValenceAutomaton) -> bool:
    """Exact emptiness of a word-labeled valence automaton (true = empty).

    Trims states off every initial-to-accepting path in the underlying
    digraph, splits the surviving edges into single-letter hops, then asks the
    identity-reachability closure whether an accepting state is reachable
    from the initial one along a path whose label reduces to the empty word.
    Trimming first gives the same states as trimming after the split: a hop
    lies on an initial-to-accepting path iff both ends of its edge do.
    """
    if not isinstance(v.label_domain, WordLabels):
        raise ValueError("expected an automaton with free-word labels")
    alive = _live_states(v)
    if v.initial not in alive:
        return True
    idx, n_states, hops, _ = _split_hops(v, [q for q in v.states if q in alive])
    return not dyck_nonempty(
        n_states, hops, idx[v.initial], [idx[q] for q in v.accepting if q in alive]
    )


@dataclass(frozen=True)
class Pda:
    """Hop graph read as a pushdown automaton, accepting on accept state +
    empty stack, starting from an empty stack. States are 0..n_states-1."""

    n_states: int
    stack_rank: int  # stack alphabet is the signed letters +-1..+-rank
    hops: tuple[tuple[int, Optional[str], int, int], ...]  # (src, symbol, letter, dst)
    initial: int
    accepting: frozenset[int]


def from_free_automaton(v: ValenceAutomaton) -> Pda:
    """Pushdown automaton recognizing the same language as a word-labeled
    valence automaton: its hop graph over all states, untrimmed."""
    if not isinstance(v.label_domain, WordLabels):
        raise ValueError("expected an automaton with free-word labels")
    idx, n_states, hops, symbols = _split_hops(v, v.states)
    return Pda(
        n_states=n_states,
        stack_rank=v.label_domain.rank,
        hops=tuple((s, sym, x, d) for (s, x, d), sym in zip(hops, symbols)),
        initial=idx[v.initial],
        accepting=frozenset(idx[q] for q in v.accepting),
    )


def pda_emptiness(p: Pda) -> bool:
    """Exact emptiness by predecessor-set saturation (true = language empty).

    Input symbols do not constrain reachability, so they are projected away.
    Hops become top-of-stack rewrite rules over the signed letters plus a
    bottom marker; a finite automaton over stack contents, seeded with the
    accepting empty-stack configurations, is saturated until it recognizes
    every configuration that can reach one. The language is nonempty iff the
    initial configuration (initial state, bare bottom marker) is recognized.

    The configuration automaton is held as one bitset per (state, stack
    symbol): the nodes it reaches from that state on that symbol. A rule
    that rewrites a top into one symbol makes one bitset include another; a
    push rule adds such an inclusion for every node the pushed symbol leads
    to. Only the bits a set gains are passed on, and the saturation stops
    once the initial configuration is recognized.
    """
    # the bottom marker sits at position 0, letter x > 0 at 2x - 1 and -x at 2x
    width = 2 * p.stack_rank + 1
    tops = range(width)

    def pos(x: int) -> int:
        return 2 * x - 1 if x > 0 else -2 * x

    fin = 1 << p.n_states  # unique final node of the configuration automaton

    # set v = q * width + pos(sym): the nodes read from q on sym
    n_sets = p.n_states * width
    reach = [0] * n_sets
    unsent = [0] * n_sets  # bits of reach[v] not yet passed on
    supersets: list[list[int]] = [[] for _ in range(n_sets)]
    # set of (dst, pushed symbol) -> (set of (src, top), pos of top)
    pushes: list[list[tuple[int, int]]] = [[] for _ in range(n_sets)]
    work: deque[int] = deque()

    def grow(v: int, bits: int) -> None:
        new = bits & ~reach[v]
        if new:
            reach[v] |= new
            if not unsent[v]:
                work.append(v)
            unsent[v] |= new

    for src, _, letter, dst in p.hops:
        src_set, dst_set = src * width, dst * width
        if letter == 0:
            for top in tops:
                supersets[dst_set + top].append(src_set + top)
            continue
        inverse = pos(-letter)
        grow(src_set + inverse, 1 << dst)  # pop: the top is the inverse letter
        pushed = pushes[dst_set + pos(letter)]
        for top in tops:
            if top != inverse:  # push on any other top, the bottom marker too
                pushed.append((src_set + top, top))

    for qa in p.accepting:
        grow(qa * width, fin)

    goal = p.initial * width
    while work and not reach[goal] & fin:
        v = work.popleft()
        new = unsent[v]
        unsent[v] = 0
        for w in supersets[v]:
            grow(w, new)
        if pushes[v]:
            mids = new & ~fin  # the final node reads nothing
            while mids:
                low = mids & -mids
                mids ^= low
                mid = (low.bit_length() - 1) * width
                for w, top in pushes[v]:
                    supersets[mid + top].append(w)
                    grow(w, reach[mid + top])

    return not reach[goal] & fin
