"""Pushdown side of the pipeline: the hop graph of a word-labeled valence
automaton, read as a pushdown automaton, and two independent emptiness
deciders that serve as mutual oracles.

Both deciders read one split of the edges into hops: a k-letter label becomes
k hops that carry one letter each, and an empty label becomes one hop with
letter 0. A `Pda` is that hop graph with a fixed stack discipline over the
signed letters: letter 0 leaves the stack alone, and letter x pops when the
top is -x and pushes x otherwise. The stack therefore always holds the free
reduction of the register word, and the register is the identity iff the
stack is empty. (Popping only the letter itself would block on words like
a'a, which reduce to the identity without ever having pushed a.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from matdecide import _kernel
from matdecide.automata import ValenceAutomaton, WordLabels, _live_states


@dataclass(frozen=True)
class Pda:
    """Hop graph read as a pushdown automaton, accepting on accept state +
    empty stack, starting from an empty stack. States are 0..n_states-1."""

    n_states: int
    input_alphabet: tuple[str, ...]
    stack_rank: int  # stack alphabet is the signed letters +-1..+-rank
    hops: tuple[tuple[int, Optional[str], int, int], ...]  # (src, symbol, letter, dst)
    initial: int
    accepting: frozenset[int]


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


def from_free_automaton(v: ValenceAutomaton) -> Pda:
    """Pushdown automaton recognizing the same language as a word-labeled
    valence automaton: its hop graph over all states, untrimmed."""
    if not isinstance(v.label_domain, WordLabels):
        raise ValueError("expected an automaton with free-word labels")
    idx, n_states, hops, symbols = _split_hops(v, v.states)
    return Pda(
        n_states=n_states,
        input_alphabet=v.alphabet,
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
    return not _kernel.dyck_nonempty(
        n_states, hops, idx[v.initial], [idx[q] for q in v.accepting if q in alive]
    )

