"""Pushdown side of the pipeline: conversion of word-labeled valence automata
to pushdown automata, plus two independent emptiness deciders that serve as
mutual oracles.

The stack alphabet is the signed generator letters, and each letter step pops
exactly when the top is that letter's inverse, pushing otherwise. The stack
therefore always holds the free reduction of the register word, and the
register is the identity iff the stack is empty. (Popping only the letter
itself would block on words like a'a, which reduce to the identity without
ever having pushed a.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from matdecide import _kernel
from matdecide.automata import ValenceAutomaton, WordLabels

BOTTOM = 0  # stack-bottom marker used by the emptiness saturation


class PdaTransition(NamedTuple):
    src: str
    symbol: Optional[str]  # None is an epsilon move
    guard: str  # "any" | "top_is" | "top_not"
    guard_letter: Optional[int]
    action: str  # "none" | "push" | "pop"
    action_letter: Optional[int]
    dst: str


@dataclass(frozen=True)
class Pda:
    """Pushdown automaton accepting on accept state + empty stack, starting
    from an empty stack."""

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    stack_rank: int  # stack alphabet is the signed letters +-1..+-rank
    transitions: tuple[PdaTransition, ...]
    initial: str
    accepting: frozenset[str]


class _NormEdge(NamedTuple):
    src: str
    symbol: Optional[str]
    letter: int  # 0 is the empty label
    dst: str


def _split_word_edges(v: ValenceAutomaton) -> tuple[list[str], list[_NormEdge]]:
    """Split multi-letter edge labels into chains of single-letter hops.

    A k-letter label needs k-1 fresh intermediate states; the input symbol is
    consumed on the first hop and the rest run on epsilon. Empty labels become
    a single empty hop.
    """
    if not isinstance(v.label_domain, WordLabels):
        raise ValueError("expected an automaton with free-word labels")
    states = list(v.states)
    taken = set(states)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            name = f"hop{counter}"
            counter += 1
            if name not in taken:
                taken.add(name)
                states.append(name)
                return name

    norm: list[_NormEdge] = []
    for e in v.edges:
        letters = e.label.letters
        if not letters:
            norm.append(_NormEdge(e.src, e.symbol, 0, e.dst))
            continue
        cur = e.src
        for i, x in enumerate(letters):
            dst = e.dst if i == len(letters) - 1 else fresh()
            norm.append(_NormEdge(cur, e.symbol if i == 0 else None, x, dst))
            cur = dst
    return states, norm


def from_free_automaton(v: ValenceAutomaton) -> Pda:
    """Pushdown automaton recognizing the same language as a word-labeled
    valence automaton, via the reduced-word stack discipline."""
    states, norm = _split_word_edges(v)
    rank = v.label_domain.rank
    transitions: list[PdaTransition] = []
    for src, symbol, letter, dst in norm:
        if letter == 0:
            transitions.append(PdaTransition(src, symbol, "any", None, "none", None, dst))
        else:
            transitions.append(
                PdaTransition(src, symbol, "top_is", -letter, "pop", None, dst)
            )
            transitions.append(
                PdaTransition(src, symbol, "top_not", -letter, "push", letter, dst)
            )
    return Pda(
        states=tuple(states),
        input_alphabet=v.alphabet,
        stack_rank=rank,
        transitions=tuple(transitions),
        initial=v.initial,
        accepting=frozenset(v.accepting),
    )


def _stack_symbols(rank: int) -> list[int]:
    syms = [BOTTOM]
    for i in range(1, rank + 1):
        syms.append(i)
        syms.append(-i)
    return syms


def pda_emptiness(p: Pda) -> bool:
    """Exact emptiness by predecessor-set saturation (true = language empty).

    Input symbols do not constrain reachability, so they are projected away.
    Transitions become top-of-stack rewrite rules over the signed letters plus
    a bottom marker; a finite automaton over stack contents, seeded with the
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
    num = {q: i for i, q in enumerate(p.states)}
    syms = _stack_symbols(p.stack_rank)
    for t in p.transitions:
        num.setdefault(t.src, len(num))
        num.setdefault(t.dst, len(num))
        for x in (t.guard_letter, t.action_letter):
            if x is not None and x not in syms:
                syms.append(x)
    for q in (p.initial, *p.accepting):
        num.setdefault(q, len(num))
    pos = {x: i for i, x in enumerate(syms)}  # BOTTOM is at 0
    width = len(syms)
    fin = 1 << len(num)  # unique final node of the configuration automaton

    # set v = num[q] * width + pos[sym]: the nodes read from q on sym
    n_sets = len(num) * width
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

    for t in p.transitions:
        src, dst = num[t.src] * width, num[t.dst] * width
        if t.guard == "any":
            tops = syms
        elif t.guard == "top_is":
            tops = [t.guard_letter]
        else:  # top_not: empty stack (bottom marker) also passes
            tops = [g for g in syms if g != t.guard_letter]
        for top in tops:
            if t.action == "none":
                supersets[dst + pos[top]].append(src + pos[top])
            elif t.action == "pop":
                if top != BOTTOM:  # cannot pop an empty stack
                    grow(src + pos[top], 1 << num[t.dst])
            else:
                pushes[dst + pos[t.action_letter]].append((src + pos[top], pos[top]))

    for qa in p.accepting:
        grow(num[qa] * width, fin)

    goal = num[p.initial] * width
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
    fwd_adj: dict[str, list[str]] = {}
    bwd_adj: dict[str, list[str]] = {}
    for e in v.edges:
        fwd_adj.setdefault(e.src, []).append(e.dst)
        bwd_adj.setdefault(e.dst, []).append(e.src)

    def reach(seeds: Iterable[str], adj: dict[str, list[str]]) -> set[str]:
        seen = set(seeds)
        queue = deque(seen)
        while queue:
            q = queue.popleft()
            for nxt in adj.get(q, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    alive = reach([v.initial], fwd_adj) & reach(v.accepting, bwd_adj)
    if v.initial not in alive:
        return True

    idx = {q: i for i, q in enumerate(q for q in v.states if q in alive)}
    n_states = len(idx)
    edges: list[tuple[int, int, int]] = []
    for e in v.edges:
        if e.src not in alive or e.dst not in alive:
            continue
        letters = e.label.letters
        cur = idx[e.src]
        for x in letters[:-1]:
            edges.append((cur, x, n_states))
            cur = n_states
            n_states += 1
        edges.append((cur, letters[-1] if letters else 0, idx[e.dst]))
    return not _kernel.dyck_nonempty(
        n_states, edges, idx[v.initial], [idx[q] for q in v.accepting if q in alive]
    )


def pda_bounded_accepts(p: Pda, w: Sequence[str], stack_cap: int = 64) -> bool:
    """Semi-decision: BFS over (state, stack, position) configurations with a
    stack-depth cap; True means w is definitely accepted."""
    by_src: dict[str, list[PdaTransition]] = {}
    for t in p.transitions:
        by_src.setdefault(t.src, []).append(t)

    def guard_ok(t: PdaTransition, stack: tuple[int, ...]) -> bool:
        if t.guard == "any":
            return True
        if t.guard == "top_is":
            return bool(stack) and stack[-1] == t.guard_letter
        return not stack or stack[-1] != t.guard_letter

    start = (p.initial, (), 0)
    if p.initial in p.accepting and len(w) == 0:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        state, stack, pos = queue.popleft()
        for t in by_src.get(state, ()):
            if t.symbol is None:
                npos = pos
            elif pos < len(w) and w[pos] == t.symbol:
                npos = pos + 1
            else:
                continue
            if not guard_ok(t, stack):
                continue
            if t.action == "push":
                nstack = stack + (t.action_letter,)
                if len(nstack) > stack_cap:
                    continue
            elif t.action == "pop":
                if not stack:
                    continue  # the bottom of the stack is never popped
                nstack = stack[:-1]
            else:
                nstack = stack
            conf = (t.dst, nstack, npos)
            if conf in seen:
                continue
            if t.dst in p.accepting and not nstack and npos == len(w):
                return True
            seen.add(conf)
            queue.append(conf)
    return False
