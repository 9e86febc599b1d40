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
from itertools import compress
from typing import Iterable, Optional, Sequence

from matdecide.automata import ValenceAutomaton, WordLabels, _live_states
from matdecide.matrix import _Record


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

    Row p is {p} and row v for every link p -> v: every v with p -0-> v, or
    with p -x-> p', q' in row p' and q' -(-x)-> v. deps[v] holds the rows
    linked to v. A link to a v already in row p is skipped, since a chain of
    links already carries row v there. The bits a row gains wait in
    `pending`, and the row waits in the FIFO queue once. Processing row v
    hands them, one bitset operation each, to every row in deps[v] and to
    the wrap of every edge into v, which may add links. A row that gains bits
    through a wrap and is not waiting goes to the front, so unary hop chains
    close depth-first. A delta of over 8 bits is first cut to the states with
    an edge of the inverse letter.

    Cost: each bit of a row is delivered once, so row v is processed at most
    n times, each time for |deps[v]| operations and, per edge into v, one per
    delivered bit and one per candidate successor (a new link, or a bit its
    row gained earlier in the same wrap). That sums to O(n·(M + m))
    operations on n-bit rows, where M <= n² counts the links and m the edges.

    Every bit set along the way is a pair of R, so the work may stop as soon
    as row `initial` meets the bitset `targets`; the rows are then partial.
    With no targets, the default, it runs to the full fixpoint.
    """
    unit = [1 << p for p in range(n_states)]
    fwd = unit[:]
    out: dict[int, list[int]] = {}  # letter y -> row q: the v with q -y-> v
    pending = [0] * n_states
    deps: dict[int, list[int]] = {}
    for src, letter, dst in edges:
        if letter:
            row = out.get(letter)
            if row is None:
                row = out[letter] = [0] * n_states
            succ = row[src]  # a row with one successor shares its unit bitset
            row[src] = succ | unit[dst] if succ else unit[dst]
        elif not fwd[src] & unit[dst]:
            fwd[src] |= unit[dst]  # the rest of row dst comes through deps[dst]
            pending[src] |= unit[dst]
            deps.setdefault(dst, []).append(src)
    # wraps[v]: (u, out[-x], -x) for every edge u -x-> v whose inverse letter
    # occurs; a bit q of row v links u to every w in out[-x][q]
    wraps: dict[int, list[tuple[int, list[int], int]]] = {}
    for src, letter, dst in edges:
        row = out.get(-letter)
        if row is not None:
            wraps.setdefault(dst, []).append((src, row, -letter))
            if row[dst]:  # the reflexive bit of dst wraps
                pending[dst] |= unit[dst]

    masks: dict[int, int] = {}  # letter y -> the states with an edge of y
    work = deque(compress(range(n_states), pending))
    popleft, append, appendleft = work.popleft, work.append, work.appendleft
    while work and not fwd[initial] & targets:
        v = popleft()
        new, pending[v] = pending[v], 0
        for p in deps.get(v, ()):
            gain = new ^ (new & fwd[p])  # new & ~fwd[p], without complementing
            if gain:
                fwd[p] |= gain
                if not pending[p]:
                    append(p)
                pending[p] |= gain
        wide = new.bit_count() > 8
        if wide and not masks:
            masks = {y: sum(compress(unit, row)) for y, row in out.items()}
        # reversed, so that the rows linked through the first edge go first
        for u, row, y in reversed(wraps.get(v, ())):
            hit = new & masks[y] if wide else new
            succ = 0
            while hit:
                q = hit.bit_length() - 1
                hit ^= unit[q]
                succ |= row[q]
            succ ^= succ & fwd[u]
            while succ:
                w = succ.bit_length() - 1
                succ ^= unit[w]
                if not fwd[u] & unit[w]:  # else row u gained w through an earlier link
                    deps.setdefault(w, []).append(u)
                    gain = fwd[w] ^ (fwd[w] & fwd[u])
                    fwd[u] |= gain
                    if not pending[u]:
                        appendleft(u)
                    pending[u] |= gain

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


class Pda(_Record):
    """Hop graph read as a pushdown automaton, accepting on accept state +
    empty stack, starting from an empty stack. States are 0..n_states-1."""

    __slots__ = _fields = ("n_states", "hops", "initial", "accepting")
    n_states: int
    hops: tuple[tuple[int, Optional[str], int, int], ...]  # (src, symbol, letter, dst)
    initial: int
    accepting: frozenset[int]

    def __init__(self, n_states: int, hops: tuple, initial: int, accepting: frozenset[int]):
        super().__init__(n_states, hops, initial, accepting)


def from_free_automaton(v: ValenceAutomaton) -> Pda:
    """Pushdown automaton recognizing the same language as a word-labeled
    valence automaton: its hop graph over all states, untrimmed."""
    if not isinstance(v.label_domain, WordLabels):
        raise ValueError("expected an automaton with free-word labels")
    idx, n_states, hops, symbols = _split_hops(v, v.states)
    return Pda(
        n_states=n_states,
        hops=tuple((s, sym, x, d) for (s, x, d), sym in zip(hops, symbols)),
        initial=idx[v.initial],
        accepting=frozenset(idx[q] for q in v.accepting),
    )


def pda_emptiness(p: Pda) -> bool:
    """Exact emptiness by predecessor-set saturation (true = language empty).

    Input symbols do not constrain reachability, so they are projected away.
    Hops become top-of-stack rewrite rules over a bottom marker and the
    letters the hops push; a run from the initial configuration never holds
    another letter, so the tables grow with the hops, not with the word
    rank. A finite automaton over stack contents, seeded with the accepting
    empty-stack configurations, is saturated until it recognizes every
    configuration that can reach one. The language is nonempty iff the
    initial configuration (initial state, bare bottom marker) is recognized.

    The configuration automaton is held as one bitset per (state, stack
    symbol): the nodes it reaches from that state on that symbol. A rule
    that rewrites a top into one symbol makes one bitset include another; a
    push rule adds such an inclusion for every node the pushed symbol leads
    to. Only the bits a set gains are passed on, and the saturation stops
    once the initial configuration is recognized.
    """
    # position of each stack symbol: the bottom marker (key 0) first, then
    # every letter a hop pushes, in order of first use
    pos = {0: 0}
    for _, _, letter, _ in p.hops:
        pos.setdefault(letter, len(pos))
    width = len(pos)
    tops = range(width)

    fin = 1 << p.n_states  # unique final node of the configuration automaton

    # set v = q * width + pos[sym]: the nodes read from q on sym
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
        inverse = pos.get(-letter)  # None when no hop pushes the inverse
        if inverse is not None:
            grow(src_set + inverse, 1 << dst)  # pop: the top is the inverse letter
        pushed = pushes[dst_set + pos[letter]]
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
