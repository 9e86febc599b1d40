"""Valence automata: finite automata whose register is multiplied by a matrix
or free-group word on every transition, accepting on accept state + identity
register. Includes the membership/identity machines, their universe-problem
variants, non-invertible edge pruning, the finite-index coset-product
conversion from matrix labels to free-word labels, and one bounded search
over runs for acceptance and witnesses."""

from __future__ import annotations

import enum
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from matdecide.matrix import IntMatrix, _generator_dim, _Record
from matdecide.sanov import CosetTable, schreier_rewrite
from matdecide.words import MAX_RANK, FreeWord

Label = Union[IntMatrix, FreeWord]


class MatrixLabels(_Record):
    __slots__ = _fields = ("dim",)

    def __init__(self, dim: int):
        super().__init__(dim)


class WordLabels(_Record):
    __slots__ = _fields = ("rank",)

    def __init__(self, rank: int):
        if rank > MAX_RANK:
            raise ValueError(f"word rank must be at most {MAX_RANK}, one per generator name, "
                             f"got {rank}")
        super().__init__(rank)


LabelDomain = Union[MatrixLabels, WordLabels]


class Edge(NamedTuple):
    src: str
    symbol: Optional[str]  # None is an epsilon move
    label: Label
    dst: str


class ValenceAutomaton:
    """Immutable automaton; construction validates endpoints and label domain."""

    __slots__ = ("states", "alphabet", "label_domain", "edges", "initial", "accepting")

    def __init__(
        self,
        states: Iterable[str],
        alphabet: Iterable[str],
        label_domain: LabelDomain,
        edges: Iterable[Edge],
        initial: str,
        accepting: Iterable[str],
    ):
        states_t = tuple(dict.fromkeys(states))
        alphabet_t = tuple(dict.fromkeys(alphabet))
        edges_t = tuple(dict.fromkeys(e if isinstance(e, Edge) else Edge(*e) for e in edges))
        accepting_t = frozenset(accepting)
        state_set = set(states_t)
        if initial not in state_set:
            raise ValueError(f"initial state {initial!r} not among states")
        if not accepting_t <= state_set:
            raise ValueError("accepting states must be a subset of states")
        for e in edges_t:
            if e.src not in state_set or e.dst not in state_set:
                raise ValueError(f"edge endpoint not among states: {e.src!r} -> {e.dst!r}")
            if e.symbol is not None and e.symbol not in alphabet_t:
                raise ValueError(f"edge symbol {e.symbol!r} not in alphabet")
            self._check_label(label_domain, e.label)
        object.__setattr__(self, "states", states_t)
        object.__setattr__(self, "alphabet", alphabet_t)
        object.__setattr__(self, "label_domain", label_domain)
        object.__setattr__(self, "edges", edges_t)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", accepting_t)

    def __setattr__(self, name, value):
        raise AttributeError("ValenceAutomaton is immutable")

    def __reduce__(self):  # __slots__ lists the constructor's parameters in order
        return (ValenceAutomaton, tuple(getattr(self, name) for name in self.__slots__))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValenceAutomaton):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return (
            f"ValenceAutomaton({len(self.states)} states, {len(self.edges)} edges, "
            f"{self.label_domain!r})"
        )

    @staticmethod
    def _check_label(domain: LabelDomain, label: Label) -> None:
        if isinstance(domain, MatrixLabels):
            if not isinstance(label, IntMatrix) or label.n != domain.dim:
                raise ValueError(f"label {label!r} does not match matrix dimension {domain.dim}")
        else:
            if not isinstance(label, FreeWord) or label.rank != domain.rank:
                raise ValueError(f"label {label!r} does not match word rank {domain.rank}")


class SimResult(enum.Enum):
    """Tri-state outcome of bounded simulation: acceptance is definitive, a
    plain no is definitive only when no branch hit the register cap."""

    ACCEPTED = "accepted"
    REJECTED_AT_BOUND = "rejected-at-bound"
    NO = "no"


DEFAULT_MATRIX_CAP = 10**6  # max absolute entry
DEFAULT_WORD_CAP = 64  # word length
DEFAULT_CONFIG_BUDGET = 200_000  # explored configurations before giving up


def _unary_machine(
    states: Sequence[str], n: int, edges: list[Edge], accepting: Sequence[str]
) -> ValenceAutomaton:
    """The paper's machines read the one letter a, start in q1 and carry n x n
    matrix labels."""
    return ValenceAutomaton(states, ("a",), MatrixLabels(n), edges, "q1", accepting)


def build_membership_automaton(g: IntMatrix, gens: Sequence[IntMatrix]) -> ValenceAutomaton:
    """Two-state machine whose language is nonempty iff some product
    g * gens[i1] * ... * gens[ik] equals the identity."""
    n = _generator_dim(gens, g)
    edges = [Edge("q1", "a", g, "q2")]
    edges += [Edge("q2", "a", h, "q2") for h in gens]
    return _unary_machine(("q1", "q2"), n, edges, ("q2",))


def build_identity_automaton(gens: Sequence[IntMatrix]) -> ValenceAutomaton:
    """Two-state machine accepting a^k iff some product of k >= 1 generators
    equals the identity; the empty product is excluded by construction."""
    n = _generator_dim(gens)
    edges = [Edge("q1", "a", s, "q2") for s in gens]
    edges += [Edge("q2", "a", s, "q2") for s in gens]
    return _unary_machine(("q1", "q2"), n, edges, ("q2",))


def build_membership_universe_automaton(
    g: IntMatrix, gens: Sequence[IntMatrix]
) -> ValenceAutomaton:
    """Universe-problem variant of the membership machine: both states accept
    and the generator loops also run on epsilon."""
    n = _generator_dim(gens, g)
    edges = [Edge("q1", "a", g, "q2")]
    for h in gens:
        edges.append(Edge("q2", "a", h, "q2"))
        edges.append(Edge("q2", None, h, "q2"))
    return _unary_machine(("q1", "q2"), n, edges, ("q1", "q2"))


def build_identity_universe_automaton(gens: Sequence[IntMatrix]) -> ValenceAutomaton:
    """Universe-problem variant of the identity machine: one state, loops on
    both the input symbol and epsilon."""
    n = _generator_dim(gens)
    edges = []
    for s in gens:
        edges.append(Edge("q1", "a", s, "q1"))
        edges.append(Edge("q1", None, s, "q1"))
    return _unary_machine(("q1",), n, edges, ("q1",))


def prune_noninvertible(v: ValenceAutomaton) -> ValenceAutomaton:
    """Drop every edge whose matrix label is not unimodular. |det| is
    multiplicative over the integers, so a register multiplied by such a label
    never returns to the identity, in any dimension, and the accepted language
    is unchanged. The bounded search over runs calls this first."""
    if not isinstance(v.label_domain, MatrixLabels):
        raise ValueError("pruning applies to matrix-labeled automata")
    kept = [e for e in v.edges if e.label.is_unimodular()]
    return ValenceAutomaton(v.states, v.alphabet, v.label_domain, kept, v.initial, v.accepting)


def to_free_group_automaton(v: ValenceAutomaton, table: CosetTable) -> ValenceAutomaton:
    """Coset-product conversion of a 2x2-labeled automaton into a word-labeled
    one accepting the same language. Edges whose label is not unimodular are
    dropped: a register multiplied by one never returns to the identity.

    States are the (state, coset) pairs reachable from the initial pair
    (v.initial, 0), in breadth-first discovery order. An edge labeled g out of
    a reached pair (q, c) maps to an edge labeled by the word w of the
    Schreier rewrite reps[c] * g = eval(w) * reps[c']. Along any path from the
    initial pair the matrix register equals eval(word register) *
    reps[current coset], so the matrix register is the identity iff the word
    register is empty and the coset is back at the identity coset. Every
    accepting run starts at the initial pair, so leaving out the pairs it
    cannot reach keeps the language.
    """
    if not isinstance(v.label_domain, MatrixLabels) or v.label_domain.dim != 2:
        raise ValueError("conversion requires 2x2 matrix labels")

    def pair(q: str, c: int) -> str:
        return f"{q}|{c}"

    by_src: dict[str, list[Edge]] = {}
    for e in v.edges:
        if e.label.is_unimodular():
            by_src.setdefault(e.src, []).append(e)
    start = (v.initial, 0)
    reached = {start: None}  # a dict, so the order is discovery order
    queue = deque([start])
    edges = []
    cache: dict[tuple[int, IntMatrix], tuple[int, FreeWord]] = {}
    while queue:
        q, c = queue.popleft()
        for e in by_src.get(q, ()):
            key = (c, e.label)
            hit = cache.get(key)
            if hit is None:
                hit = schreier_rewrite(table, c, e.label)
                cache[key] = hit
            c2, w = hit
            dst = (e.dst, c2)
            if dst not in reached:
                reached[dst] = None
                queue.append(dst)
            edges.append(Edge(pair(q, c), e.symbol, w, pair(*dst)))
    return ValenceAutomaton(
        states=[pair(q, c) for q, c in reached],
        alphabet=v.alphabet,
        label_domain=WordLabels(2),
        edges=edges,
        initial=pair(*start),
        accepting=[pair(q, 0) for q in v.accepting if (q, 0) in reached],
    )


def _live_states(v: ValenceAutomaton) -> set[str]:
    """States on some path from the initial state to an accepting state."""
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

    return reach([v.initial], fwd_adj) & reach(v.accepting, bwd_adj)


def _register_size(reg: Label) -> int:
    if isinstance(reg, IntMatrix):
        return reg.max_abs_entry()
    return len(reg)


def _search_runs(
    v: ValenceAutomaton,
    max_len: int,
    register_cap: Optional[int],
    config_budget: int,
    word: Optional[tuple[str, ...]] = None,
) -> tuple[Optional[tuple[str, ...]], bool]:
    """Breadth-first search over configurations (state, register, consumed
    input), one run-length layer at a time, over every input of at most
    max_len symbols, or over the prefixes of `word` when it is given, with
    matrix labels through prune_noninvertible first. A branch whose register
    outgrows the cap (max absolute entry for matrices, length for words) is
    cut, and one configuration budget covers all inputs. Returns the input
    read by a shortest accepting run (shortlex-least over the alphabet among
    those) or None, and whether no branch was cut and the budget held."""
    if isinstance(v.label_domain, MatrixLabels):
        default_cap, register = DEFAULT_MATRIX_CAP, IntMatrix.identity(v.label_domain.dim)
        v = prune_noninvertible(v)
    else:
        default_cap, register = DEFAULT_WORD_CAP, FreeWord.identity(v.label_domain.rank)
    register_cap = default_cap if register_cap is None else register_cap
    # a run through a state off every initial-to-accepting path never
    # accepts, whatever its register, so skipping those states keeps NO exact
    alive = _live_states(v)
    if v.initial not in alive:
        return None, True
    by_src: dict[str, list[Edge]] = {}
    for e in v.edges:
        if e.dst in alive:
            by_src.setdefault(e.src, []).append(e)

    def least(found: list[tuple[str, ...]]) -> Optional[tuple[str, ...]]:
        return min(found, key=lambda s: (len(s), [v.alphabet.index(x) for x in s]), default=None)

    need = 0 if word is None else len(word)  # symbols an accepting run reads
    start = (v.initial, register, ())
    found = [()] if not need and v.initial in v.accepting else []  # the register starts at I
    layer, seen, cut = [start], {start}, False
    while layer and not found:
        nxt = []
        for state, reg, consumed in layer:
            pos = len(consumed)
            for e in by_src.get(state, ()):
                if e.symbol is None:
                    ncons = consumed
                elif pos < max_len and (word is None or word[pos] == e.symbol):
                    ncons = consumed + (e.symbol,)
                else:
                    continue
                nreg = reg * e.label
                if _register_size(nreg) > register_cap:
                    cut = True
                    continue
                conf = (e.dst, nreg, ncons)
                if conf in seen:
                    continue
                if len(ncons) >= need and e.dst in v.accepting and nreg.is_identity():
                    if word is not None:  # every accepting run reads all of it
                        return ncons, False
                    found.append(ncons)
                elif len(seen) >= config_budget:
                    return least(found), False
                else:
                    seen.add(conf)
                    nxt.append(conf)
        layer = nxt
    return least(found), not cut


def bounded_accepts(
    v: ValenceAutomaton,
    w: Sequence[str],
    register_cap: Optional[int] = None,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> SimResult:
    """The bounded search over runs restricted to the input w. ACCEPTED is
    definitive. NO is definitive: the whole configuration space under the cap
    was exhausted with nothing cut, or no run over unimodular labels reaches
    an accepting state. REJECTED_AT_BOUND means a register cut or the
    configuration budget truncated the search, and proves nothing."""
    for sym in w:
        if sym not in v.alphabet:
            raise ValueError(f"input symbol {sym!r} not in the alphabet")
    found, exhausted = _search_runs(v, len(w), register_cap, config_budget, tuple(w))
    if found is not None:
        return SimResult.ACCEPTED
    return SimResult.NO if exhausted else SimResult.REJECTED_AT_BOUND


def shortest_accepted_string(
    v: ValenceAutomaton,
    max_len: int = 8,
    register_cap: Optional[int] = None,
) -> Optional[tuple[str, ...]]:
    """Input of at most max_len symbols read by a shortest accepting run (the
    shortlex-least among those), as its tuple of symbols; None if the bounded
    search, which skips labels that are not unimodular, finds none."""
    return _search_runs(v, max_len, register_cap, DEFAULT_CONFIG_BUDGET)[0]
