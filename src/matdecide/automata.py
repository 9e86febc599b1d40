"""Valence automata: finite automata whose register is multiplied by a matrix
or free-group word on every transition, accepting on accept state + identity
register. Includes the membership/identity machines, their universe-problem
variants, non-invertible edge pruning, and the finite-index coset-product
conversion from matrix labels to free-word labels.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from matdecide.matrix import IntMatrix, _generator_dim
from matdecide.sanov import CosetTable, schreier_rewrite
from matdecide.words import FreeWord

Label = Union[IntMatrix, FreeWord]


@dataclass(frozen=True)
class MatrixLabels:
    dim: int


@dataclass(frozen=True)
class WordLabels:
    rank: int


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
        edges_t = tuple(dict.fromkeys(Edge(*e) for e in edges))
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
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.label_domain == other.label_domain
            and self.edges == other.edges
            and self.initial == other.initial
            and self.accepting == other.accepting
        )

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

    def identity_register(self) -> Label:
        if isinstance(self.label_domain, MatrixLabels):
            return IntMatrix.identity(self.label_domain.dim)
        return FreeWord.identity(self.label_domain.rank)


class Configuration(NamedTuple):
    state: str
    register: Label
    position: int


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
    """Drop every edge whose matrix label is not unimodular. A register that
    has been multiplied by a singular matrix can never return to the identity,
    so the accepted language is unchanged."""
    if not isinstance(v.label_domain, MatrixLabels):
        raise ValueError("pruning applies to matrix-labeled automata")
    kept = [e for e in v.edges if e.label.is_unimodular()]
    return ValenceAutomaton(v.states, v.alphabet, v.label_domain, kept, v.initial, v.accepting)


def to_free_group_automaton(v: ValenceAutomaton, table: CosetTable) -> ValenceAutomaton:
    """Coset-product conversion of a unimodular 2x2-labeled automaton into a
    word-labeled one accepting the same language.

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
    for e in v.edges:
        if not e.label.is_unimodular():
            raise ValueError("non-unimodular label; prune the automaton first")

    def pair(q: str, c: int) -> str:
        return f"{q}|{c}"

    by_src: dict[str, list[Edge]] = {}
    for e in v.edges:
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


def bounded_accepts(
    v: ValenceAutomaton,
    w: Sequence[str],
    register_cap: Optional[int] = None,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> SimResult:
    """BFS over configurations (state, register, input position), cutting any
    branch whose register outgrows the cap (max absolute entry for matrices,
    length for words). ACCEPTED is definitive. NO is definitive: it means the
    whole configuration space under the cap was exhausted with nothing cut.
    REJECTED_AT_BOUND means the search was truncated, by a register cut or by
    the configuration budget, and proves nothing.
    """
    if register_cap is None:
        register_cap = (
            DEFAULT_MATRIX_CAP if isinstance(v.label_domain, MatrixLabels) else DEFAULT_WORD_CAP
        )
    for sym in w:
        if sym not in v.alphabet:
            raise ValueError(f"input symbol {sym!r} not in the alphabet")

    # a run through a state off every initial-to-accepting path never
    # accepts, whatever its register, so skipping those states keeps NO exact
    alive = _live_states(v)
    if v.initial not in alive:
        return SimResult.NO
    by_src: dict[str, list[Edge]] = {}
    for e in v.edges:
        if e.dst in alive:
            by_src.setdefault(e.src, []).append(e)

    start = Configuration(v.initial, v.identity_register(), 0)

    def accepts(c: Configuration) -> bool:
        return c.position == len(w) and c.state in v.accepting and c.register.is_identity()

    if accepts(start):
        return SimResult.ACCEPTED
    queue = deque([start])
    seen = {start}
    cut = False
    while queue:
        state, reg, pos = queue.popleft()
        for e in by_src.get(state, ()):
            if e.symbol is None:
                npos = pos
            elif pos < len(w) and w[pos] == e.symbol:
                npos = pos + 1
            else:
                continue
            nreg = reg * e.label
            if _register_size(nreg) > register_cap:
                cut = True
                continue
            conf = Configuration(e.dst, nreg, npos)
            if conf in seen:
                continue
            if accepts(conf):
                return SimResult.ACCEPTED
            if len(seen) >= config_budget:
                return SimResult.REJECTED_AT_BOUND
            seen.add(conf)
            queue.append(conf)
    return SimResult.REJECTED_AT_BOUND if cut else SimResult.NO


def shortest_accepted_string(
    v: ValenceAutomaton,
    max_len: int = 8,
    register_cap: Optional[int] = None,
) -> Optional[str]:
    """First input string the bounded simulator accepts, in shortlex order
    over the alphabet; None if nothing is found within the bounds."""
    if bounded_accepts(v, (), register_cap) is SimResult.ACCEPTED:
        return ""
    for length in range(1, max_len + 1):
        for combo in itertools.product(v.alphabet, repeat=length):
            if bounded_accepts(v, combo, register_cap) is SimResult.ACCEPTED:
                return "".join(combo)
    return None
