"""Bounded product and word searches.

`enumerate_products` is the brute-force ground truth: a breadth-first
enumeration whose visited set is keyed on whole exact matrices, in a
deterministic layer/lex order that makes witnesses reproducible.
`group_word_search` meets in the middle instead: a word of length L is split
into halves of ceil(L/2) and floor(L/2) symbols, so it multiplies about
2*|S|**ceil(L/2) matrices where breadth-first search multiplies |S|**L, and
it returns the same witness the breadth-first search would.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from matdecide.matrix import IntMatrix, _generator_dim

DEFAULT_DEPTH = 8


def enumerate_products(
    gens: Sequence[IntMatrix], max_len: int = DEFAULT_DEPTH
) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
    """All distinct products of 1..max_len generators, each paired with its
    shortest (lexicographically least) witness, in deterministic order."""
    n = _generator_dim(gens)
    seen: set[IntMatrix] = set()
    layer: list[tuple[IntMatrix, tuple[int, ...]]] = [(IntMatrix.identity(n), ())]
    for _ in range(max_len):
        next_layer: list[tuple[IntMatrix, tuple[int, ...]]] = []
        for prod, seq in layer:
            for i, g in enumerate(gens, start=1):
                cand = prod * g
                if cand in seen:
                    continue
                seen.add(cand)
                witness = seq + (i,)
                next_layer.append((cand, witness))
                yield cand, witness
        layer = next_layer


def group_word_search(
    y: IntMatrix, gens: Sequence[IntMatrix], max_len: int = DEFAULT_DEPTH
) -> Optional[tuple[int, ...]]:
    """Search words over the generators and their exact inverses for one whose
    product is y. Witness letters are signed 1-based indices (-i inverts
    generator i); the empty tuple witnesses y = I. None means the bound was
    exhausted, not non-membership.

    The witness is the shortest such word and, among the shortest, the
    lexicographically least over the symbol order [g1, g1^-1, g2, g2^-1, ...].
    """
    _generator_dim(gens, y)
    for g in gens:
        if not g.is_unimodular():
            raise ValueError("group search requires unimodular generators")
    identity = IntMatrix.identity(y.n)
    if y == identity:
        return ()
    # Interleaved [g1, g1^-1, g2, g2^-1, ...]: 0-based symbol j is generator
    # j // 2 + 1 when j is even and its inverse when j is odd, and j ^ 1 is
    # the inverse symbol of j.
    symbols = [m for g in gens for m in (g, g.inverse_unimodular())]
    # layers[t]: product of each word of exactly t symbols -> (the least such
    # word, the inverse of the product). Extending layer t-1 in order, symbol
    # by symbol, meets every product first through its least word, so each
    # layer is also in the lexicographic order of its words.
    layers: list[dict[IntMatrix, tuple[tuple[int, ...], IntMatrix]]] = [
        {identity: ((), identity)}
    ]

    def layer(t: int) -> dict[IntMatrix, tuple[tuple[int, ...], IntMatrix]]:
        while len(layers) <= t:
            nxt: dict[IntMatrix, tuple[tuple[int, ...], IntMatrix]] = {}
            for prod, (word, inv) in layers[-1].items():
                for j, s in enumerate(symbols):
                    cand = prod * s
                    if cand not in nxt:
                        nxt[cand] = (word + (j,), symbols[j ^ 1] * inv)
            layers.append(nxt)
        return layers[t]

    # A word of length L is a left half u of ceil(L/2) symbols and a right
    # half v with product u^-1 y. Lexicographic order on u.v is order on u,
    # then on v, so the first left half in layer order that has a partner,
    # joined with that partner's least word, is the least word of length L.
    for length in range(1, max_len + 1):
        right = layer(length // 2)
        for word, inv in layer((length + 1) // 2).values():
            hit = right.get(inv * y)
            if hit is not None:
                return tuple(j // 2 + 1 if j % 2 == 0 else -(j // 2 + 1)
                             for j in word + hit[0])
    return None
