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
        if not next_layer:  # no new product, so no longer one either
            return
        layer = next_layer


def group_word_search(
    y: IntMatrix, gens: Sequence[IntMatrix], max_len: int = DEFAULT_DEPTH
) -> Optional[tuple[int, ...]]:
    """Search words over the generators and their exact inverses for one whose
    product is y. Generators without an integer inverse (determinant not
    +-1) are skipped. Witness letters are signed 1-based positions in gens
    (-i inverts generator i), so a skipped generator keeps its index; the
    empty tuple witnesses y = I, also when every generator is skipped. None
    means the bound was exhausted, not non-membership.

    The witness is the shortest such word and, among the shortest, the
    lexicographically least over the symbol order [g1, g1^-1, g2, g2^-1, ...].
    """
    _generator_dim(gens, y)
    identity = IntMatrix.identity(y.n)
    # Interleaved [g1, g1^-1, g2, g2^-1, ...] over the unimodular generators:
    # 0-based symbol j is letters[j], and j ^ 1 is the inverse symbol of j.
    symbols: list[IntMatrix] = []
    letters: list[int] = []
    for i, g in enumerate(gens, start=1):
        if g.is_unimodular():
            symbols += (g, g.inverse_unimodular())
            letters += (i, -i)
    # layers[t]: product of each word of exactly t symbols -> (the product
    # one symbol shorter, that symbol, the inverse of the product). Extending
    # layer t-1 in order, symbol by symbol, meets every product first through
    # its least word, so each layer is in the lexicographic order of its words
    # and a product's least word is its prefix's least word plus one symbol.
    # The back-pointers rebuild it on a hit, in memory quadratic in the bound
    # where whole words would take cubic.
    Entry = tuple[Optional[IntMatrix], int, IntMatrix]
    layers: list[dict[IntMatrix, Entry]] = [{identity: (None, -1, identity)}]

    def layer(t: int) -> dict[IntMatrix, Entry]:
        while len(layers) <= t:
            nxt: dict[IntMatrix, Entry] = {}
            for prod, (_, _, inv) in layers[-1].items():
                for j, s in enumerate(symbols):
                    cand = prod * s
                    if cand not in nxt:
                        nxt[cand] = (prod, j, symbols[j ^ 1] * inv)
            layers.append(nxt)
        return layers[t]

    def least_word(t: int, prod: IntMatrix) -> list[int]:
        word = []
        for k in range(t, 0, -1):
            prod, j, _ = layers[k][prod]
            word.append(letters[j])
        return word[::-1]

    # A word of length L is a left half u of ceil(L/2) symbols and a right
    # half v with product u^-1 y. Lexicographic order on u.v is order on u,
    # then on v, so the first left half in layer order that has a partner,
    # joined with that partner's least word, is the least word of length L.
    # Length 0 is the empty word, which matches y = I.
    #
    # P_t, the products of exactly t symbols (layer t's keys), contains
    # P_{t-2} (append s s^-1). Once P_t = P_{t-2}, P_{t+1} = P_t S = P_{t-1},
    # so the layers repeat with period 2 from t-2 on. A length-L word matches
    # iff y is in P_L, and lengths t-2 and t-1 were checked before layer t
    # was built, so no longer word can match. dict_keys compare sizes first.
    for length in range(max_len + 1):
        right = layer(length // 2)
        left = layer((length + 1) // 2)
        if len(layers) > 2 and layers[-1].keys() == layers[-3].keys():
            return None
        for prod, (_, _, inv) in left.items():
            half = inv * y
            if half in right:
                return tuple(least_word((length + 1) // 2, prod)
                             + least_word(length // 2, half))
    return None
