"""Brute-force ground truth: exhaustive product enumeration and group-word
search. Deliberately unclever — the visited set is keyed on whole exact
matrices, and the deterministic layer/lex order makes witnesses reproducible.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from matdecide.matrix import IntMatrix

DEFAULT_DEPTH = 8


def enumerate_products(
    gens: Sequence[IntMatrix], max_len: int = DEFAULT_DEPTH
) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
    """All distinct products of 1..max_len generators, each paired with its
    shortest (lexicographically least) witness, in deterministic order."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    dims = {g.n for g in gens}
    if len(dims) != 1:
        raise ValueError(f"matrices of mixed dimensions: {sorted(dims)}")
    n = gens[0].n
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
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    dims = {m.n for m in [y, *gens]}
    if len(dims) != 1:
        raise ValueError(f"matrices of mixed dimensions: {sorted(dims)}")
    for g in gens:
        if not g.is_unimodular():
            raise ValueError("group search requires unimodular generators")
    if y == IntMatrix.identity(y.n):
        return ()
    # Interleaved [g1, g1^-1, g2, g2^-1, ...]: 1-based index j is generator
    # (j + 1) // 2 when j is odd and its inverse when j is even.
    symbols = [m for g in gens for m in (g, g.inverse_unimodular())]
    for prod, seq in enumerate_products(symbols, max_len):
        if prod == y:
            return tuple((j + 1) // 2 if j % 2 else -(j // 2) for j in seq)
    return None
