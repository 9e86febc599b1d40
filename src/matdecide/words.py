"""Reduced words of a free group of finite rank.

A word is a sequence of signed generator indices: +i is the i-th generator
(1-based), -i its inverse. Words are reduced eagerly on construction and kept
reduced by every operation, so identity testing is a length check and stack
simulation sees only the reduced content.

The text form names the generators a, b, c, ... in order, so a rank is at
most 26. A token is a name, or a name with a ' or ^-1 suffix for its
inverse; tokens are separated by any whitespace, and the text is reduced on
reading. The identity is written ε, and the empty text reads as it too.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

_NAMES = "abcdefghijklmnopqrstuvwxyz"
MAX_RANK = len(_NAMES)

# Per rank, every valid token and its letter; filled on first use of a rank.
_TOKENS: dict[int, dict[str, int]] = {}


def _check_rank(rank: int) -> int:
    rank = index(rank)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > MAX_RANK:
        raise ValueError(f"rank must be at most {MAX_RANK}, one per generator name")
    return rank


def _token_table(rank: int) -> dict[str, int]:
    table = _TOKENS.get(rank)
    if table is None:
        table = {}
        for i, name in enumerate(_NAMES[:rank], 1):
            table[name] = i
            table[name + "'"] = table[name + "^-1"] = -i
        _TOKENS[rank] = table
    return table


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


class FreeWord:
    """Immutable reduced word over generators 1..rank."""

    __slots__ = ("rank", "letters", "_hash")

    def __init__(self, letters: Iterable[int] = (), rank: int = 2):
        rank = _check_rank(rank)
        reduced = reduce_letters(map(index, letters))
        for x in reduced:
            if x == 0 or abs(x) > rank:
                raise ValueError(f"letter {x} out of range for rank {rank}")
        self._set(reduced, rank)

    def _set(self, letters: tuple[int, ...], rank: int) -> "FreeWord":
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash((rank, letters)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    def __reduce__(self):
        return (FreeWord, (self.letters, self.rank))

    @classmethod
    def identity(cls, rank: int = 2) -> "FreeWord":
        return cls((), rank)

    def concat(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        reduced = concat_reduce_letters(self.letters, other.letters)
        return FreeWord.__new__(FreeWord)._set(reduced, self.rank)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.concat(other)

    def inverse(self) -> "FreeWord":
        # The inverse of a reduced word is reduced and in range: no re-check.
        letters = tuple(-x for x in reversed(self.letters))
        return FreeWord.__new__(FreeWord)._set(letters, self.rank)

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeWord)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FreeWord({self.to_text()!r}, rank={self.rank})"

    def to_text(self) -> str:
        """Render as generator names with ' marking inverses, e.g. "a b' a"."""
        if not self.letters:
            return "ε"
        parts = []
        for x in self.letters:
            name = _NAMES[abs(x) - 1]
            parts.append(name if x > 0 else name + "'")
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str, rank: int = 2) -> "FreeWord":
        """Parse the text form of the module docstring, to_text's among them.

        Tokens are looked up in the rank's token table; the first token that
        is not there is named in the ValueError, without its suffix.
        """
        rank = _check_rank(rank)
        tokens = text.split()
        if tokens == ["ε"]:
            tokens = []
        try:
            letters = reduce_letters(map(_token_table(rank).__getitem__, tokens))
        except KeyError as exc:
            token = exc.args[0]
            name = token[:-3] if token.endswith("^-1") else token.removesuffix("'")
            if len(name) == 1 and name in _NAMES:
                raise ValueError(f"generator {name!r} out of range for rank {rank}") from None
            raise ValueError(f"bad generator token {name!r}") from None
        return cls.__new__(cls)._set(letters, rank)
