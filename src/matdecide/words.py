"""Reduced words of a free group of finite rank.

A word is a sequence of signed generator indices: +i is the i-th generator
(1-based), -i its inverse. Words are reduced eagerly on construction and kept
reduced by every operation, so identity testing is a length check and stack
simulation sees only the reduced content.
"""

from __future__ import annotations

from typing import Iterable

from matdecide import _kernel

_NAMES = "abcdefghijklmnopqrstuvwxyz"


class FreeWord:
    """Immutable reduced word over generators 1..rank."""

    __slots__ = ("rank", "letters", "_hash")

    def __init__(self, letters: Iterable[int] = (), rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        reduced = _kernel.reduce_letters(tuple(int(x) for x in letters))
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
        reduced = _kernel.concat_reduce_letters(self.letters, other.letters)
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
        """Parse the to_text form; accepts ' or ^-1 inverse suffixes and ε."""
        stripped = text.strip()
        if stripped in ("", "ε"):
            return cls((), rank)
        letters = []
        for token in stripped.split():
            inverse = False
            if token.endswith("^-1"):
                inverse = True
                token = token[:-3]
            elif token.endswith("'"):
                inverse = True
                token = token[:-1]
            if len(token) != 1 or token not in _NAMES:
                raise ValueError(f"bad generator token {token!r}")
            idx = _NAMES.index(token) + 1
            if idx > rank:
                raise ValueError(f"generator {token!r} out of range for rank {rank}")
            letters.append(-idx if inverse else idx)
        return cls(letters, rank)

