"""The Sanov subgroup: a concrete free rank-2 subgroup of finite index in
GL(2,Z), with exact membership/factorization and Schreier coset rewriting.

The subgroup is generated by [[1,2],[0,1]] and [[1,0],[2,1]]; it is free of
rank 2 and consists of exactly those determinant-1 matrices congruent to I
mod 2 whose continued-fraction peeling (below) terminates at +I. Its index in
GL(2,Z) is 24 = [GL:SL] * [SL:Gamma(2)] * [Gamma(2):Sanov] = 2 * 6 * 2.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from matdecide.matrix import IntMatrix, _Record
from matdecide.words import FreeWord

GEN_A = IntMatrix([[1, 2], [0, 1]])
GEN_B = IntMatrix([[1, 0], [2, 1]])
GEN_A_INV = IntMatrix([[1, -2], [0, 1]])
GEN_B_INV = IntMatrix([[1, 0], [-2, 1]])

# Generating set of GL(2,Z) used for the coset BFS: S and T generate SL(2,Z),
# J adjoins determinant -1.
GL2_S = IntMatrix([[0, -1], [1, 0]])
GL2_T = IntMatrix([[1, 1], [0, 1]])
GL2_J = IntMatrix([[1, 0], [0, -1]])


def eval_word(w: FreeWord) -> IntMatrix:
    """Interpret a rank-2 word as a product of the subgroup generators."""
    if w.rank != 2:
        raise ValueError(f"expected a rank-2 word, got rank {w.rank}")
    table = {1: GEN_A, -1: GEN_A_INV, 2: GEN_B, -2: GEN_B_INV}
    out = IntMatrix.identity(2)
    for x in w.letters:
        out = out * table[x]
    return out


def _nearest(p: int, q: int) -> int:
    # round p/q to the nearest integer; callers guarantee p odd, q even,
    # so p/q is never a half-integer and no tie-break is needed
    if q < 0:
        p, q = -p, -q
    n, r = divmod(p, q)
    if 2 * r > q:
        return n + 1
    if 2 * r < q:
        return n
    raise AssertionError("tie in nearest-integer rounding; parity invariant broken")


def factor_in_sanov(m: IntMatrix) -> FreeWord | None:
    """Unique reduced word w with eval_word(w) == m, or None if m is outside
    the subgroup.

    Peeling: membership requires det 1 and m = I mod 2, which makes the first
    column (a, c) have a odd and c even. While c != 0, strip the generator
    power that shrinks the larger of |a|, |c|: left-multiplying by an inverse
    power of [[1,2],[0,1]] replaces a by a - 2kc, the other generator replaces
    c by c - 2ka; nearest-integer k makes the new value strictly smaller than
    min(|a|,|c|) (no ties: odd vs even). Once c == 0 the remainder is
    +-[[1,b],[0,1]]; the + sign finishes with a power of the first generator,
    the - sign certifies non-membership (-I is not in the subgroup).
    """
    if m.n != 2:
        raise ValueError(f"expected a 2x2 matrix, got {m.n}x{m.n}")
    (a, b), (c, d) = m.entries
    if a * d - b * c != 1:
        return None
    if (a & 1, b & 1, c & 1, d & 1) != (1, 0, 0, 1):
        return None

    letters: list[int] = []
    while c != 0:
        if abs(a) > abs(c):
            k = _nearest(a, 2 * c)
            letters.extend([1] * k if k >= 0 else [-1] * (-k))
            a, b = a - 2 * k * c, b - 2 * k * d
        else:
            k = _nearest(c, 2 * a)
            letters.extend([2] * k if k >= 0 else [-2] * (-k))
            c, d = c - 2 * k * a, d - 2 * k * b
    if a != 1:
        return None  # remainder is -[[1,*],[0,1]]
    k = b // 2
    letters.extend([1] * k if k >= 0 else [-1] * (-k))
    # The letters are already a reduced rank-2 word, so they skip FreeWord's
    # validating constructor. Each loop step appends a nonzero power of one
    # generator: it rounds the larger of |a|, |c| over twice the smaller, a
    # quotient above 1/2 in size. A step on the first generator leaves c != 0
    # and |a| < |c|, and a step on the second leaves |c| < |a|, so the steps
    # alternate and no two adjacent powers cancel. Only a step on the second
    # generator changes c, so the loop ends on it, and the closing power of
    # the first generator follows it.
    return FreeWord.__new__(FreeWord)._set(tuple(letters), 2)


class CosetTable(_Record):
    """Right-coset representatives of the Sanov subgroup in GL(2,Z).

    reps[0] is the identity; matrices g, h lie in the same right coset iff
    g * h^-1 factors in the subgroup. The subgroup contains Gamma(4), so the
    coset of a unimodular matrix is fixed by its entries mod 4: residues maps
    each of the 96 unit residues mod 4 (as an (a, b, c, d) tuple) to its
    coset index, 4 residues per coset.
    """

    # rep_invs and residues derive from reps, so they are left out of
    # equality, the repr and pickling
    _fields = ("reps",)
    __slots__ = ("reps", "rep_invs", "residues")
    rep_invs: tuple[IntMatrix, ...]
    residues: Mapping[tuple[int, int, int, int], int]

    def __init__(self, reps: tuple[IntMatrix, ...]):
        super().__init__(reps)
        object.__setattr__(self, "rep_invs", tuple(r.inverse_unimodular() for r in reps))
        residues: dict[tuple[int, int, int, int], int] = {}
        for c, r in enumerate(reps):
            _claim_coset(residues, c, r)
        object.__setattr__(self, "residues", MappingProxyType(residues))

    @property
    def size(self) -> int:
        return len(self.reps)


def _residue(m: IntMatrix) -> tuple[int, int, int, int]:
    (a, b), (c, d) = m.entries
    return a % 4, b % 4, c % 4, d % 4


# The subgroup's image mod 4: A and B are involutions there and commute.
_SANOV_MOD4 = (IntMatrix.identity(2), GEN_A, GEN_B, GEN_A * GEN_B)


def _claim_coset(residues: dict, c: int, rep: IntMatrix) -> None:
    """Send the 4 residues of the coset Sanov * rep to index c."""
    for h in _SANOV_MOD4:
        residues[_residue(h * rep)] = c


def build_coset_table() -> CosetTable:
    """BFS closure of the right-coset action under S, T, J; a candidate is new
    iff its residue mod 4 is unclaimed, so it closes at exactly 24 cosets."""
    gens = (GL2_S, GL2_T, GL2_J)
    reps = [IntMatrix.identity(2)]
    residues: dict[tuple[int, int, int, int], int] = {}
    _claim_coset(residues, 0, reps[0])
    frontier = [0]
    while frontier:
        next_frontier = []
        for c in frontier:
            for g in gens:
                cand = reps[c] * g
                if _residue(cand) in residues:
                    continue
                _claim_coset(residues, len(reps), cand)
                next_frontier.append(len(reps))
                reps.append(cand)
        frontier = next_frontier
    return CosetTable(reps=tuple(reps))


@lru_cache(maxsize=1)
def default_coset_table() -> CosetTable:
    """Shared table for the decision pipeline (immutable, safe to cache)."""
    return build_coset_table()


def schreier_rewrite(table: CosetTable, c: int, g: IntMatrix) -> tuple[int, FreeWord]:
    """Rewrite reps[c] * g as (subgroup word) * reps[c'], returning (c', word).

    g must be unimodular. c' is looked up from the residue of reps[c] * g mod
    4, and the word is the one factorization of reps[c] * g * reps[c']^-1.
    """
    if not g.is_unimodular():
        raise ValueError("rewrite requires a unimodular matrix")
    moved = table.reps[c] * g
    c2 = table.residues[_residue(moved)]
    w = factor_in_sanov(moved * table.rep_invs[c2])
    if w is None:
        raise RuntimeError("the residue map chose the wrong coset; table is inconsistent")
    return c2, w
