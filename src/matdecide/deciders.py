"""Top-level decision procedures.

For 2x2 integer matrices, subgroup membership and the semigroup identity
problem are decided exactly through the automaton pipeline: build the
two-state machine, convert it to free-word labels through the coset table,
which drops non-invertible edges, and test emptiness. For other dimensions
only bounded witness search is offered; absence of a witness at a bound
proves nothing, and callers must treat it as unknown.
"""

from __future__ import annotations

from typing import Optional, Sequence

from matdecide.automata import (
    MatrixLabels,
    ValenceAutomaton,
    build_identity_automaton,
    build_membership_automaton,
    to_free_group_automaton,
)
from matdecide.matrix import IntMatrix, _generator_dim, _Record
from matdecide.oracle import enumerate_products
from matdecide.pda import free_automaton_emptiness, from_free_automaton, pda_emptiness
from matdecide.sanov import default_coset_table


class Decision(_Record):
    __slots__ = _fields = ("answer", "reason")

    def __init__(self, answer: bool, reason: str):
        super().__init__(answer, reason)


def _require_2x2(matrices: Sequence[IntMatrix]) -> None:
    for m in matrices:
        if m.n != 2:
            raise ValueError(f"the exact decision procedure requires 2x2 matrices, got {m.n}x{m.n}")


def automaton_nonempty(v: ValenceAutomaton, *, checked: bool = False) -> bool:
    """Exact emptiness test for 2x2 matrix labels, through the coset
    conversion, or free-word labels. With checked, the pushdown engine runs
    too, and a disagreement between the two engines raises RuntimeError."""
    if isinstance(v.label_domain, MatrixLabels):
        v = to_free_group_automaton(v, default_coset_table())
    empty = free_automaton_emptiness(v)
    if checked:
        via_pda = pda_emptiness(from_free_automaton(v))
        if via_pda != empty:
            raise RuntimeError(
                "emptiness engines disagree "
                f"(saturation={empty}, pushdown={via_pda}); this is a bug"
            )
    return not empty


def decide_subgroup_membership(
    y: IntMatrix, gens: Sequence[IntMatrix], *, checked: bool = False
) -> Decision:
    """Does y belong to the group generated by gens (inverses allowed)?

    Generators that are not unimodular are dropped: a group of integer
    matrices whose identity is I contains only determinant +-1 elements, so
    they cannot take part in any group element. The remaining generators are
    closed under exact inverses before building the membership machine, since
    the machine multiplies only by the listed elements and membership in a
    group allows inverse factors.
    """
    _require_2x2([y, *gens])
    if not y.is_unimodular():
        return Decision(
            False,
            f"determinant {y.det()} is not +-1; a group of integer matrices "
            "containing the identity has only unimodular elements",
        )
    invertible = [g for g in gens if g.is_unimodular()]
    if not invertible:
        answer = y.is_identity()
        return Decision(answer, "no unimodular generators remain; the group is trivial")
    symmetrized = invertible + [g.inverse_unimodular() for g in invertible]
    machine = build_membership_automaton(y, symmetrized)
    answer = automaton_nonempty(machine, checked=checked)
    return Decision(answer, "decided by coset conversion and emptiness of the membership machine")


def decide_identity_in_semigroup(
    gens: Sequence[IntMatrix], *, checked: bool = False
) -> Decision:
    """Does some product of one or more generators equal the identity?

    This is semigroup membership of I: no inverses are added. Non-unimodular
    generators cannot occur in such a product (determinants multiply to 1, so
    every factor has determinant +-1) and are dropped.
    """
    _require_2x2(gens)  # first, so that a stray 3x3 is named as such
    _generator_dim(gens)
    invertible = [g for g in gens if g.is_unimodular()]
    if not invertible:
        return Decision(False, "no unimodular generators; no product can reach determinant 1")
    machine = build_identity_automaton(invertible)
    answer = automaton_nonempty(machine, checked=checked)
    return Decision(answer, "decided by coset conversion and emptiness of the identity machine")


def membership_bounded(
    y: IntMatrix, gens: Sequence[IntMatrix], max_len: int
) -> Optional[tuple[int, ...]]:
    """Search products of 1..max_len generators for one equal to y.

    When y is unimodular, singular generators are skipped: determinants
    multiply, so a product equal to y has only unimodular factors. Returns
    the witness as 1-based positions in gens, shortest first and
    lexicographically least among the shortest, or None when the bound is
    exhausted. None is not a proof of non-membership.
    """
    _generator_dim(gens, y)
    singular_y = not y.is_unimodular()
    positions = [i for i, g in enumerate(gens, start=1) if singular_y or g.is_unimodular()]
    if not positions:
        return None
    for prod, witness in enumerate_products([gens[i - 1] for i in positions], max_len):
        if prod == y:
            return tuple(positions[i - 1] for i in witness)
    return None


def identity_in_semigroup_bounded(
    gens: Sequence[IntMatrix], max_len: int
) -> Optional[tuple[int, ...]]:
    """Bounded witness search for the identity problem in any dimension: the
    identity is unimodular, so membership_bounded skips singular generators
    and numbers the witness by position in gens."""
    return membership_bounded(IntMatrix.identity(_generator_dim(gens)), gens, max_len)
