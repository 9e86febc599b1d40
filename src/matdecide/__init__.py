"""matdecide: decision procedures for 2x2 integer matrix groups via valence
automata, with honest bounded witness search where no decision procedure can
exist."""

from matdecide._kernel import kernel_backend
from matdecide.automata import (
    Configuration,
    Edge,
    MatrixLabels,
    SimResult,
    ValenceAutomaton,
    WordLabels,
    bounded_accepts,
    build_identity_automaton,
    build_identity_universe_automaton,
    build_membership_automaton,
    build_membership_universe_automaton,
    prune_noninvertible,
    shortest_accepted_string,
    to_free_group_automaton,
)
from matdecide.deciders import (
    Decision,
    decide_identity_in_semigroup,
    decide_subgroup_membership,
    identity_in_semigroup_bounded,
    identity_in_semigroup_gl2,
    membership_bounded,
    subgroup_membership_gl2,
)
from matdecide.matrix import IntMatrix
from matdecide.oracle import enumerate_products, group_word_search
from matdecide.pda import (
    Pda,
    free_automaton_emptiness,
    from_free_automaton,
    pda_bounded_accepts,
    pda_emptiness,
)
from matdecide.sanov import (
    CosetTable,
    build_coset_table,
    coset_index,
    default_coset_table,
    eval_word,
    factor_in_sanov,
    schreier_rewrite,
)
from matdecide.words import FreeWord

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "CosetTable",
    "Decision",
    "Edge",
    "FreeWord",
    "IntMatrix",
    "MatrixLabels",
    "Pda",
    "SimResult",
    "ValenceAutomaton",
    "WordLabels",
    "bounded_accepts",
    "build_coset_table",
    "build_identity_automaton",
    "build_identity_universe_automaton",
    "build_membership_automaton",
    "build_membership_universe_automaton",
    "coset_index",
    "decide_identity_in_semigroup",
    "decide_subgroup_membership",
    "default_coset_table",
    "enumerate_products",
    "eval_word",
    "factor_in_sanov",
    "free_automaton_emptiness",
    "from_free_automaton",
    "group_word_search",
    "identity_in_semigroup_bounded",
    "identity_in_semigroup_gl2",
    "kernel_backend",
    "membership_bounded",
    "pda_bounded_accepts",
    "pda_emptiness",
    "prune_noninvertible",
    "schreier_rewrite",
    "shortest_accepted_string",
    "subgroup_membership_gl2",
    "to_free_group_automaton",
    "__version__",
]
