"""Exact toolkit for the connectivity price of feedback vertex sets.

Immutable small graphs, deterministic family generators, exact solvers
for (connected) feedback vertex sets and dominating sets, induced-subgraph
matching with canonical forms, butterfly-cover analysis of forbidden
families, three constructive connectification procedures with audited
traces, and an exhaustive enumeration harness.
"""

from .errors import ContradictionError, InvalidInputError, ResourceLimitError
from .graph import Graph, disjoint_union
from .generators import (
    FamilySpec,
    butterfly,
    claw,
    complete_bipartite,
    cycle,
    from_spec,
    gprime,
    graph_from_text,
    hourglass,
    hourglass_chain,
    parse_spec,
    path,
    spider,
    tadpole,
    three_p1_witness,
)
from .iso import (
    are_isomorphic,
    canonical_form,
    embeds_induced,
    find_induced_embedding,
    is_free,
)
from .solvers import (
    SolveResult,
    is_cfvs,
    is_fvs,
    min_cds,
    min_cfvs,
    min_ds,
    min_fvs,
    poc_difference,
    poc_ratio,
)
from .cover import (
    ClassificationResult,
    CoverContext,
    PairSet,
    StructureProfile,
    classify_pair,
    covered_pairs,
    covers_bruteforce,
    family_covers_all,
    must_contain_check,
    render_pair_table,
    structure_profile,
)
from .constructive import (
    ProcedureTrace,
    connectify_by_paths,
    connectify_p5sp1,
    connectify_sp3,
    move_step,
)
from .harness import (
    EnumerationSpec,
    ExperimentReport,
    enumerate_connected,
    enumerate_connected_upto,
    gprime_experiment,
    max_poc,
    tetrachotomy_classify,
    unboundedness_witnesses,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
