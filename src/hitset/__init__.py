"""Minimum-weight pattern hitting sets: approximation with certificates.

A hitting set for a fixed pattern graph H is a vertex set meeting every
(not necessarily induced) copy of H; removing it leaves the host graph
H-free.  This package provides the weighted approximation pipeline (an
improved factor of k - 1/2 whenever the pattern has a semi-symmetric cut
vertex, the trivial factor k otherwise), exact brute-force oracles,
hard-instance generators and a CLI.  All solver arithmetic is exact;
the LP holds its integers in int64 only where a bound proves they fit.
"""

from .coloring import Coloring, color_digraph, cover_colored_hypergraph
from .copies import (
    DEFAULT_MAX_COPIES,
    EnumerationBudget,
    build_copy_hypergraph,
    embeddings,
    enumerate_copies,
    find_rooted_copy,
    symmetry_pairs,
)
from .errors import (
    BudgetExceededError,
    HitSetError,
    InvalidColoringError,
    ParseError,
    VerificationError,
)
from .generators import (
    GLParams,
    TaggedGraph,
    gadget_edge_glue,
    gadget_vertex_glue,
    gl_random_instance,
    random_graph,
    serialize_tagged_graph,
)
from .graphs import (
    CopyHypergraph,
    Graph,
    Pattern,
    WeightedGraph,
    induced_subgraph,
    parse_graph,
    serialize_graph,
    unit_weights,
)
from .localratio import DecompositionTrace, TraceStep, decompose_weights
from .lp import FractionalCover, FractionalMatching, solve_cover_lp
from .oracle import (
    exact_min_hitting_set,
    exact_min_vertex_cover,
    min_weight_cover,
    verify_goodness,
)
from .patterns import (
    PatternClass,
    RootedDecomposition,
    SEMI_SYMMETRIC,
    TWO_CONNECTED,
    UNKNOWN,
    branches_at,
    classify_pattern,
    construct_good_graph,
)
from .pipeline import (
    Solution,
    SolveDetail,
    guaranteed_factor,
    solve,
    solve_baseline,
    verify_solution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
