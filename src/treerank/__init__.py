"""Vertex rankings, shallow tree-minor certificates, near-twin analysis,
and exact graph sparsification for sparse graph classes."""

from .errors import ScaleExceeded
from .fo import (
    Interpretation,
    apply_interpretation,
    check_range,
    evaluate,
    format_formula,
    parse_formula,
    recovery_interpretation,
)
from .graph import (
    Embedding,
    Graph,
    ParseError,
    closed_ball,
    flip,
    gen_halfgraph,
    gen_random,
    gen_tree,
    induced,
    make_graph,
    parse_graph,
    s_flip,
    s_flip_classes,
    subdivide,
    write_graph,
)
from .labd import (
    ClassSpec,
    ParamFunction,
    labd_check,
    near_covered_check,
    no_ladder_bound,
    parse_param_function,
)
from .neartwin import (
    HalfgraphWitness,
    extract_halfgraph,
    find_halfgraph,
    g_bound,
    h_bound,
    neartwin_graph,
    neartwin_view,
    symdiff,
    validate_halfgraph,
)
from .ranking import (
    RankAssignment,
    compute_ranking,
    rank_order,
    separator_search,
)
from .shallow import (
    contains_shallow_tree,
    extract_shallow_tree,
    m_prime,
    validate_embedding,
    w_count,
)
from .sparsify import (
    SparsifiedGraph,
    build_sparsifier,
    classify_heavy,
    component_partition,
    recover,
    recover_graph,
    sflip_driver,
)

__version__ = "0.1.0"
