"""Vertex rankings, shallow tree-minor certificates, near-twin analysis,
and exact graph sparsification for sparse graph classes.

The public names below load their submodule on first access (PEP 562),
so `import treerank` compiles only `errors` and a command that uses two
modules compiles only those two.
"""

import importlib

from .errors import ScaleExceeded

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "fo": (
        "Interpretation",
        "apply_interpretation",
        "check_range",
        "evaluate",
        "recovery_interpretation",
    ),
    "generators": (
        "gen_halfgraph",
        "gen_random",
        "gen_tree",
        "subdivide",
    ),
    "graph": (
        "Graph",
        "ParseError",
        "flip",
        "make_graph",
        "parse_graph",
        "write_graph",
    ),
    "halfgraph": (
        "HalfgraphWitness",
        "extract_halfgraph",
        "find_halfgraph",
        "g_bound",
        "h_bound",
        "validate_halfgraph",
    ),
    "labd": (
        "ClassSpec",
        "ParamFunction",
        "labd_check",
        "near_covered_check",
        "no_ladder_bound",
        "parse_param_function",
    ),
    "neartwin": (
        "component_partition",
        "neartwin_graph",
        "neartwin_view",
        "symdiff",
    ),
    "ranking": (
        "RankAssignment",
        "compute_ranking",
        "rank_order",
        "separator_search",
    ),
    "shallow": (
        "Embedding",
        "contains_shallow_tree",
        "extract_shallow_tree",
        "m_prime",
        "validate_embedding",
        "w_count",
    ),
    "sparsify": (
        "SparsifiedGraph",
        "build_sparsifier",
        "classify_heavy",
        "recover",
        "recover_graph",
        "s_flip",
        "s_flip_classes",
        "sflip_driver",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["ScaleExceeded", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
