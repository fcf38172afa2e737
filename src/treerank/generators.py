"""Graph generators: complete trees, subdivisions, half-graphs and
seeded random graphs.

Vertex id layouts are fixed so corpora are reproducible: trees use BFS
order with root 0, half-graphs put the u-side first, and subdivision
vertices are appended after the original ids.
"""

from __future__ import annotations

import random
from typing import Mapping

from .graph import Graph, make_graph


def tree_children(d: int, m: int) -> list[list[int]]:
    """Children lists of the complete rooted tree of depth d where every
    non-leaf has m children.

    Vertex 0 is the root; ids follow BFS (level) order, so level i spans
    ids sum(m^j for j<i) .. sum(m^j for j<=i)-1 and the children of p
    are m*p+1 .. m*p+m.
    """
    if d < 0 or m < 1:
        raise ValueError("need depth >= 0 and branching >= 1")
    internal = sum(m**i for i in range(d))
    return [list(range(m * p + 1, m * p + m + 1)) for p in range(internal)] + [[] for _ in range(m**d)]


def tree_order(d: int, m: int, limit: int) -> int:
    """Vertex count of the tree_children(d, m) tree, or a count above limit
    once the levels summed so far pass it, so a huge depth costs no more
    than about log_m(limit) steps."""
    if d < 0 or m < 1:
        raise ValueError("need depth >= 0 and branching >= 1")
    if m == 1:
        return d + 1
    nodes = level = 1
    for _ in range(d):
        level *= m
        nodes += level
        if nodes > limit:
            break
    return nodes


def gen_tree(d: int, m: int) -> Graph:
    """The tree_children(d, m) tree as a graph."""
    children = tree_children(d, m)
    return make_graph(len(children), [(p, c) for p, kids in enumerate(children) for c in kids])


def subdivide(g: Graph, counts: Mapping[tuple[int, int], int] | int) -> Graph:
    """Replace each edge uv by a path with counts(uv) fresh internal vertices.

    counts may be a single int (applied to every edge) or a mapping keyed
    by (min(u,v), max(u,v)); a negative one raises ValueError, with or
    without edges.  New vertices get ids n, n+1, ... assigned in
    sorted edge order, walking each path from the low endpoint.  Original
    ids and predicates are unchanged.
    """
    edge_list = g.edges()
    if isinstance(counts, int):
        count_of = {e: counts for e in edge_list}
        lowest = counts
    else:
        count_of = {(min(u, v), max(u, v)): c for (u, v), c in counts.items()}
        missing = [e for e in edge_list if e not in count_of]
        if missing:
            raise ValueError(f"no subdivision count for edge {missing[0]}")
        lowest = min((count_of[e] for e in edge_list), default=0)
    if lowest < 0:
        raise ValueError("subdivision counts must be nonnegative")
    edges: list[tuple[int, int]] = []
    next_id = g.n
    for u, v in edge_list:
        c = count_of[(u, v)]
        prev = u
        for _ in range(c):
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1
        edges.append((prev, v))
    return make_graph(next_id, edges, g.predicates)


def gen_halfgraph(t: int) -> Graph:
    """Half-graph of order t: u_i ~ w_j iff i <= j (1-based indices).

    Ids 0..t-1 are u_1..u_t (predicate "U"), ids t..2t-1 are w_1..w_t
    (predicate "W").  No edges inside either side.
    """
    if t < 1:
        raise ValueError("order must be >= 1")
    edges = [(i, t + j) for i in range(t) for j in range(t) if i <= j]
    return make_graph(2 * t, edges, {"U": range(t), "W": range(t, 2 * t)})


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed.

    Uses Python's Mersenne Twister (random.Random(seed)) and scans vertex
    pairs (u, v), u < v, in lexicographic order, so corpora are stable
    across runs and platforms.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)
