"""The near-twin relation and its connected components.

Two vertices are k-near-twins when their open neighborhoods differ in at
most k elements.  NT_k(G) joins every such pair; its connected components
drive the sparsifier.  The half-graph search and the extraction that
runs the closeness argument along a near-twin path are in halfgraph.py.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Optional

from .errors import GRAPH_MAX_PAIRS, ScaleExceeded
from .graph import Graph, check_vertices, make_graph, record


def symdiff(g: Graph, u: int, v: int) -> int:
    """Size of the symmetric difference of the open neighborhoods."""
    check_vertices(g, (u, v))
    if u == v:
        raise ValueError("near-twin difference is undefined for a vertex and itself")
    return len(g.adj[u] ^ g.adj[v])


@record
class NearTwinView:
    """NT_k(G) with its connected-component partition."""

    nt_graph: Graph
    components: tuple[tuple[int, ...], ...]


def neartwin_view(g: Graph, k: int) -> NearTwinView:
    """Materialize NT_k(G).  Quadratic in n; meant for desk-scale graphs.

    Components are listed in order of their smallest member, members in
    id order.  Raises ScaleExceeded, as neartwin_graph does, when g has
    more than GRAPH_MAX_PAIRS vertex pairs.
    """
    nt = neartwin_graph(g, k)
    return NearTwinView(nt, component_partition(g, k).parts)


def neartwin_graph(g: Graph, k: int) -> Graph:
    """NT_k(G) by an all-pairs scan; pairs whose degrees differ by more
    than k are skipped unread.  Edgeless when k < 0.  Raises
    ScaleExceeded before the scan when g has more than GRAPH_MAX_PAIRS
    vertex pairs."""
    pairs = g.n * (g.n - 1) // 2
    if pairs > GRAPH_MAX_PAIRS:
        raise ScaleExceeded("neartwin_graph", f"{pairs} vertex pairs to scan, over {GRAPH_MAX_PAIRS}")
    degs = [len(row) for row in g.adj]
    near = _near_test(g, k)
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if abs(degs[u] - degs[v]) <= k and near(u, v)
    ]
    return make_graph(g.n, edges)


def _near_test(g: Graph, k: int) -> Callable[[int, int], bool]:
    """The NT_k pair test len(adj[u] ^ adj[v]) <= k.  A row of degree
    >= n/64 also gets an n-bit int (digit w for vertex w), no larger than
    its frozenset (8+ bytes per element), and two such rows are compared
    by the popcount of their xor."""
    bits: list[Optional[int]] = [None] * g.n
    for v, row in enumerate(g.adj):
        if 64 * len(row) >= g.n:
            digits = bytearray(b"0") * g.n
            for w in row:
                digits[w] = 49  # ord("1")
            bits[v] = int(digits, 2)

    def near(u: int, v: int) -> bool:
        if bits[u] is None or bits[v] is None:
            return len(g.adj[u] ^ g.adj[v]) <= k
        return (bits[u] ^ bits[v]).bit_count() <= k

    return near


@record
class PartPartition:
    """Connected components of NT_k(G), each sorted, ordered by minimum."""

    parts: tuple[tuple[int, ...], ...]

    def part_of(self) -> dict[int, int]:
        return {v: i for i, p in enumerate(self.parts) for v in p}


def component_partition(g: Graph, k: int) -> PartPartition:
    """NT_k components without materializing the near-twin graph.

    Two rows differ in at most deg(u) + deg(v) elements, so the vertices
    v with deg(v) + (least degree) <= k are near-twins of a least-degree
    vertex; this pool holds every near-twin pair with no common neighbor
    and is united first.  Every other near-twin pair has an unpooled
    vertex u whose partner misses at most k of u's neighbors, so u's
    candidates are the neighbors of any k+1 of them.  Only unpooled u
    are scanned, each testing its candidates above it and its pooled
    candidates below it.  A candidate pair is tested only while the
    disjoint-set forest separates it, and a union keeps u's root.  The
    forest counts its trees, and the scan stops once one is left.
    """
    if k < 0:
        raise ValueError("threshold must be nonnegative")
    degs = [len(row) for row in g.adj]
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    low = min(degs, default=0)
    pool = [v for v in range(g.n) if degs[v] + low <= k]
    for v in pool:
        parent[v] = pool[0]
    trees = g.n - max(len(pool) - 1, 0)
    pooled = frozenset(pool)

    near = _near_test(g, k)
    for u in range(g.n):
        if trees <= 1:
            break
        if u in pooled:
            continue
        lo, hi, ru = degs[u] - k, degs[u] + k, find(u)
        cands = frozenset().union(*(g.adj[w] for w in islice(g.adj[u], k + 1)))
        for v in cands:
            if v > u and lo <= degs[v] <= hi:
                rv = find(v)
                if rv != ru and near(u, v):
                    parent[rv] = ru
                    trees -= 1
        # The pool is one tree, so one near-twin among the pooled
        # candidates below u joins it.  Pooled degrees are at most
        # k - low, which is below hi and may be below lo.
        rp = find(pool[0]) if pool and lo <= k - low else ru
        if rp != ru and any(v < u and lo <= degs[v] and near(u, v) for v in cands & pooled):
            parent[rp] = ru
            trees -= 1

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return PartPartition(tuple(sorted(tuple(vs) for vs in groups.values())))
