"""Shallow topological tree minors: detection, bounds, and extraction.

The pattern is the complete rooted tree of depth d and branching m,
embedded with each tree edge realized by a graph path having at most r
internal vertices, all paths internally disjoint.

Detection (contains_shallow_tree) is an exhaustive backtracking oracle
with a hard node cap.  Extraction (extract_shallow_tree) builds such an
embedding rooted at any vertex whose rank exceeds d, provided the rank
was computed with the matching parameter m_prime(d, r, m): it greedily
collects m vertex-disjoint short paths to high-rank vertices, recurses
with an inflated branching target, and then prunes colliding branches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import ScaleExceeded
from .graph import Embedding, Graph
from .ranking import RankAssignment, compute_ranking


def tree_children(d: int, m: int) -> list[list[int]]:
    """Children lists of the depth-d branching-m tree in BFS id order."""
    if d < 0 or m < 1:
        raise ValueError("need depth >= 0 and branching >= 1")
    total = sum(m**i for i in range(d + 1))
    internal = sum(m**i for i in range(d))
    children: list[list[int]] = [[] for _ in range(total)]
    next_id = 1
    for parent in range(internal):
        children[parent] = list(range(next_id, next_id + m))
        next_id += m
    return children


def w_count(d: int, m: int, r: int) -> int:
    """Vertex count of the depth-(d-1) branching-m tree with every edge
    subdivided exactly r times."""
    if d < 1 or m < 1 or r < 0:
        raise ValueError("need d >= 1, m >= 1, r >= 0")
    v = d if m == 1 else (m**d - 1) // (m - 1)
    return v + r * (v - 1)


def _inflated(d: int, m: int, r: int) -> int:
    """M = m*W + r*m + m with W = w_count(d, m, r): the branching a
    depth-d level asks of the next level down."""
    return m * w_count(d, m, r) + r * m + m


# Cap on m_prime's inflated branching, in bits.  Each level raises the
# branching to about the power of its depth, so (12, 2, 2) would need
# about 5 million bits at depth 6; (8, 1, 1) needs 21,537.
M_PRIME_MAX_BITS = 2**20


@lru_cache(maxsize=None)
def m_prime(d: int, r: int, m: int) -> int:
    """Rank parameter guaranteeing extraction of the (d, m) tree pattern.

    Base: m_prime(1, r, m) = m - 1 (rank 2 then forces m neighbors).
    Step: with W = w_count(d, m, r) and M = m*W + r*m + m, recurse via
    m'' = m_prime(d-1, r, M) and return max(m'', r*m).  As M > r*m + 1,
    the max is always m'', so a loop carries M down the levels.  Raises
    ScaleExceeded when m**d, a lower bound on the level's M, passes
    M_PRIME_MAX_BITS bits.
    """
    if d < 1 or r < 1 or m < 1:
        raise ValueError("need d >= 1, r >= 1, m >= 1")
    for level in range(d, 1, -1):
        if level * (m.bit_length() - 1) + 1 > M_PRIME_MAX_BITS:
            raise ScaleExceeded(
                "m_prime",
                f"inflated branching would pass {M_PRIME_MAX_BITS} bits at depth {level}",
            )
        m = _inflated(level, m, r)
    return m - 1


def validate_embedding(g: Graph, emb: Embedding, d: int, m: int, r: int) -> None:
    """Independently check that emb is a valid embedding of the pattern.

    Verifies tree shape, principal distinctness, path adjacency, the
    internal-vertex budget r, and global disjointness.  Raises ValueError
    on the first violation.
    """
    children = tree_children(d, m)
    nodes = set(range(len(children)))
    if set(emb.principal) != nodes:
        raise ValueError("principal map does not cover the tree nodes")
    tree_edges = {(p, c) for p in nodes for c in children[p]}
    if set(emb.paths) != tree_edges:
        raise ValueError("path map does not cover the tree edges")
    principals = list(emb.principal.values())
    if len(set(principals)) != len(principals):
        raise ValueError("principal vertices are not distinct")
    seen_internal: set[int] = set()
    principal_set = set(principals)
    for (p, c), path in emb.paths.items():
        if len(path) < 2:
            raise ValueError(f"path for edge ({p},{c}) has no edge")
        if path[0] != emb.principal[p] or path[-1] != emb.principal[c]:
            raise ValueError(f"path for edge ({p},{c}) has wrong endpoints")
        if len(path) - 2 > r:
            raise ValueError(f"path for edge ({p},{c}) has more than {r} internal vertices")
        if len(set(path)) != len(path):
            raise ValueError(f"path for edge ({p},{c}) repeats a vertex")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"path for edge ({p},{c}) uses a non-edge ({a},{b})")
        for w in path[1:-1]:
            if w in principal_set:
                raise ValueError(f"internal vertex {w} is a principal vertex")
            if w in seen_internal:
                raise ValueError(f"internal vertex {w} is shared between paths")
            seen_internal.add(w)


def contains_shallow_tree(
    g: Graph,
    d: int,
    m: int,
    r: int,
    cap_nodes: int = 500_000,
) -> Optional[Embedding]:
    """Exhaustive search for the (d, m) pattern with paths of <= r internals.

    Root candidates are tried in id order; tree edges are realized in DFS
    preorder, enumerating candidate paths lexicographically.  Aborts with
    ScaleExceeded when the backtracking tree outgrows cap_nodes.
    """
    if d < 0 or m < 1 or r < 0:
        raise ValueError("need d >= 0, m >= 1, r >= 0")
    children = tree_children(d, m)
    edge_seq: list[tuple[int, int]] = []

    def collect(node: int) -> None:
        for c in children[node]:
            edge_seq.append((node, c))
            collect(c)

    collect(0)
    budget = [cap_nodes]
    for root in range(g.n):
        if g.degree(root) < len(children[0]):
            continue
        principal = {0: root}
        paths: dict[tuple[int, int], tuple[int, ...]] = {}
        used = {root}
        if _realize(g, children, edge_seq, 0, principal, paths, used, r, budget):
            return Embedding(dict(principal), dict(paths))
    return None


def _realize(
    g: Graph,
    children: list[list[int]],
    edge_seq: list[tuple[int, int]],
    k: int,
    principal: dict[int, int],
    paths: dict[tuple[int, int], tuple[int, ...]],
    used: set[int],
    r: int,
    budget: list[int],
) -> bool:
    budget[0] -= 1
    if budget[0] < 0:
        raise ScaleExceeded("contains_shallow_tree", "node cap")
    if k == len(edge_seq):
        return True
    parent, child = edge_seq[k]
    need = len(children[child])
    for path in _simple_paths(g, principal[parent], r + 1, used):
        end = path[-1]
        # A non-root principal consumes one incident edge per child path
        # plus the arriving one.
        if g.degree(end) < need + 1:
            continue
        principal[child] = end
        paths[(parent, child)] = path
        used.update(path[1:])
        if _realize(g, children, edge_seq, k + 1, principal, paths, used, r, budget):
            return True
        used.difference_update(path[1:])
        del paths[(parent, child)]
        del principal[child]
    return False


def _simple_paths(g: Graph, start: int, max_edges: int, used: set[int]):
    """Yield simple paths from start (1..max_edges edges) avoiding used."""
    path = [start]

    def walk():
        if len(path) >= 2:
            yield tuple(path)
        if len(path) - 1 == max_edges:
            return
        for w in g.sorted_neighbors(path[-1]):
            if w in used or w in path:
                continue
            path.append(w)
            yield from walk()
            path.pop()

    yield from walk()


TreeEmb = tuple[int, list]  # (root vertex, [(path, TreeEmb), ...])


def extract_shallow_tree(
    g: Graph,
    ra: RankAssignment,
    v: int,
    d: int,
    m: int,
    r: int,
) -> Embedding:
    """Build an embedding of the (d, m) pattern rooted at v.

    Preconditions: ra was computed with parameters (r, m_prime(d, r, m))
    and ra rank of v exceeds d (infinity allowed).  Raises ValueError if
    either fails; when they hold, extraction always succeeds.
    """
    if d < 1 or m < 1 or r < 1:
        raise ValueError("need d >= 1, m >= 1, r >= 1")
    mp = m_prime(d, r, m)
    if (ra.r, ra.m) != (r, mp):
        raise ValueError(
            f"ranking has parameters (r={ra.r}, m={ra.m}); extraction needs (r={r}, m={mp})"
        )
    if not ra.ranks[v] > d:
        raise ValueError(f"vertex {v} has rank {ra.ranks[v]}, need more than {d}")
    cache: dict[int, RankAssignment] = {mp: ra}
    temb = _extract(g, v, d, m, r, cache)
    return _freeze(temb, d, m)


def _ranking_for(g: Graph, r: int, mval: int, cache: dict[int, RankAssignment]) -> RankAssignment:
    if mval not in cache:
        cache[mval] = compute_ranking(g, r, mval)
    return cache[mval]


def _extract(g: Graph, v: int, d: int, m: int, r: int, cache: dict[int, RankAssignment]) -> TreeEmb:
    ra = _ranking_for(g, r, m_prime(d, r, m), cache)
    if not ra.ranks[v] > d:
        raise RuntimeError(f"rank guarantee failed at vertex {v} (d={d})")
    if d == 1:
        nbrs = g.sorted_neighbors(v)
        if len(nbrs) < m:
            raise RuntimeError(f"vertex {v} has degree {len(nbrs)} < {m}")
        return (v, [((v, u), (u, [])) for u in nbrs[:m]])

    big_m = _inflated(d, m, r)
    # Greedy disjoint short paths from v to rank >= d vertices: at most
    # r*(m-1) vertices are ever blocked, within the separator budget, so
    # the ranking guarantees the next target is reachable.
    paths: list[tuple[int, ...]] = []
    blocked: set[int] = set()
    for _ in range(m):
        path = _bfs_to_rank(g, v, d, r, blocked, ra)
        if path is None:
            raise RuntimeError(f"no rank-{d} target reachable from {v}")
        paths.append(path)
        blocked.update(path[1:])

    forbidden: set[int] = set()
    for p in paths:
        forbidden.update(p)
    out: list = []
    for path in paths:
        u = path[-1]
        full = _extract(g, u, d - 1, big_m, r, cache)
        pruned = _prune(full, forbidden - {u}, m)
        out.append((path, pruned))
        forbidden |= _temb_vertices(pruned)
    return (v, out)


def _bfs_to_rank(
    g: Graph,
    v: int,
    d: int,
    r: int,
    blocked: set[int],
    ra: RankAssignment,
) -> Optional[tuple[int, ...]]:
    """Shortest path (<= r edges) from v to a rank >= d vertex, avoiding
    blocked vertices; smallest-id target at the first reachable level."""
    parent = {v: -1}
    frontier = [v]
    for _ in range(r):
        nxt = []
        hits = []
        for u in frontier:
            for w in g.sorted_neighbors(u):
                if w in parent or w in blocked:
                    continue
                parent[w] = u
                nxt.append(w)
                if ra.ranks[w] >= d:
                    hits.append(w)
        if hits:
            t = min(hits)
            path = [t]
            while path[-1] != v:
                path.append(parent[path[-1]])
            path.reverse()
            return tuple(path)
        if not nxt:
            return None
        frontier = nxt
    return None


def _temb_vertices(temb: TreeEmb) -> set[int]:
    root, kids = temb
    out = {root}
    for path, sub in kids:
        out.update(path)
        out |= _temb_vertices(sub)
    return out


def _prune(temb: TreeEmb, forbidden: set[int], m: int) -> TreeEmb:
    """Keep the first m root branches free of forbidden vertices, then cut
    every deeper node down to its first m children."""
    root, kids = temb
    clean = []
    for path, sub in kids:
        branch_vertices = set(path[1:]) | _temb_vertices(sub)
        if not branch_vertices & forbidden:
            clean.append((path, _truncate(sub, m)))
            if len(clean) == m:
                break
    if len(clean) < m:
        raise RuntimeError(f"pruning left {len(clean)} branches, need {m}")
    return (root, clean)


def _truncate(temb: TreeEmb, m: int) -> TreeEmb:
    root, kids = temb
    return (root, [(path, _truncate(sub, m)) for path, sub in kids[:m]])


def _freeze(temb: TreeEmb, d: int, m: int) -> Embedding:
    """Relabel a nested extraction onto the BFS ids of the abstract tree."""
    principal: dict[int, int] = {}
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    queue: list[tuple[int, TreeEmb]] = [(0, temb)]
    next_id = 1
    while queue:
        node_id, (gv, kids) = queue.pop(0)
        principal[node_id] = gv
        for path, sub in kids:
            paths[(node_id, next_id)] = tuple(path)
            queue.append((next_id, sub))
            next_id += 1
    return Embedding(principal, paths)
