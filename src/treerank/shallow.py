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

from typing import TYPE_CHECKING, Mapping, Optional

from .errors import BOUND_MAX_BITS, ScaleExceeded, record
from .generators import tree_children, tree_order
from .graph import Graph, check_vertices, shortest_path, within_distance

# Annotations only: `certify` without --extract never loads ranking.
if TYPE_CHECKING:
    from .ranking import RankAssignment


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


def m_prime(d: int, r: int, m: int) -> int:
    """Rank parameter guaranteeing extraction of the (d, m) tree pattern.

    Base: m_prime(1, r, m) = m - 1 (rank 2 then forces m neighbors).
    Step: with W = w_count(d, m, r) and M = m*W + r*m + m, recurse via
    m'' = m_prime(d-1, r, M) and return max(m'', r*m).  As M > r*m + 1,
    the max is always m'', so a loop carries M down the levels.  Raises
    ScaleExceeded when m**d, a lower bound on the level's M, passes
    BOUND_MAX_BITS bits.
    """
    if d < 1 or r < 1 or m < 1:
        raise ValueError("need d >= 1, r >= 1, m >= 1")
    for level in range(d, 1, -1):
        if level * (m.bit_length() - 1) + 1 > BOUND_MAX_BITS:
            raise ScaleExceeded(
                "m_prime",
                f"inflated branching would pass {BOUND_MAX_BITS} bits at depth {level}",
            )
        m = _inflated(level, m, r)
    return m - 1


@record
class Embedding:
    """A tree pattern embedded as a subdivided subgraph.

    principal maps abstract tree nodes to graph vertices; paths maps each
    abstract tree edge (parent, child) to the full vertex sequence of the
    corresponding graph path, endpoints included.
    """

    principal: Mapping[int, int]
    paths: Mapping[tuple[int, int], tuple[int, ...]]


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
    ScaleExceeded when the backtracking tree outgrows cap_nodes.  Returns
    None at once when the pattern has more nodes than g has vertices,
    counted by `tree_order`, which stops once the count passes g.n.
    """
    if d < 0 or m < 1 or r < 0:
        raise ValueError("need d >= 0, m >= 1, r >= 0")
    if tree_order(d, m, g.n) > g.n:
        return None
    children = tree_children(d, m)
    # Tree edges in DFS preorder.
    edge_seq: list[tuple[int, int]] = []
    todo = [(0, c) for c in reversed(children[0])]
    while todo:
        edge_seq.append(todo.pop())
        child = edge_seq[-1][1]
        todo.extend((child, c) for c in reversed(children[child]))

    budget = cap_nodes
    principal: dict[int, int] = {}
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    used: set[int] = set()

    def realize() -> bool:
        # Realize edge_seq: frames[k] generates the candidate paths of
        # edge_seq[k], and each pass of the outer loop is one node of the
        # search.
        nonlocal budget
        frames = []
        while True:
            budget -= 1
            if budget < 0:
                raise ScaleExceeded("contains_shallow_tree", "node cap")
            if len(frames) == len(edge_seq):
                return True
            parent = principal[edge_seq[len(frames)][0]]
            frames.append(_simple_paths(g, parent, r + 1, used))
            while frames:
                edge = edge_seq[len(frames) - 1]
                if edge in paths:
                    used.difference_update(paths.pop(edge)[1:])
                    del principal[edge[1]]
                # A non-root principal consumes one incident edge per
                # child path plus the arriving one.
                need = len(children[edge[1]]) + 1
                path = next((p for p in frames[-1] if g.degree(p[-1]) >= need), None)
                if path is not None:
                    principal[edge[1]] = path[-1]
                    paths[edge] = path
                    used.update(path[1:])
                    break
                frames.pop()
            else:
                return False

    for root in range(g.n):
        if g.degree(root) < len(children[0]):
            continue
        principal[0] = root
        used.add(root)
        if realize():
            return Embedding(dict(principal), dict(paths))
        used.remove(root)
    return None


def _simple_paths(g: Graph, start: int, max_edges: int, used: set[int]):
    """Yield simple paths from start (1..max_edges edges) avoiding used,
    in lexicographic order; used is read as each step is taken."""
    path = [start]
    stack = [iter(g.sorted_neighbors(start))]  # untried neighbours of each path vertex
    while stack:
        for w in stack[-1]:
            if w in used or w in path:
                continue
            path.append(w)
            yield tuple(path)
            if len(path) - 1 < max_edges:
                stack.append(iter(g.sorted_neighbors(w)))
            else:
                path.pop()
            break
        else:
            stack.pop()
            path.pop()


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

    Preconditions: v is a vertex of g whose rank in ra exceeds d
    (infinity allowed), and ra has parameters (r, m_prime(d, r, m)).
    Raises ValueError if one fails; RuntimeError means a proved step failed.
    """
    if d < 1 or m < 1 or r < 1:
        raise ValueError("need d >= 1, m >= 1, r >= 1")
    mp = m_prime(d, r, m)
    if (ra.r, ra.m) != (r, mp):
        raise ValueError(
            f"ranking has parameters (r={ra.r}, m={ra.m}); extraction needs (r={r}, m={mp})"
        )
    check_vertices(g, [v])
    if not ra.ranks[v] > d:
        raise ValueError(f"vertex {v} has rank {ra.ranks[v]}, need more than {d}")
    return _freeze(_extract(g, ra, v, d, m, r))


def _extract(g: Graph, ra: RankAssignment, v: int, d: int, m: int, r: int) -> TreeEmb:
    # ra serves every level: m_prime(d-1, r, _inflated(d, m, r)) == m_prime(d, r, m).
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
    # the ranking guarantees the next target is reachable.  Each path
    # ends at the smallest-id target on the first level that holds one.
    targets = {w for w in range(g.n) if ra.ranks[w] >= d}
    paths: list[tuple[int, ...]] = []
    blocked: set[int] = set()
    for _ in range(m):
        first = shortest_path(g, v, targets, r, blocked)
        if first is None:
            raise RuntimeError(f"no rank-{d} target reachable from {v}")
        level = len(first) - 1
        ring = within_distance(g, [v], level, blocked) - within_distance(g, [v], level - 1, blocked)
        path = tuple(shortest_path(g, v, {min(ring & targets)}, level, blocked))
        paths.append(path)
        blocked.update(path[1:])

    forbidden: set[int] = set().union(*paths)
    out: list = []
    for path in paths:
        u = path[-1]
        full = _extract(g, ra, u, d - 1, big_m, r)
        pruned = _prune(full, forbidden - {u}, m)
        out.append((path, pruned))
        forbidden |= _temb_vertices(pruned)
    return (v, out)


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


def _freeze(temb: TreeEmb) -> Embedding:
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
