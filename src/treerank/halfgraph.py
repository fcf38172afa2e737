"""Half-graph detection, the closeness bounds, and constructive extraction.

In graphs without a large semi-induced half-graph, vertices in one
component of NT_k(G) are provably close in the near-twin metric.  The
extraction here runs that proof forward: given a near-twin path whose
endpoints differ too much, it produces the HalfgraphWitness of an
order-t half-graph, as find_halfgraph does; the chain it builds on the
way is checked, not returned.  g_bound and h_bound are its bounds.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import BOUND_MAX_BITS, ScaleExceeded, record
from .graph import Graph, check_vertices, shortest_path
from .neartwin import neartwin_graph, symdiff


def g_bound(c: int, k: int, t: int) -> int:
    """Surplus-neighborhood recurrence: g(c,k,1) = c and
    g(c,k,t) = g(c,k,t-1)*(t-1) + k + c.  Raises ScaleExceeded, before
    multiplying out, when the bits of (t-1)!, a lower bound on the value
    for c >= 1 and k >= 0, pass BOUND_MAX_BITS."""
    if t < 1:
        raise ValueError("need t >= 1")
    if c < 0 or k < 0:
        raise ValueError("need c >= 0, k >= 0")
    bits = 0
    for s in range(2, t):
        bits += s.bit_length() - 1
        if bits > BOUND_MAX_BITS:
            raise ScaleExceeded("g_bound", f"(t-1)! passes {BOUND_MAX_BITS} bits")
    value = c
    for s in range(2, t + 1):
        value = value * (s - 1) + k + c
    return value


def h_bound(k: int, t: int) -> int:
    """Near-twin closeness bound for half-graph-free components:
    2 * g_bound(t+1, k, t)."""
    return 2 * g_bound(t + 1, k, t)


@record
class HalfgraphWitness:
    """Vertices u_1..u_t, w_1..w_t with edge(u_i, w_j) iff i <= j."""

    u: tuple[int, ...]
    w: tuple[int, ...]


def validate_halfgraph(g: Graph, wit: HalfgraphWitness) -> None:
    """Check the semi-induced half-graph pattern; raises ValueError."""
    t = len(wit.u)
    if len(wit.w) != t:
        raise ValueError("sides must have equal length")
    all_vs = wit.u + wit.w
    if len(set(all_vs)) != 2 * t:
        raise ValueError("witness vertices are not distinct")
    for i in range(t):
        for j in range(t):
            has = g.has_edge(wit.u[i], wit.w[j])
            if has != (i <= j):
                raise ValueError(
                    f"edge(u_{i+1}, w_{j+1}) is {has}, expected {i <= j}"
                )


def find_halfgraph(g: Graph, t: int, cap_nodes: int = 500_000) -> Optional[HalfgraphWitness]:
    """Backtracking search for a semi-induced half-graph of order t.

    Chooses u_1, w_1, u_2, w_2, ...: u_i must avoid w_1..w_{i-1}, and w_i
    must be adjacent to u_1..u_i.  Candidates are tried degree-descending
    (ties by id).  Aborts with ScaleExceeded past the node cap.
    """
    if t < 1:
        raise ValueError("order must be >= 1")
    if 2 * t > g.n:
        return None
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    used: set[int] = set()
    sides: tuple[list[int], list[int]] = ([], [])  # u_1.., w_1..
    placed: list[int] = []  # by_degree index of u_1, w_1, u_2, ... so far
    budget = cap_nodes
    start = 0
    while True:
        # Place the next u, non-adjacent to every w placed so far, or the
        # next w, adjacent to every u placed so far; each pass of the loop
        # is one node of the search.
        budget -= 1
        if budget < 0:
            raise ScaleExceeded("find_halfgraph", "node cap")
        if len(placed) == 2 * t:
            return HalfgraphWitness(tuple(sides[0]), tuple(sides[1]))
        while True:
            is_w = len(placed) % 2 == 1
            other = sides[not is_w]
            i = next((i for i in range(start, g.n) if by_degree[i] not in used
                      and all((by_degree[i] in g.adj[x]) == is_w for x in other)), None)
            if i is not None:
                break
            if not placed:
                return None
            i = placed.pop()
            used.discard(by_degree[i])
            sides[len(placed) % 2].pop()
            start = i + 1
        placed.append(i)
        used.add(by_degree[i])
        sides[is_w].append(by_degree[i])
        start = 0


def extract_halfgraph(
    g: Graph,
    nt_path: Sequence[int],
    k: int,
    t: int,
) -> HalfgraphWitness:
    """Run the constructive argument along a near-twin path.

    nt_path must be a simple path v_1..v_m of vertices of g in NT_k(g),
    and the surplus set S = N(v_m) \\ N(v_1) must have at least
    g_bound(t + 1, k, t) elements; raises ValueError when either fails.
    Builds and checks the chain of w_i and nested candidate sets X_i,
    then picks u_i from X_i, and returns the order-t half-graph on the u
    and w sides; every free choice takes the smallest id.
    A failure the proof rules out (consecutive path vertices differ by at
    most k, and g(t) - k >= g(t-1) + c) raises RuntimeError.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    c = t + 1
    path = list(nt_path)
    check_vertices(g, path)
    if len(path) < 1 or len(set(path)) != len(path):
        raise ValueError("input is not a simple path")
    for a, b in zip(path, path[1:]):
        if symdiff(g, a, b) > k:
            raise ValueError(f"consecutive vertices ({a},{b}) are not {k}-near-twins")
    s = g.adj[path[-1]] - g.adj[path[0]]
    need = g_bound(c, k, t)
    if len(s) < need:
        raise ValueError(f"surplus set has {len(s)} vertices, need {need}")

    chain = _build_chain(g, path, s, c, k, t)
    ws = [w for w, _ in chain]
    xs = [x for _, x in chain]
    _check_chain(g, s, ws, xs, c)

    # u_i: smallest id in X_i avoiding w_1..w_t and all neighborhoods of
    # w_1..w_{i-1}; the chain properties guarantee at least one choice.
    w_set = set(ws)
    us: list[int] = []
    for i in range(t):
        pool = xs[i] - w_set.union(*(g.adj[w] for w in ws[:i]))
        if not pool:
            raise RuntimeError(f"property 3: no admissible u_{i+1} in X_{i+1}")
        us.append(min(pool))
    return HalfgraphWitness(tuple(us), tuple(ws))


def _build_chain(
    g: Graph,
    path: list[int],
    s: frozenset[int],
    c: int,
    k: int,
    t: int,
) -> list[tuple[int, frozenset[int]]]:
    if t == 1:
        return [(path[-1], s)]
    threshold = g_bound(c, k, t - 1)
    q = next((idx for idx, v in enumerate(path) if len(s & g.adj[v]) >= threshold), None)
    if q is None or q == len(path) - 1:
        raise RuntimeError(f"no proper path prefix meets the g({c},{k},{t-1}) threshold")
    return _build_chain(g, path[: q + 1], s & g.adj[path[q]], c, k, t - 1) + [(path[-1], s)]


def _check_chain(
    g: Graph,
    s: frozenset[int],
    ws: list[int],
    xs: list[frozenset[int]],
    c: int,
) -> None:
    """Independent check of the three chain properties; raises RuntimeError."""
    t = len(ws)
    if len(set(ws)) != t:
        raise RuntimeError("property 1: chain vertices are not distinct")
    for i in range(t):
        if not xs[i] <= (g.adj[ws[i]] & s):
            raise RuntimeError(f"property 1: X_{i+1} escapes N(w_{i+1}) intersected with S")
        if i > 0 and not xs[i - 1] <= xs[i]:
            raise RuntimeError(f"property 2: X_{i} is not contained in X_{i+1}")
        overlap = sum(len(xs[i] & g.adj[ws[j]]) for j in range(i))
        if len(xs[i]) < overlap + c:
            raise RuntimeError(
                f"property 3: X_{i+1} counting inequality fails ({len(xs[i])} < {overlap}+{c})"
            )


def nt_path(g: Graph, k: int, u: int, v: int) -> Optional[list[int]]:
    """Shortest path from u to v in NT_k(g), by BFS over its sorted rows.

    Each vertex keeps its first discoverer as parent.  Unless u == v,
    raises ScaleExceeded, as neartwin_graph does, when g has more than
    GRAPH_MAX_PAIRS vertex pairs.
    """
    if u == v:
        return [u]
    return shortest_path(neartwin_graph(g, k), u, {v}, g.n)


def extract_halfgraph_for_pair(
    g: Graph,
    k: int,
    t: int,
    u: int,
    v: int,
) -> HalfgraphWitness:
    """Extraction driver for a same-component pair differing too much.

    Orients the pair so the surplus side is large enough, finds a
    near-twin path between them, and returns extract_halfgraph's witness
    along it.  Raises ValueError when u or v is not a vertex of g,
    neither one-sided difference reaches g_bound(t + 1, k, t) or the
    pair shares no near-twin path, and RuntimeError as extract_halfgraph
    does.  The path search raises ScaleExceeded, as neartwin_graph does,
    when g has more than GRAPH_MAX_PAIRS vertex pairs.
    """
    check_vertices(g, (u, v))
    need = g_bound(t + 1, k, t)
    if len(g.adj[v] - g.adj[u]) >= need:
        lo, hi = u, v
    elif len(g.adj[u] - g.adj[v]) >= need:
        lo, hi = v, u
    else:
        raise ValueError(f"neither one-sided difference reaches {need}")
    path = nt_path(g, k, lo, hi)
    if path is None:
        raise ValueError("vertices share no near-twin path")
    return extract_halfgraph(g, path, k, t)
