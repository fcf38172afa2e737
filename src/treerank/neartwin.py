"""Near-twin relation, half-graph detection, and constructive extraction.

Two vertices are k-near-twins when their open neighborhoods differ in at
most k elements.  NT_k(G) joins every such pair; its connected components
drive the sparsifier.  In graphs without a large semi-induced half-graph,
same-component pairs are provably close in the near-twin metric, and the
extraction here runs that proof forward: given a near-twin path whose
endpoints differ too much, it produces an order-t half-graph witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence, Union

from .errors import BOUND_MAX_BITS, ScaleExceeded
from .graph import Graph, make_graph, shortest_path


def symdiff(g: Graph, u: int, v: int) -> int:
    """Size of the symmetric difference of the open neighborhoods."""
    if u == v:
        raise ValueError("near-twin difference is undefined for a vertex and itself")
    return len(g.adj[u] ^ g.adj[v])


@dataclass(frozen=True)
class NearTwinView:
    """NT_k(G) with its connected-component partition."""

    k: int
    nt_graph: Graph
    components: tuple[tuple[int, ...], ...]


def neartwin_view(g: Graph, k: int) -> NearTwinView:
    """Materialize NT_k(G).  Quadratic in n; meant for desk-scale graphs.

    Components are listed in order of their smallest member, members in
    id order.
    """
    parts = component_partition(g, k).parts
    return NearTwinView(k, neartwin_graph(g, k), parts)


def neartwin_graph(g: Graph, k: int) -> Graph:
    """NT_k(G) by an all-pairs scan; pairs whose degrees differ by more
    than k are skipped unread.  Edgeless when k < 0."""
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


@dataclass(frozen=True)
class PartPartition:
    """Connected components of NT_k(G), each sorted, ordered by minimum."""

    k: int
    parts: tuple[tuple[int, ...], ...]

    def part_of(self) -> dict[int, int]:
        return {v: i for i, p in enumerate(self.parts) for v in p}


def component_partition(g: Graph, k: int) -> PartPartition:
    """NT_k components without materializing the near-twin graph.

    Two rows differ in at most deg(u) + deg(v) elements, so the vertices
    v with deg(v) + (least degree) <= k are near-twins of a least-degree
    vertex; this pool holds every near-twin pair with no common neighbor
    and is united first.  Any other near-twin of u misses at
    most k of u's neighbors, so u's candidates are the neighbors of any
    k+1 of them.  A candidate pair is tested only while the disjoint-set
    forest separates it, and a union keeps u's root.
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

    near = _near_test(g, k)
    for u in range(g.n):
        lo, hi, ru = degs[u] - k, degs[u] + k, find(u)
        for v in frozenset().union(*(g.adj[w] for w in islice(g.adj[u], k + 1))):
            if v > u and lo <= degs[v] <= hi:
                rv = find(v)
                if rv != ru and near(u, v):
                    parent[rv] = ru

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return PartPartition(k, tuple(sorted(tuple(vs) for vs in groups.values())))


def g_bound(c: int, k: int, t: int) -> int:
    """Surplus-neighborhood recurrence: g(c,k,1) = c and
    g(c,k,t) = g(c,k,t-1)*(t-1) + k + c.  Raises ScaleExceeded, before
    multiplying out, when the bits of (t-1)!, a lower bound on the value
    for c >= 1 and k >= 0, pass BOUND_MAX_BITS."""
    if t < 1:
        raise ValueError("need t >= 1")
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


@dataclass(frozen=True)
class HalfgraphWitness:
    """Vertices u_1..u_t, w_1..w_t with edge(u_i, w_j) iff i <= j."""

    u: tuple[int, ...]
    w: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.u)


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
    budget = cap_nodes

    def place(is_w: bool) -> bool:
        # Place the next u, non-adjacent to every w placed so far, or the
        # next w, adjacent to every u placed so far; each call is one
        # node of the search.
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ScaleExceeded("find_halfgraph", "node cap")
        if not is_w and len(sides[0]) == t:
            return True
        other = sides[not is_w]
        for cand in by_degree:
            if cand in used or any((cand in g.adj[x]) != is_w for x in other):
                continue
            sides[is_w].append(cand)
            used.add(cand)
            if place(not is_w):
                return True
            used.discard(cand)
            sides[is_w].pop()
        return False

    if place(False):
        return HalfgraphWitness(tuple(sides[0]), tuple(sides[1]))
    return None


@dataclass(frozen=True)
class HalfgraphExtraction:
    """Successful extraction: the witness plus its audit trail.

    x_chain[i] is the nested candidate set attached to w[i]; the chain
    certifies the selection of the u side.
    """

    u: tuple[int, ...]
    w: tuple[int, ...]
    x_chain: tuple[frozenset[int], ...]

    def witness(self) -> HalfgraphWitness:
        return HalfgraphWitness(self.u, self.w)


@dataclass(frozen=True)
class ExtractionFailure:
    """A precondition or chain property that failed, with its index."""

    stage: str  # "precondition" or "property-1" / "property-2" / "property-3"
    message: str


def extract_halfgraph(
    g: Graph,
    nt_path: Sequence[int],
    k: int,
    t: int,
) -> Union[HalfgraphExtraction, ExtractionFailure]:
    """Run the constructive argument along a near-twin path.

    nt_path must be a simple path v_1..v_m in NT_k(g) and the surplus set
    S = N(v_m) \\ N(v_1) must have at least g_bound(t + 1, k, t)
    elements.  On success returns the w/X chain plus the selected u side;
    every free choice takes the smallest id.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    c = t + 1
    path = list(nt_path)
    if len(path) < 1 or len(set(path)) != len(path):
        return ExtractionFailure("precondition", "input is not a simple path")
    for a, b in zip(path, path[1:]):
        if symdiff(g, a, b) > k:
            return ExtractionFailure(
                "precondition", f"consecutive vertices ({a},{b}) are not {k}-near-twins"
            )
    s = g.adj[path[-1]] - g.adj[path[0]]
    need = g_bound(c, k, t)
    if len(s) < need:
        return ExtractionFailure(
            "precondition", f"surplus set has {len(s)} vertices, need {need}"
        )

    chain = _build_chain(g, path, s, c, k, t)
    if isinstance(chain, ExtractionFailure):
        return chain
    ws = [w for w, _ in chain]
    xs = [x for _, x in chain]

    check = _check_chain(g, s, ws, xs, c)
    if check is not None:
        return check

    # u_i: smallest id in X_i avoiding w_1..w_t and all neighborhoods of
    # w_1..w_{i-1}; the chain properties guarantee at least one choice.
    w_set = set(ws)
    us: list[int] = []
    for i in range(t):
        pool = [
            x
            for x in sorted(xs[i])
            if x not in w_set and all(x not in g.adj[ws[j]] for j in range(i))
        ]
        if not pool:
            return ExtractionFailure("property-3", f"no admissible u_{i+1} in X_{i+1}")
        us.append(pool[0])
    return HalfgraphExtraction(tuple(us), tuple(ws), tuple(xs))


def _build_chain(
    g: Graph,
    path: list[int],
    s: frozenset[int],
    c: int,
    k: int,
    t: int,
) -> Union[list[tuple[int, frozenset[int]]], ExtractionFailure]:
    if t == 1:
        return [(path[-1], s)]
    threshold = g_bound(c, k, t - 1)
    q = None
    for idx, v in enumerate(path):
        if len(s & g.adj[v]) >= threshold:
            q = idx
            break
    if q is None or q == len(path) - 1:
        return ExtractionFailure(
            "precondition", f"no proper path prefix meets the g({c},{k},{t-1}) threshold"
        )
    sub = _build_chain(g, path[: q + 1], s & g.adj[path[q]], c, k, t - 1)
    if isinstance(sub, ExtractionFailure):
        return sub
    return sub + [(path[-1], s)]


def _check_chain(
    g: Graph,
    s: frozenset[int],
    ws: list[int],
    xs: list[frozenset[int]],
    c: int,
) -> Optional[ExtractionFailure]:
    """Independent validation of the three chain properties."""
    t = len(ws)
    if len(set(ws)) != t:
        return ExtractionFailure("property-1", "chain vertices are not distinct")
    for i in range(t):
        if not xs[i] <= (g.adj[ws[i]] & s):
            return ExtractionFailure(
                "property-1", f"X_{i+1} escapes N(w_{i+1}) intersected with S"
            )
        if i > 0 and not xs[i - 1] <= xs[i]:
            return ExtractionFailure("property-2", f"X_{i} is not contained in X_{i+1}")
        overlap = sum(len(xs[i] & g.adj[ws[j]]) for j in range(i))
        if len(xs[i]) < overlap + c:
            return ExtractionFailure(
                "property-3", f"X_{i+1} counting inequality fails ({len(xs[i])} < {overlap}+{c})"
            )
    return None


def nt_path(g: Graph, k: int, u: int, v: int) -> Optional[list[int]]:
    """Shortest path from u to v in NT_k(g), by BFS over its sorted rows.

    Each vertex keeps its first discoverer as parent.
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
) -> Union[HalfgraphExtraction, ExtractionFailure]:
    """Extraction driver for a same-component pair differing too much.

    Orients the pair so the surplus side is large enough, finds a
    near-twin path between them, and extracts.
    """
    need = g_bound(t + 1, k, t)
    if len(g.adj[v] - g.adj[u]) >= need:
        lo, hi = u, v
    elif len(g.adj[u] - g.adj[v]) >= need:
        lo, hi = v, u
    else:
        return ExtractionFailure(
            "precondition", f"neither one-sided difference reaches {need}"
        )
    path = nt_path(g, k, lo, hi)
    if path is None:
        return ExtractionFailure("precondition", "vertices share no near-twin path")
    return extract_halfgraph(g, path, k, t)
