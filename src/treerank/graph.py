"""Core graph type, text I/O, generators, and edge-flip primitives.

Graphs are finite, simple, and undirected, with dense integer vertex ids
0..n-1 and optional named unary predicates (vertex label sets).  All
operations here are pure: they return new Graph values and never mutate
their inputs, so values are safe to share across threads.  The one
piece of hidden state, the lazily sorted neighbor rows, is a cache
that every thread fills with the same values.

Text format (line oriented, UTF-8, '#' starts a comment):

    p <n> <m>               header, exactly one, first non-comment line
    e <u> <v>               edge, 0-indexed, u != v, unordered, no duplicates
    l <name> <v1> ... <vk>  unary predicate block; repeatable, sets unioned
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, Optional


class ParseError(ValueError):
    """Malformed graph text.  Carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=True)
class Graph:
    """Immutable simple graph.

    adj[v] is the frozenset of neighbors of v.  Predicates map a name to
    the frozenset of vertices carrying it; empty extensions are dropped
    at construction so equality and serialization are canonical.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    predicates: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def __hash__(self) -> int:
        # The generated hash would fail on the predicates dict; this one
        # hashes the same values == compares.
        return hash((self.n, self.adj, frozenset(self.predicates.items())))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def sorted_neighbors(self, v: int) -> tuple[int, ...]:
        """adj[v] in increasing order, sorted on first request and cached."""
        rows = self._sorted_rows
        row = rows[v]
        if row is None:
            row = rows[v] = tuple(sorted(self.adj[v]))
        return row

    @cached_property
    def _sorted_rows(self) -> list[Optional[tuple[int, ...]]]:
        # Not a dataclass field, so equality, repr and write_graph ignore it.
        return [None] * self.n


def make_graph(
    n: int,
    edges: Iterable[tuple[int, int]] = (),
    predicates: Mapping[str, Iterable[int]] | None = None,
) -> Graph:
    """Build a Graph, validating ranges, rejecting self-loops.

    Duplicate edges are merged silently; use parse_graph for strict input
    checking with line numbers.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    preds: dict[str, frozenset[int]] = {}
    for name, vs in (predicates or {}).items():
        fs = frozenset(vs)
        for v in fs:
            if not (0 <= v < n):
                raise ValueError(f"predicate {name!r} names vertex {v} out of range")
        if fs:
            preds[name] = fs
    return Graph(n, tuple(frozenset(s) for s in adj), preds)


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented text format into a Graph.

    Raises ParseError (with line number) on: malformed lines, vertex ids
    out of range, duplicate edges, self-loops, missing or repeated
    headers, and an edge count disagreeing with the header.
    """
    n = None
    declared_m = 0
    header_line = 0
    edges: set[tuple[int, int]] = set()
    preds: dict[str, set[int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e" and n is not None:
            if len(fields) != 3:
                raise ParseError(line_no, "edge must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, "edge endpoints must be integers") from None
            if u == v:
                raise ParseError(line_no, f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"vertex id out of range in edge ({u},{v})")
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise ParseError(line_no, f"duplicate edge ({key[0]},{key[1]})")
            edges.add(key)
        elif tag == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate header")
            if len(fields) != 3:
                raise ParseError(line_no, "header must be 'p <n> <m>'")
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, "header counts must be integers") from None
            if n < 0 or declared_m < 0:
                raise ParseError(line_no, "header counts must be nonnegative")
            header_line = line_no
        elif n is None:
            raise ParseError(line_no, "missing 'p' header before data line")
        elif tag == "l":
            if len(fields) < 2:
                raise ParseError(line_no, "predicate must be 'l <name> <v1> ...'")
            name = fields[1]
            try:
                vs = [int(x) for x in fields[2:]]
            except ValueError:
                raise ParseError(line_no, "predicate members must be integers") from None
            for v in vs:
                if not (0 <= v < n):
                    raise ParseError(line_no, f"vertex id {v} out of range in predicate {name!r}")
            preds.setdefault(name, set()).update(vs)
        else:
            raise ParseError(line_no, f"unknown directive {tag!r}")
    if n is None:
        raise ParseError(1, "empty input: missing 'p' header")
    if len(edges) != declared_m:
        raise ParseError(header_line, f"header declares {declared_m} edges, found {len(edges)}")
    return make_graph(n, edges, preds)


def write_graph(g: Graph) -> str:
    """Serialize a Graph; parse_graph(write_graph(g)) == g."""
    lines = [f"p {g.n} {g.edge_count()}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    for name in sorted(g.predicates):
        members = " ".join(str(v) for v in sorted(g.predicates[name]))
        lines.append(f"l {name} {members}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators.  Vertex id layouts are fixed so corpora are reproducible:
# trees use BFS order with root 0, half-graphs put the u-side first, and
# subdivision vertices are appended after the original ids.


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
    by (min(u,v), max(u,v)).  New vertices get ids n, n+1, ... assigned in
    sorted edge order, walking each path from the low endpoint.  Original
    ids and predicates are unchanged.
    """
    edge_list = g.edges()
    if isinstance(counts, int):
        count_of = {e: counts for e in edge_list}
    else:
        count_of = {(min(u, v), max(u, v)): c for (u, v), c in counts.items()}
        missing = [e for e in edge_list if e not in count_of]
        if missing:
            raise ValueError(f"no subdivision count for edge {missing[0]}")
    edges: list[tuple[int, int]] = []
    next_id = g.n
    for u, v in edge_list:
        c = count_of[(u, v)]
        if c < 0:
            raise ValueError("subdivision counts must be nonnegative")
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


# ---------------------------------------------------------------------------
# Neighborhoods, flips, and subgraphs.


def closed_ball(g: Graph, v: int, r: int, forbidden: frozenset[int] = frozenset()) -> frozenset[int]:
    """Vertices reachable from v by a path of at most r edges, including v.

    Vertices in `forbidden` are treated as deleted (and v must not be one).
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if v in forbidden:
        raise ValueError("ball center is deleted")
    return frozenset(within_distance(g, [v], r, forbidden))


def within_distance(
    g: Graph,
    centers: list[int],
    r: int,
    forbidden: AbstractSet[int] = frozenset(),
) -> set[int]:
    """Vertices at distance <= r from some center in g minus `forbidden`.

    One multi-source BFS.  The centers are included as given, without
    the range checks closed_ball makes on its single center.
    """
    seen = set(centers)
    frontier = centers
    for _ in range(r):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in seen and w not in forbidden:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return seen


def shortest_path(
    g: Graph,
    v: int,
    targets: AbstractSet[int],
    r: int,
    deleted: AbstractSet[int] = frozenset(),
) -> Optional[list[int]]:
    """BFS path (v, ..., t) with t in targets and <= r edges, or None.

    Vertices in `deleted` are skipped, and v is never reached as a
    target.  Deterministic: layers expand in sorted order and each
    vertex keeps its first (smallest-id) discoverer as parent.
    """
    parent = {v: -1}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for u in frontier:
            for w in g.sorted_neighbors(u):
                if w in parent or w in deleted:
                    continue
                parent[w] = u
                if w in targets:
                    path = [w]
                    while path[-1] != v:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(w)
        if not nxt:
            return None
        frontier = nxt
    return None


def flip(g: Graph, a: Iterable[int], b: Iterable[int]) -> Graph:
    """Complement all adjacencies between A and B (u != v).

    Requires A and B disjoint or equal.  Involution: flipping twice with
    the same sets restores the original graph.
    """
    fa, fb = frozenset(a), frozenset(b)
    for s in (fa, fb):
        for v in s:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range")
    if fa != fb and fa & fb:
        raise ValueError("flip sets must be disjoint or equal")
    adj = list(g.adj)  # rows outside A and B are shared, not copied
    if fa == fb:
        for u in fa:
            adj[u] = adj[u] ^ (fa - {u})
    else:
        for u in fa:
            adj[u] = adj[u] ^ fb
        for v in fb:
            adj[v] = adj[v] ^ fa
    return Graph(g.n, tuple(adj), dict(g.predicates))


def s_flip_classes(g: Graph, s: Iterable[int]) -> list[tuple[int, ...]]:
    """Canonical partition induced by S.

    Each vertex of S forms its own class; the remaining vertices are
    classed by their neighborhood inside S.  Classes are listed with all
    S-singletons first (in id order), then neighborhood classes ordered
    by their S-neighborhood signature.
    """
    fs = frozenset(s)
    for v in fs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    classes: list[tuple[int, ...]] = [(v,) for v in sorted(fs)]
    by_sig: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        if v in fs:
            continue
        sig = tuple(sorted(g.adj[v] & fs))
        by_sig.setdefault(sig, []).append(v)
    for sig in sorted(by_sig):
        classes.append(tuple(sorted(by_sig[sig])))
    return classes


def s_flip(g: Graph, s: Iterable[int], flips: Iterable[tuple[int, int]]) -> Graph:
    """Apply an S-flip: complement edges between the named class pairs.

    `flips` holds index pairs into s_flip_classes(g, s); a pair (i, i)
    complements inside class i.  Applying the same spec twice restores g.
    """
    classes = s_flip_classes(g, s)
    out = g
    for i, j in flips:
        if not (0 <= i < len(classes) and 0 <= j < len(classes)):
            raise ValueError(f"flip names nonexistent class pair ({i},{j})")
        out = flip(out, classes[i], classes[j])
    return out


def relabel(g: Graph, keep: Iterable[int], edges: Iterable[tuple[int, int]]) -> tuple[Graph, dict[int, int]]:
    """Graph on the vertices `keep` of g, ids remapped densely in sorted
    order, with `edges` (pairs of kept vertices, in g's ids) and g's
    predicates restricted to `keep`.  Returns (graph, mapping) where
    mapping sends old ids to new.
    """
    remap = {v: i for i, v in enumerate(sorted(keep))}
    preds = {name: [remap[v] for v in vs if v in remap] for name, vs in g.predicates.items()}
    return make_graph(len(remap), ((remap[u], remap[v]) for u, v in edges), preds), remap


def induced(g: Graph, x: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on X with ids remapped densely (sorted order).

    Returns (subgraph, mapping) where mapping sends old ids to new ids.
    """
    keep = frozenset(x)
    for v in sorted(keep):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    return relabel(g, keep, [(u, v) for u, v in g.edges() if u in keep and v in keep])


@dataclass(frozen=True)
class Embedding:
    """A tree pattern embedded as a subdivided subgraph.

    principal maps abstract tree nodes to graph vertices; paths maps each
    abstract tree edge (parent, child) to the full vertex sequence of the
    corresponding graph path, endpoints included.
    """

    principal: Mapping[int, int]
    paths: Mapping[tuple[int, int], tuple[int, ...]]

    def vertices(self) -> frozenset[int]:
        vs = set(self.principal.values())
        for p in self.paths.values():
            vs.update(p)
        return frozenset(vs)
