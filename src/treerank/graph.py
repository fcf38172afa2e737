"""Core graph type, text I/O, and flip_parts, the one flip routine.

Graphs are finite, simple, and undirected, with dense integer vertex ids
0..n-1 and optional named unary predicates (vertex label sets).  All
operations here are pure: they return new values and never mutate
their inputs, so values are safe to share across threads.  The one
piece of hidden state, the lazily sorted neighbor rows, is a cache
that every thread fills with the same values.

Text format (line oriented, UTF-8, '#' starts a comment):

    p <n> <m>               header, exactly one, first non-comment line
    e <u> <v>               edge, 0-indexed, u != v, unordered, no duplicates
    l <name> <v1> ... <vk>  unary predicate block; repeatable, sets unioned
"""

from __future__ import annotations

from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .errors import GRAPH_MAX_VERTICES, ScaleExceeded, field, record


class ParseError(ValueError):
    """Malformed graph text.  Carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@record
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
        # Not a record field, so equality, repr and write_graph ignore it.
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
    # A row is made on its vertex's first edge, as a list (append is
    # cheaper than set.add; frozenset drops duplicates at the end), and
    # untouched vertices share one empty frozenset.
    adj: list[Optional[list[int]]] = [None] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        row = adj[u]
        if row is None:
            adj[u] = [v]
        else:
            row.append(v)
        row = adj[v]
        if row is None:
            adj[v] = [u]
        else:
            row.append(u)
    preds: dict[str, frozenset[int]] = {}
    for name, vs in (predicates or {}).items():
        fs = frozenset(vs)
        for v in fs:
            if not (0 <= v < n):
                raise ValueError(f"predicate {name!r} names vertex {v} out of range")
        if fs:
            preds[name] = fs
    empty: frozenset[int] = frozenset()
    return Graph(n, tuple([empty if row is None else frozenset(row) for row in adj]), preds)


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented text format into a Graph.

    Raises ParseError (with line number) on: malformed lines, vertex ids
    out of range, duplicate edges, self-loops, missing or repeated
    headers, and an edge count disagreeing with the header.  Raises
    ScaleExceeded, before any row is allocated, when the header declares
    more than GRAPH_MAX_VERTICES vertices.  Text in write_graph's own
    layout is read in bulk; everything else goes through the line parser,
    the only code that raises these errors.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_canonical(text: str) -> Optional[Graph]:
    """The graph of a valid text in write_graph's layout, or None, for
    the line parser to read or refuse: `p n m`, then m lines `e u v` with
    u < v, then `l name v...` lines, every field followed by one space or
    newline and the text by a newline.  Such a text, with no comment,
    splits into the same lines and fields for both parsers.
    """
    fields = text.split()
    # One separator per field, each a space or a newline.
    if text[:2] != "p " or text[-1:] != "\n" or "#" in text or not \
            len(fields) == text.count(" ") + text.count("\n") == len(text) - sum(map(len, fields)):
        return None
    head = text.index("\n")
    cut = text.find("\nl ") + 1 or len(text)  # where the `l` lines start
    try:
        n, m = map(int, text[2:head].split(" "))
        # m lines of three fields, each starting `e `, after the header.
        if not (0 <= n <= GRAPH_MAX_VERTICES and text.count(" ", head, cut) == 2 * m
                and text.count("\ne ", head, cut) == text.count("\n", head + 1, cut) == m):
            return None
        us = list(map(int, fields[4 : 3 * m + 3 : 3]))
        vs = list(map(int, fields[5 : 3 * m + 3 : 3]))
        if us and (not all(map(int.__lt__, us, vs)) or min(us) < 0 or max(vs) >= n):
            return None
        preds: dict[str, list[int]] = {}
        for line in text[cut:].splitlines():
            tag, name, *members = line.split(" ")
            members = list(map(int, members))
            if tag != "l" or min(members) < 0 or max(members) >= n:
                return None
            preds.setdefault(name, []).extend(members)
    except ValueError:  # a field no integer, a header not of three fields, an `l` line of two
        return None
    g = make_graph(n, zip(us, vs), preds)
    # With u < v, a duplicate edge is the only way to lose degree.
    return g if sum(map(len, g.adj)) == 2 * m else None


def _parse_lines(text: str) -> Graph:
    """parse_graph line by line, for any text."""
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
            if n > GRAPH_MAX_VERTICES:
                raise ScaleExceeded(
                    "parse_graph", f"header declares {n} vertices, over {GRAPH_MAX_VERTICES}"
                )
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
    """Serialize a Graph; parse_graph(write_graph(g)) == g.  Raises
    ValueError for a predicate name that is empty or holds whitespace or
    '#', since no text gives it back."""
    for name in g.predicates:
        if "#" in name or name.split() != [name]:
            raise ValueError(f"predicate name {name!r} cannot be written: "
                             "it is empty or holds whitespace or '#'")
    lines = [f"p {g.n} {g.edge_count()}"]
    # One "e u " prefix per row, then each larger neighbor in order.
    lines += [
        f"{e_u}{v}" for u, row in enumerate(g.adj) for e_u in (f"e {u} ",) for v in sorted(row) if v > u
    ]
    for name in sorted(g.predicates):
        members = " ".join(str(v) for v in sorted(g.predicates[name]))
        lines.append(f"l {name} {members}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Neighborhoods, flips, and subgraphs.


def check_vertices(g: Graph, vs: Iterable[int]) -> None:
    """Raise ValueError on the first of vs that is not a vertex of g."""
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")


def within_distance(g: Graph, v: int, r: int, forbidden: AbstractSet[int] = frozenset()) -> set[int]:
    """Vertices at distance <= r from v in g minus `forbidden`, by BFS.

    v itself is included, unchecked.
    """
    seen = {v}
    frontier = [v]
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
    rows = g._sorted_rows
    # Deleted vertices count as discovered, so one lookup skips both.
    parent = dict.fromkeys(deleted)
    parent[v] = -1
    frontier = [v]
    for depth in range(1, r + 1):
        nxt = []
        for u in frontier:
            for w in rows[u] or g.sorted_neighbors(u):
                if w in parent:
                    continue
                if w in targets:
                    path = [w, u]
                    while path[-1] != v:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                if depth < r:  # the last layer is not expanded
                    parent[w] = u
                    nxt.append(w)
        if not nxt:
            return None
        frontier = nxt
    return None


def flip_parts(rows: Sequence[AbstractSet[int]], parts, pairs: Iterable[tuple[int, int]]) -> list:
    """rows with the adjacency of parts[i] and parts[j] complemented for
    each (i, j) in pairs (inside parts[i] if i == j), in one pass over
    pairwise disjoint parts: a pair listed twice cancels, pair order does
    not matter, and rows outside the parts stay the same objects."""
    partners: dict[int, frozenset[int]] = {}
    for i, j in pairs:
        for x, y in {(i, j), (j, i)}:  # a self pair once
            partners[x] = partners.get(x, frozenset()) ^ {y}
    out = list(rows)
    for i, js in partners.items():
        if js:
            toggle = frozenset().union(*[parts[j] for j in js])
            for u in parts[i]:
                row = out[u] ^ toggle
                # u enters its own row only when part i is self-flipped.
                out[u] = row - {u} if u in toggle else row
    return out


def flip(g: Graph, a: Iterable[int], b: Iterable[int]) -> Graph:
    """Complement all adjacencies between A and B (u != v).

    Requires A and B disjoint or equal.  Involution: flipping twice with
    the same sets restores the original graph.
    """
    fa, fb = frozenset(a), frozenset(b)
    check_vertices(g, fa | fb)
    if fa != fb and fa & fb:
        raise ValueError("flip sets must be disjoint or equal")
    parts = [fa] if fa == fb else [fa, fb]
    return Graph(g.n, tuple(flip_parts(g.adj, parts, [(0, len(parts) - 1)])), dict(g.predicates))


def relabel(g: Graph, keep: Iterable[int], rows: Sequence[AbstractSet[int]]) -> tuple[Graph, dict[int, int]]:
    """Graph on the vertices `keep` of g, ids remapped densely in sorted
    order, with rows[v] (in g's ids, naming only kept vertices) as kept
    vertex v's row and g's predicates restricted to `keep`.  Returns
    (graph, mapping) where mapping sends old ids to new.  When `keep` is
    a prefix of the ids, no id moves and frozenset rows are shared.
    """
    keep = sorted(keep)
    remap = {v: i for i, v in enumerate(keep)}
    if keep and keep[-1] != len(keep) - 1:  # ids move
        rows = [frozenset([remap[y] for y in rows[x]]) for x in keep]
    preds = {}
    for name, vs in g.predicates.items():
        kept = frozenset([remap[v] for v in vs if v in remap])
        if kept:
            preds[name] = kept
    return Graph(len(keep), tuple(map(frozenset, rows[: len(keep)])), preds), remap
