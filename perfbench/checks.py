"""Output checks that do not trust the program under test.

Each check reads an operation's output file and raises CheckFailed when
the output is wrong.  The graph parser and every reference computation
here are the benchmark's own; only `interpret` is also compared with
`treerank.sparsify.recover_graph`, which the caller passes in.
"""

from __future__ import annotations

from collections import deque

from workloads import RANK_M, RANK_R, Input, Op, SimpleGraph


class CheckFailed(Exception):
    """An operation's output is wrong."""


def parse(text: str) -> SimpleGraph:
    """Parse the treerank graph format (comments, 'p', 'e' and 'l' lines)."""
    n = None
    edges: set[tuple[int, int]] = set()
    preds: dict[str, set[int]] = {}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        tag = fields[0]
        try:
            if tag == "p":
                n = int(fields[1])
            elif tag == "e":
                u, v = int(fields[1]), int(fields[2])
                edges.add((min(u, v), max(u, v)))
            elif tag == "l":
                preds.setdefault(fields[1], set()).update(int(x) for x in fields[2:])
            else:
                raise CheckFailed(f"unknown line {raw!r}")
        except (IndexError, ValueError):
            raise CheckFailed(f"malformed line {raw!r}") from None
    if n is None:
        raise CheckFailed("no 'p' header")
    return SimpleGraph(n, edges, {k: frozenset(v) for k, v in preds.items()})


def same_graph(got: SimpleGraph, want: SimpleGraph, what: str) -> None:
    if got.n != want.n:
        raise CheckFailed(f"{what}: {got.n} vertices, expected {want.n}")
    if got.edges != want.edges:
        missing = sorted(want.edges - got.edges)[:3]
        extra = sorted(got.edges - want.edges)[:3]
        raise CheckFailed(f"{what}: edges differ (missing {missing}, extra {extra})")
    if got.predicates != want.predicates:
        raise CheckFailed(f"{what}: predicates differ")


def check_rank(text: str, g: SimpleGraph, r: int = RANK_R, m: int = RANK_M) -> None:
    """Ranks cover every vertex once, rank 1 holds exactly when deg <= m,
    and every witness S has |S| <= m, v not in S, and leaves no other
    vertex of rank >= rank(v) in the radius-r ball of v in G - S."""
    inf = float("inf")
    ranks: dict[int, float] = {}
    witnesses: dict[int, frozenset[int]] = {}
    for line in text.splitlines():
        fields = line.split()
        try:
            if fields[0] == "w":
                v = int(fields[1])
                if v in witnesses:
                    raise CheckFailed(f"two witnesses for vertex {v}")
                witnesses[v] = frozenset(int(x) for x in fields[2:])
            else:
                v = int(fields[0])
                if v in ranks:
                    raise CheckFailed(f"vertex {v} ranked twice")
                value = inf if fields[1] == "inf" else int(fields[1])
                if value != inf and value < 1:
                    raise CheckFailed(f"vertex {v} has rank {value}")
                ranks[v] = value
        except (IndexError, ValueError):
            raise CheckFailed(f"malformed rank line {line!r}") from None
    if sorted(ranks) != list(range(g.n)):
        raise CheckFailed("ranks do not cover every vertex exactly once")
    adj = g.adjacency()
    for v in range(g.n):
        if (ranks[v] == 1) != (len(adj[v]) <= m):
            raise CheckFailed(f"vertex {v}: rank {ranks[v]} with degree {len(adj[v])}")
        if (ranks[v] != inf) != (v in witnesses):
            raise CheckFailed(f"vertex {v}: rank {ranks[v]} and witness disagree")
    for v, s in witnesses.items():
        if v not in ranks:
            raise CheckFailed(f"witness for unknown vertex {v}")
        if len(s) > m or v in s:
            raise CheckFailed(f"vertex {v}: witness {sorted(s)} is not a separator candidate")
        for u in _ball(adj, v, r, s):
            if u != v and ranks[u] >= ranks[v]:
                raise CheckFailed(f"vertex {v}: {u} of rank {ranks[u]} left in its ball")


def _ball(adj, v: int, r: int, deleted: frozenset[int]) -> set[int]:
    seen = {v}
    frontier = deque([(v, 0)])
    while frontier:
        u, d = frontier.popleft()
        if d == r:
            continue
        for w in adj[u]:
            if w not in seen and w not in deleted:
                seen.add(w)
                frontier.append((w, d + 1))
    return seen


def check_sparsify(text: str, inp: Input) -> None:
    """The marked graph keeps the original ids and marks only appended ones.

    Whether it encodes the input is checked by the recover that follows.
    """
    g = parse(text)
    if g.n < inp.graph.n:
        raise CheckFailed(f"sparsified graph has {g.n} < {inp.graph.n} vertices")
    marks = g.predicates.get("R", frozenset())
    if any(v < inp.graph.n for v in marks):
        raise CheckFailed("an original vertex carries the R mark")
    if not g.predicates.get("F", frozenset()) <= marks:
        raise CheckFailed("F marks escape the R marks")


def nt_components(g: SimpleGraph, k: int) -> list[tuple[int, ...]]:
    """Components of NT_k(g), by all-pairs popcounts of bitset rows."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        ru = rows[u]
        for v in range(u + 1, g.n):
            if (ru ^ rows[v]).bit_count() <= k:
                parent[find(v)] = find(u)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(vs) for vs in groups.values()), key=lambda c: c[0])


def check_neartwin(text: str, inp: Input) -> None:
    got = []
    for i, line in enumerate(text.splitlines()):
        fields = line.split()
        if fields[:2] != ["component", str(i)]:
            raise CheckFailed(f"malformed component line {line!r}")
        got.append(tuple(int(x) for x in fields[2:]))
    if got != nt_components(inp.graph, inp.k):
        raise CheckFailed("near-twin components differ from the reference")


def check(op: Op, text: str, inp: Input, recovered_by_library=None) -> None:
    """Check one operation's output; raises CheckFailed."""
    if op.kind == "rank":
        check_rank(text, inp.graph)
    elif op.kind == "sparsify":
        check_sparsify(text, inp)
    elif op.kind == "recover":
        same_graph(parse(text), inp.graph, "recovered graph")
    elif op.kind == "neartwin":
        check_neartwin(text, inp)
    elif op.kind == "interpret":
        same_graph(parse(text), inp.expected, "FO interpretation")
        if recovered_by_library is not None:
            same_graph(recovered_by_library, inp.expected, "recover_graph")
    elif op.kind == "range-check":
        if text.strip() != "True":
            raise CheckFailed(f"check_range returned {text.strip()!r}")
    else:
        raise ValueError(f"unknown operation {op.kind!r}")
