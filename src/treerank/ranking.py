"""Round-based vertex ranking with an FPT separator subroutine.

The ranking works in batched rounds: round i examines still unranked
vertices v and asks whether deleting at most m vertices (other than v)
removes every unranked vertex from v's radius-r ball.  If yes, v
receives rank i. All round-i checks read the one unranked set frozen at
the end of round i-1, so the output is independent of intra-round order.
Vertices never separable keep rank infinity.

Round 1 needs no search: with every vertex unranked, the forced ring
(below) is N(v), so v gets rank 1, with N(v) as its witness, iff
deg(v) <= m.  A failed search read its forced ring and the last vertex
of every path a BFS returned; round i+1 re-checks v only if round i
ranked a vertex that one of v's failed searches read.  The unranked set
only shrinks, and while the vertices a search read stay unranked, each
of its BFSs finds the same first target by the same path (every vertex
it passed was no target then and is none now) and the ring is the same,
so the whole search replays and fails again: semi-naive evaluation of
the fixed point, with watch lists.  The ring holds every unranked
neighbour (a failure in round 1 read N(v)), so a new rank dirties its
unranked neighbours, and only path ends, which lie at distance 2..r,
are watched.  No vertex farther than r from a new rank is re-checked.

The per-vertex check is a branch-and-bound search: find a shortest path
from v to the forbidden set; if none, the deletions so far suffice; else
some path vertex must be deleted, giving branching <= r and depth <= m
(so at most sum(r^i, i<=m) expansions per search, still the worst case).
Two prunings remove only subtrees that hold no solution, so the first
solution in branch order, the witness, is the one the plain search finds:

- Forced first ring: a forbidden neighbour of v is a one-edge path that
  only its own deletion breaks, so every solution deletes all of them.
  The search starts with them deleted, or fails at once if there are
  more than m.  Deleting vertices never brings a new one to distance 1,
  so this applies only at the root.
- Disjoint-path refusal: at a node with budget b, up to b more shortest
  paths are grown with the earlier paths' vertices blocked.  If b+1
  paths share no vertex besides v, any b deletions miss one of them, and
  the node fails without branching.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable, Mapping, Optional

from .errors import field, record
from .graph import Graph, check_vertices, shortest_path

INF = math.inf

Rank = float  # positive int, or math.inf


@record(frozen=False)
class SearchStats:
    """Instrumentation for separator searches (node = one search tree node)."""

    searches: int = 0
    nodes: int = 0
    max_nodes_per_search: int = 0

    def record(self, nodes: int) -> None:
        self.searches += 1
        self.nodes += nodes
        self.max_nodes_per_search = max(self.max_nodes_per_search, nodes)


@record
class RankAssignment:
    """Per-vertex ranks plus the separator witnesses found on assignment."""

    r: int
    m: int
    ranks: tuple[Rank, ...]
    witnesses: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def all_finite(self) -> bool:
        return all(x != INF for x in self.ranks)

    def max_rank(self) -> Rank:
        return max(self.ranks, default=0)


def separator_search(
    g: Graph,
    v: int,
    a: Iterable[int],
    r: int,
    m: int,
    stats: Optional[SearchStats] = None,
) -> Optional[frozenset[int]]:
    """Find S (|S| <= m, v not in S) with ball_r(v) in G-S avoiding A.

    Returns the first S found by branch order (path vertices nearest v
    first), or None if no such set exists.  Branching follows the
    shortest-path structure, so the search tree has at most
    sum(r^i for i <= m) nodes.
    """
    check_vertices(g, [v])
    fa = frozenset(a)
    if v in fa:
        raise ValueError("separator target set must not contain the center")
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    return _separator(g, v, fa, r, m, stats, [])


def _separator(
    g: Graph,
    v: int,
    targets: AbstractSet[int],
    r: int,
    m: int,
    stats: Optional[SearchStats],
    ends: list[int],
) -> Optional[frozenset[int]]:
    """separator_search without validation or copying.

    targets may contain v: v is the BFS root, so it is never reached as
    a target.  That lets every search of a ranking round share one set.
    The search starts with the forced first ring deleted.  The last
    vertex of every path a BFS returns is appended to `ends`.
    """
    deleted = set(g.adj[v] & targets)
    budget = m - len(deleted)
    # One frame per open node: its path vertices not yet given up, in
    # reverse, so frame[-1] is the vertex its current branch deletes.
    frames: list[list[int]] = []
    nodes = 1  # the root; a ring of more than m refuses it at once
    found = None
    while budget >= 0:
        path = shortest_path(g, v, targets, r, deleted)
        if path is None:
            found = frozenset(deleted)
            break
        ends.append(path[-1])
        if not _refuted(g, v, targets, r, budget - len(frames), deleted, path, ends):
            frames.append(path[:0:-1])
        else:  # the node fails: move on to the next untried branch
            while frames:
                deleted.remove(frames[-1].pop())
                if frames[-1]:
                    break
                frames.pop()
            else:
                break
        deleted.add(frames[-1][-1])
        nodes += 1
    if stats is not None:
        stats.record(nodes)
    return found


def _refuted(
    g: Graph,
    v: int,
    targets: AbstractSet[int],
    r: int,
    budget: int,
    deleted: set[int],
    path: list[int],
    ends: list[int],
) -> bool:
    """Disjoint-path refusal: budget + 1 paths sharing only v, path
    first, cannot all be cut by budget deletions.  Appends each path's
    last vertex to `ends`."""
    if budget == 0:
        return True
    blocked = deleted.union(path[1:])
    for _ in range(budget):
        other = shortest_path(g, v, targets, r, blocked)
        if other is None:
            return False
        ends.append(other[-1])
        blocked.update(other[1:])
    return True


def compute_ranking(
    g: Graph,
    r: int,
    m: int,
    stats: Optional[SearchStats] = None,
) -> RankAssignment:
    """Run the batched ranking rounds until no vertex gains a rank.

    For r >= 1 a vertex has rank 1 iff its degree is at most m.  When a
    rank is assigned, the separator found is stored as an audit witness
    (the witness is branch-order dependent, the rank value is not).
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    ranks: list[Rank] = [INF] * g.n
    witnesses: dict[int, frozenset[int]] = {}
    unranked = set(range(g.n))
    # The vertices whose failed searches returned a path ending at each
    # vertex.
    end_readers: dict[int, list[int]] = {}
    assigned = [(v, row) for v, row in enumerate(g.adj) if len(row) <= m]
    round_no = 1
    while assigned:
        dirty: set[int] = set()
        for v, s in assigned:
            ranks[v] = round_no
            witnesses[v] = s
            unranked.discard(v)
            dirty.update(g.adj[v])
            dirty.update(end_readers.pop(v, ()))
        round_no += 1
        assigned = []
        for v in sorted(dirty & unranked):
            ends: list[int] = []
            s = _separator(g, v, unranked, r, m, stats, ends)
            if s is None:
                for t in ends:
                    end_readers.setdefault(t, []).append(v)
            else:
                assigned.append((v, s))
    return RankAssignment(r, m, tuple(ranks), witnesses)


def rank_order(ra: RankAssignment) -> tuple[int, ...]:
    """Vertices sorted by rank, ties by id.  Requires all ranks finite."""
    if not ra.all_finite():
        bad = [v for v, x in enumerate(ra.ranks) if x == INF]
        raise ValueError(f"rank order undefined: infinite rank at {bad[:5]}")
    return tuple(sorted(range(len(ra.ranks)), key=lambda v: (ra.ranks[v], v)))
