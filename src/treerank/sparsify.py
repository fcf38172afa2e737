"""The sparsifier: flip heavy near-twin components and mark them for
exact recovery.

Vertices are partitioned by the connected components of NT_k(G).  A pair
of parts (possibly equal) is mutually heavy when both have at least
5h+1 vertices and some vertex of one has more than 2h neighbors in the
other.  The construction flips every mutually heavy pair and attaches a
marked apex vertex to each heavy part; apexes of a flipped distinct pair
are joined, and a self-flipped part's apex carries a second mark.  The
marks pin down exactly which pairs were complemented, so recovery is
exact on every input graph, class member or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .errors import ScaleExceeded
from .graph import Graph, flip, make_graph, s_flip, s_flip_classes
from .labd import ClassSpec, labd_check
from .neartwin import PartPartition, component_partition


@dataclass(frozen=True)
class HeavyClassification:
    h: int
    heavy: frozenset[int]
    mutually_heavy: frozenset[tuple[int, int]]  # unordered, stored (i, j) with i <= j


def classify_heavy(g: Graph, partition: PartPartition, h: int) -> HeavyClassification:
    """Exact heavy / mutually heavy classification by direct counting.

    The witness condition is symmetric over the unordered pair: either
    side may contain the vertex with more than 2h cross neighbors.
    """
    if h < 1:
        raise ValueError("heaviness threshold must be >= 1")
    part_of = partition.part_of()
    sizes = [len(p) for p in partition.parts]
    counts: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for u in range(g.n):
        cu = counts[u]
        for v in g.adj[u]:
            pv = part_of[v]
            cu[pv] = cu.get(pv, 0) + 1
    pairs: set[tuple[int, int]] = set()
    for u in range(g.n):
        pu = part_of[u]
        if sizes[pu] < 5 * h + 1:
            continue
        for pv, cnt in counts[u].items():
            if cnt > 2 * h and sizes[pv] >= 5 * h + 1:
                pairs.add((min(pu, pv), max(pu, pv)))
    heavy = frozenset(i for pair in pairs for i in pair)
    return HeavyClassification(h, heavy, frozenset(pairs))


@dataclass(frozen=True)
class SparsifiedGraph:
    """Construction output: the marked graph plus build provenance."""

    graph: Graph
    apex: Mapping[int, int]  # heavy part index -> apex vertex id
    flipped_pairs: tuple[tuple[int, int], ...]
    original_n: int
    partition: PartPartition
    h: int


def build_sparsifier(g: Graph, k: int, h: int) -> SparsifiedGraph:
    """Flip mutually heavy NT_k-component pairs and attach marked apexes.

    Apex vertices take ids n, n+1, ... (one per heavy part, in part-index
    order) so original ids are stable and recovery is literal equality.
    The input must not already use the reserved predicates R and F.
    """
    if k < 0:
        raise ValueError("threshold must be nonnegative")
    if h < 1:
        raise ValueError("heaviness threshold must be >= 1")
    for reserved in ("R", "F"):
        if reserved in g.predicates:
            raise ValueError(f"input graph already uses reserved predicate {reserved!r}")
    partition = component_partition(g, k)
    hc = classify_heavy(g, partition, h)
    flips = tuple(sorted(hc.mutually_heavy))

    flipped = g
    for i, j in flips:
        flipped = flip(flipped, partition.parts[i], partition.parts[j])
    adj: list[set[int]] = [set(s) for s in flipped.adj]

    apex = {i: g.n + idx for idx, i in enumerate(sorted(hc.heavy))}
    adj.extend(set() for _ in apex)
    for i, a_vertex in apex.items():
        for u in partition.parts[i]:
            adj[u].add(a_vertex)
            adj[a_vertex].add(u)
    for i, j in flips:
        if i != j:
            adj[apex[i]].add(apex[j])
            adj[apex[j]].add(apex[i])

    preds = {
        **g.predicates,
        "R": frozenset(apex.values()),
        "F": frozenset(apex[i] for i, j in flips if i == j),
    }
    out = Graph(
        len(adj),
        tuple(frozenset(s) for s in adj),
        {name: vs for name, vs in preds.items() if vs},
    )
    return SparsifiedGraph(out, apex, flips, g.n, partition, h)


class RecoverError(ValueError):
    """The marked graph violates the invariants recovery relies on."""


def recover_graph(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Undo marked flips on any graph carrying R/F predicates.

    Keeps the non-R vertices (ids remapped densely), complements the
    adjacency of pairs sharing an R-and-F-marked neighbor or having
    distinct adjacent R-marked neighbors, drops the R/F marks, and
    restricts the remaining predicates.  Raises RecoverError if some kept
    vertex has several R-marked neighbors or F escapes R.

    Only the rows of marked vertices change: a vertex marked `a` toggles
    its adjacency to each part whose apex is adjacent to `a`, and to its
    own part when `a` is F-marked.  Cost: O(n + m_in + m_out).
    """
    r_set = g.predicates.get("R", frozenset())
    f_set = g.predicates.get("F", frozenset())
    if not f_set <= r_set:
        raise RecoverError("F marks escape the R marks")
    keep = [v for v in range(g.n) if v not in r_set]
    mark: dict[int, Optional[int]] = {}
    for v in keep:
        marked = g.adj[v] & r_set
        if len(marked) > 1:
            raise RecoverError(f"vertex {v} has {len(marked)} marked neighbors")
        mark[v] = next(iter(marked)) if marked else None
    remap = {v: i for i, v in enumerate(keep)}
    # With one mark per kept vertex, an apex's kept neighbors are the
    # vertices it marks, and these parts are disjoint.
    members = {a: g.adj[a] - r_set for a in r_set}
    toggle = {
        a: frozenset().union(
            members[a] if a in f_set else (), *(members[b] for b in g.adj[a] & r_set)
        )
        for a in r_set
    }
    edges = []
    for x in keep:
        mx = mark[x]
        # x may enter its own row through toggle; y > x drops it.
        row = g.adj[x] if mx is None else (g.adj[x] - r_set) ^ toggle[mx]
        rx = remap[x]
        edges.extend((rx, remap[y]) for y in row if y > x)
    preds = {
        name: [remap[v] for v in vs if v in remap]
        for name, vs in g.predicates.items()
        if name not in ("R", "F")
    }
    return make_graph(len(keep), edges, preds), remap


def recover(sg: SparsifiedGraph) -> Graph:
    """Exact inverse of build_sparsifier: recover(build_sparsifier(g)) == g."""
    out, remap = recover_graph(sg.graph)
    if sorted(remap) != list(range(sg.original_n)):
        raise RecoverError("marked vertices are not the appended apex block")
    return out


def colex_subsets(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """Subsets of range(n) with at most s elements, lazily, in ascending
    order of their bitmasks: each top element follows all smaller ones,
    and its subsets are those of range(top) with one element fewer."""
    yield ()
    if s > 0:
        for top in range(n):
            for rest in colex_subsets(top, s - 1):
                yield (*rest, top)


@dataclass(frozen=True)
class SflipResult:
    s: tuple[int, ...]
    flip_spec: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...]
    flipped_graph: Graph
    sparsified: SparsifiedGraph


def sflip_driver(
    g: Graph,
    s: int,
    k: int,
    h: int,
    verifier: ClassSpec,
    cap_candidates: int = 200_000,
) -> Optional[SflipResult]:
    """Search S-flips whose sparsification lands in the verifier's class.

    Enumerates subsets S of size at most s in colexicographic order
    (equivalently, ascending characteristic bitmasks) and, for each, all
    flip specs over the S-partition classes in binary-counter order over
    the canonical class-pair list.  Returns the first candidate whose
    sparsified graph passes the verifier and whose recovery round-trips,
    or None when the enumeration is exhausted.
    """
    if s < 0:
        raise ValueError("subset size bound must be nonnegative")
    tried = 0
    for subset in colex_subsets(g.n, s):
        classes = s_flip_classes(g, subset)
        pair_list = [
            (i, j) for i in range(len(classes)) for j in range(i, len(classes))
        ]
        for mask in range(1 << len(pair_list)):
            tried += 1
            if tried > cap_candidates:
                raise ScaleExceeded("sflip_driver", f"candidate cap {cap_candidates}")
            spec = tuple(p for bit, p in enumerate(pair_list) if mask >> bit & 1)
            flipped = s_flip(g, subset, spec)
            sg = build_sparsifier(flipped, k, h)
            if recover(sg) != flipped:
                continue
            if labd_check(sg.graph, verifier).ok:
                return SflipResult(subset, spec, tuple(classes), flipped, sg)
    return None
