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

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from .errors import ScaleExceeded
from .graph import Graph, check_vertices, flip_parts, record, relabel
from .neartwin import PartPartition, component_partition

# Only sflip_driver verifies with labd; it imports it when called.
if TYPE_CHECKING:
    from .labd import ClassSpec


def classify_heavy(g: Graph, partition: PartPartition, h: int) -> frozenset[tuple[int, int]]:
    """The mutually heavy part pairs (i, j), i <= j, by direct counting;
    the heavy parts are those in some pair.

    The witness condition is symmetric over the unordered pair: either
    side may contain the vertex with more than 2h cross neighbors.
    """
    if h < 1:
        raise ValueError("heaviness threshold must be >= 1")
    part_of = partition.part_of()
    sizes = [len(p) for p in partition.parts]
    pairs: set[tuple[int, int]] = set()
    for u in range(g.n):
        pu = part_of[u]
        if sizes[pu] < 5 * h + 1:
            continue
        counts: dict[int, int] = {}
        for v in g.adj[u]:
            pv = part_of[v]
            counts[pv] = counts.get(pv, 0) + 1
        for pv, cnt in counts.items():
            if cnt > 2 * h and sizes[pv] >= 5 * h + 1:
                pairs.add((min(pu, pv), max(pu, pv)))
    return frozenset(pairs)


@record
class SparsifiedGraph:
    """Construction output: the marked graph plus build provenance."""

    graph: Graph
    apex: Mapping[int, int]  # heavy part index -> apex vertex id
    flipped_pairs: tuple[tuple[int, int], ...]
    original_n: int
    partition: PartPartition


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
    flips = tuple(sorted(classify_heavy(g, partition, h)))

    adj = flip_parts(g.adj, partition.parts, flips)
    heavy = sorted({i for pair in flips for i in pair})
    apex = {i: g.n + idx for idx, i in enumerate(heavy)}
    for i, a_vertex in apex.items():
        for u in partition.parts[i]:
            adj[u] = adj[u] | {a_vertex}
        adj.append(frozenset(partition.parts[i]))
    # The apexes of a flipped distinct pair are joined: a flip of singletons.
    singletons = {i: (a_vertex,) for i, a_vertex in apex.items()}
    adj = flip_parts(adj, singletons, [(i, j) for i, j in flips if i != j])

    preds = {
        **g.predicates,
        "R": frozenset(apex.values()),
        "F": frozenset(apex[i] for i, j in flips if i == j),
    }
    out = Graph(len(adj), tuple(adj), {name: vs for name, vs in preds.items() if vs})
    return SparsifiedGraph(out, apex, flips, g.n, partition)


class RecoverError(ValueError):
    """The marked graph violates the invariants recovery relies on."""


def recover_graph(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Undo marked flips on any graph carrying R/F predicates.

    Complements the adjacency of pairs sharing an R-and-F-marked
    neighbor or having distinct adjacent R-marked neighbors, then
    relabels onto the non-R vertices, which drops the R marks and, as F
    lies in R, the F marks.  Raises RecoverError if some kept vertex has
    several R-marked neighbors or F escapes R.

    Only the rows of marked vertices change: each drops its mark, and one
    flip_parts call over the apexes' parts flips each F-marked apex's
    part inside and the parts of each pair of adjacent apexes.  When the
    R vertices come last, as build_sparsifier's apexes do, relabel moves
    no id and unmarked rows are the input's own.  Cost: O(n + m_in + m_out).
    """
    r_set = g.predicates.get("R", frozenset())
    f_set = g.predicates.get("F", frozenset())
    if not f_set <= r_set:
        raise RecoverError("F marks escape the R marks")
    keep = [v for v in range(g.n) if v not in r_set]
    # A marked row loses its mark before the flip, so the flip touches
    # only kept ids.
    rows = list(g.adj)
    for v in keep:
        marked = g.adj[v] & r_set
        if marked:
            if len(marked) > 1:
                raise RecoverError(f"vertex {v} has {len(marked)} marked neighbors")
            rows[v] = rows[v] - marked
    # With one mark per kept vertex, an apex's kept neighbors are the
    # vertices it marks, and these parts are disjoint.
    members = {a: g.adj[a] - r_set for a in r_set}
    pairs = [(a, a) for a in f_set] + [(a, b) for a in r_set for b in g.adj[a] & r_set if a < b]
    return relabel(g, keep, flip_parts(rows, members, pairs))


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


def s_flip_classes(g: Graph, s: Iterable[int]) -> list[tuple[int, ...]]:
    """Canonical partition induced by S.

    Each vertex of S forms its own class; the remaining vertices are
    classed by their neighborhood inside S.  Classes are listed with all
    S-singletons first (in id order), then neighborhood classes ordered
    by their S-neighborhood signature.
    """
    fs = frozenset(s)
    check_vertices(g, fs)
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
    flips = list(flips)
    for i, j in flips:
        if not (0 <= i < len(classes) and 0 <= j < len(classes)):
            raise ValueError(f"flip names nonexistent class pair ({i},{j})")
    return Graph(g.n, tuple(flip_parts(g.adj, classes, flips)), dict(g.predicates))


@record
class SflipResult:
    s: tuple[int, ...]
    flip_spec: tuple[tuple[int, int], ...]
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
    sparsified graph passes the verifier, or None when the enumeration is
    exhausted; raises RuntimeError if that candidate's recovery is inexact.
    """
    from .labd import labd_check

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
            if labd_check(sg.graph, verifier) is None:
                if recover(sg) != flipped:
                    raise RuntimeError(f"recovery is not exact for S={subset}, flips {spec}")
                return SflipResult(subset, spec, flipped, sg)
    return None
