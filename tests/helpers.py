"""Shared corpus builders and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library
(subset enumeration, relational-algebra formula evaluation) so agreement
is meaningful.  The full-rescan ranking is the plain form of the rounds
that compute_ranking evaluates semi-naively, and the pairwise recovery
is the plain form of the per-row toggles recover_graph applies.  The
near-twin oracles test every vertex pair where the library tests only
candidates that share one of k+1 neighbors.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations, product

from treerank.errors import ScaleExceeded
from treerank.graph import Graph, gen_random, make_graph
from treerank.neartwin import PartPartition, symdiff
from treerank.ranking import RankAssignment, _strong_reach_count, separator_search
from treerank.sparsify import RecoverError

INF = math.inf


# ---------------------------------------------------------------------------
# Structured families.


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(*graphs: Graph) -> Graph:
    total = sum(g.n for g in graphs)
    edges = []
    preds: dict[str, set[int]] = {}
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        for name, vs in g.predicates.items():
            preds.setdefault(name, set()).update(v + offset for v in vs)
        offset += g.n
    return make_graph(total, edges, preds)


def permute_graph(g: Graph, perm: list[int]) -> Graph:
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    preds = {name: [perm[v] for v in vs] for name, vs in g.predicates.items()}
    return make_graph(g.n, edges, preds)


def seeded_random_graphs(count: int, max_n: int, seed: int, min_n: int = 1) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.random()
        out.append(gen_random(n, p, seed * 1000 + i))
    return out


def seeded_dense_graphs(count: int, max_n: int, seed: int) -> list[Graph]:
    """Graphs with edge probability at least 0.6 and n >= 8, so most
    degrees pass k+1 for small k; every third is a complement of a
    sparse graph, with near-twin blocks of high degree."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(8, max_n)
        if i % 3 == 2:
            sparse = gen_random(n, 2.0 / n, seed * 1000 + i)
            edges = [(u, v) for u, v in combinations(range(n), 2) if v not in sparse.adj[u]]
            out.append(make_graph(n, edges))
        else:
            out.append(gen_random(n, rng.uniform(0.6, 1.0), seed * 1000 + i))
    return out


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Distance from source to every vertex reachable from it."""
    dist = {source: 0}
    order = [source]
    for u in order:  # order grows while it is read: a FIFO queue
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                order.append(w)
    return dist


# ---------------------------------------------------------------------------
# Near-twin oracles: every vertex pair is tested.


def nt_edges_allpairs(g: Graph, k: int) -> list[frozenset[int]]:
    """NT_k adjacency rows by a symdiff test of every pair."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        if symdiff(g, u, v) <= k:
            adj[u].add(v)
            adj[v].add(u)
    return [frozenset(s) for s in adj]


def nt_components_allpairs(g: Graph, k: int) -> tuple[tuple[int, ...], ...]:
    """Components of the all-pairs NT_k graph by depth-first search,
    each sorted, in order of their smallest member."""
    adj = nt_edges_allpairs(g, k)
    seen: set[int] = set()
    comps = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def nt_path_scan(g: Graph, k: int, u: int, v: int):
    """Shortest NT_k path by BFS that scans all n vertices with a symdiff
    test at every visited vertex; parents are the first discoverers."""
    if u == v:
        return [u]
    parent = {u: -1}
    frontier = [u]
    while frontier:
        nxt = []
        for a in frontier:
            for b in range(g.n):
                if b in parent or b == a:
                    continue
                if symdiff(g, a, b) <= k:
                    parent[b] = a
                    if b == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(b)
        frontier = nxt
    return None


def near_covered_bruteforce(g: Graph, k: int, m: int, cap_n: int = 12) -> bool:
    """Near-coverage by full subset enumeration; desk scale only."""
    if g.n > cap_n:
        raise ScaleExceeded("near_covered_bruteforce", f"n={g.n}")
    nt_adj = nt_edges_allpairs(g, k)
    for size in range(m + 1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(v not in nt_adj[u] for u, v in combinations(combo, 2)):
                return False
    return True


def labd_certificate_by_table(g: Graph, spec, r_max=None):
    """labd_check's certificate (None when it passes) read off a table
    of all-pairs BFS distances, scanning radii then centers."""
    limit = g.n if r_max is None else min(r_max, g.n)
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for r in range(limit + 1):
        f_r, d_r = spec.f.eval(r, g.n), spec.d.eval(r, g.n)
        if f_r is None or d_r is None:
            continue
        for v in range(g.n):
            offenders = [u for u, du in dist[v].items() if du <= r and g.degree(u) > d_r]
            if len(offenders) > f_r:
                return (r, v, tuple(sorted(offenders)))
    return None


def light_parts(g: Graph, partition: PartPartition, h: int) -> frozenset[int]:
    """Parts containing a vertex of degree at most h (analysis aid)."""
    out = set()
    for i, part in enumerate(partition.parts):
        if any(g.degree(v) <= h for v in part):
            out.add(i)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Independent ranking oracle: the declarative fixed point, with the
# separator question answered by plain subset enumeration.


def _ball(g: Graph, v: int, r: int, removed: set[int]) -> set[int]:
    seen = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in seen and w not in removed:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def rank_oracle(g: Graph, r: int, m: int) -> tuple[float, ...]:
    ranks: dict[int, float] = {v: INF for v in range(g.n)}
    k = 0
    while any(x == INF for x in ranks.values()):
        k += 1
        newly = []
        for v in range(g.n):
            if ranks[v] != INF:
                continue
            others = [u for u in range(g.n) if u != v]
            if _separable(g, v, r, m, others, ranks, k):
                newly.append(v)
        if not newly:
            break
        for v in newly:
            ranks[v] = k
    return tuple(ranks[v] for v in range(g.n))


def _separable(g, v, r, m, others, ranks, k) -> bool:
    for size in range(m + 1):
        for s in combinations(others, size):
            ball = _ball(g, v, r, set(s))
            if all(ranks[u] < k for u in ball if u != v):
                return True
    return False


def ranking_full_rescan(g: Graph, r: int, m: int, stats=None) -> RankAssignment:
    """Reference ranking that re-checks every unranked vertex each round.

    Every check goes through the public separator_search with its own
    copy of the target set, so it shares neither the round's unranked
    set nor the semi-naive restriction with compute_ranking.
    """
    ranks: list[float] = [INF] * g.n
    witnesses: dict[int, frozenset[int]] = {}
    unranked = set(range(g.n))
    round_no = 0
    while unranked:
        round_no += 1
        assigned = []
        for v in sorted(unranked):
            s = separator_search(g, v, unranked - {v}, r, m, stats)
            if s is not None:
                assigned.append((v, s))
        if not assigned:
            break
        for v, s in assigned:
            ranks[v] = round_no
            witnesses[v] = s
            unranked.discard(v)
    return RankAssignment(r, m, tuple(ranks), witnesses)


def scol_by_permutations(g: Graph, r: int, cap_n: int = 6) -> int:
    """Reference strong r-coloring number by trying every vertex order.

    Exists to cross-check scol_bruteforce's subset DP on tiny graphs.
    """
    if g.n > cap_n:
        raise ScaleExceeded("scol_by_permutations", f"n={g.n}")
    if g.n == 0:
        return 0
    best = g.n
    for perm in permutations(range(g.n)):
        mask = 0
        worst = 0
        for v in perm:
            worst = max(worst, _strong_reach_count(g, v, mask, r))
            if worst >= best:
                break
            mask |= 1 << v
        best = min(best, worst)
    return best


# ---------------------------------------------------------------------------
# Reference recovery: decide every kept pair on its own.


def recover_graph_pairwise(g: Graph) -> tuple[Graph, dict[int, int]]:
    """recover_graph by one complement test per pair of kept vertices.

    Same validation order and messages as the library; O(n^2) pairs.
    """
    r_set = g.predicates.get("R", frozenset())
    f_set = g.predicates.get("F", frozenset())
    if not f_set <= r_set:
        raise RecoverError("F marks escape the R marks")
    keep = [v for v in range(g.n) if v not in r_set]
    mark = {}
    for v in keep:
        marked = g.adj[v] & r_set
        if len(marked) > 1:
            raise RecoverError(f"vertex {v} has {len(marked)} marked neighbors")
        mark[v] = next(iter(marked)) if marked else None
    remap = {v: i for i, v in enumerate(keep)}
    edges = []
    for idx, x in enumerate(keep):
        mx = mark[x]
        for y in keep[idx + 1 :]:
            my = mark[y]
            if mx is not None and my is not None:
                if mx == my:
                    complement = mx in f_set
                else:
                    complement = my in g.adj[mx]
            else:
                complement = False
            if (y in g.adj[x]) != complement:
                edges.append((remap[x], remap[y]))
    preds = {
        name: [remap[v] for v in vs if v in remap]
        for name, vs in g.predicates.items()
        if name not in ("R", "F")
    }
    return make_graph(len(keep), edges, preds), remap


# ---------------------------------------------------------------------------
# Independent formula evaluation by relational algebra over assignment
# tuples (satisfying-set semantics), for cross-checking the recursive
# evaluator on tiny graphs.

from treerank import fo  # noqa: E402


def eval_reference(g: Graph, f: fo.Formula, assignment: dict[str, int]) -> bool:
    rel, vs = satisfying_assignments(g, f)
    key = tuple(assignment[v] for v in vs)
    return key in rel


def satisfying_assignments(g: Graph, f: fo.Formula) -> tuple[set[tuple[int, ...]], tuple[str, ...]]:
    """The assignments of f's free variables (in the returned order)
    that satisfy f in g."""
    dom = range(g.n)
    if isinstance(f, fo.Edge):
        if f.x == f.y:
            return set(), (f.x,)
        vs = tuple(sorted((f.x, f.y)))
        rel = {
            ((a, b) if vs[0] == f.x else (b, a))
            for a in dom
            for b in g.adj[a]
        }
        return rel, vs
    if isinstance(f, fo.Eq):
        if f.x == f.y:
            return {(a,) for a in dom}, (f.x,)
        vs = tuple(sorted((f.x, f.y)))
        return {(a, a) for a in dom}, vs
    if isinstance(f, fo.Pred):
        marked = g.predicates.get(f.name, frozenset())
        return {(a,) for a in marked}, (f.x,)
    if isinstance(f, fo.Const):
        return ({()} if f.value else set()), ()
    if isinstance(f, fo.Not):
        rel, vs = satisfying_assignments(g, f.f)
        full = set(product(dom, repeat=len(vs)))
        return full - rel, vs
    if isinstance(f, (fo.And, fo.Or)):
        rels = [satisfying_assignments(g, p) for p in f.parts]
        all_vs = tuple(sorted(set(v for _, vs in rels for v in vs)))
        expanded = [_expand(g, rel, vs, all_vs) for rel, vs in rels]
        out = expanded[0]
        for e in expanded[1:]:
            out = out & e if isinstance(f, fo.And) else out | e
        return out, all_vs
    if isinstance(f, (fo.Exists, fo.Forall)):
        rel, vs = satisfying_assignments(g, f.f)
        if f.var not in vs:
            if isinstance(f, fo.Exists):
                return (rel if g.n > 0 else set()), vs
            if g.n == 0:
                return set(product(dom, repeat=len(vs))), vs
            return rel, vs
        i = vs.index(f.var)
        rest = vs[:i] + vs[i + 1 :]
        groups: dict[tuple[int, ...], set[int]] = {}
        for t in rel:
            groups.setdefault(t[:i] + t[i + 1 :], set()).add(t[i])
        if isinstance(f, fo.Exists):
            return set(groups), rest
        full_dom = set(dom)
        return {t for t, vals in groups.items() if vals == full_dom}, rest
    raise TypeError(f)


def _expand(g, rel, vs, target_vs):
    extra = [v for v in target_vs if v not in vs]
    idx = {v: i for i, v in enumerate(vs)}
    out = set()
    for t in rel:
        for ext in product(range(g.n), repeat=len(extra)):
            env = dict(zip(extra, ext))
            env.update({v: t[idx[v]] for v in vs})
            out.add(tuple(env[v] for v in target_vs))
    return out


def check_range_by_table(g: Graph, psi: fo.Formula, b: int) -> bool:
    """check_range read off a table of all-pairs BFS distances, with psi
    evaluated on each far pair in both orders through fo.evaluate."""
    if b < 0:
        raise ValueError("range bound must be nonnegative")
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dist[u].get(v, b + 1) <= b:
                continue
            if fo.evaluate(g, psi, {"x": u, "y": v}) or fo.evaluate(g, psi, {"x": v, "y": u}):
                return False
    return True


def random_formula(rng: random.Random, depth: int, variables=("x", "y", "z")) -> fo.Formula:
    atoms = [
        lambda: fo.Edge(rng.choice(variables), rng.choice(variables)),
        lambda: fo.Eq(rng.choice(variables), rng.choice(variables)),
        lambda: fo.Pred(rng.choice(("R", "B")), rng.choice(variables)),
        lambda: fo.TRUE,
        lambda: fo.FALSE,
    ]
    if depth == 0:
        return rng.choice(atoms)()
    kind = rng.randrange(5)
    if kind == 0:
        return fo.Not(random_formula(rng, depth - 1, variables))
    if kind == 1:
        return fo.And(
            tuple(random_formula(rng, depth - 1, variables) for _ in range(rng.randint(2, 3)))
        )
    if kind == 2:
        return fo.Or(
            tuple(random_formula(rng, depth - 1, variables) for _ in range(rng.randint(2, 3)))
        )
    if kind == 3:
        return fo.Exists(rng.choice(variables), random_formula(rng, depth - 1, variables))
    return fo.Forall(rng.choice(variables), random_formula(rng, depth - 1, variables))


def guarded_formula(rng: random.Random, depth: int, variables=("x", "y", "z")) -> fo.Formula:
    """An existential over a conjunction that leads with guard-shaped atoms.

    Usable guards are a predicate on the quantified variable (including
    "M", which no graph has) and an edge to another variable.  The
    atoms that are not guards sit before them: a predicate or an edge on
    other variables, an edge from the variable to itself, an equality.
    The last conjunct is a nested formula, which may quantify again a
    variable an outer quantifier binds.
    """
    var = rng.choice(variables)
    other, third = rng.sample([v for v in variables if v != var], 2)
    guards = [
        lambda: fo.Pred(rng.choice(("R", "B", "M")), var),
        lambda: fo.Edge(var, other),
        lambda: fo.Edge(other, var),
    ]
    others = [
        lambda: fo.Pred(rng.choice(("R", "B")), other),
        lambda: fo.Edge(other, third),
        lambda: fo.Edge(var, var),
        lambda: fo.Eq(var, other),
    ]
    parts = [rng.choice(others)() for _ in range(rng.randint(0, 1))]
    parts.append(rng.choice(guards if rng.random() < 0.8 else others)())
    if depth > 0 and rng.random() < 0.6:
        parts.append(guarded_formula(rng, depth - 1, variables))
    else:
        parts.append(random_formula(rng, max(depth - 1, 0), variables))
    f = fo.Exists(var, fo.And(tuple(parts)))
    return fo.Not(f) if rng.random() < 0.3 else f
