"""Seeded workload inputs and the fixed batch of operations each workload runs.

Inputs are generated here with the benchmark's own code (no treerank
calls), so `treerank` only ever receives the generated files.  The same
seed always gives the same files.  Sizes keep a batch near one second, so
a run times many batches, and keep the work of an input nearly the same
from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Operations run by the treerank CLI; the others ("interpret",
# "range-check") run in perfbench/child.py, because the FO layer has no
# CLI subcommand.
CLI_KINDS = ("rank", "sparsify", "recover", "neartwin")

# Rank parameters of rank-sparse.
RANK_R, RANK_M = 2, 3

# Sizes per workload.  "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own smoke test fast.
SIZES = {
    "full": {
        "rank-sparse": dict(inputs=1, n=4000),
        "roundtrip-sparse": dict(inputs=1, n=3000, block=40),
        "flipped-dense": dict(inputs=1, n=208),
        "fo-recover": dict(inputs=1, n=48),
    },
    "tiny": {
        "rank-sparse": dict(inputs=2, n=60),
        "roundtrip-sparse": dict(inputs=2, n=120, block=26),
        "flipped-dense": dict(inputs=2, n=48),
        "fo-recover": dict(inputs=2, n=16),
    },
}

# Block flip pattern of flipped-dense and fo-recover: a symmetric 0/1
# matrix over four blocks with pairwise distinct rows, so each block is its
# own near-twin component.  (i, i) complements inside block i, (i, j) the
# pairs between blocks i and j.  It covers about 70% of the vertex pairs of
# flipped-dense and has both self flips and cross flips.
FLIP_PATTERN = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 3), (2, 3), (3, 3))


@dataclass
class SimpleGraph:
    """The benchmark's own graph value: n and a set of (u, v) pairs, u < v."""

    n: int
    edges: set[tuple[int, int]]
    predicates: dict[str, frozenset[int]] = field(default_factory=dict)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def text(self) -> str:
        lines = [f"p {self.n} {len(self.edges)}"]
        lines.extend(f"e {u} {v}" for u, v in sorted(self.edges))
        for name in sorted(self.predicates):
            lines.append(f"l {name} " + " ".join(map(str, sorted(self.predicates[name]))))
        return "\n".join(lines) + "\n"


@dataclass
class Input:
    """One generated input file and what the checks need to know about it."""

    path: Path
    graph: SimpleGraph
    k: int | None = None
    h: int | None = None
    # The graph a recovery of this input must give back, when it differs
    # from `graph` (fo-recover inputs are already sparsified).
    expected: SimpleGraph | None = None

    def descriptor(self) -> dict:
        deg = self.graph.degrees()
        return {
            "file": self.path.name,
            "n": self.graph.n,
            "edges": len(self.graph.edges),
            "max_degree": max(deg, default=0),
            "k": self.k,
            "h": self.h,
            "input_bytes": self.path.stat().st_size,
        }


@dataclass
class Op:
    """One operation: a treerank CLI call or a perfbench/child.py call."""

    kind: str
    args: list[str]
    output: Path
    source: int  # index of the generated input the operation derives from
    reads: Path  # the file the operation parses


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    batch: list[Op]


def gnm(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    """m distinct uniform random edges on n vertices (the G(n, M) model)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return edges


def toggle_blocks(edges, blocks, pattern) -> set[tuple[int, int]]:
    """Complement the vertex pairs named by `pattern` over `blocks`."""
    out = set(edges)
    for i, j in pattern:
        a, b = blocks[i], blocks[j]
        if i == j:
            pairs = [(x, y) for idx, x in enumerate(a) for y in a[idx + 1 :]]
        else:
            pairs = [(x, y) for x in a for y in b]
        out.symmetric_difference_update((min(x, y), max(x, y)) for x, y in pairs)
    return out


def _blocks(rng: random.Random, n: int, count: int, size: int) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [sorted(perm[i * size : (i + 1) * size]) for i in range(count)]


def _k_h(base_edges, n) -> tuple[int, int]:
    # k = 2*maxdeg(base)+2 keeps every planted block one near-twin
    # component; h = ceil(maxdeg/2) keeps unflipped pairs and the sparse
    # background from ever being heavy.
    maxdeg = max(SimpleGraph(n, base_edges).degrees(), default=0)
    return 2 * maxdeg + 2, max(1, (maxdeg + 1) // 2)


def sparsified(base: SimpleGraph, blocks, pattern) -> tuple[SimpleGraph, SimpleGraph]:
    """A marked sparse graph built by hand, and the graph it encodes.

    Every block named by `pattern` gets an R-marked apex joined to its
    vertices; apexes of a flipped distinct pair are joined and a
    self-flipped block's apex is also F-marked.  Recovery of the marked
    graph is `base` with the pattern's flips applied.
    """
    heavy = sorted({i for pair in pattern for i in pair})
    apex = {i: base.n + idx for idx, i in enumerate(heavy)}
    edges = set(base.edges)
    for i, a in apex.items():
        edges.update((v, a) for v in blocks[i])
    for i, j in pattern:
        if i != j:
            edges.add((min(apex[i], apex[j]), max(apex[i], apex[j])))
    marks = {"R": frozenset(apex.values())}
    f_marks = frozenset(apex[i] for i, j in pattern if i == j)
    if f_marks:
        marks["F"] = f_marks
    marked = SimpleGraph(base.n + len(apex), edges, marks)
    encoded = SimpleGraph(base.n, toggle_blocks(base.edges, blocks, pattern))
    return marked, encoded


def _write(work: Path, name: str, g: SimpleGraph) -> Path:
    path = work / name
    path.write_text(g.text())
    return path


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Generate the inputs of workload `name` under `work` and its batch."""
    params = SIZES[size][name]
    rng = random.Random(f"{name}:{seed}")
    inputs: list[Input] = []
    batch: list[Op] = []
    for i in range(params["inputs"]):
        n = params["n"]
        if name == "rank-sparse":
            # Sparse G(n, 2.75/n): eight to ten ranking rounds, no sparsify or
            # FO code.  At 3/n the number of rounds, and with it the work,
            # varies by about 15% from seed to seed.
            g = SimpleGraph(n, gnm(rng, n, 11 * n // 8))
            inp = Input(_write(work, f"rank{i}.graph", g), g)
            out = work / f"rank{i}.out"
            batch.append(Op("rank", ["rank", "--r", str(RANK_R), "--m", str(RANK_M),
                                     "--witness", "--input", str(inp.path),
                                     "--output", str(out)], out, i, inp.path))
        elif name == "roundtrip-sparse":
            # Sparse G(n, 2/n) with one planted complemented cross pair and
            # one complemented self block.
            base = gnm(rng, n, n)
            blocks = _blocks(rng, n, 3, params["block"])
            k, h = _k_h(base, n)
            g = SimpleGraph(n, toggle_blocks(base, blocks, ((0, 1), (2, 2))))
            inp = Input(_write(work, f"rt{i}.graph", g), g, k, h)
            batch.extend(_sparsify_recover(work, f"rt{i}", inp, i))
        elif name == "flipped-dense":
            # Sparse G(n, 3/n) base under four complemented blocks, so most
            # vertex pairs are flipped.
            base = gnm(rng, n, 3 * n // 2)
            blocks = _blocks(rng, n, 4, n // 4)
            k, h = _k_h(base, n)
            g = SimpleGraph(n, toggle_blocks(base, blocks, FLIP_PATTERN))
            inp = Input(_write(work, f"fd{i}.graph", g), g, k, h)
            batch.extend(_sparsify_recover(work, f"fd{i}", inp, i))
            out = work / f"fd{i}.nt"
            batch.append(Op("neartwin", ["neartwin", "--k", str(k), "--components",
                                         "--input", str(inp.path), "--output", str(out)],
                            out, i, inp.path))
        elif name == "fo-recover":
            # A marked graph with four planted blocks covering 60% of the
            # vertices; the rest stay far apart, so check_range has pairs
            # at distance > 3 to evaluate.
            base = SimpleGraph(n, gnm(rng, n, n))
            blocks = _blocks(rng, n, 4, (3 * n) // 20)
            marked, encoded = sparsified(base, blocks, FLIP_PATTERN)
            inp = Input(_write(work, f"fo{i}.graph", marked), marked, expected=encoded)
            for kind, suffix in (("interpret", "fo"), ("range-check", "range")):
                out = work / f"fo{i}.{suffix}"
                batch.append(Op(kind, [kind, "--input", str(inp.path), "--output", str(out)],
                                out, i, inp.path))
        else:
            raise ValueError(f"unknown workload {name!r}")
        inputs.append(inp)
    return Workload(name, inputs, batch)


def _sparsify_recover(work: Path, stem: str, inp: Input, source: int) -> list[Op]:
    marked = work / f"{stem}.sparse"
    recovered = work / f"{stem}.recovered"
    return [
        Op("sparsify", ["sparsify", "--k", str(inp.k), "--h", str(inp.h),
                        "--input", str(inp.path), "--out", str(marked)],
           marked, source, inp.path),
        Op("recover", ["recover", "--input", str(marked), "--output", str(recovered)],
           recovered, source, marked),
    ]


WORKLOADS = tuple(SIZES["full"])
