"""Command-line entry point.

Every subcommand is a thin adapter over one library operation; verdicts
are reflected in the exit status and certificates are printed in a
machine-readable line format.  A command takes the parsed arguments and
the input graph (None for `gen`, `bounds` and `corpus`, which read
none) and returns (text, exit status); `main` alone reads the input
and writes the text, and None text writes nothing.

Exit statuses: 0 success / true verdict, 1 false verdict (certificate
emitted), 2 usage or input error, 3 scale-cap abort.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GRAPH_MAX_PAIRS, GRAPH_MAX_VERTICES, ScaleExceeded
from .graph import Graph, ParseError, parse_graph, write_graph

# Each command imports the library modules it calls, so a process loads
# only what its command reaches.
if TYPE_CHECKING:
    from . import labd, sparsify

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # per-subcommand copies suppress their defaults so they never clobber
    # values parsed at the top level.
    def d(value):
        return argparse.SUPPRESS if suppress else value

    p.add_argument("--input", default=d(None), help="graph file (default: stdin)")
    p.add_argument("--output", default=d(None), help="output file (default: stdout)")
    p.add_argument("--seed", type=int, default=d(0))
    p.add_argument("--cap-nodes", type=int, default=d(None), help="search node cap; gen: vertex cap")
    p.add_argument("--cap-branch", type=int, default=d(None), help="candidate cap")
    p.add_argument("--quiet", action="store_true", default=d(False))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="treerank")
    _add_global_flags(top, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    def add(name: str, func, reads_graph: bool = True, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=func, reads_graph=reads_graph)
        return p

    p = add("gen", _cmd_gen, reads_graph=False, help="generate a graph")
    p.add_argument("family", choices=["tree", "halfgraph", "random"])
    p.add_argument("--depth", type=int)
    p.add_argument("--branch", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--subdivide", type=int, default=None, metavar="R",
                   help="subdivide every edge exactly R times")

    p = add("rank", _cmd_rank, help="vertex ranking")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--witness", action="store_true")

    p = add("certify", _cmd_certify, help="tree pattern as a shallow topological minor")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--extract", action="store_true")
    p.add_argument("--vertex", type=int, default=None)

    p = add("neartwin", _cmd_neartwin, help="near-twin graph / components")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--components", action="store_true")

    p = add("halfgraph", _cmd_halfgraph, help="semi-induced half-graph search")
    p.add_argument("--t", type=int, required=True)

    p = add("bounds", _cmd_bounds, reads_graph=False, help="bound arithmetic")
    for flag, form, *_ in _BOUNDS:
        p.add_argument(f"--{flag}", metavar=form)

    p = add("labd-check", _cmd_labd, help="bounded-exception degree membership")
    p.add_argument("--f", required=True, help="parameter function spec")
    p.add_argument("--d", required=True, help="parameter function spec")
    p.add_argument("--r-max", type=int, default=None)

    p = add("near-covered", _cmd_near_covered, help="near-coverage check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--exact", action="store_true")

    p = add("sparsify", _cmd_sparsify, help="build the marked sparse graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", help="graph output file (sidecar: <out>.prov)")

    add("recover", _cmd_recover, help="undo marked flips")

    p = add("verify-roundtrip", _cmd_roundtrip, help="build + recover + compare")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)

    p = add("sflip-search", _cmd_sflip, help="search S-flips that sparsify into a class")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--f", required=True, help="verifier parameter function spec")
    p.add_argument("--d", required=True, help="verifier parameter function spec")

    p = add("corpus", _cmd_corpus, reads_graph=False, help="write a deterministic graph corpus")
    p.add_argument("--family", required=True,
                   choices=["trees", "random", "halfgraph", "mixed"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--max-t", type=int, default=6)
    return top


def _read_graph(args) -> Graph:
    text = Path(args.input).read_text() if args.input else sys.stdin.read()
    return parse_graph(text)


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    elif not args.quiet:
        sys.stdout.write(text)


def _cap(name: str, value: int | None) -> dict[str, int]:
    # A cap flag that was not given leaves the library default in force.
    return {} if value is None else {name: value}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        text, status = args.func(args, _read_graph(args) if args.reads_graph else None)
        if text is not None:
            _emit(args, text)
        return status
    except ScaleExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCALE
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _check_order(n: int, cap: int, pairs: int = 0, op: str = "gen") -> None:
    if n > cap:
        raise ScaleExceeded(op, f"output would have more than {cap} vertices")
    if pairs > GRAPH_MAX_PAIRS:
        raise ScaleExceeded(op, f"{pairs} vertex pairs to build or scan, over {GRAPH_MAX_PAIRS}")


def _cmd_gen(args, _: None) -> tuple[str, int]:
    from .generators import gen_halfgraph, gen_random, gen_tree, subdivide, tree_order

    # The output's vertex count is checked before anything is built: a
    # tree grows by the branching per level, and subdividing each edge R
    # times adds R vertices per edge.  Half-graph edges and the pairs gen
    # random scans grow as the square of the order.  A cap above
    # GRAPH_MAX_VERTICES is refused, since parse_graph could not read the
    # output back.
    cap = GRAPH_MAX_VERTICES if args.cap_nodes is None else args.cap_nodes
    if cap > GRAPH_MAX_VERTICES:
        raise ScaleExceeded("gen", f"--cap-nodes {cap} is over {GRAPH_MAX_VERTICES}, the most parse_graph reads")
    if args.family == "tree":
        if args.depth is None or args.branch is None:
            raise ValueError("gen tree needs --depth and --branch")
        n = tree_order(args.depth, args.branch, cap)
        _check_order(n + (args.subdivide or 0) * (n - 1), cap)
        g = gen_tree(args.depth, args.branch)
    elif args.family == "halfgraph":
        if args.order is None:
            raise ValueError("gen halfgraph needs --order")
        t = args.order
        _check_order(2 * t, cap, max(t, 0) * (t + 1) // 2)
        g = gen_halfgraph(t)
    else:
        if args.n is None or args.p is None:
            raise ValueError("gen random needs --n and --p")
        _check_order(args.n, cap, max(args.n, 0) * (args.n - 1) // 2)
        g = gen_random(args.n, args.p, args.seed)
    if args.subdivide is not None:
        _check_order(g.n + args.subdivide * g.edge_count(), cap)
        g = subdivide(g, args.subdivide)
    return write_graph(g), EXIT_OK


def _cmd_rank(args, g: Graph) -> tuple[str, int]:
    from . import ranking

    ra = ranking.compute_ranking(g, args.r, args.m)
    ids = list(map(str, range(g.n)))  # each vertex id formatted once
    # Finite ranks are ints, and INF formats as "inf".
    lines = [f"{i} {x}" for i, x in zip(ids, ra.ranks)]
    if args.witness:
        w = ra.witnesses
        lines += [" ".join(["w", ids[v], *map(ids.__getitem__, sorted(w[v]))]) for v in sorted(w)]
    return ("\n".join(lines) + "\n" if lines else ""), EXIT_OK


def _cmd_certify(args, g: Graph) -> tuple[str, int]:
    from . import shallow

    if args.extract:
        from . import ranking

        if args.vertex is None:
            raise ValueError("--extract needs --vertex")
        if not 0 <= args.vertex < g.n:
            raise ValueError(f"--vertex {args.vertex} out of range 0..{g.n - 1}")
        mp = shallow.m_prime(args.d, args.r, args.m)
        ra = ranking.compute_ranking(g, args.r, mp)
        emb = shallow.extract_shallow_tree(g, ra, args.vertex, args.d, args.m, args.r)
    else:
        emb = shallow.contains_shallow_tree(
            g, args.d, args.m, args.r, **_cap("cap_nodes", args.cap_nodes)
        )
        if emb is None:
            return "absent\n", EXIT_FALSE
    lines = [f"principal {node} {gv}" for node, gv in sorted(emb.principal.items())]
    for (p, c), path in sorted(emb.paths.items()):
        lines.append(f"path {p}-{c} " + " ".join(str(v) for v in path))
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_neartwin(args, g: Graph) -> tuple[str, int]:
    from . import neartwin

    if args.k < 0:
        raise ValueError("threshold must be nonnegative")
    if args.components:
        lines = [
            f"component {i} " + " ".join(str(v) for v in comp)
            for i, comp in enumerate(neartwin.component_partition(g, args.k).parts)
        ]
    else:
        lines = [f"nt {u} {v}" for u, v in neartwin.neartwin_graph(g, args.k).edges()]
    return ("\n".join(lines) + "\n" if lines else ""), EXIT_OK


def _cmd_halfgraph(args, g: Graph) -> tuple[str, int]:
    from . import halfgraph

    wit = halfgraph.find_halfgraph(g, args.t, **_cap("cap_nodes", args.cap_nodes))
    if wit is None:
        return "absent\n", EXIT_FALSE
    return f"u {' '.join(map(str, wit.u))}\nw {' '.join(map(str, wit.w))}\n", EXIT_OK


# bounds flag, its comma-separated form, and the module and name of the
# bound it evaluates (looked up only when the flag is given).
_BOUNDS = (
    ("g", "c,k,t", "halfgraph", "g_bound"),
    ("h", "k,t", "halfgraph", "h_bound"),
    ("no-ladder", "k2,m2", "labd", "no_ladder_bound"),
    ("m-prime", "d,r,m", "shallow", "m_prime"),
)


def _cmd_bounds(args, _: None) -> tuple[str, int]:
    values = []
    for flag, form, module, name in _BOUNDS:
        spec = getattr(args, flag.replace("-", "_"))
        if spec:
            fields = spec.split(",")
            if len(fields) != len(form.split(",")):
                raise ValueError(f"--{flag} expects {form}")
            bound = getattr(importlib.import_module(f".{module}", __package__), name)
            values.append((flag, bound(*(int(x) for x in fields))))
    if not values:
        raise ValueError("bounds needs one of --g, --h, --no-ladder, --m-prime")
    # The bounds are exact and may pass Python's int-to-str digit limit
    # (3.11 and later 3.10 releases), so lift it for this conversion.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = "".join(f"{name} {value}\n" for name, value in values)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return text, EXIT_OK


def _class_spec(args) -> labd.ClassSpec:
    from . import labd

    return labd.ClassSpec(labd.parse_param_function(args.f), labd.parse_param_function(args.d))


def _cmd_labd(args, g: Graph) -> tuple[str, int]:
    from . import labd

    cert = labd.labd_check(g, _class_spec(args), r_max=args.r_max)
    if cert is None:
        return "ok\n", EXIT_OK
    r, v, offenders = cert
    return f"cert r {r} v {v} offending " + " ".join(map(str, offenders)) + "\n", EXIT_FALSE


def _cmd_near_covered(args, g: Graph) -> tuple[str, int]:
    from . import labd

    cert = labd.near_covered_check(
        g, args.k, args.m, exact=args.exact, **_cap("cap_nodes", args.cap_nodes)
    )
    mode = "exact" if args.exact else "greedy"
    if cert is None:
        return f"ok {mode}\n", EXIT_OK
    return f"cert {mode} " + " ".join(map(str, cert)) + "\n", EXIT_FALSE


def _provenance_lines(sg: sparsify.SparsifiedGraph) -> list[str]:
    lines = [f"apex {i} {v}" for i, v in sorted(sg.apex.items())]
    lines.extend(f"flip {i} {j}" for i, j in sg.flipped_pairs)
    return lines


def _cmd_sparsify(args, g: Graph) -> tuple[str | None, int]:
    from . import sparsify

    sg = sparsify.build_sparsifier(g, args.k, args.h)
    text = write_graph(sg.graph)
    out = args.out or args.output
    if not out:
        return text + "".join(f"# {line}\n" for line in _provenance_lines(sg)), EXIT_OK
    Path(out).write_text(text)
    prov = "\n".join(_provenance_lines(sg))
    Path(out + ".prov").write_text(prov + "\n" if prov else "")
    return None, EXIT_OK


def _cmd_recover(args, g: Graph) -> tuple[str | None, int]:
    from . import sparsify

    try:
        out, _ = sparsify.recover_graph(g)
    except sparsify.RecoverError as e:
        print(f"recover aborted: {e}", file=sys.stderr)
        return None, EXIT_FALSE
    return write_graph(out), EXIT_OK


def _cmd_roundtrip(args, g: Graph) -> tuple[str, int]:
    from . import sparsify

    if sparsify.recover(sparsify.build_sparsifier(g, args.k, args.h)) == g:
        return "roundtrip ok\n", EXIT_OK
    return "roundtrip FAILED\n", EXIT_FALSE


def _cmd_sflip(args, g: Graph) -> tuple[str, int]:
    from . import sparsify

    res = sparsify.sflip_driver(
        g, args.s, args.k, args.h, _class_spec(args), **_cap("cap_candidates", args.cap_branch)
    )
    if res is None:
        return "absent\n", EXIT_FALSE
    lines = ["S " + " ".join(map(str, res.s))]
    lines.extend(f"flip {i} {j}" for i, j in res.flip_spec)
    lines.append(write_graph(res.sparsified.graph).rstrip("\n"))
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_corpus(args, _: None) -> tuple[None, int]:
    import json
    import math

    from .generators import gen_halfgraph, gen_random, gen_tree, subdivide

    period = max(1, args.max_n - 1)

    def order(i: int) -> int:
        return 2 + (args.seed + i) % period

    # Before anything is written, the half-graph edges and random-graph
    # pairs of the whole corpus together pass gen's pair cap, which keeps
    # each graph under its vertex cap too; the trees are fixed and small.
    # The orders cycle through 2..period+1, whose pairs sum to
    # comb(period + 2, 3), and the sum of a partial cycle stops at the cap.
    fam = args.family
    t = max(args.max_t, 0) if fam in ("halfgraph", "mixed") else 0
    count = max(args.count, 0) if fam in ("random", "mixed") else 0
    pairs = t * (t + 1) * (t + 2) // 6 + count // period * math.comb(period + 2, 3)
    for i in range(count % period):
        if pairs > GRAPH_MAX_PAIRS:
            break
        pairs += order(i) * (order(i) - 1) // 2
    _check_order(2 * t, GRAPH_MAX_VERTICES, pairs, "corpus")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []

    def add(name: str, g: Graph, **params) -> None:
        fname = f"{name}.graph"
        (out_dir / fname).write_text(write_graph(g))
        entries.append({"file": fname, **params})

    if fam in ("trees", "mixed"):
        for d in range(1, 4):
            for m in range(1, 4):
                for r in range(0, 3):
                    g = subdivide(gen_tree(d, m), r)
                    add(f"tree-d{d}-m{m}-s{r}", g, family="tree", d=d, m=m, subdiv=r)
    if fam in ("halfgraph", "mixed"):
        for t in range(1, args.max_t + 1):
            add(f"halfgraph-t{t}", gen_halfgraph(t), family="halfgraph", t=t)
    if fam in ("random", "mixed"):
        for i in range(args.count):
            n = order(i)
            p = 0.1 + 0.8 * ((i * 37 % 100) / 100.0)
            g = gen_random(n, p, args.seed + i)
            add(f"random-{i:03d}", g, family="random", n=n, p=round(p, 3),
                seed=args.seed + i)
    manifest = {"family": fam, "seed": args.seed, "count": len(entries),
                "entries": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if not args.quiet:
        print(f"wrote {len(entries)} graphs to {out_dir}")
    return None, EXIT_OK


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
