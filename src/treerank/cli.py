"""Command-line entry point.

Every subcommand is a thin adapter over one library operation; verdicts
are reflected in the exit status and certificates are printed in a
machine-readable line format.

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
from .graph import (
    Graph,
    ParseError,
    gen_halfgraph,
    gen_random,
    gen_tree,
    parse_graph,
    subdivide,
    tree_order,
    write_graph,
)

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

    def add(name: str, func, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=func)
        return p

    p = add("gen", _cmd_gen, help="generate a graph")
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

    p = add("bounds", _cmd_bounds, help="bound arithmetic")
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

    p = add("corpus", _cmd_corpus, help="write a deterministic graph corpus")
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
        return args.func(args)
    except ScaleExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCALE
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _check_order(n: int, cap: int, pairs: int = 0) -> None:
    if n > cap:
        raise ScaleExceeded("gen", f"output would have more than {cap} vertices")
    if pairs > GRAPH_MAX_PAIRS:
        raise ScaleExceeded("gen", f"{pairs} vertex pairs to build or scan, over {GRAPH_MAX_PAIRS}")


def _cmd_gen(args) -> int:
    # The output's vertex count is checked before anything is built: a
    # tree grows by the branching per level, and subdividing each edge R
    # times adds R vertices per edge.  Half-graph edges and the pairs gen
    # random scans grow as the square of the order.
    cap = GRAPH_MAX_VERTICES if args.cap_nodes is None else args.cap_nodes
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
    _emit(args, write_graph(g))
    return EXIT_OK


def _cmd_rank(args) -> int:
    from . import ranking

    g = _read_graph(args)
    ra = ranking.compute_ranking(g, args.r, args.m)
    lines = [f"{v} {'inf' if x == ranking.INF else int(x)}" for v, x in enumerate(ra.ranks)]
    if args.witness:
        for v in range(g.n):
            if v in ra.witnesses:
                members = " ".join(str(u) for u in sorted(ra.witnesses[v]))
                lines.append(f"w {v} {members}".rstrip())
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _embedding_lines(emb) -> list[str]:
    lines = [f"principal {node} {gv}" for node, gv in sorted(emb.principal.items())]
    for (p, c), path in sorted(emb.paths.items()):
        lines.append(f"path {p}-{c} " + " ".join(str(v) for v in path))
    return lines


def _cmd_certify(args) -> int:
    from . import ranking, shallow

    g = _read_graph(args)
    if args.extract:
        if args.vertex is None:
            raise ValueError("--extract needs --vertex")
        if not 0 <= args.vertex < g.n:
            raise ValueError(f"--vertex {args.vertex} out of range 0..{g.n - 1}")
        mp = shallow.m_prime(args.d, args.r, args.m)
        ra = ranking.compute_ranking(g, args.r, mp)
        emb = shallow.extract_shallow_tree(g, ra, args.vertex, args.d, args.m, args.r)
        _emit(args, "\n".join(_embedding_lines(emb)) + "\n")
        return EXIT_OK
    emb = shallow.contains_shallow_tree(
        g, args.d, args.m, args.r, **_cap("cap_nodes", args.cap_nodes)
    )
    if emb is None:
        _emit(args, "absent\n")
        return EXIT_FALSE
    _emit(args, "\n".join(_embedding_lines(emb)) + "\n")
    return EXIT_OK


def _cmd_neartwin(args) -> int:
    from . import neartwin

    g = _read_graph(args)
    if args.k < 0:
        raise ValueError("threshold must be nonnegative")
    if args.components:
        lines = [
            f"component {i} " + " ".join(str(v) for v in comp)
            for i, comp in enumerate(neartwin.component_partition(g, args.k).parts)
        ]
    else:
        lines = [f"nt {u} {v}" for u, v in neartwin.neartwin_graph(g, args.k).edges()]
    _emit(args, "\n".join(lines) + "\n" if lines else "")
    return EXIT_OK


def _cmd_halfgraph(args) -> int:
    from . import neartwin

    g = _read_graph(args)
    wit = neartwin.find_halfgraph(g, args.t, **_cap("cap_nodes", args.cap_nodes))
    if wit is None:
        _emit(args, "absent\n")
        return EXIT_FALSE
    u_line = "u " + " ".join(str(v) for v in wit.u)
    w_line = "w " + " ".join(str(v) for v in wit.w)
    _emit(args, u_line + "\n" + w_line + "\n")
    return EXIT_OK


# bounds flag, its comma-separated form, and the module and name of the
# bound it evaluates (looked up only when the flag is given).
_BOUNDS = (
    ("g", "c,k,t", "neartwin", "g_bound"),
    ("h", "k,t", "neartwin", "h_bound"),
    ("no-ladder", "k2,m2", "labd", "no_ladder_bound"),
    ("m-prime", "d,r,m", "shallow", "m_prime"),
)


def _cmd_bounds(args) -> int:
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
    _emit(args, text)
    return EXIT_OK


def _class_spec(args) -> labd.ClassSpec:
    from . import labd

    return labd.ClassSpec(labd.parse_param_function(args.f), labd.parse_param_function(args.d))


def _cmd_labd(args) -> int:
    from . import labd

    g = _read_graph(args)
    res = labd.labd_check(g, _class_spec(args), r_max=args.r_max)
    if res.ok:
        _emit(args, "ok\n")
        return EXIT_OK
    r, v, offenders = res.certificate
    _emit(args, f"cert r {r} v {v} offending " + " ".join(map(str, offenders)) + "\n")
    return EXIT_FALSE


def _cmd_near_covered(args) -> int:
    from . import labd

    g = _read_graph(args)
    res = labd.near_covered_check(
        g, args.k, args.m, exact=args.exact, **_cap("cap_nodes", args.cap_nodes)
    )
    mode = "exact" if res.exact else "greedy"
    if res.ok:
        _emit(args, f"ok {mode}\n")
        return EXIT_OK
    _emit(args, f"cert {mode} " + " ".join(map(str, res.certificate)) + "\n")
    return EXIT_FALSE


def _provenance_lines(sg: sparsify.SparsifiedGraph) -> list[str]:
    lines = [f"apex {i} {v}" for i, v in sorted(sg.apex.items())]
    lines.extend(f"flip {i} {j}" for i, j in sg.flipped_pairs)
    return lines


def _cmd_sparsify(args) -> int:
    from . import sparsify

    g = _read_graph(args)
    sg = sparsify.build_sparsifier(g, args.k, args.h)
    text = write_graph(sg.graph)
    out = args.out or args.output
    if out:
        Path(out).write_text(text)
        prov = "\n".join(_provenance_lines(sg))
        Path(out + ".prov").write_text(prov + "\n" if prov else "")
    elif not args.quiet:
        sys.stdout.write(text)
        for line in _provenance_lines(sg):
            sys.stdout.write("# " + line + "\n")
    return EXIT_OK


def _cmd_recover(args) -> int:
    from . import sparsify

    g = _read_graph(args)
    try:
        out, _ = sparsify.recover_graph(g)
    except sparsify.RecoverError as e:
        print(f"recover aborted: {e}", file=sys.stderr)
        return EXIT_FALSE
    _emit(args, write_graph(out))
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    from . import sparsify

    g = _read_graph(args)
    sg = sparsify.build_sparsifier(g, args.k, args.h)
    back = sparsify.recover(sg)
    if back == g:
        _emit(args, "roundtrip ok\n")
        return EXIT_OK
    _emit(args, "roundtrip FAILED\n")
    return EXIT_FALSE


def _cmd_sflip(args) -> int:
    from . import sparsify

    g = _read_graph(args)
    res = sparsify.sflip_driver(
        g, args.s, args.k, args.h, _class_spec(args), **_cap("cap_candidates", args.cap_branch)
    )
    if res is None:
        _emit(args, "absent\n")
        return EXIT_FALSE
    lines = ["S " + " ".join(map(str, res.s))]
    lines.extend(f"flip {i} {j}" for i, j in res.flip_spec)
    lines.append(write_graph(res.sparsified.graph).rstrip("\n"))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    import json

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []

    def add(name: str, g: Graph, **params) -> None:
        fname = f"{name}.graph"
        (out_dir / fname).write_text(write_graph(g))
        entries.append({"file": fname, **params})

    fam = args.family
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
            n = 2 + (args.seed + i) % max(1, args.max_n - 1)
            p = 0.1 + 0.8 * ((i * 37 % 100) / 100.0)
            g = gen_random(n, p, args.seed + i)
            add(f"random-{i:03d}", g, family="random", n=n, p=round(p, 3),
                seed=args.seed + i)
    manifest = {"family": fam, "seed": args.seed, "count": len(entries),
                "entries": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if not args.quiet:
        print(f"wrote {len(entries)} graphs to {out_dir}")
    return EXIT_OK


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
