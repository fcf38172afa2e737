"""Digest of the treerank CLI's output over a fixed seeded corpus.

Runs `treerank.cli.main` in process on every subcommand over seeded
graphs and records, per case, the exit status, stdout, stderr and every
file the command wrote.  Prints one sha256 per kind of case (its
subcommand, or `usage`, `certify-oversize` or `bounds-cap`) and one
over all cases.  Two checkouts that print the same digests give byte-identical
CLI output on the corpus.  Everything is written to a temporary
directory, whose path is replaced by `<tmp>` before hashing.

    PYTHONPATH=src python3 tests/cli_corpus.py [--cases] [--exclude NAME ...] [--expect HEX]

`--expect` exits 1 when the total does not start with HEX, a prefix of
at least 8 hex digits (a shorter or non-hex value exits 2).  `--cases` also
prints each case's name, exit status and digest prefix, so two runs
can be diffed case by case.  `--exclude` skips the cases,
or the kinds of cases, it names (they are not run), for comparing
checkouts whose behaviour differs on purpose there.  The kinds
`certify-oversize` (a tree pattern with more nodes than the graph has
vertices) and `bounds-cap` (a bound past the bit cap) hold the cases a
checkout without those inputs' early answers treats differently: it
may abort the first at the node cap with exit 3, and computes the
second for minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from treerank import build_sparsifier, cli, gen_halfgraph, gen_random, gen_tree, make_graph, subdivide
from treerank.graph import Graph, write_graph

SEED = 20261018


def complement(g: Graph) -> Graph:
    return make_graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.adj[u]])


def graphs() -> dict[str, str]:
    """Graph file texts by name, the same at every run."""
    rng = random.Random(SEED)
    out: dict[str, Graph] = {}
    for i in range(24):
        out[f"rand{i:02d}"] = gen_random(rng.randint(3, 13), rng.choice([0.15, 0.3, 0.5, 0.7, 0.9]), i)
    for n in (30, 60):
        out[f"cosparse{n}"] = complement(gen_random(n, 3 / n, n))
    out["half3"] = gen_halfgraph(3)
    out["half6"] = gen_halfgraph(6)
    out["tree22"] = gen_tree(2, 2)
    out["tree33s1"] = subdivide(gen_tree(3, 3), 1)
    for name in ("cosparse30", "cosparse60", "rand05", "rand11", "rand17", "half6"):
        base = out[name]
        d = max(base.degree(v) for v in range(base.n)) if base.n else 0
        out[f"sp-{name}"] = build_sparsifier(base, 1, 1).graph
        out[f"sp2-{name}"] = build_sparsifier(base, min(2, d), 2).graph
    for i in range(6):
        base = gen_random(rng.randint(6, 12), 0.4, 100 + i)
        r = rng.sample(range(base.n), 2)
        f = r[:1] if i % 2 else list(range(base.n))[:1]
        out[f"marked{i}"] = make_graph(base.n, base.edges(), {"R": r, "F": f, "X": range(0, base.n, 3)})
    texts = {name: write_graph(g) for name, g in out.items()}
    texts["malformed"] = "p 3 1\ne 0 0\n"
    texts["badheader"] = "e 0 1\n"
    return texts


SMALL = [f"rand{i:02d}" for i in range(24)] + ["half3", "tree22"]
MID = ["half6", "tree33s1", "cosparse30"]
MARKED = [f"sp-{n}" for n in ("cosparse30", "cosparse60", "rand05", "rand11", "rand17", "half6")] + [
    f"sp2-{n}" for n in ("cosparse30", "rand05", "rand11", "half6")
] + [f"marked{i}" for i in range(6)] + ["malformed"]
BAD = ["malformed", "badheader", "missing"]


def cases(texts: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(name, argv after `--input FILE`) pairs named kind/graph/label;
    `gen` and `bounds` cases take no input and start with `-`."""
    out: list[tuple[str, list[str]]] = []
    sizes = {name: int(text.split()[1]) for name, text in texts.items() if text.startswith("p ")}

    def add(name: str, *argv: str) -> None:
        out.append((name, list(argv)))

    def certify(g: str, label: str, d: int, m: int, r: int, *extra: str) -> None:
        # A pattern with more nodes than the graph has vertices is absent.
        # A checkout without that early answer may abort these at a small
        # node cap (exit 3), so they are their own kind.
        nodes = sum(m**i for i in range(d + 1))
        kind = "certify-oversize" if nodes > sizes.get(g, nodes) else "certify"
        add(f"{kind}/{g}/{label}", "certify", "--d", str(d), "--m", str(m), "--r", str(r), *extra)

    for g in SMALL + MID + BAD:
        for r, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            add(f"rank/{g}/{r},{m}", "rank", "--r", str(r), "--m", str(m), "--witness")
        add(f"rank/{g}/q", "--quiet", "rank", "--r", "1", "--m", "2")
        for k in (0, 1, 2):
            add(f"neartwin/{g}/{k}", "neartwin", "--k", str(k))
            add(f"neartwin/{g}/{k}c", "neartwin", "--k", str(k), "--components")
        add(f"neartwin/{g}/neg", "neartwin", "--k", "-1")
        for t in (1, 2, 3):
            add(f"halfgraph/{g}/{t}", "halfgraph", "--t", str(t))
        add(f"halfgraph/{g}/cap", "halfgraph", "--t", "3", "--cap-nodes", "7")
        for k, m in ((0, 1), (1, 2), (2, 3)):
            add(f"near-covered/{g}/{k},{m}", "near-covered", "--k", str(k), "--m", str(m))
            add(f"near-covered/{g}/{k},{m}x", "near-covered", "--k", str(k), "--m", str(m), "--exact")
        add(f"near-covered/{g}/cap", "near-covered", "--k", "1", "--m", "2", "--exact", "--cap-nodes", "3")
        for f, d in (("const:0", "const:2"), ("const:1", "linear:1,1"), ("exp2", "const:3"),
                     ('table:{"1":2,"2":null}', "const:1"), ("tower", "bad")):
            add(f"labd-check/{g}/{f}/{d}", "labd-check", "--f", f, "--d", d)
        add(f"labd-check/{g}/rmax", "labd-check", "--f", "const:1", "--d", "const:1", "--r-max", "1")
        for k, h in ((0, 1), (1, 1), (2, 2), (1, 0)):
            add(f"sparsify/{g}/{k},{h}", "sparsify", "--k", str(k), "--h", str(h))
            add(f"verify-roundtrip/{g}/{k},{h}", "verify-roundtrip", "--k", str(k), "--h", str(h))
        add(f"sparsify/{g}/out", "sparsify", "--k", "1", "--h", "1", "--out", "{out}/sp.graph")
        add(f"recover/{g}", "recover")

    for g in SMALL + MID[:2] + BAD:
        for d, m, r in ((0, 1, 0), (1, 2, 0), (1, 3, 1), (2, 2, 0), (2, 2, 1), (2, 3, 1)):
            certify(g, f"{d},{m},{r}", d, m, r)
        certify(g, "cap", 2, 2, 1, "--cap-nodes", "9")
        for v in (0, 1, 99):
            add(f"certify/{g}/extract{v}", "certify", "--d", "1", "--m", "2", "--r", "1",
                "--extract", "--vertex", str(v))
        add(f"certify/{g}/extract2", "certify", "--d", "2", "--m", "1", "--r", "1",
            "--extract", "--vertex", "0")
        add(f"certify/{g}/extract-novertex", "certify", "--d", "1", "--m", "2", "--r", "1", "--extract")
    # Depth-2 extractions that search for rank-d targets along paths of
    # more than one edge or into more than one branch.  At these
    # parameters cosparse30 (both), rand02, rand07 and rand18 (2,1,2)
    # have vertices of rank above d; the others exercise the refusal.
    for g in SMALL + MID:
        for d, m, r in ((2, 2, 1), (2, 1, 2)):
            add(f"certify/{g}/extract{d},{m},{r}", "certify", "--d", str(d), "--m", str(m),
                "--r", str(r), "--extract", "--vertex", "0")

    for g in SMALL[:12] + ["half3", "tree22"] + BAD:
        for s, k, h in ((0, 1, 1), (1, 0, 1), (1, 1, 1)):
            add(f"sflip-search/{g}/{s},{k},{h}", "sflip-search", "--s", str(s), "--k", str(k),
                "--h", str(h), "--f", "const:0", "--d", "const:2")
        add(f"sflip-search/{g}/cap", "sflip-search", "--s", "1", "--k", "1", "--h", "1",
            "--f", "const:0", "--d", "const:0", "--cap-branch", "5")
        add(f"sflip-search/{g}/badspec", "sflip-search", "--s", "1", "--k", "1", "--h", "1",
            "--f", "linear:1", "--d", "const:0")

    for g in MARKED:
        add(f"recover/{g}", "recover")
        add(f"recover/{g}/out", "--output", "{out}/rec.graph", "recover")
        add(f"rank/{g}", "rank", "--r", "1", "--m", "2")
        add(f"neartwin/{g}", "neartwin", "--k", "1", "--components")
        certify(g, "1,2,1", 1, 2, 1)
    for g in ("rand00", "rand03", "half6", "cosparse30"):
        certify(g, "3,3,1", 3, 3, 1, "--cap-nodes", "40")
    certify("rand00", "4,2,0", 4, 2, 0, "--cap-nodes", "1")

    for spec in ("3,2,1", "3,2,2", "3,2,3", "5,0,10", "1,1,200", "3,2,2000", "0,0,1", "3,2,0",
                 "1,2", "a,b,c", "-3,2,4"):
        add(f"bounds/g/{spec}", "-", "bounds", "--g", spec)
    for spec in ("2,1", "2,5", "0,3", "2,900", "2,0", "1"):
        add(f"bounds/h/{spec}", "-", "bounds", "--h", spec)
    for spec in ("1,1", "2,3", "5,5", "3", "-1,2"):
        add(f"bounds/no-ladder/{spec}", "-", "bounds", "--no-ladder", spec)
    for spec in ("1,1,1", "2,1,2", "3,2,2", "4,1,1", "5,1,2", "8,1,1", "12,2,2", "0,1,1", "2,0,1"):
        add(f"bounds/m-prime/{spec}", "-", "bounds", "--m-prime", spec)
    add("bounds/all", "-", "bounds", "--g", "3,2,4", "--h", "2,3", "--no-ladder", "2,2", "--m-prime", "2,1,2")
    add("bounds/none", "-", "bounds")
    # Past the bit cap.  A checkout without the cap computes these for
    # minutes, so exclude `bounds-cap` when comparing with one.
    add("bounds-cap/g", "-", "bounds", "--g", "3,2,300000")
    add("bounds-cap/h", "-", "bounds", "--h", "2,300000")

    for d, m in ((0, 1), (1, 3), (2, 2), (3, 2), (-1, 2), (2, 0)):
        add(f"gen/tree/{d},{m}", "-", "gen", "tree", "--depth", str(d), "--branch", str(m))
    add("gen/tree/sub", "-", "gen", "tree", "--depth", "2", "--branch", "2", "--subdivide", "2")
    add("gen/tree/out", "-", "--output", "{out}/t.graph", "gen", "tree", "--depth", "2", "--branch", "3")
    add("gen/tree/missing", "-", "gen", "tree", "--depth", "2")
    for t in (1, 4, 0):
        add(f"gen/halfgraph/{t}", "-", "gen", "halfgraph", "--order", str(t))
    for seed in (0, 1, 7):
        add(f"gen/random/{seed}", "-", "--seed", str(seed), "gen", "random", "--n", "12", "--p", "0.3")
    add("gen/random/badp", "-", "gen", "random", "--n", "5", "--p", "1.5")
    add("usage/none", "-")
    add("usage/unknown", "-", "frobnicate")
    add("usage/rank-missing-m", "-", "rank", "--r", "1")
    return out


def _kind(name: str) -> str:
    return name.split("/", 1)[0]


def run(exclude: frozenset[str], show_cases: bool) -> str:
    """Print the digests and return the total's hex digest."""
    texts = graphs()
    per_kind: dict = {}
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "in").mkdir()
        for name, text in texts.items():
            (root / "in" / f"{name}.graph").write_text(text)
        for idx, (name, argv) in enumerate(cases(texts)):
            if name in exclude or _kind(name) in exclude:
                continue
            out_dir = root / "out" / str(idx)
            out_dir.mkdir(parents=True)
            if argv and argv[0] == "-":
                full = argv[1:]
            else:
                full = ["--input", str(root / "in" / f"{name.split('/')[1]}.graph"), *argv]
            full = [a.replace("{out}", str(out_dir)) for a in full]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(full)
            record = [name, str(code), stdout.getvalue(), stderr.getvalue()]
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    record += [str(path.relative_to(out_dir)), path.read_text()]
            blob = "\0".join(record).replace(tmp, "<tmp>").encode()
            digest = hashlib.sha256(blob).hexdigest()
            if show_cases:
                print(f"case {name} {code} {digest[:16]}")
            per_kind.setdefault(_kind(name), hashlib.sha256()).update(digest.encode())
            total.update(digest.encode())
    for kind in sorted(per_kind):
        print(f"{kind} {per_kind[kind].hexdigest()}")
    print(f"total {total.hexdigest()}")
    return total.hexdigest()


def hex_prefix(value: str) -> str:
    """An --expect value, 8 to 64 hex digits, in lower case."""
    digits = value.lower()
    if not 8 <= len(digits) <= 64 or not set(digits) <= set("0123456789abcdef"):
        raise argparse.ArgumentTypeError(f"{value!r} is not 8 to 64 hex digits")
    return digits


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cases", action="store_true", help="print each case's digest too")
    p.add_argument("--exclude", action="append", default=[], metavar="NAME",
                   help="skip the case or the kind of cases with this name (repeatable)")
    p.add_argument("--expect", metavar="HEX", type=hex_prefix,
                   help="exit 1 unless the total starts with HEX (8 or more hex digits)")
    args = p.parse_args(argv)
    total = run(frozenset(args.exclude), args.cases)
    if args.expect is not None and not total.startswith(args.expect):
        print(f"total does not start with the expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
