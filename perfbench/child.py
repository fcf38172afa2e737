"""Benchmark child process for work the treerank CLI has no subcommand for.

    python3 perfbench/child.py interpret --input G --output OUT
    python3 perfbench/child.py range-check --input G --output OUT
    python3 perfbench/child.py setup FILE...

`interpret` writes apply_interpretation(g, recovery_interpretation()),
`range-check` writes the result of check_range(g, psi, 3), and `setup`
only imports treerank and parses the files (the benchmark's setup_s).
treerank must be importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import sys
from pathlib import Path

import treerank
import treerank.fo as fo


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        for name in rest:
            treerank.parse_graph(Path(name).read_text())
        return 0
    opts = dict(zip(rest[::2], rest[1::2]))
    g = treerank.parse_graph(Path(opts["--input"]).read_text())
    interp = fo.recovery_interpretation()
    if cmd == "interpret":
        out, _ = fo.apply_interpretation(g, interp)
        text = treerank.write_graph(out)
    elif cmd == "range-check":
        text = f"{fo.check_range(g, interp.psi, 3)}\n"
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    Path(opts["--output"]).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
