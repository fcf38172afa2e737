"""The treerank benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rank-sparse --seed 1 --seconds 30 --trace 0

Run it from anywhere in a checkout of the repository; it imports treerank
from the checkout's src/ and exits with status 2, printing no result, when
src/treerank is missing.

A run generates the workload's inputs from --seed, then runs the
workload's fixed batch of operations in a closed loop for --seconds: one
child process at a time, each started after the previous one exited.
Every output is checked (checks.py) and its sha256 recorded.

--trace 0 measures with tracing off and reports the end-to-end metrics:
  wall_s      median over batches of one batch's summed process wall times
              (each operation from process start to exit)
  setup_s     median time for a fresh process to import treerank and parse
              the workload's input files (one probe per batch)
  max_rss_mb  peak RSS over the run's child processes (wait4 rusage)
--trace 1 runs each batch three ways in turn (child processes untraced,
in process untraced, in process traced through spans.py) and reports
the per-layer metrics as medians over batches of per-batch sums.  The
spans are written to .perfbench-out/ at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it list each
metric with its unit and a `detail` JSON record: environment, input
descriptors, per-operation times, fail_ratio and output hashes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 120
END_TO_END = {"wall_s": "s", "setup_s": "s", "max_rss_mb": "MB"}
PER_LAYER = {
    **{name: "s" for name in spans.TIME_METRICS},
    "cli.process_overhead_s": "s",
    "tracing_overhead_s": "s",
    "graph.input_bytes": "bytes",
    **{name: "count" for name in spans.COUNT_METRICS},
    "ranking.useful_search_ratio": "ratio",
}


def run_process(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to exit; return (wall seconds, max RSS in MB, exit code).

    The exit status and rusage come from wait4, which blocks without
    polling; a timer kills a child that outlives OP_TIMEOUT_S.
    """
    lock = threading.Lock()
    done = False
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill() -> None:
            with lock:
                if not done:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                done = True
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, code


class Bench:
    """One run of one workload: inputs, batch, checks and raw samples."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.w = workload
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.attempted = 0
        self.failures: list[str] = []
        self.good: dict[int, set[str]] = {}  # op index -> checked output hashes
        self.hashes: dict[str, str] = {}
        self.op_walls: dict[int, list[float]] = {i: [] for i in range(len(workload.batch))}
        self.max_rss_mb = 0.0
        self.library_recovery = {i: _library_recover(inp.path)
                                 for i, inp in enumerate(workload.inputs) if inp.expected is not None}

    def argv(self, op: workloads.Op) -> list[str]:
        if op.kind in workloads.CLI_KINDS:
            return [sys.executable, "-m", "treerank.cli", *op.args]
        return [sys.executable, str(Path(__file__).with_name("child.py")), *op.args]

    def fail(self, op: workloads.Op, message: str) -> None:
        self.failures.append(f"{op.kind} {op.output.name}: {message}")

    def verify(self, idx: int, op: workloads.Op, ok_exit: bool) -> None:
        """Count the operation; check its output unless already checked."""
        self.attempted += 1
        if not ok_exit:
            return
        try:
            data = op.output.read_bytes()
        except OSError as e:
            self.fail(op, f"no output ({e})")
            return
        digest = hashlib.sha256(data).hexdigest()
        if digest in self.good.setdefault(idx, set()):
            return
        try:
            checks.check(op, data.decode(), self.w.inputs[op.source],
                         self.library_recovery.get(op.source))
        except checks.CheckFailed as e:
            self.fail(op, str(e))
            return
        self.good[idx].add(digest)
        self.hashes[f"{idx}:{op.kind}:{op.output.name}"] = digest

    def process_batch(self) -> float:
        total = 0.0
        for idx, op in enumerate(self.w.batch):
            stderr_path = self.work / "stderr.txt"
            wall, rss, code = run_process(self.argv(op), self.env, stderr_path)
            total += wall
            self.op_walls[idx].append(wall)
            self.max_rss_mb = max(self.max_rss_mb, rss)
            if code != 0:
                first = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
                self.fail(op, f"exit {code} {first}")
            self.verify(idx, op, code == 0)
        return total

    def inprocess_batch(self, tracer: spans.Tracer | None = None, first_op: int = 0) -> float:
        import child
        import treerank.cli

        total = 0.0
        for idx, op in enumerate(self.w.batch):
            if tracer is not None:
                tracer.op = first_op + idx
            main = treerank.cli.main if op.kind in workloads.CLI_KINDS else child.main
            start = perf_counter()
            try:
                code = main(list(op.args))
            except Exception as e:  # a crash is a failed operation, not a failed run
                code = f"{type(e).__name__}: {e}"
            total += perf_counter() - start
            if code != 0:
                self.fail(op, f"in-process exit {code}")
            self.verify(idx, op, code == 0)
        return total

    def setup_probe(self) -> float:
        argv = [sys.executable, str(Path(__file__).with_name("child.py")), "setup",
                *(str(inp.path) for inp in self.w.inputs)]
        wall, _, code = run_process(argv, self.env, self.work / "stderr.txt")
        if code != 0:
            self.attempted += 1
            self.failures.append(f"setup probe: exit {code}")
        return wall

    def input_bytes(self) -> int:
        return sum(op.reads.stat().st_size for op in self.w.batch)


def _library_recover(path: Path) -> workloads.SimpleGraph:
    """treerank.sparsify.recover_graph of an input, as the FO reference."""
    import treerank
    from treerank.sparsify import recover_graph

    out, _ = recover_graph(treerank.parse_graph(path.read_text()))
    return workloads.SimpleGraph(out.n, set(out.edges()),
                                 {k: frozenset(v) for k, v in out.predicates.items()})


def loop(seconds: float, step) -> None:
    """Call step() until `seconds` have passed, at least three times."""
    deadline = perf_counter() + seconds
    count = 0
    while count < 3 or perf_counter() < deadline:
        gc.collect()
        step()
        count += 1


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    walls: list[float] = []
    setups: list[float] = []

    def step() -> None:
        setups.append(bench.setup_probe())
        walls.append(bench.process_batch())

    loop(seconds, step)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "max_rss_mb": bench.max_rss_mb,
    }
    return metrics, {"batches": len(walls), "batch_s": _summary(walls), "setup_s": _summary(setups),
                     "samples_s": {"batch": walls, "setup": setups}}


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    rows: list[dict] = []
    proc_walls, plain_walls, traced_walls = [], [], []
    size = len(bench.w.batch)

    def step() -> None:
        proc_walls.append(bench.process_batch())
        gc.collect()
        plain_walls.append(bench.inprocess_batch())
        gc.collect()
        first, mark = len(rows) * size, len(tracer.spans)
        with spans.traced(tracer):
            traced_walls.append(bench.inprocess_batch(tracer, first))
        rows.append(spans.layer_metrics(tracer.spans[mark:], tracer.counts,
                                        range(first, first + size)))

    loop(seconds, step)
    tracer.write(spans_path)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    # Differences of batches run back to back, so slow drift cancels.
    metrics["cli.process_overhead_s"] = statistics.median(
        p - q for p, q in zip(proc_walls, plain_walls))
    metrics["tracing_overhead_s"] = statistics.median(
        t - q for t, q in zip(traced_walls, plain_walls))
    metrics["graph.input_bytes"] = bench.input_bytes()
    detail = {"batches": len(rows), "batch_s": _summary(proc_walls),
              "inprocess_s": _summary(plain_walls), "traced_s": _summary(traced_walls),
              "samples_s": {"batch": proc_walls, "inprocess": plain_walls, "traced": traced_walls},
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def _summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def environment() -> dict:
    files = sorted((SRC / "treerank").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest(), "src_treerank_lines": lines}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "treerank" / "__init__.py").is_file():
        print(f"error: {SRC / 'treerank'} not found; run from a checkout of treerank",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        w = workloads.build(args.workload, args.seed, work, args.size)
        bench = Bench(w, work)
        descriptors = [inp.descriptor() for inp in w.inputs]
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, detail = measure_traced(bench, args.seconds, spans_path)
            units = PER_LAYER
        else:
            metrics, detail = measure(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_kind: dict[str, list[float]] = {}
    for idx, op in enumerate(w.batch):
        per_kind.setdefault(f"{op.kind.replace('-', '_')}_s", []).extend(bench.op_walls[idx])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": descriptors,
        "operation_s": {k: _summary(v) for k, v in per_kind.items()},
        "operation_samples_s": {f"{i}:{op.kind}": bench.op_walls[i] for i, op in enumerate(w.batch)},
        "fail_ratio": len(bench.failures) / bench.attempted,
        "failures": bench.failures[:20], "output_sha256": bench.hashes, **detail,
    }
    print("detail " + json.dumps(record, sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"metric fail_ratio {record['fail_ratio']!r} ratio")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
