"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rank-sparse", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(sid, parent, name, start, end):
    return spans.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, -1, "cli.main", 0.0, 10.0),
        _span(1, 0, "graph.parse_graph", 1.0, 4.0),
        _span(2, 1, "graph.make_graph", 2.0, 3.5),
        _span(3, 0, "sparsify.build_sparsifier", 5.0, 9.0),
        _span(4, 3, "sparsify.component_partition", 5.5, 7.0),
        _span(5, 3, "sparsify.classify_heavy", 7.0, 8.0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 1.5, 2: 1.5, 3: 1.5, 4: 1.5, 5: 1.0})
    metrics = spans.layer_metrics(tree, {}, [0])
    assert metrics["cli.main_self_s"] == pytest.approx(3.0)
    assert metrics["graph.parse_s"] == pytest.approx(3.0)
    assert metrics["sparsify.build_self_s"] == pytest.approx(1.5)
    assert metrics["sparsify.component_partition_s"] == pytest.approx(1.5)


def test_wrappers_pass_results_and_exceptions_through():
    import treerank
    import treerank.cli

    tracer = spans.Tracer()
    original = treerank.cli.parse_graph
    with spans.traced(tracer):
        assert treerank.cli.parse_graph is not original
        g = treerank.cli.parse_graph("p 2 1\ne 0 1\n")
        with pytest.raises(treerank.ParseError):
            treerank.cli.parse_graph("p 2 1\ne 0 0\n")
    assert treerank.cli.parse_graph is original and treerank.parse_graph is original
    assert g == original("p 2 1\ne 0 1\n")
    assert [s.name for s in tracer.spans] == [
        "graph.parse_graph", "graph.make_graph", "graph.parse_graph"]


def _built(tmp_path, name):
    w = workloads.build(name, 5, tmp_path, "tiny")
    bench = run.Bench(w, tmp_path)
    bench.inprocess_batch()
    assert not bench.failures
    return w, bench


def test_invalidated_witness_counts_as_failure(tmp_path):
    w, bench = _built(tmp_path, "rank-sparse")
    op = w.batch[0]
    lines = op.output.read_text().splitlines()
    # Empty the nonempty separator of a rank-1 vertex: its ball then holds a
    # neighbor, and every vertex has rank >= 1.
    idx = next(i for i, line in enumerate(lines)
               if line.startswith("w ") and len(line.split()) > 2
               and lines[int(line.split()[1])].split()[1] == "1")
    v = lines[idx].split()[1]
    lines[idx] = f"w {v}"
    op.output.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_rank(op.output.read_text(), w.inputs[0].graph)
    bench.verify(0, op, ok_exit=True)
    assert len(bench.failures) == 1 and bench.attempted == len(w.batch) + 1


def test_recovered_graph_missing_an_edge_counts_as_failure(tmp_path):
    w, bench = _built(tmp_path, "roundtrip-sparse")
    idx, op = next((i, op) for i, op in enumerate(w.batch) if op.kind == "recover")
    lines = op.output.read_text().splitlines()
    n, m = lines[0].split()[1:]
    drop = next(i for i, line in enumerate(lines) if line.startswith("e "))
    del lines[drop]
    lines[0] = f"p {n} {int(m) - 1}"
    op.output.write_text("\n".join(lines) + "\n")
    bench.verify(idx, op, ok_exit=True)
    assert len(bench.failures) == 1
    assert "missing" in bench.failures[0]


def test_reference_components_match_the_library(tmp_path):
    import treerank
    from treerank.sparsify import component_partition

    w = workloads.build("flipped-dense", 2, tmp_path, "tiny")
    for inp in w.inputs:
        g = treerank.parse_graph(inp.path.read_text())
        assert checks.nt_components(inp.graph, inp.k) == list(component_partition(g, inp.k).parts)
