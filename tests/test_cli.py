import argparse
import contextlib
import inspect
import io
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank import cli, halfgraph, labd, shallow, sparsify
from treerank.generators import gen_random, gen_tree
from treerank.graph import make_graph, parse_graph, write_graph
from treerank.halfgraph import g_bound
from treerank.neartwin import neartwin_graph
from treerank.ranking import compute_ranking
from treerank.shallow import Embedding
from treerank.sparsify import build_sparsifier

from helpers import complete_bipartite, complete_graph, path_graph


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_tree_roundtrips(capsys, tmp_path):
    code, out = run(capsys, "gen", "tree", "--depth", "2", "--branch", "3")
    assert code == 0
    assert parse_graph(out) == gen_tree(2, 3)


def test_gen_with_subdivision_and_output_file(capsys, tmp_path):
    target = tmp_path / "g.graph"
    code, _ = run(
        capsys, "--output", str(target), "gen", "tree",
        "--depth", "1", "--branch", "2", "--subdivide", "1",
    )
    assert code == 0
    assert parse_graph(target.read_text()).n == 5


@pytest.mark.parametrize("p", ["0", "1"])
def test_gen_refuses_a_negative_subdivision_with_or_without_edges(capsys, p):
    code = cli.main(["gen", "random", "--n", "3", "--p", p, "--subdivide", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: subdivision counts must be nonnegative\n"


@pytest.mark.parametrize("argv, cap, code", [
    (["gen", "tree", "--depth", "7", "--branch", "10"], None, 3),
    (["gen", "tree", "--depth", "1000000000", "--branch", "2"], None, 3),
    (["gen", "tree", "--depth", "1000000000", "--branch", "1"], None, 3),
    (["gen", "tree", "--depth", "2", "--branch", "3"], "12", 3),
    (["gen", "tree", "--depth", "2", "--branch", "3"], "13", 0),
    (["gen", "tree", "--depth", "1", "--branch", "2", "--subdivide", "5"], "12", 3),
    (["gen", "tree", "--depth", "1", "--branch", "2", "--subdivide", "5"], "13", 0),
    (["gen", "tree", "--depth", "5", "--branch", "10", "--subdivide", "9"], None, 3),
    (["gen", "halfgraph", "--order", "3", "--subdivide", "1000000"], None, 3),
    (["gen", "halfgraph", "--order", "3", "--subdivide", "2"], "18", 0),
    (["gen", "halfgraph", "--order", "3", "--subdivide", "2"], "17", 3),
    (["gen", "halfgraph", "--order", "7"], "13", 3),
    (["gen", "halfgraph", "--order", "6"], "12", 0),
    (["gen", "halfgraph", "--order", "2236"], None, 3),
    (["gen", "halfgraph", "--order", "100000"], None, 3),
    (["gen", "random", "--n", "13", "--p", "0.5"], "12", 3),
    (["gen", "random", "--n", "12", "--p", "0.5"], "12", 0),
    (["gen", "random", "--n", "2237", "--p", "0"], None, 3),
    (["gen", "random", "--n", "100000", "--p", "0"], None, 3),
    (["gen", "tree", "--depth", "2", "--branch", "3"], "1000000", 0),
    (["gen", "tree", "--depth", "2", "--branch", "3"], "1000001", 3),
    (["gen", "tree", "--depth", "6", "--branch", "10"], "2000000", 3),
])
def test_gen_output_size_is_capped_before_building(capsys, argv, cap, code):
    # The default cap is errors.GRAPH_MAX_VERTICES; --cap-nodes replaces
    # it but may not exceed it, since parse_graph refuses larger headers
    # and gen must not write a graph no command reads back. Each count is checked before the graph is built, so the tree of
    # 11,111,111 vertices is refused at once.  A half-graph's edges and
    # gen random's pair scan stop at errors.GRAPH_MAX_PAIRS: order 2236
    # has 2,500,966 edges and n = 2237 has 2,500,966 pairs.
    t0 = time.time()
    got = cli.main(argv + ([] if cap is None else ["--cap-nodes", cap]))
    elapsed = time.time() - t0
    captured = capsys.readouterr()
    assert got == code and elapsed < 0.5
    if code == 3:
        assert captured.out == ""
        assert captured.err.startswith("error: gen: scale cap exceeded")
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("text, argv, op", [
    ("p 1000001 0\n", ["rank", "--r", "1", "--m", "1"], "parse_graph"),
    ("p 1000000000000 0\n", ["rank", "--r", "1", "--m", "1"], "parse_graph"),
    ("p 2237 0\n", ["neartwin", "--k", "0"], "neartwin_graph"),
])
def test_input_size_is_capped_before_allocating(capsys, tmp_path, text, argv, op):
    # A header over errors.GRAPH_MAX_VERTICES is refused before any row
    # is allocated, and neartwin's all-pairs scan stops at
    # errors.GRAPH_MAX_PAIRS (n = 2237 has 2,500,966 pairs).
    src = tmp_path / "big.graph"
    src.write_text(text)
    t0 = time.time()
    got = cli.main(["--input", str(src), *argv])
    elapsed = time.time() - t0
    captured = capsys.readouterr()
    assert got == 3 and elapsed < 0.5 and captured.out == ""
    assert captured.err.startswith(f"error: {op}: scale cap exceeded")
    assert len(captured.err.splitlines()) == 1


def test_gen_random_seed_flag(capsys):
    code1, out1 = run(capsys, "--seed", "5", "gen", "random", "--n", "10", "--p", "0.5")
    code2, out2 = run(capsys, "--seed", "5", "gen", "random", "--n", "10", "--p", "0.5")
    assert code1 == code2 == 0 and out1 == out2


def test_rank_output_matches_library(capsys, tmp_path):
    g = gen_tree(2, 3)
    src = tmp_path / "t.graph"
    src.write_text(write_graph(g))
    code, out = run(capsys, "--input", str(src), "rank", "--r", "1", "--m", "2")
    assert code == 0
    ra = compute_ranking(g, 1, 2)
    expected = [f"{v} {int(ra.ranks[v])}" for v in range(g.n)]
    assert out.splitlines() == expected


def test_rank_emits_inf(capsys, tmp_path):
    src = tmp_path / "k5.graph"
    src.write_text(write_graph(complete_graph(5)))
    code, out = run(capsys, "--input", str(src), "rank", "--r", "1", "--m", "2")
    assert code == 0
    assert all(line.endswith(" inf") for line in out.splitlines())


def test_rank_witness_lines(capsys, tmp_path):
    src = tmp_path / "s.graph"
    src.write_text(write_graph(gen_tree(1, 5)))
    code, out = run(capsys, "--input", str(src), "rank", "--r", "1", "--m", "2", "--witness")
    assert code == 0
    assert any(line.startswith("w ") for line in out.splitlines())


@pytest.mark.parametrize("witness", [[], ["--witness"]])
def test_rank_of_the_empty_graph_prints_nothing(capsys, tmp_path, witness):
    src = tmp_path / "e.graph"
    src.write_text("p 0 0\n")
    code, out = run(capsys, "--input", str(src), "rank", "--r", "1", "--m", "1", *witness)
    assert code == 0 and out == ""


def test_certify_found_and_absent(capsys, tmp_path):
    src = tmp_path / "t.graph"
    src.write_text(write_graph(gen_tree(2, 3)))
    code, out = run(capsys, "--input", str(src), "certify", "--d", "1", "--m", "3", "--r", "0")
    assert code == 0 and "principal" in out
    code, out = run(capsys, "--input", str(src), "certify", "--d", "1", "--m", "5", "--r", "0")
    assert code == 1 and out.strip() == "absent"


def test_certify_extract(capsys, tmp_path):
    src = tmp_path / "t.graph"
    src.write_text(write_graph(gen_tree(1, 5)))
    code, out = run(
        capsys, "--input", str(src), "certify",
        "--d", "1", "--m", "3", "--r", "1", "--extract", "--vertex", "0",
    )
    assert code == 0
    assert "path 0-1 " in out


@pytest.mark.parametrize("vertex", ["99", "-1"])
def test_certify_extract_rejects_vertex_out_of_range(capsys, tmp_path, vertex):
    src = tmp_path / "g.graph"
    src.write_text(write_graph(path_graph(8)))
    code = cli.main([
        "--input", str(src), "certify",
        "--d", "1", "--m", "1", "--r", "1", "--extract", "--vertex", vertex,
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_neartwin_components(capsys, tmp_path):
    src = tmp_path / "b.graph"
    src.write_text(write_graph(complete_bipartite(3, 3)))
    code, out = run(capsys, "--input", str(src), "neartwin", "--k", "0", "--components")
    assert code == 0
    assert out.splitlines() == ["component 0 0 1 2", "component 1 3 4 5"]


@pytest.mark.parametrize("mode", [[], ["--components"]])
def test_neartwin_rejects_a_negative_threshold(capsys, tmp_path, mode):
    src = tmp_path / "b.graph"
    src.write_text(write_graph(complete_bipartite(3, 3)))
    code = cli.main(["--input", str(src), "neartwin", "--k", "-1", *mode])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: threshold must be nonnegative\n"


def test_halfgraph_verdicts(capsys, tmp_path):
    src = tmp_path / "h.graph"
    code, _ = run(capsys, "--output", str(src), "gen", "halfgraph", "--order", "3")
    assert code == 0
    code, out = run(capsys, "--input", str(src), "halfgraph", "--t", "3")
    assert code == 0 and out.startswith("u ")
    src2 = tmp_path / "k4.graph"
    src2.write_text(write_graph(complete_graph(4)))
    code, out = run(capsys, "--input", str(src2), "halfgraph", "--t", "2")
    assert code == 1 and out.strip() == "absent"


def test_bounds(capsys):
    code, out = run(capsys, "bounds", "--g", "3,2,3", "--h", "2,2",
                    "--no-ladder", "2,3", "--m-prime", "2,1,2")
    assert code == 0
    assert out.splitlines() == ["g 21", "h 16", "no-ladder 10", "m-prime 13"]


def test_bounds_deep_g(capsys):
    code, out = run(capsys, "bounds", "--g", "3,2,1200")
    assert code == 0 and out.startswith("g ") and out.rstrip()[2:].isdigit()


def test_bounds_prints_values_past_the_str_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "bounds", "--g", "3,2,2000", "--h", "2,2000", "--m-prime", "8,1,1")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["g", "h", "m-prime"]
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert int(lines[0].split()[1]) == g_bound(3, 2, 2000)
        assert int(lines[2].split()[1]).bit_length() == 21537
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_bounds_m_prime_cap(capsys):
    t0 = time.time()
    code = cli.main(["bounds", "--m-prime", "12,2,2"])
    elapsed = time.time() - t0
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 2
    assert captured.out == ""
    assert captured.err.startswith("error: m_prime: scale cap exceeded")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flag,value", [("--g", "3,2,300000"), ("--h", "2,300000")])
def test_bounds_g_and_h_stop_at_the_bit_cap(capsys, flag, value):
    t0 = time.time()
    code = cli.main(["bounds", flag, value])
    elapsed = time.time() - t0
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 2
    assert captured.out == ""
    assert captured.err.startswith("error: g_bound: scale cap exceeded")
    assert len(captured.err.splitlines()) == 1


def test_bounds_requires_a_request(capsys):
    code, _ = run(capsys, "bounds")
    assert code == 2


@pytest.mark.parametrize("flag,value,form", [
    ("--g", "1,2", "c,k,t"),
    ("--h", "1,2,3", "k,t"),
    ("--no-ladder", "1", "k2,m2"),
    ("--m-prime", "1,2,3,4", "d,r,m"),
])
def test_bounds_rejects_a_wrong_value_count(capsys, flag, value, form):
    code = cli.main(["bounds", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} expects {form}\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--g", "0,-5,3", "need c >= 0, k >= 0"),
    ("--g", "-1,2,3", "need c >= 0, k >= 0"),
    ("--g", "-1,-1,0", "need t >= 1"),
    ("--h", "-1,3", "need c >= 0, k >= 0"),
    ("--h", "-1,0", "need t >= 1"),
    ("--no-ladder", "-1,-1", "need k2 >= 0, m2 >= 0"),
    ("--no-ladder", "2,-1", "need k2 >= 0, m2 >= 0"),
])
def test_bounds_rejects_negative_parameters(capsys, flag, value, message):
    code = cli.main(["bounds", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_subcommand_has_a_handler():
    subcommands = _subcommands()
    assert len(subcommands) == 12
    for name, p in subcommands.items():
        assert callable(p.get_default("func")), name


def test_labd_check_verdicts(capsys, tmp_path):
    src = tmp_path / "star.graph"
    src.write_text(write_graph(gen_tree(1, 6)))
    code, out = run(capsys, "--input", str(src), "labd-check", "--f", "const:1", "--d", "const:2")
    assert code == 0 and out.strip() == "ok"
    code, out = run(capsys, "--input", str(src), "labd-check", "--f", "const:0", "--d", "const:2")
    assert code == 1 and out.startswith("cert r 0 v 0")


def test_labd_check_rejects_a_negative_r_max(capsys, tmp_path):
    src = tmp_path / "star.graph"
    src.write_text(write_graph(gen_tree(1, 6)))
    code = cli.main(["--input", str(src), "labd-check", "--f", "const:1", "--d", "const:2",
                     "--r-max", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: r_max must be nonnegative\n"


@pytest.mark.parametrize("flag", ["--f", "--d"])
@pytest.mark.parametrize("spec", ['table:{"0":"x"}', "linear:1"])
def test_labd_check_rejects_malformed_specs(capsys, tmp_path, flag, spec):
    src = tmp_path / "star.graph"
    src.write_text(write_graph(gen_tree(1, 6)))
    specs = {"--f": "const:1", "--d": "const:2", flag: spec}
    code = cli.main(["--input", str(src), "labd-check", "--f", specs["--f"], "--d", specs["--d"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: bad parameter function spec {spec!r}: expected const:N")
    assert len(captured.err.splitlines()) == 1


def test_near_covered_certificate(capsys, tmp_path):
    src = tmp_path / "k4.graph"
    src.write_text(write_graph(complete_graph(4)))
    code, out = run(capsys, "--input", str(src), "near-covered", "--k", "1", "--m", "3", "--exact")
    assert code == 1
    assert out.strip() == "cert exact 0 1 2 3"


def test_near_covered_exact_honours_cap_nodes(capsys, tmp_path):
    src = tmp_path / "g.graph"
    src.write_text(write_graph(gen_random(30, 0.5, 3)))
    code = cli.main(["--input", str(src), "--cap-nodes", "1",
                     "near-covered", "--k", "0", "--m", "25", "--exact"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "node cap" in captured.err


def test_sparsify_recover_roundtrip(capsys, tmp_path):
    src = tmp_path / "b.graph"
    src.write_text(write_graph(complete_bipartite(7, 7)))
    sparse = tmp_path / "sparse.graph"
    code, _ = run(capsys, "--input", str(src), "sparsify", "--k", "0", "--h", "1",
                  "--out", str(sparse))
    assert code == 0
    sg = build_sparsifier(complete_bipartite(7, 7), 0, 1)
    assert parse_graph(sparse.read_text()) == sg.graph
    prov = Path(str(sparse) + ".prov").read_text().splitlines()
    assert "apex 0 14" in prov and "flip 0 1" in prov
    code, out = run(capsys, "--input", str(sparse), "recover")
    assert code == 0
    assert parse_graph(out) == complete_bipartite(7, 7)


def test_recover_aborts_on_bad_marks(capsys, tmp_path):
    src = tmp_path / "bad.graph"
    src.write_text("p 4 2\ne 0 2\ne 0 3\nl R 2 3\n")
    code, _ = run(capsys, "--input", str(src), "recover")
    assert code == 1


def test_verify_roundtrip(capsys, tmp_path):
    src = tmp_path / "k11.graph"
    src.write_text(write_graph(complete_graph(11)))
    code, out = run(capsys, "--input", str(src), "verify-roundtrip", "--k", "2", "--h", "2")
    assert code == 0 and out.strip() == "roundtrip ok"


def test_sflip_search(capsys, tmp_path):
    src = tmp_path / "p3.graph"
    src.write_text(write_graph(path_graph(3)))
    code, out = run(capsys, "--input", str(src), "sflip-search", "--s", "0",
                    "--k", "0", "--h", "1", "--f", "const:0", "--d", "const:2")
    # The chosen S is empty, so the line holds the tag alone.
    assert code == 0 and out.splitlines()[0] == "S"
    code, out = run(capsys, "--input", str(src), "sflip-search", "--s", "0",
                    "--k", "0", "--h", "1", "--f", "const:0", "--d", "const:0")
    assert code == 1 and out.strip() == "absent"


def test_usage_error_exit_code(capsys):
    assert cli.main(["rank", "--r", "1"]) == 2  # missing --m


def test_parse_error_exit_code(capsys, tmp_path):
    src = tmp_path / "bad.graph"
    src.write_text("p 2 1\ne 0 0\n")
    code = cli.main(["--input", str(src), "rank", "--r", "1", "--m", "1"])
    assert code == 2


def test_scale_cap_exit_code(capsys, tmp_path):
    src = tmp_path / "dense.graph"
    src.write_text(write_graph(complete_graph(12)))
    # The 7-node pattern fits in K12, so the search runs into the cap.
    code = cli.main(["--input", str(src), "--cap-nodes", "3",
                     "certify", "--d", "2", "--m", "2", "--r", "2"])
    assert code == 3


def test_near_covered_deeper_than_the_recursion_limit_certifies(capsys, tmp_path):
    # The exact search chooses 1,401 of the path's vertices, one search
    # level each, past Python's default recursion limit of 1,000.
    g = path_graph(1500)
    src = tmp_path / "g.graph"
    src.write_text(write_graph(g))
    code, out = run(capsys, "--input", str(src), "near-covered", "--k", "0", "--m", "1400", "--exact")
    assert code == 1
    tag, mode, *ids = out.split()
    cert = {int(v) for v in ids}
    assert (tag, mode, len(cert)) == ("cert", "exact", 1401)
    nt = neartwin_graph(g, 0)
    assert all(nt.adj[v].isdisjoint(cert) for v in cert)


def test_certify_deeper_than_the_recursion_limit_embeds(capsys, tmp_path):
    # The search realizes the 1,500 edges of the pattern, one search
    # level each.
    g = make_graph(1600, [(0, v) for v in range(1, 1600)])
    src = tmp_path / "g.graph"
    src.write_text(write_graph(g))
    code, out = run(capsys, "--input", str(src), "certify", "--d", "1", "--m", "1500", "--r", "0")
    assert code == 0
    principal, paths = {}, {}
    for line in out.splitlines():
        kind, key, *vs = line.split()
        if kind == "principal":
            principal[int(key)] = int(vs[0])
        else:
            paths[tuple(int(x) for x in key.split("-"))] = tuple(int(x) for x in vs)
    shallow.validate_embedding(g, Embedding(principal, paths), 1, 1500, 0)


@pytest.mark.parametrize("g, argv, code", [
    # The JSON decoder recurses once per nesting level. The id keeps the
    # name the case had when the table also held the two searches above.
    pytest.param(path_graph(2), ["labd-check", "--f", "table:" + "[" * 100_000, "--d", "const:1"], 2,
                 id="g2-argv2-2"),
])
def test_recursion_limit_is_a_scale_or_usage_error(capsys, tmp_path, g, argv, code):
    src = tmp_path / "g.graph"
    src.write_text(write_graph(g))
    assert cli.main(["--input", str(src), *argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_bad_parameter_function_spec_is_cut_in_the_message(capsys, tmp_path):
    src = tmp_path / "g.graph"
    src.write_text(write_graph(path_graph(2)))
    # Nested deeper than the JSON decoder allows: a malformed spec.
    spec = "table:" + "[" * 100_000
    assert cli.main(["--input", str(src), "labd-check", "--f", spec, "--d", "const:1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 300 and err[0].startswith("error: ")
    assert "'table:[[[" in err[0] and "…'" in err[0]


@pytest.mark.parametrize("argv, fn, param, flag", [
    (["certify", "--d", "2", "--m", "2", "--r", "1"],
     shallow.contains_shallow_tree, "cap_nodes", "--cap-nodes"),
    (["halfgraph", "--t", "3"], halfgraph.find_halfgraph, "cap_nodes", "--cap-nodes"),
    (["near-covered", "--k", "1", "--m", "3", "--exact"],
     labd.near_covered_check, "cap_nodes", "--cap-nodes"),
    (["sflip-search", "--s", "1", "--k", "0", "--h", "1", "--f", "const:0", "--d", "const:1"],
     sparsify.sflip_driver, "cap_candidates", "--cap-branch"),
])
def test_cap_flags_default_to_the_library_caps(capsys, tmp_path, argv, fn, param, flag):
    # Without the flag the library's own default applies: passing that
    # value changes nothing, and a cap of 1 aborts with exit 3.
    src = tmp_path / "g.graph"
    src.write_text(write_graph(gen_random(10, 0.4, 7)))
    default = inspect.signature(fn).parameters[param].default
    results = []
    for cap in ([], [flag, str(default)]):
        code = cli.main(["--input", str(src), *cap, *argv])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)
    assert cli.main(["--input", str(src), flag, "1", *argv]) == 3
    assert "scale cap exceeded" in capsys.readouterr().err


# Flag values for the fuzz test: small, so every run stays desk-scale,
# with negative and non-numeric values among them.
_INT = st.sampled_from(["0", "1", "2", "3"] * 4 + ["-1", "x"])
_CAP = st.sampled_from(["-1", "0", "1", "40"])
_SPEC = st.sampled_from(["const:0", "const:2", "linear:1,1", "exp2", "tower",
                         'table:{"0": 1, "1": null}'] * 3 + ["linear:1", "cubic:3", ""])


def _tuple(size: int):
    # Mostly the size the flag expects, sometimes one off.
    sizes = st.sampled_from([size] * 5 + [size - 1, size + 1])
    return sizes.flatmap(lambda k: st.lists(st.integers(-1, 4), min_size=k, max_size=k)).map(
        lambda xs: ",".join(map(str, xs)))


_PATH = "PATH"  # replaced by a path in the run's scratch directory
_FLAGS = {
    "gen": {"--depth": _INT, "--branch": _INT, "--order": _INT, "--n": _INT,
            "--p": st.sampled_from(["0", "0.3", "1", "-0.5", "x"]), "--subdivide": _INT},
    "rank": {"--r": _INT, "--m": _INT, "--witness": None},
    "certify": {"--d": _INT, "--m": _INT, "--r": _INT, "--extract": None, "--vertex": _INT},
    "neartwin": {"--k": _INT, "--components": None},
    "halfgraph": {"--t": _INT},
    "bounds": {"--g": _tuple(3), "--h": _tuple(2), "--no-ladder": _tuple(2),
               "--m-prime": _tuple(3)},
    "labd-check": {"--f": _SPEC, "--d": _SPEC, "--r-max": _INT},
    "near-covered": {"--k": _INT, "--m": _INT, "--exact": None},
    "sparsify": {"--k": _INT, "--h": _INT, "--out": _PATH},
    "recover": {},
    "verify-roundtrip": {"--k": _INT, "--h": _INT},
    "sflip-search": {"--s": st.sampled_from(["-1", "0", "1"]), "--k": _INT, "--h": _INT,
                     "--f": _SPEC, "--d": _SPEC},
}
_GLOBAL = {"--seed": _INT, "--cap-nodes": _CAP, "--cap-branch": _CAP, "--output": _PATH}
_JUNK = ("", "p 3 0", "e 0 0", "e 0 99", "e 1", "l", "l R x", "q 1 2", "e a b", "p -1 0")


@st.composite
def _graph_texts(draw):
    """Valid, marked and malformed graph files."""
    n = draw(st.integers(0, 9))
    g = gen_random(n, draw(st.sampled_from([0.2, 0.5, 0.9])), draw(st.integers(0, 99)))
    kind = draw(st.sampled_from(["plain", "plain", "sparsified", "marked", "malformed"]))
    if kind == "sparsified":
        g = build_sparsifier(g, draw(st.integers(0, 3)), draw(st.integers(1, 2))).graph
    elif kind == "marked":
        r_mask, f_mask = draw(st.integers(0, 2**n - 1)), draw(st.integers(0, 2**n - 1))
        g = make_graph(n, g.edges(), {"R": [v for v in range(n) if r_mask >> v & 1],
                                      "F": [v for v in range(n) if f_mask >> v & 1]})
    lines = write_graph(g).splitlines()
    if kind == "malformed":
        i = draw(st.integers(0, len(lines) - 1))
        junk = draw(st.sampled_from(_JUNK))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "duplicate"]))
        if edit == "insert":
            lines.insert(i, junk)
        elif edit == "replace":
            lines[i] = junk
        elif edit == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@st.composite
def _argvs(draw):
    """A subcommand with random flags and now and then a stray token.

    Global flags go before or after the subcommand, its own flags after
    it.  `PATH` values stand for files in a scratch directory.
    """
    cmd = draw(st.sampled_from(sorted(_FLAGS)))

    def flag_words(flags, odds):
        # Each flag is given with probability `odds`.
        words = []
        for flag, values in flags.items():
            if draw(st.integers(1, 20)) <= 20 * odds:
                words.append([flag] if values is None else
                             [flag, values if values == _PATH else draw(values)])
        return words

    before = flag_words(_GLOBAL, 1 / 4)
    split = draw(st.integers(0, len(before)))
    after = before[split:] + flag_words(_FLAGS[cmd], 9 / 10)
    if cmd == "gen":
        after.append([draw(st.sampled_from(["tree", "halfgraph", "random", "x"]))])
    if draw(st.integers(1, 10)) == 1:
        after.append([draw(st.sampled_from(["--bogus", "--k", "7", "-"]))])
    words = before[:split] + [[cmd]] + draw(st.permutations(after))
    return [w for ws in words for w in ws]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_VERDICTS = ("absent", "cert ", "roundtrip FAILED")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=_graph_texts(), argv=_argvs(), input_state=st.sampled_from(["file"] * 7 + ["missing"]))
def test_cli_fuzz_exits_with_a_documented_status(text, argv, input_state):
    """No input ends in a traceback or an undocumented exit status, and
    exit 1 always comes with a certificate, an `absent` line, or a
    `recover aborted` / `roundtrip FAILED` report."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.graph"
        if input_state == "file":
            src.write_text(text)
        paths = iter(str(Path(tmp) / f"out{i}") for i in range(len(argv)))
        argv = ["--input", str(src)] + [next(paths) if w == _PATH else w for w in argv]
        code, out, err = _run_cli(argv)
        assert "Traceback" not in err
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 1:
            written = [p.read_text() for p in Path(tmp).glob("out*") if p.is_file()]
            assert any(s.startswith(_VERDICTS) for s in [out, *written]) or (
                err.startswith("recover aborted: ")), (argv, out, written, err)
        if code != 2:
            # --quiet hides the verdict line but not the exit status.
            assert _run_cli(argv + ["--quiet"])[0] == code, argv


def test_every_subcommand_is_fuzzed_and_digested():
    # A command added to or dropped from the parser must reach the fuzz
    # flags and at least one kind of case in the CLI output digest.
    import cli_corpus

    assert set(_subcommands()) == set(_FLAGS)
    kinds = {name.split("/", 1)[0] for name, _ in cli_corpus.cases(cli_corpus.graphs())}
    assert set(_FLAGS) - kinds == set()


def test_corpus_expect_takes_a_hex_prefix_of_eight_digits(monkeypatch, capsys):
    import cli_corpus

    total = "3fb7ed5e" + "0" * 56
    monkeypatch.setattr(cli_corpus, "run", lambda exclude, show_cases: total)
    assert cli_corpus.main(["--expect", "3fb7ed5e"]) == 0
    assert cli_corpus.main(["--expect", "3FB7ED5E00"]) == 0
    assert cli_corpus.main(["--expect", total]) == 0
    assert cli_corpus.main(["--expect", "3fb7ed5f"]) == 1
    for bad in ("3fb7ed5", "3fb7ed5g", "3fb7 ed5e", total + "0"):
        with pytest.raises(SystemExit) as exit_info:
            cli_corpus.main(["--expect", bad])
        assert exit_info.value.code == 2
