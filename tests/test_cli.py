import argparse
import sys
import time
from pathlib import Path

import pytest

from treerank import cli
from treerank.graph import gen_random, gen_tree, parse_graph, write_graph
from treerank.neartwin import g_bound
from treerank.ranking import compute_ranking
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


def test_every_subcommand_has_a_handler():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 13
    for name, p in sub.choices.items():
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
    assert code == 0 and out.startswith("S")
    code, out = run(capsys, "--input", str(src), "sflip-search", "--s", "0",
                    "--k", "0", "--h", "1", "--f", "const:0", "--d", "const:0")
    assert code == 1 and out.strip() == "absent"


def test_corpus_deterministic(capsys, tmp_path):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    for d in (d1, d2):
        code, _ = run(capsys, "--seed", "3", "corpus", "--family", "mixed",
                      "--out", str(d), "--count", "5", "--max-n", "8")
        assert code == 0
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2 and "manifest.json" in files1
    for name in files1:
        assert (d1 / name).read_text() == (d2 / name).read_text()


def test_corpus_halfgraph_family(capsys, tmp_path):
    d = tmp_path / "hg"
    code, _ = run(capsys, "corpus", "--family", "halfgraph", "--out", str(d), "--max-t", "6")
    assert code == 0
    assert len(list(d.glob("halfgraph-*.graph"))) == 6


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
    code = cli.main(["--input", str(src), "--cap-nodes", "3",
                     "certify", "--d", "2", "--m", "3", "--r", "2"])
    assert code == 3
