"""The package's public names and the modules each entry point loads.

`import treerank` loads its submodules on first use, and each CLI command
imports only the library modules it calls, so a process compiles no more
of the library than its command reaches.  No search's answer depends on
the interpreter's recursion limit, a setting of the whole process.  Every
check and search returns the certificate it found, or None.  Each public
name and each class member is used by the library, or listed with the
reason it stays.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import treerank
from treerank.generators import gen_halfgraph, gen_tree
from treerank.graph import make_graph, within_distance, write_graph
from treerank.halfgraph import find_halfgraph, validate_halfgraph
from treerank.labd import ClassSpec, ParamFunction, labd_check, near_covered_check
from treerank.neartwin import neartwin_graph, symdiff
from treerank.ranking import separator_search
from treerank.shallow import contains_shallow_tree, validate_embedding
from treerank.sparsify import recover, s_flip, sflip_driver

from helpers import complete_graph, cycle, padded_halfgraph, path_graph, star

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names, by the submodule each is looked up in; `__init__`
# loads that submodule when one of its names is first used.
PUBLIC = {
    "errors": ["ScaleExceeded"],
    "fo": ["Interpretation", "apply_interpretation", "check_range", "evaluate",
           "recovery_interpretation"],
    "generators": ["gen_halfgraph", "gen_random", "gen_tree", "subdivide"],
    "graph": ["Graph", "ParseError", "flip", "make_graph", "parse_graph", "write_graph"],
    "halfgraph": ["HalfgraphWitness", "extract_halfgraph", "find_halfgraph", "g_bound",
                  "h_bound", "validate_halfgraph"],
    "labd": ["ClassSpec", "ParamFunction", "labd_check", "near_covered_check",
             "no_ladder_bound", "parse_param_function"],
    "neartwin": ["neartwin_graph", "neartwin_view", "symdiff"],
    "ranking": ["RankAssignment", "compute_ranking", "rank_order", "separator_search"],
    "shallow": ["Embedding", "contains_shallow_tree", "extract_shallow_tree", "m_prime",
                "validate_embedding", "w_count"],
    "sparsify": ["SparsifiedGraph", "build_sparsifier", "classify_heavy",
                 "component_partition", "recover", "recover_graph", "s_flip", "s_flip_classes",
                 "sflip_driver"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

# Prints the sorted modules a snippet leaves loaded, as JSON.
_REPORT = "print(json.dumps(sorted(sys.modules)))"

# Standard modules no treerank process needs; dataclasses and the inspect
# it imports cost every process over 10 ms.
_UNWANTED = {"dataclasses", "inspect"}


def loaded_after(code: str) -> list[str]:
    """The treerank modules a snippet leaves loaded; it must load none of
    the unwanted standard modules."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{_REPORT}"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    modules = json.loads(out.splitlines()[-1])
    assert _UNWANTED.isdisjoint(modules)
    return [m for m in modules if m.split(".")[0] == "treerank"]


def test_all_lists_the_eager_exports():
    assert len(NAMES) == 50
    assert sorted(treerank.__all__) == NAMES


# Public functions and classes no library module uses, each kept for the
# reason given.
UNREACHED = {
    "apply_interpretation": "computes I(H); the benchmark's interpret child and criterion 9 call it",
    "check_range": "the range-3 check of recovery_interpretation's edge formula",
    "evaluate": "truth of one formula under an assignment, the FO layer's entry point",
    "extract_halfgraph_for_pair": "the near-twin closeness step for one vertex pair: a pair "
                                  "too far apart yields a half-graph witness",
    "flip": "the paper's two-set flip, checked in its arguments; tests build inputs with it",
    "neartwin_view": "perfbench/spans.py rebinds it in traced runs",
    "rank_order": "the vertex order a finite ranking defines",
    "recovery_interpretation": "the fixed interpretation I with G = I(H) that the abstract claims",
    "separator_search": "the checked form of the separator question; perfbench/spans.py rebinds it",
    "validate_embedding": "checks the embedding `certify` prints, apart from the search",
    "validate_halfgraph": "checks the witness `halfgraph` prints, apart from the search",
}


def _used_names(node: ast.AST):
    """Identifiers node refers to: names, attributes, imported names, and
    identifier strings (`cli` looks up the bound functions by name)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield n.value


def test_every_public_name_is_used_by_the_library_or_listed():
    # Every top-level function and class without a leading underscore,
    # exported or not.  A use inside a name's own definition (recursion)
    # does not count, and neither does the export table in __init__.
    defined, used = set(), set()
    for path in (SRC / "treerank").glob("*.py"):
        if path.stem != "__init__":
            for top in ast.parse(path.read_text()).body:
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                    defined.add(top.name)
                used.update(x for x in _used_names(top) if x != getattr(top, "name", None))
    assert set(NAMES) <= defined
    assert sorted(defined - used) == sorted(UNREACHED)


# Class members no library code reads, each kept for the reason given.
UNREAD_MEMBERS = {
    "NearTwinView.nt_graph": "neartwin_view returns it, perfbench/spans.py rebinds that "
                             "function, and ROADMAP direction 3 (c) deletes both",
}


def _attribute_reads(node: ast.AST) -> Counter:
    """Attribute names node reads, counted: loads, and the targets of
    augmented assignments, which read before they store."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads[n.attr] += 1
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute):
            reads[n.target.attr] += 1
    return reads


def test_every_class_member_is_read_by_the_library_or_listed():
    # Each annotated field and public method of a top-level class must be
    # read as an attribute, matched by name, outside its own definition;
    # a read by another method of its class counts.
    modules = [ast.parse(p.read_text()) for p in (SRC / "treerank").glob("*.py")]
    reads = sum(map(_attribute_reads, modules), Counter())
    unread = []
    for cls in (top for module in modules for top in module.body if isinstance(top, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                name = node.name
            else:
                continue
            if reads[name] == _attribute_reads(node)[name]:
                unread.append(f"{cls.name}.{name}")
    assert sorted(unread) == sorted(UNREAD_MEMBERS)


def test_each_name_is_the_submodule_object():
    wrong = [
        (module, name) for module, names in PUBLIC.items() for name in names
        if getattr(treerank, name) is not getattr(importlib.import_module(f"treerank.{module}"), name)
    ]
    assert wrong == []


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from treerank import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(NAMES)
    assert set(NAMES) <= set(dir(treerank))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        treerank.no_such_name
    assert not hasattr(treerank, "no_such_name")


_BASE = ["treerank", "treerank.errors", "treerank.graph"]


@pytest.mark.parametrize("argv, extra", [
    (["rank", "--r", "1", "--m", "1"], ["treerank.ranking"]),
    (["certify", "--d", "1", "--m", "2", "--r", "1"], ["treerank.generators", "treerank.shallow"]),
    (["certify", "--d", "1", "--m", "2", "--r", "1", "--extract", "--vertex", "0"],
     ["treerank.generators", "treerank.ranking", "treerank.shallow"]),
    (["sparsify", "--k", "1", "--h", "1"], ["treerank.neartwin", "treerank.sparsify"]),
    (["recover"], ["treerank.neartwin", "treerank.sparsify"]),
    (["neartwin", "--k", "1"], ["treerank.neartwin"]),
    (["halfgraph", "--t", "1"], ["treerank.halfgraph", "treerank.neartwin"]),
    (["bounds", "--g", "1,1,2"], ["treerank.halfgraph", "treerank.neartwin"]),
    (["gen", "tree", "--depth", "1", "--branch", "2"], ["treerank.generators"]),
])
def test_cli_command_loads_only_what_it_calls(tmp_path, argv, extra):
    # The command runs as `python -m treerank.cli` does (as __main__, so
    # treerank.cli itself is not listed) and must exit 0.
    src = tmp_path / "tiny.graph"
    src.write_text(write_graph(gen_tree(2, 2)))
    args = ["--input", str(src), "--quiet", *argv]
    code = (
        "import runpy\n"
        f"sys.argv = ['treerank', *{args!r}]\n"
        "try:\n"
        "    runpy.run_module('treerank.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code"
    )
    assert loaded_after(code) == sorted(_BASE + extra)


@pytest.mark.parametrize("code, expected", [
    ("import treerank", ["treerank", "treerank.errors"]),
    ("import treerank.fo", ["treerank", "treerank.errors", "treerank.fo", "treerank.graph"]),
    ("import treerank\ntreerank.parse_graph('p 1 0')", ["treerank", "treerank.errors", "treerank.graph"]),
])
def test_import_loads_only_what_it_names(code, expected):
    assert loaded_after(code) == expected


def deep_searches() -> dict:
    """Run four exact searches, each more than 100 levels deep, check
    their answers and return them as JSON values."""
    # Vertex 0 reaches 151..155 through 150 middles; the first separator
    # in branch order deletes every middle, one search level each.
    fan = make_graph(156, [(0, v) for v in range(1, 151)]
                     + [(v, w) for v in range(1, 151) for w in range(151, 156)])
    sep = separator_search(fan, 0, range(151, 156), 2, 150)
    assert sep == frozenset(range(1, 151))
    g = star(199)
    emb = contains_shallow_tree(g, 1, 150, 0)
    validate_embedding(g, emb, 1, 150, 0)
    g = path_graph(200)
    cert = near_covered_check(g, 0, 150)
    nt = neartwin_graph(g, 0)
    assert cert is not None and all(nt.adj[v].isdisjoint(cert) for v in cert)
    g = padded_halfgraph(60)
    wit = find_halfgraph(g, 60)
    validate_halfgraph(g, wit)
    return json.loads(json.dumps({
        "separator": sorted(sep),
        "shallow": [sorted(emb.principal.items()), sorted(emb.paths.items())],
        "near_covered": cert,
        "halfgraph": [wit.u, wit.w],
    }))


def test_searches_do_not_depend_on_the_recursion_limit():
    # The child lowers the limit to 100 after its imports; each search
    # must still give the answer it gives here under the default limit.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}
    code = ("import json, sys\nfrom test_package import deep_searches\n"
            "sys.setrecursionlimit(100)\nprint(json.dumps(deep_searches()))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == deep_searches()


# At most 0 vertices of degree above 2 in any ball.
_SPEC = ClassSpec(ParamFunction("const", (0,)), ParamFunction("const", (2,)))


def _check_offenders(g, cert):
    r, v, offenders = cert
    ball = within_distance(g, v, r)
    assert offenders and offenders == tuple(sorted(u for u in ball if g.degree(u) > 2))


def _check_non_twins(g, cert):
    assert len(cert) == 4
    assert all(symdiff(g, u, v) > 1 for i, u in enumerate(cert) for v in cert[i + 1:])


def _check_separator(g, cert):
    assert len(cert) <= 1 and 0 not in cert
    assert within_distance(g, 0, 2, cert).isdisjoint({1, 2})


def _check_sflip(g, res):
    assert labd_check(res.sparsified.graph, _SPEC) is None
    assert recover(res.sparsified) == s_flip(g, res.s, res.flip_spec)


# (check, graph it answers None on, graph it certifies, certificate validator)
CONVENTION = {
    "labd_check": (lambda g: labd_check(g, _SPEC), cycle(10), star(6), _check_offenders),
    "near_covered_exact": (lambda g: near_covered_check(g, 1, 3), make_graph(5),
                           complete_graph(4), _check_non_twins),
    "near_covered_greedy": (lambda g: near_covered_check(g, 1, 3, exact=False), make_graph(5),
                            complete_graph(4), _check_non_twins),
    "contains_shallow_tree": (lambda g: contains_shallow_tree(g, 1, 3, 0), path_graph(4), star(3),
                              lambda g, emb: validate_embedding(g, emb, 1, 3, 0)),
    "find_halfgraph": (lambda g: find_halfgraph(g, 3), path_graph(6), gen_halfgraph(3),
                       validate_halfgraph),
    "separator_search": (lambda g: separator_search(g, 0, {1, 2}, 2, 1), cycle(4), path_graph(3),
                         _check_separator),
    "sflip_driver": (lambda g: sflip_driver(g, 0, 0, 1, _SPEC), star(6), cycle(10), _check_sflip),
}


@pytest.mark.parametrize("name", sorted(CONVENTION))
def test_every_check_returns_its_certificate_or_none(name):
    check, absent, present, validate = CONVENTION[name]
    assert check(absent) is None
    validate(present, check(present))
