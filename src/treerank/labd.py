"""Class membership checks: bounded-exception degree and near-coverage.

A parameter function supplies per-radius bounds under a budget contract:
asked for its value at radius r with budget n, it either returns the
value (guaranteed <= n) or reports that the value exceeds n.  Checks
skip radii whose bounds overflow the budget, where the condition holds
trivially.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

from .errors import ScaleExceeded, field, record
from .graph import Graph, within_distance
from .neartwin import neartwin_graph


@record
class ParamFunction:
    """Evaluable per-radius bound with an overflow verdict.

    Built-in kinds: "const" (params=(c,)), "linear" (params=(a, b) for
    a*r + b), "exp2" (2**r), "tower" (tower of twos of height r), and
    "table" (finite lookup; missing radii count as overflow).
    """

    kind: str
    params: tuple[int, ...] = ()
    table: Mapping[int, Optional[int]] = field(default_factory=dict)

    def eval(self, r: int, n: int) -> Optional[int]:
        """Value at radius r if it is <= n, else None ("exceeds n")."""
        if r < 0 or n < 0:
            raise ValueError("need r >= 0 and n >= 0")
        if self.kind == "const":
            v = self.params[0]
        elif self.kind == "linear":
            a, b = self.params
            v = a * r + b
        elif self.kind == "exp2":
            v = 1
            for _ in range(r):
                v *= 2
                if v > n:
                    return None
        elif self.kind == "tower":
            v = 1
            for _ in range(r):
                if v > 64 or 2**v > n:
                    return None
                v = 2**v
        elif self.kind == "table":
            got = self.table.get(r)
            if got is None:
                return None
            v = got
        else:
            raise ValueError(f"unknown parameter function kind {self.kind!r}")
        return v if v <= n else None


def parse_param_function(spec: str) -> ParamFunction:
    """Parse the mini-language: const:5 | linear:a,b | exp2 | tower | table:{...}.

    Numbers are nonnegative integers; table values may also be null, and
    no table radius may appear twice.
    Raises ValueError naming the accepted forms on any malformed spec.
    """
    kind, _, arg = spec.partition(":")
    try:
        if spec in ("exp2", "tower"):
            return ParamFunction(spec)
        if kind in ("const", "linear"):
            params = tuple(int(x) for x in arg.split(","))
            if len(params) == (1 if kind == "const" else 2) and min(params) >= 0:
                return ParamFunction(kind, params)
        if kind == "table":
            # An object parses to its (key, value) pairs, so a radius named
            # twice is seen rather than overwritten.
            pairs = json.loads(arg, object_pairs_hook=tuple)
            if isinstance(pairs, tuple):
                table = {int(k): v for k, v in pairs}
                if len(table) == len(pairs) and all(
                    r >= 0 and (v is None or (type(v) is int and v >= 0)) for r, v in table.items()
                ):
                    return ParamFunction("table", (), table)
    except (ValueError, RecursionError):  # json.loads on deeply nested input
        pass
    shown = spec if len(spec) <= 40 else spec[:40] + "…"
    raise ValueError(
        f"bad parameter function spec {shown!r}: expected const:N, linear:A,B, "
        'exp2, tower or table:{"R": N or null, ...} with integers N, A, B >= 0'
    )


@record
class ClassSpec:
    """Bounded-exception degree class: at most f(r) vertices of degree
    more than d(r) inside every radius-r ball."""

    f: ParamFunction
    d: ParamFunction


def labd_check(
    g: Graph, spec: ClassSpec, r_max: Optional[int] = None
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """Check the bounded-exception degree condition for all r up to n.

    Radii where either bound exceeds n are trivially satisfied and
    skipped.  Passing r_max truncates the scan, which is a strictly
    weaker check (fewer radii inspected); a negative r_max, which would
    inspect none, raises ValueError.  Returns None when g passes, else
    the first failing (r, v) as (r, v, sorted high-degree offenders).

    Balls are grown afresh for each (r, v) until they fill v's connected
    component, which every vertex of the component then shares, so
    memory stays linear in the size of g.
    """
    if r_max is not None and r_max < 0:
        raise ValueError("r_max must be nonnegative")
    n = g.n
    limit = n if r_max is None else min(r_max, n)
    degs = [g.degree(v) for v in range(n)]
    component: list[set[int]] = [set()] * n
    for v in range(n):
        if not component[v]:
            members = within_distance(g, v, n)
            for u in members:
                component[u] = members
    filled = [False] * n
    for r in range(limit + 1):
        f_r = spec.f.eval(r, n)
        d_r = spec.d.eval(r, n)
        if f_r is None or d_r is None:
            continue
        for v in range(n):
            ball = component[v] if filled[v] else within_distance(g, v, r)
            filled[v] = len(ball) == len(component[v])
            offenders = [u for u in ball if degs[u] > d_r]
            if len(offenders) > f_r:
                return r, v, tuple(sorted(offenders))
    return None


def near_covered_check(
    g: Graph,
    k: int,
    m: int,
    exact: bool = True,
    cap_nodes: int = 2_000_000,
) -> Optional[tuple[int, ...]]:
    """Is every set of pairwise non-k-near-twins of size at most m?

    Returns None when it is, else m+1 vertices that are pairwise not
    k-near-twins (an independent set in NT_k).  Exact mode searches for
    such a set, so both answers are exact.  Greedy mode builds one maximal
    set by smallest-id choice, so a set it returns is sound but its None
    is heuristic.  Both modes build NT_k(g) with neartwin_graph, so both
    raise ScaleExceeded when g has more than GRAPH_MAX_PAIRS vertex
    pairs; exact mode raises it too when the search outgrows cap_nodes.
    """
    if k < 0 or m < 0:
        raise ValueError("need k >= 0 and m >= 0")
    nt_adj = neartwin_graph(g, k).adj
    n = g.n
    chosen: list[int] = []
    if not exact:
        for v in range(n):
            if all(u not in nt_adj[v] for u in chosen):
                chosen.append(v)
        return tuple(chosen[: m + 1]) if len(chosen) > m else None
    # Exact: backtrack over vertex ids for m+1 pairwise non-adjacent
    # vertices of NT_k; each pass of the loop is one node of the search,
    # and a node that fails resumes its parent after the parent's choice.
    budget = cap_nodes
    start = 0
    while True:
        budget -= 1
        if budget < 0:
            raise ScaleExceeded("near_covered_check", "node cap")
        if len(chosen) == m + 1:
            return tuple(chosen)
        if len(chosen) + (n - start) < m + 1:
            start = n  # too few ids left: the node fails
        while True:
            v = next((u for u in range(start, n) if nt_adj[u].isdisjoint(chosen)), None)
            if v is not None:
                break
            if not chosen:
                return None
            start = chosen.pop() + 1
        chosen.append(v)
        start = v + 1


def no_ladder_bound(k2: int, m2: int) -> int:
    """Half-graph order excluded by radius-2 near-coverage:
    m2*k2 + m2 + 1."""
    if k2 < 0 or m2 < 0:
        raise ValueError("need k2 >= 0, m2 >= 0")
    return m2 * k2 + m2 + 1
