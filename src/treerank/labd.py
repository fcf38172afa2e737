"""Class membership checks: bounded-exception degree and near-coverage.

A parameter function supplies per-radius bounds under a budget contract:
asked for its value at radius r with budget n, it either returns the
value (guaranteed <= n) or reports that the value exceeds n.  Checks
skip radii whose bounds overflow the budget, where the condition holds
trivially.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ScaleExceeded
from .graph import Graph, within_distance
from .neartwin import neartwin_graph


@dataclass(frozen=True)
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


def const_fn(c: int) -> ParamFunction:
    return ParamFunction("const", (c,))


def linear_fn(a: int, b: int) -> ParamFunction:
    return ParamFunction("linear", (a, b))


def table_fn(values: Mapping[int, Optional[int]]) -> ParamFunction:
    return ParamFunction("table", (), dict(values))


def parse_param_function(spec: str) -> ParamFunction:
    """Parse the mini-language: const:5 | linear:a,b | exp2 | tower | table:{...}.

    Numbers are nonnegative integers; table values may also be null.
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
            raw = json.loads(arg)
            if isinstance(raw, dict) and all(
                v is None or (type(v) is int and v >= 0) for v in raw.values()
            ):
                return table_fn({int(k): v for k, v in raw.items()})
    except ValueError:
        pass
    raise ValueError(
        f"bad parameter function spec {spec!r}: expected const:N, linear:A,B, "
        'exp2, tower or table:{"R": N or null, ...} with integers N, A, B >= 0'
    )


@dataclass(frozen=True)
class ClassSpec:
    """Bounded-exception degree class: at most f(r) vertices of degree
    more than d(r) inside every radius-r ball."""

    f: ParamFunction
    d: ParamFunction


@dataclass(frozen=True)
class LabdResult:
    ok: bool
    certificate: Optional[tuple[int, int, tuple[int, ...]]] = None  # (r, v, offenders)


def labd_check(g: Graph, spec: ClassSpec, r_max: Optional[int] = None) -> LabdResult:
    """Check the bounded-exception degree condition for all r up to n.

    Radii where either bound exceeds n are trivially satisfied and
    skipped.  Passing r_max truncates the scan, which is a strictly
    weaker check (fewer radii inspected); a negative r_max, which would
    inspect none, raises ValueError.  On failure, returns the first
    (r, v) with the offending high-degree set.

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
            members = within_distance(g, [v], n)
            for u in members:
                component[u] = members
    filled = [False] * n
    for r in range(limit + 1):
        f_r = spec.f.eval(r, n)
        d_r = spec.d.eval(r, n)
        if f_r is None or d_r is None:
            continue
        for v in range(n):
            ball = component[v] if filled[v] else within_distance(g, [v], r)
            filled[v] = len(ball) == len(component[v])
            offenders = [u for u in ball if degs[u] > d_r]
            if len(offenders) > f_r:
                return LabdResult(False, (r, v, tuple(sorted(offenders))))
    return LabdResult(True)


@dataclass(frozen=True)
class NearCoveredResult:
    ok: bool
    exact: bool
    # On a False verdict: m+1 vertices that are pairwise not k-near-twins.
    certificate: Optional[tuple[int, ...]] = None


def near_covered_check(
    g: Graph,
    k: int,
    m: int,
    exact: bool = True,
    cap_nodes: int = 2_000_000,
) -> NearCoveredResult:
    """Is every set of pairwise non-k-near-twins of size at most m?

    Exact mode searches for m+1 vertices that are pairwise not
    k-near-twins (an independent set in NT_k); verdicts are exact but the
    search is capped.  Greedy mode builds one maximal set by smallest-id
    choice: its False verdicts are sound, its True verdicts heuristic
    (flagged by exact=False in the result).
    """
    if k < 0 or m < 0:
        raise ValueError("need k >= 0 and m >= 0")
    nt_adj = neartwin_graph(g, k).adj
    if not exact:
        chosen: list[int] = []
        for v in range(g.n):
            if all(u not in nt_adj[v] for u in chosen):
                chosen.append(v)
        if len(chosen) > m:
            return NearCoveredResult(False, False, tuple(chosen[: m + 1]))
        return NearCoveredResult(True, False)
    found = _independent_set_of_size(nt_adj, m + 1, cap_nodes)
    if found is not None:
        return NearCoveredResult(False, True, tuple(sorted(found)))
    return NearCoveredResult(True, True)


def _independent_set_of_size(
    nt_adj: list[frozenset[int]],
    target: int,
    cap_nodes: int,
) -> Optional[list[int]]:
    """Find `target` pairwise non-adjacent vertices, or prove none exist."""
    n = len(nt_adj)
    budget = [cap_nodes]
    chosen: list[int] = []

    def grow(start: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise ScaleExceeded("near_covered_check", "node cap")
        if len(chosen) == target:
            return True
        if len(chosen) + (n - start) < target:
            return False
        for v in range(start, n):
            if any(v in nt_adj[u] for u in chosen):
                continue
            chosen.append(v)
            if grow(v + 1):
                return True
            chosen.pop()
        return False

    if grow(0):
        return list(chosen)
    return None


def no_ladder_bound(k2: int, m2: int) -> int:
    """Half-graph order excluded by radius-2 near-coverage:
    m2*k2 + m2 + 1."""
    return m2 * k2 + m2 + 1
