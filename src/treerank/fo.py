"""Minimal first-order logic over the graph signature plus unary predicates.

Formulas are a small immutable AST built from this module's
constructors: atoms `Edge(x, y)`, `Pred(name, x)`, `Eq(x, y)` and
`Const(value)`, connectives `Not`, `And` and `Or` (or `conj(...)` and
`disj(...)`), and quantifiers `Exists(v, f)` and `Forall(v, f)`, with
variables and predicate names as strings.

Evaluation is set at a time: a formula is compiled once, for one
variable y, into closures returning the values of y that satisfy it
(`Edge(x, y)` gives x's row).  `Or` is a union, and `And` intersects
its parts and subtracts its negated ones, so negation is a difference.
`Forall(v, ...)` intersects over all vertices and `Exists(v, ...)`
unites over v's range: for a conjunction, its first guard conjunct,
`Pred(name, v)` or an `Edge` from v to a bound variable u, so v ranges
over the predicate or u's neighbors; else all vertices.  Values outside
the guard falsify the conjunction, so a guard never changes a result.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Union

from .graph import Graph, record, relabel, within_distance


@record
class Edge:
    x: str
    y: str


@record
class Pred:
    name: str
    x: str


@record
class Eq:
    x: str
    y: str


@record
class Const:
    value: bool


@record
class Not:
    f: "Formula"


@record
class And:
    parts: tuple["Formula", ...]


@record
class Or:
    parts: tuple["Formula", ...]


@record
class Exists:
    var: str
    f: "Formula"


@record
class Forall:
    var: str
    f: "Formula"


Formula = Union[Edge, Pred, Eq, Const, Not, And, Or, Exists, Forall]

def conj(*parts: Formula) -> Formula:
    return And(tuple(parts))


def disj(*parts: Formula) -> Formula:
    return Or(tuple(parts))


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Edge, Eq)):
        return frozenset((f.x, f.y))
    if isinstance(f, Pred):
        return frozenset((f.x,))
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.f)
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.f) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def evaluate(g: Graph, f: Formula, assignment: Mapping[str, int]) -> bool:
    """Tarskian truth of f in g under the given variable assignment.

    Raises ValueError if a free variable of f is unassigned.  Predicate
    names absent from g are treated as empty sets.
    """
    free = free_vars(f)
    missing = free - set(assignment)
    if missing:
        raise ValueError(f"unbound free variables: {sorted(missing)}")
    y = min(free, default=None)  # None: f is closed, and solved for no variable
    values = _compile(f, frozenset(assignment) - {y}, y)(g, dict(assignment))
    return values is None or (y is not None and assignment[y] in values)


# A compiled formula's values of y, None standing for every vertex.  A
# formula without y free gives None when true and an empty set when false.
Values = Optional[AbstractSet[int]]
_EMPTY: frozenset[int] = frozenset()


def _compile(f: Formula, bound: frozenset[str], y: Optional[str]) -> Callable[[Graph, dict[str, int]], Values]:
    """f as a closure over (g, env), where env assigns the variables in
    bound (never y), returning the values of y that satisfy f.

    Quantifiers bind their variable in a copy of env.  A returned set
    may be one of g's rows, so no caller mutates it.
    """
    if isinstance(f, (Edge, Eq)):
        a, b, eq = f.x, f.y, isinstance(f, Eq)
        if a == b:
            return _compile(Const(eq), bound, y)
        if y in (a, b):
            other = a if b == y else b
            return (lambda g, env: {env[other]}) if eq else (lambda g, env: g.adj[env[other]])
        if eq:
            return lambda g, env: None if env[a] == env[b] else _EMPTY
        return lambda g, env: None if env[b] in g.adj[env[a]] else _EMPTY
    if isinstance(f, Pred):
        name, a = f.name, f.x
        if a == y:
            return lambda g, env: g.predicates.get(name, _EMPTY)
        return lambda g, env: None if env[a] in g.predicates.get(name, _EMPTY) else _EMPTY
    if isinstance(f, Const):
        value = None if f.value else _EMPTY
        return lambda g, env: value
    if isinstance(f, Not):
        inner = _compile(f.f, bound, y)
        return lambda g, env: _complement(g, inner(g, env))
    if isinstance(f, Or):
        parts = [_compile(p, bound, y) for p in f.parts]

        def union(g, env):
            out: AbstractSet[int] = _EMPTY
            for part in parts:
                values = part(g, env)
                if values is None:
                    return None
                if values:
                    out = out | values if out else values
            return out

        return union
    if isinstance(f, And):
        # Negated parts come last, so the complement of all vertices is
        # built only when no positive part restricts y.
        positive = [_compile(p, bound, y) for p in f.parts if not isinstance(p, Not)]
        negated = [_compile(p.f, bound, y) for p in f.parts if isinstance(p, Not)]

        def intersection(g, env):
            out: Values = None
            for part in positive:
                values = part(g, env)
                if values is not None:
                    out = values if out is None else out & values
                    if not out:
                        return out
            for part in negated:
                values = part(g, env)
                if values is None:
                    return _EMPTY
                if values:
                    out = (set(range(g.n)) if out is None else out) - values
                    if not out:
                        return out
            return out

        return intersection
    if not isinstance(f, (Exists, Forall)):
        raise TypeError(f"not a formula: {f!r}")
    var = f.var
    if var == y:  # the quantifier hides y, so its body is solved for no variable
        return _compile(f, bound, None)
    domain, body = _guard(f, bound)
    inner = _compile(body, bound | {var}, y)
    forall = isinstance(f, Forall)

    def quantifier(g, env):
        env = dict(env)  # the caller's binding of var, if any, stays
        out: Values = None if forall else _EMPTY
        for v in domain(g, env):
            env[var] = v
            values = inner(g, env)
            if forall:  # an intersection, which an empty set ends
                if values is not None:
                    out = values if out is None else out & values
                    if not out:
                        return out
            elif values is None:  # a union, which every vertex ends
                return None
            elif values:
                out = out | values if out else values
        return out

    return quantifier


def _complement(g: Graph, values: Values) -> Values:
    """The vertices not in values; None and the empty set swap, so a
    formula without y still gives one of the two."""
    if values is None:
        return _EMPTY
    return set(range(g.n)) - values if values else None


def _guard(f: Union[Exists, Forall], bound: frozenset[str]) -> tuple[Callable[..., Iterable[int]], Formula]:
    """The values f.var ranges over, and the rest of f's body: for an
    existential over a conjunction, the first guard, which then holds
    and is dropped; else all vertices and the whole body."""
    var = f.var
    if isinstance(f, Exists) and isinstance(f.f, And):
        parts = f.f.parts
        for i, p in enumerate(parts):
            rest = And(parts[:i] + parts[i + 1 :])
            if isinstance(p, Pred) and p.x == var:
                name = p.name
                return (lambda g, env: g.predicates.get(name, _EMPTY)), rest
            if isinstance(p, Edge) and p.x != p.y and var in (p.x, p.y):
                other = p.y if p.x == var else p.x
                if other in bound:
                    return (lambda g, env: g.adj[env[other]]), rest
    return (lambda g, env: range(g.n)), f.f


@record
class Interpretation:
    """A pair (psi(x, y), delta(x)) defining a graph transformation.

    psi is symmetrized at evaluation time: an edge is produced iff
    psi(u, v) or psi(v, u) holds with u != v, so the output is always a
    valid simple graph even for syntactically asymmetric psi.
    """

    psi: Formula
    delta: Formula

    def __post_init__(self):
        if not free_vars(self.psi) <= {"x", "y"}:
            raise ValueError("psi may only use free variables x, y")
        if not free_vars(self.delta) <= {"x"}:
            raise ValueError("delta may only use free variable x")


def apply_interpretation(g: Graph, interp: Interpretation) -> tuple[Graph, dict[int, int]]:
    """Graph defined by interp on g, relabeled onto the vertices that
    satisfy delta, and the old->new map.

    Each kept u's row gets the kept v != u in psi's values of y at
    x = u, and each such v's row gets u, so both orders of psi count.
    """
    kept = _compile(interp.delta, frozenset(), "x")(g, {})
    keep = frozenset(range(g.n)) if kept is None else kept
    partners = _compile(interp.psi, frozenset({"x"}), "y")
    rows: list[set[int]] = [set() for _ in range(g.n)]
    for u in keep:
        ys = partners(g, {"x": u})
        ys = (keep if ys is None else ys & keep) - {u}
        rows[u] |= ys
        for v in ys:
            rows[v].add(u)
    return relabel(g, keep, rows)


def check_range(g: Graph, psi: Formula, b: int) -> bool:
    """True iff no vertex pair of g at distance > b satisfies psi.

    This is an empirical check on one graph: unreachable pairs count as
    distance infinity.  psi is checked in both argument orders: for
    each u, psi's values of y at x = u must lie in u's radius-b ball.
    Each ball is grown on its own, so memory stays linear.  Raises
    ValueError if psi has a free variable other than x and y.
    """
    if b < 0:
        raise ValueError("range bound must be nonnegative")
    unbound = free_vars(psi) - {"x", "y"}
    if unbound:
        raise ValueError(f"psi may only use free variables x, y; unbound: {sorted(unbound)}")
    partners = _compile(psi, frozenset({"x"}), "y")
    for u in range(g.n):
        ys = partners(g, {"x": u})
        if ys is None:
            ys = range(g.n)
        if ys and not within_distance(g, [u], b).issuperset(ys):
            return False
    return True


def recovery_interpretation() -> Interpretation:
    """The fixed interpretation undoing the sparsifier's marked flips.

    The adjacency of distinct unmarked vertices x, y is complemented iff
    they share a neighbor marked R and F, or they have distinct adjacent
    R-marked neighbors; delta keeps the vertices not marked R.  The edge
    formula has range 3.
    """
    e_xy = Edge("x", "y")
    # Pred("R", ...) comes first in each conjunction, so each quantifier
    # ranges over the R-marked vertices only.
    shared = Exists("w", conj(Pred("R", "w"), Pred("F", "w"), Edge("x", "w"), Edge("y", "w")))
    crossed = Exists("w1", conj(Pred("R", "w1"), Edge("x", "w1"), Exists("w2", conj(
        Pred("R", "w2"), Not(Eq("w1", "w2")), Edge("w1", "w2"), Edge("y", "w2")))))
    complement = disj(shared, crossed)
    psi = disj(conj(e_xy, Not(complement)), conj(Not(e_xy), complement))
    delta = Not(Pred("R", "x"))
    return Interpretation(psi, delta)

