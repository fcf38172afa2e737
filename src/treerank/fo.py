"""Minimal first-order logic over the graph signature plus unary predicates.

Formulas are a small immutable AST built from this module's
constructors: atoms `Edge(x, y)`, `Pred(name, x)`, `Eq(x, y)` and
`Const(value)`, connectives `Not`, `And` and `Or` (or `conj(...)` and
`disj(...)`), and quantifiers `Exists(v, f)` and `Forall(v, f)`, with
variables and predicate names as strings.  Each formula is compiled once
into nested closures that enumerate quantified variables over all
vertices, except that an existential over a conjunction ranges over its
first guard conjunct (as in the guarded fragment): `Pred(name, v)`
limits v to the predicate's vertices, and `Edge(v, u)` or `Edge(u, v)`
with u another bound variable to u's neighbors.  The bound variables
are known statically, so each guard is chosen at compile time.  Values
outside the guard falsify the conjunction, so restricting the range
never changes a truth value.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Mapping, Union

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
    missing = free_vars(f) - set(assignment)
    if missing:
        raise ValueError(f"unbound free variables: {sorted(missing)}")
    return _compile(f, frozenset(assignment))(g, dict(assignment))


def _compile(f: Formula, bound: frozenset[str]) -> Callable[[Graph, dict[str, int]], bool]:
    """f as a closure over (g, env), where env assigns the variables in
    bound; quantifiers bind their variable in a copy of env."""
    if isinstance(f, Edge):
        x, y = f.x, f.y
        return lambda g, env: env[y] in g.adj[env[x]]
    if isinstance(f, Eq):
        x, y = f.x, f.y
        return lambda g, env: env[x] == env[y]
    if isinstance(f, Pred):
        name, x = f.name, f.x
        return lambda g, env: env[x] in g.predicates.get(name, frozenset())
    if isinstance(f, Const):
        value = f.value
        return lambda g, env: value
    if isinstance(f, Not):
        inner = _compile(f.f, bound)
        return lambda g, env: not inner(g, env)
    if isinstance(f, (And, Or)):
        parts = [_compile(p, bound) for p in f.parts]
        decisive = isinstance(f, Or)  # the part value that decides the result

        def junction(g, env):
            for part in parts:
                if part(g, env) == decisive:
                    return decisive
            return not decisive

        return junction
    if isinstance(f, (Exists, Forall)):
        var, decisive = f.var, isinstance(f, Exists)  # one such instance decides
        inner = _compile(f.f, bound | {var})
        domain = _domain(f, bound)

        def quantifier(g, env):
            env = dict(env)  # the caller's binding of var, if any, stays
            for v in domain(g, env):
                env[var] = v
                if inner(g, env) == decisive:
                    return decisive
            return not decisive

        return quantifier
    raise TypeError(f"not a formula: {f!r}")


def _domain(f: Union[Exists, Forall], bound: frozenset[str]) -> Callable[..., Iterable[int]]:
    """Values f.var ranges over: an existential's first guard, else all."""
    var = f.var
    if isinstance(f, Exists) and isinstance(f.f, And):
        for p in f.f.parts:
            if isinstance(p, Pred) and p.x == var:
                name = p.name
                return lambda g, env: g.predicates.get(name, frozenset())
            if isinstance(p, Edge) and p.x != p.y and var in (p.x, p.y):
                other = p.y if p.x == var else p.x
                if other in bound:
                    return lambda g, env: g.adj[env[other]]
    return lambda g, env: range(g.n)


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
    """Graph defined by interp on g, with dense ids and the old->new map.

    Vertices are those satisfying delta; edges are the distinct pairs
    satisfying psi in either order.  Predicates are restricted to the
    surviving vertices (empty ones are dropped).
    """
    delta = _compile(interp.delta, frozenset({"x"}))
    kept = [v for v in range(g.n) if delta(g, {"x": v})]
    holds = _either_order(g, interp.psi)
    return relabel(g, kept, [(u, v) for u, v in combinations(kept, 2) if holds(u, v)])


def check_range(g: Graph, psi: Formula, b: int) -> bool:
    """True iff no vertex pair of g at distance > b satisfies psi.

    This is an empirical check on one graph: unreachable pairs count as
    distance infinity.  psi is checked in both argument orders.  Each
    vertex's radius-b ball is grown on its own, so memory stays linear.
    """
    if b < 0:
        raise ValueError("range bound must be nonnegative")
    holds = _either_order(g, psi)
    for u in range(g.n):
        near = within_distance(g, [u], b)
        for v in range(u + 1, g.n):
            if v not in near and holds(u, v):
                return False
    return True


def _either_order(g: Graph, psi: Formula) -> Callable[[int, int], bool]:
    """Test of psi(u, v) or psi(v, u) on g, psi compiled once.

    Raises ValueError if psi has a free variable other than x and y.
    """
    unbound = free_vars(psi) - {"x", "y"}
    if unbound:
        raise ValueError(f"psi may only use free variables x, y; unbound: {sorted(unbound)}")
    test = _compile(psi, frozenset({"x", "y"}))
    env: dict[str, int] = {}

    def holds(u: int, v: int) -> bool:
        env["x"], env["y"] = u, v
        if test(g, env):
            return True
        env["x"], env["y"] = v, u
        return test(g, env)

    return holds


def recovery_interpretation() -> Interpretation:
    """The fixed interpretation undoing the sparsifier's marked flips.

    The adjacency of distinct unmarked vertices x, y is complemented iff
    they share a neighbor marked R and F, or they have distinct adjacent
    R-marked neighbors; delta keeps the vertices not marked R.  The edge
    formula has range 3.
    """
    e_xy = Edge("x", "y")
    shared = Exists(
        "w",
        conj(Pred("R", "w"), Pred("F", "w"), Edge("x", "w"), Edge("y", "w")),
    )
    # Pred("R", ...) comes first in each conjunction, so each quantifier
    # ranges over the R-marked vertices only.
    crossed = Exists(
        "w1",
        conj(
            Pred("R", "w1"),
            Edge("x", "w1"),
            Exists(
                "w2",
                conj(
                    Pred("R", "w2"),
                    Not(Eq("w1", "w2")),
                    Edge("w1", "w2"),
                    Edge("y", "w2"),
                ),
            ),
        ),
    )
    complement = disj(shared, crossed)
    psi = disj(conj(e_xy, Not(complement)), conj(Not(e_xy), complement))
    delta = Not(Pred("R", "x"))
    return Interpretation(psi, delta)

