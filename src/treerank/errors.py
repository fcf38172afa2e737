"""What every treerank module shares: the scale caps, ScaleExceeded, and
the `record` decorator of the value types."""

# Cap, in bits, on the exact bounds m_prime and g_bound: m_prime(12, 2, 2)
# would need about 5 million bits, and g_bound passes the cap by t = 73,728.
BOUND_MAX_BITS = 2**20

# Cap on the vertices `treerank gen` writes when --cap-nodes is not given,
# and on the vertices a graph file's header may declare: building and
# writing the 111,111-vertex tree (depth 5, branching 10) takes about
# 0.5 s and 100 MB peak RSS (Python 3.11, 2-vCPU VM), so a graph at the
# cap costs about 5 s and 1 GB.
GRAPH_MAX_VERTICES = 1_000_000

# Cap on the half-graph edges and gen random pairs `treerank gen` builds
# or scans, and on the vertex pairs neartwin_graph scans: 500,500 edges
# took 0.9 s and 180 MB peak RSS, and 8 M pairs 1.1 s, on the same VM,
# so a half-graph at the cap costs about 5 s and 0.9 GB.
GRAPH_MAX_PAIRS = 2_500_000


class ScaleExceeded(RuntimeError):
    """A search or a generated graph ran past its configured desk-scale cap.

    Raised instead of running unbounded; the CLI maps this to exit 3.
    """

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: scale cap exceeded ({detail})")
        self.op = op
        self.detail = detail


class field:
    """A record field's default_factory, called once per instance."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, *, frozen=True):
    """Class decorator making a record of the annotated fields, in place
    of dataclasses.dataclass(frozen=...), which costs every process the
    import of inspect and an exec per class.

    __init__ takes the fields in order, by position or keyword, with
    defaults and field(default_factory=...), then runs __post_init__ if
    the class has one.  repr is Name(field=value, ...), and == holds
    between records of one class with equal field tuples.  A frozen
    record refuses assignment and deletion and, unless the class defines
    __hash__, hashes its field tuple; a mutable one is unhashable.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    for name, default in defaults.items():
        if isinstance(default, field):
            delattr(cls, name)
    post_init = getattr(cls, "__post_init__", None)

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        if len(args) > len(names) or given.keys() & kwargs or kwargs.keys() - names:
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} "
                            f"positional arguments and the keywords {sorted(kwargs)}")
        given.update(kwargs)
        for name in names:
            if name not in given:
                if name not in defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                default = defaults[name]
                given[name] = default.default_factory() if isinstance(default, field) else default
        self.__dict__.update(given)
        if post_init is not None:
            post_init(self)

    def __repr__(self) -> str:
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def refuse(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {cls.__name__}")

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    if not frozen:
        cls.__hash__ = None
    else:
        cls.__setattr__ = cls.__delattr__ = refuse
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = lambda self: hash(values(self))
    return cls
