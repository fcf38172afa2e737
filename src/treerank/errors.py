"""Shared error types for search operations with configured scale caps."""

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
