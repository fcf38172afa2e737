"""Shared error types for search operations with configured scale caps."""

# Cap, in bits, on the exact bounds m_prime and g_bound: m_prime(12, 2, 2)
# would need about 5 million bits, and g_bound passes the cap by t = 73,728.
BOUND_MAX_BITS = 2**20


class ScaleExceeded(RuntimeError):
    """An exhaustive search ran past its configured desk-scale cap.

    Raised instead of running unbounded; the CLI maps this to exit 3.
    """

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: scale cap exceeded ({detail})")
        self.op = op
        self.detail = detail
