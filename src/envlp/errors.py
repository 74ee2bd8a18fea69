"""The one exception type of the package.

Bad input (a signal, a polygon, QP data, or a count out of range or not an
integer) raises a plain ``ValueError``; a count's message reads ``<name> must
be an integer from <low> to <high>, got <value>``.  Only a discretized QP
that does not solve raises :class:`NotConverged`, which carries the last
iterate.
"""


class NotConverged(RuntimeError):
    """A solve ended without a KKT-certified result.

    The message starts with the failing stage (``qp: ...``); the last iterate
    and its residuals are attached as ``solution``.
    """

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution
