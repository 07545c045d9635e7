"""Exception types shared across the package."""


class TorusRepError(Exception):
    pass


class InvalidQ(TorusRepError):
    """q must be a nonzero rational different from 1 and -1."""


class InvalidParams(TorusRepError):
    pass


class NotGeneric(TorusRepError):
    """Parameter tuple fails the spectral genericity condition.

    Carries the witnessing indices (i, j) and the exponent n with
    a_i = q^n * a_j, n != 0.
    """

    def __init__(self, i: int, j: int, n: int):
        self.i = i
        self.j = j
        self.n = n
        super().__init__(f"a[{i}] = q^{n} * a[{j}] with n != 0")


class NotInSl(TorusRepError):
    """Element is not in the trace-zero subalgebra."""


class NotInSlInfinity(TorusRepError):
    """A diagonal matrix unit where an off-diagonal one is required."""


class IncompatiblePartitions(TorusRepError):
    pass


class PartitionMismatch(TorusRepError):
    """Derived parameter tuple induces the wrong index partition."""
