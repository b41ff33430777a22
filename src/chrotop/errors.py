"""Exception types shared across the package."""


class ChrotopError(Exception):
    """Base class for all library errors."""


class InvalidVertex(ChrotopError):
    """A vertex description collides with or contradicts another one."""


class NotChromatic(ChrotopError):
    """An operation requiring a chromatic complex got a non-chromatic one."""


class InvalidCarrier(ChrotopError):
    """A carrier map image is not a subcomplex of the codomain."""


class IncompleteMap(ChrotopError):
    """A vertex map is undefined on a vertex that is actually reached."""


class InvalidTermination(ChrotopError):
    """Termination data is not a subcomplex of the current subdivision level."""


class UnsupportedCoarsening(InvalidTermination):
    """A live facet has a terminated face of dimension >= 1; the coarsened
    subdivision of that facet is not representable here."""


class BaseMismatch(ChrotopError):
    """Two geometric objects live over different base complexes."""


class UnknownVertex(ChrotopError):
    """The vertex was never materialized, so it has no coordinates."""


class BadArity(ChrotopError):
    """A task constructor got an unsupported process count, or a task and
    a model disagree on it."""


class Unsupported(ChrotopError):
    """Parameters are outside the supported range of an operation."""


class BadIndices(ChrotopError):
    """Connecting maps need S <= T."""


class NotBoundedBy(ChrotopError):
    """The protocol has not decided on some ball by the requested round."""

    def __init__(self, bound, ball=None):
        super().__init__(f"protocol undecided by round {bound}" + (f" on {ball}" if ball is not None else ""))
        self.bound = bound
        self.ball = ball


class IrrevocabilityViolation(ChrotopError):
    """A decided process changed or dropped its value on a later view."""

    def __init__(self, witness):
        super().__init__(f"irrevocability violated on prefix {witness}")
        self.witness = witness


class InvalidOutput(ChrotopError):
    """A protocol decided a label outside the task's output labels."""


class UndeterminedDistance(ChrotopError):
    """Two truncated sequences agree so far; the distance needs more depth.

    `t_min` is the first index beyond the common certified range, so the
    true distance is at most 2**-t_min.
    """

    def __init__(self, t_min):
        super().__init__(f"distance undetermined, sequences agree up to index {t_min - 1}")
        self.t_min = t_min
