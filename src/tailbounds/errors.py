"""Exception hierarchy shared by the library and the CLI."""


class TailBoundsError(Exception):
    """Base class for all library errors.

    ``exit_code`` and ``label`` are the CLI's exit status and stderr
    prefix for the error.
    """

    exit_code = 3
    label = "error"


class ValidationError(TailBoundsError, ValueError):
    """Malformed input: weights, rationals, or parameter domains."""


class ShapeViolationError(TailBoundsError, ValueError):
    """A shape precondition (decreasing / unimodal) does not hold."""


class InfeasibleError(TailBoundsError, ValueError):
    """No distribution in the constraint class matches the request."""

    exit_code = 4
    label = "infeasible"


class SoundnessViolationError(TailBoundsError, RuntimeError):
    """An oracle exceeded a proven bound or failed its certificate check; a bug."""

    exit_code = 5
    label = "soundness violation"
