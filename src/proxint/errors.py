"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A constructor or operation received a geometrically/physically invalid argument."""


class ParseError(ValueError):
    """A text input (heightmap, distribution, config) could not be parsed.

    The message names the offending line/cell where known.
    """


class ConfigError(ValueError):
    """A scenario configuration is inconsistent; message carries the field path."""


class NumericError(RuntimeError):
    """A computed result is not a finite float.

    Raised for an interaction, its ratio to the far field, a projected area,
    a predicted prefactor or an exact-convolution coefficient beyond the
    float range.
    """


class FitError(RuntimeError):
    """A least-squares fit was underdetermined or degenerate."""


class UnclassifiableError(RuntimeError):
    """No Taylor coefficient of the distribution at s=0 is significant."""
