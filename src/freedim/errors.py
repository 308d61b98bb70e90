"""Exception taxonomy. Every error raised by this package derives from FreedimError."""


class FreedimError(Exception):
    """Base class for all package errors."""


# -- algebra construction -----------------------------------------------------

class WeightError(FreedimError):
    """Trace weights do not sum to 1, or some weight is not positive."""


class NotSelfAdjoint(FreedimError):
    """A matrix that must be self-adjoint is not."""


class ShapeMismatch(FreedimError):
    """Matrix shapes or block supports are inconsistent with the declared blocks."""


class NotGenerating(FreedimError):
    """The generator tuple does not generate the declared algebra."""


# -- dimension engine ---------------------------------------------------------

class CenterResolutionError(FreedimError):
    """Distinct central blocks could not be separated numerically."""


class NotInvariant(FreedimError):
    """Subspace is not invariant under the commutant bimodule action."""


class IntegralityError(FreedimError):
    """A compressed block dimension is not a multiple of the block size product."""


# -- dual operators -----------------------------------------------------------

class IllDefined(FreedimError):
    """The prescribed derivation does not descend to the algebra."""


class ResidualTooLarge(FreedimError):
    """A constructed operator fails its defining identities beyond tolerance."""


# -- group tools --------------------------------------------------------------

class ChainViolation(FreedimError):
    """A group algebra's block count is not its number of conjugacy classes;
    signals a numerical or action-convention bug."""


class TooLarge(FreedimError):
    """A group order or an algebra dimension D exceeds its configured cap."""


class NotGeneratingSet(FreedimError):
    """The chosen group elements do not generate the group."""


# -- runner -------------------------------------------------------------------

class ConfigError(FreedimError):
    """Malformed or inconsistent run configuration."""


class UnsupportedFormat(ConfigError):
    """Requested report format is not available for this scenario."""
