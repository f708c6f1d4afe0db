"""Exception types shared across the package.

Failures that are expected experiment outcomes (a map that cannot be
built, a walk that collapses, an exhausted search budget) are returned
as values by the operations that produce them; only contract violations
raise.
"""


class CubePercError(Exception):
    """Base class for all package errors."""


class DimensionOutOfRange(CubePercError):
    """Cube dimension outside the supported range."""


class DimensionOverCap(CubePercError):
    """Cube dimension exceeds the configured runtime cap."""


class DimensionTooSmall(CubePercError):
    """Cube dimension too small for the requested coordinate layout."""


class AlphaOutOfRange(CubePercError):
    """Exponent alpha outside the open interval required by the layout."""


class DuplicateCoordinate(CubePercError):
    """A coordinate sequence that must be distinct contains a repeat."""


class NotAdjacent(CubePercError):
    """Two vertices expected to differ in exactly one coordinate do not."""


class InvalidSpec(CubePercError):
    """A path family specification violates its preconditions."""


class BadMagic(CubePercError):
    """Serialized sample does not start with the expected magic bytes."""


class VersionMismatch(CubePercError):
    """Serialized sample has an unsupported format version."""


class LengthMismatch(CubePercError):
    """Serialized sample is truncated or has trailing bytes."""


class SourceAbsent(CubePercError):
    """Search started from a vertex not present in the sample."""


class CapExceeded(CubePercError):
    """Requested exact computation exceeds its configured size cap."""


class TooLarge(CubePercError):
    """Instance too large for exhaustive enumeration."""


class ImagesDisconnected(CubePercError):
    """Consecutive images have no open path between them."""


class GiantTooSmall(CubePercError):
    """Giant component too small for the requested sampling plan."""


class ConfigError(CubePercError):
    """Sweep or CLI configuration is invalid."""


class MissingGolden(CubePercError):
    """Golden directory or an expected golden CSV is absent."""
