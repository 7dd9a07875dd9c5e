"""Exception types shared across the engine.

CLI exit-code mapping: usage errors exit 1, data/format errors (ShapeError,
FormatError, I/O, out of memory) exit 2, numerical failures (NumericsError,
failed gradient checks) exit 3.
"""


class ShapeError(ValueError):
    """Shapes, extents, or dtypes violate an operation's contract."""


class FormatError(ValueError):
    """A file (PGM, RFT1, checkpoint, manifest, config) is malformed."""


class UnsupportedConfigError(ValueError):
    """Layer hyperparameters outside the supported surface."""


class NumericsError(RuntimeError):
    """Non-finite values appeared, or a numerical check failed."""
