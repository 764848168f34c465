"""Exception types the CLI maps onto exit codes.

ConfigError is a bad model, training or run configuration (exit 1);
DataError is bad user-supplied data, such as an unreadable WAV, CSV or
checkpoint (exit 2); InternalError is a violated invariant, i.e. a bug in
this package. Programmatic misuse of the library (wrong shapes, labels
outside the vocabulary, non-finite gradients) raises ValueError.
"""


class ConfigError(Exception):
    """Invalid model, training, or run configuration."""


class DataError(Exception):
    """Bad user-supplied data (files, CSV contents, label vocabularies)."""


class InternalError(Exception):
    """Invariant violated; indicates a bug rather than bad input."""
