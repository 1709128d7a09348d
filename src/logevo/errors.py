"""Exception hierarchy shared across the pipeline.

Each error carries a short machine-parseable class name used by the CLI
when mapping failures to exit diagnostics.
"""


class LogevoError(Exception):
    """Base class for all pipeline errors."""

    cli_class = "INTERNAL"


class ConfigError(LogevoError):
    cli_class = "CONFIG"


class ParseError(LogevoError):
    """A log line did not match the configured line format."""

    cli_class = "PARSE"


class EmptyStream(LogevoError):
    """Batching was asked to plan over zero records."""

    cli_class = "PARSE"


class ProviderError(LogevoError):
    """An embedding provider could not be loaded."""

    cli_class = "PROVIDER"


class MissingEmbedding(ProviderError):
    """A precomputed-vector provider has no entry for a record id."""


class AllUndefined(LogevoError):
    """No batch produced a defined silhouette value."""

    cli_class = "METRIC"


class NoSharedClusters(LogevoError):
    """No consecutive batch pair shares a cluster id."""

    cli_class = "METRIC"


class WeightError(LogevoError):
    cli_class = "METRIC"


class DegenerateInput(LogevoError):
    """Too few distinct points to seed the requested mixture size."""

    cli_class = "METRIC"
