"""Exception types shared across the package."""


class KgExpandError(Exception):
    """Base class for package-specific errors."""


class InvalidLabel(KgExpandError):
    """A concept label is empty after normalization."""


class EmptyGraph(KgExpandError):
    """An operation that needs at least one node got an empty graph."""


class UndefinedMetric(KgExpandError):
    """The metric is mathematically undefined on this input (e.g. zero variance)."""


class NonConvergent(KgExpandError):
    """An iterative solver did not converge within its iteration budget."""


class NoGraphFound(KgExpandError):
    """No balanced brace block was found in the generator reply."""


class MalformedLiteral(KgExpandError):
    """A brace block was found but could not be parsed into an adjacency map."""


class InsufficientData(KgExpandError):
    """Too few observations to fit a distribution."""


class DegenerateSequence(KgExpandError):
    """All observations are identical; no distribution can be fitted."""


class InconclusiveTest(KgExpandError):
    """The likelihood-ratio test has zero variance and cannot decide."""


class TrivialPath(KgExpandError):
    """The largest component is a single node; no nontrivial path exists."""


class GraphMLError(KgExpandError):
    """A GraphML file could not be parsed; message carries line information."""


class GeneratorError(KgExpandError):
    """The text generator failed at the transport level after retries."""


class ConfigError(KgExpandError):
    """A run configuration failed validation."""
