"""Exception types shared across the package."""


class DppError(Exception):
    """Base class for all library errors."""


# --- graph construction / queries ---

class SelfLoop(DppError, ValueError):
    """A pair connects a node to itself."""


class DuplicateEdge(DppError, ValueError):
    """Two pairs cover the same unordered node pair."""


class DimensionMismatch(DppError, ValueError):
    """Feature vectors of inconsistent length."""


class UnknownNode(DppError, KeyError):
    """Node id not present in the graph or the samples."""

    __str__ = Exception.__str__  # the message as given, not KeyError's repr


class SameNode(DppError, ValueError):
    """An operation on a node pair received the same node twice."""


class GraphTooLarge(DppError, ValueError):
    """Graph exceeds the guard for exact privacy-distance computation."""


# --- noise mechanisms ---

class NonPositiveScale(DppError, ValueError):
    """Noise scale must be strictly positive."""


class DeltaZero(DppError, ValueError):
    """Gaussian calibration requires delta > 0."""


class InvalidGamma(DppError, ValueError):
    """Staircase width parameter outside (0, 1]."""


class OutOfRange(DppError, ValueError):
    """Input value outside the mechanism's domain."""


# --- metric learning ---

class DegenerateDistance(DppError, ValueError):
    """Projected distance is zero where the hinge gradient needs to divide by it."""


class EmptyBatch(DppError, ValueError):
    """Sensitivity requested for an empty minibatch."""


class ConfigInvalid(DppError, ValueError):
    """A configuration or option value failed validation."""


# --- evaluation ---

class EmptyTrainSet(DppError, ValueError):
    """kNN classifier has no training points."""


class EmptyTestSet(DppError, ValueError):
    """kNN accuracy requested on no test points."""


class NonFiniteValue(DppError, ValueError):
    """A number that must be finite (a model weight, a kNN distance) is NaN
    or infinite."""


# --- data generation / ingestion ---

class InfeasibleDensity(DppError, ValueError):
    """Requested pair density exceeds what the sample count allows."""


class InfeasibleBalance(DppError, ValueError):
    """Balanced pair sampling cannot reach equal label counts."""


class SingleClass(DppError, ValueError):
    """Class rebalancing needs at least two classes."""


class ParseError(DppError, ValueError):
    """An input file (delimited text, or a model file) failed to parse.

    Carries 1-based ``row`` and ``col`` of the offending cell when known.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class MissingLabelColumn(DppError, ValueError):
    """Sample file lacks the configured label column."""
