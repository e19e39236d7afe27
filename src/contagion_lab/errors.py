"""Exception hierarchy and process exit codes.

Every library error derives from ContagionLabError so the CLI can map
failures onto the documented exit codes: 0 success, 2 usage, 3 I/O,
4 numeric/model.
"""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MODEL = 4


class ContagionLabError(Exception):
    """Base class for all library errors (exit code 4 unless overridden)."""

    exit_code = EXIT_MODEL


class ConfigError(ContagionLabError, ValueError):
    """A config file or flag value is malformed or out of range."""

    exit_code = EXIT_USAGE


# --- panel ingestion ---------------------------------------------------------

class MalformedRow(ContagionLabError):
    """A data row could not be parsed (bad numeric, missing or invalid assets),
    or an exposure CSV is empty, repeats a bank id or has rows out of header order."""


class DuplicateKey(ContagionLabError):
    """The same (bank_id, year) pair appears more than once."""


class MissingColumn(ContagionLabError):
    """A required column is absent from the input header."""


class EmptyResult(ContagionLabError):
    """An operation produced an empty panel (e.g. no bank spans all years)."""


class YearAbsent(ContagionLabError):
    """The requested base year is not present in the panel."""


# --- exposure reconstruction -------------------------------------------------

class InvalidRatio(ContagionLabError):
    """A ratio rule produced a value outside (0, 1)."""


class ZeroTotal(ContagionLabError):
    """Aggregate interbank positions sum to zero; nothing to distribute."""


class InfeasibleMarginals(ContagionLabError):
    """No zero-diagonal matrix can satisfy the requested marginals."""


# --- spectral analysis -------------------------------------------------------

class SingletonGraph(ContagionLabError):
    """Largest connected component has fewer than 2 nodes."""


class TooSmall(ContagionLabError):
    """Component too small for the requested topology metrics."""


# --- diffusion dynamics ------------------------------------------------------

class NonPositiveLambda2(ContagionLabError):
    """Algebraic connectivity must be strictly positive."""


class InvalidEpsilon(ContagionLabError):
    """Decay threshold must lie strictly between 0 and 1."""


class DimensionMismatch(ContagionLabError):
    """State vector length does not match the network size."""


class Disconnected(ContagionLabError):
    """Operation requires a connected network."""


# --- statistical inference ---------------------------------------------------

class TooFewPoints(ContagionLabError):
    """Not enough (distinct) observations above x_min to fit tails."""


class NonPositiveSample(ContagionLabError):
    """Distribution fitting requires strictly positive observations."""


class InsufficientData(ContagionLabError):
    """Too few observations for the requested test."""


class CollinearDesign(ContagionLabError):
    """Regression design is rank deficient after fixed-effect absorption."""


class TooFewClusters(ContagionLabError):
    """Cluster-robust inference needs at least 2 clusters."""


class ZeroVariance(ContagionLabError):
    """Correlation undefined: a series has zero variance."""
