"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``kind`` plus a free-form
message, so the CLI can map failures to exit codes and parseable
``error:`` lines without string matching.
"""


class BuslinkError(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


class IngestError(BuslinkError):
    """Bad or inconsistent input file (missing table, referential, parse, ...)."""


class GeometryError(BuslinkError):
    """Route shape / projection problems (no trips, non-monotone stops)."""


class InferenceError(BuslinkError):
    """Event inference failures; its one kind is ``too_sparse``."""


class FitError(BuslinkError):
    """Model fitting failures (insufficient data, no convergence, singular design)."""


class NumericalError(BuslinkError):
    """Linear-algebra breakdowns after a successful fit (singular FIM)."""


class SimError(BuslinkError):
    """Invalid simulation inputs."""


class ConfigError(BuslinkError):
    """Invalid run or truth configuration (delta_t too large, infeasible truth)."""


class StatError(BuslinkError):
    """Statistical test preconditions violated."""


class MetricError(BuslinkError):
    """Metric input problems (length mismatch, empty split)."""
