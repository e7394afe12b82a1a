"""Exception types shared across the package.

The CLI maps these onto exit codes: domain errors exit 2, divergence and
benchmark errors exit 3.
"""


class DomainError(ValueError):
    """Parameter outside the admissible domain (e.g. epsilon <= -1)."""


class DivergenceError(RuntimeError):
    """A state sum fails to converge (non-normalizable configuration)."""


class OutOfSupportError(RuntimeError):
    """An observed count has certified probability below the likelihood floor."""


class BenchmarkError(RuntimeError):
    """Too many failed replications for a meaningful benchmark."""
