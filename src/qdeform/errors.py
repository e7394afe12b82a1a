"""Exception types shared across the package.

The CLI maps these onto exit codes: domain errors exit 2, divergence and
benchmark errors exit 3.  DerivativeInstabilityError comes only from the
finite-difference validation check, which no CLI path runs.
"""


class DomainError(ValueError):
    """Parameter outside the admissible domain (e.g. epsilon <= -1)."""


class DivergenceError(RuntimeError):
    """A state sum fails to converge (non-normalizable configuration)."""


class DerivativeInstabilityError(RuntimeError):
    """Finite-difference stencils at step h and h/2 disagree beyond tolerance."""


class OutOfSupportError(RuntimeError):
    """An observed count has certified probability below the likelihood floor."""


class BenchmarkError(RuntimeError):
    """Too many failed replications for a meaningful benchmark."""
