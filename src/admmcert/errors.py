"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A solver or run configuration the method cannot accept."""


class OracleError(RuntimeError):
    """An objective oracle returned a non-finite or inconsistent value."""


class InnerSolveError(RuntimeError):
    """An inner subproblem solver failed to reach its target accuracy."""


class GeneratorError(ConfigurationError):
    """Requested test-instance parameters cannot yield a well-posed problem."""
