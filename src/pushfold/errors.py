"""Exception types shared across the pipeline, mapped to CLI exit codes;
every numerical failure (exit code 4) derives from ``NumericalError``."""


class ConfigError(Exception):
    """Bad or incomplete experiment configuration (exit code 2)."""


class DegenerateInputError(Exception):
    """Input carries no usable structure, e.g. a constant map or a
    density whose normalization constant is not positive (exit code 3)."""


class NumericalError(Exception):
    """A pipeline stage failed numerically (exit code 4); the base of
    every error below."""


class DivergenceError(NumericalError):
    """The integrator produced a non-finite state.

    Carries ``t``, the integration time at which the state first
    became non-finite.
    """

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"state became non-finite at t={t:g}")


class RangeError(NumericalError, ValueError):
    """Query value outside the valid range of the queried object."""


class BranchError(NumericalError, ValueError):
    """Branch index outside 1..n_branches of the queried partition."""


class TableConstructionError(NumericalError):
    """The critical-value table could not be built consistently."""


class UnfoldError(NumericalError):
    """The unfolded map is not strictly increasing (flat segment in the
    sampled data that survived the merge rules)."""
