"""Exception types shared across the package."""


class VCLabError(Exception):
    """Base class for errors raised by this package."""


class UnsampleableError(VCLabError):
    """A sampling task has nothing to sample from: its base set is empty."""


class BudgetExceededError(VCLabError):
    """A search ran out of budget; carries the best bound found so far."""

    def __init__(self, message, lower_bound=None, partial=None):
        self.lower_bound = lower_bound
        self.partial = partial
        super().__init__(message)


class HittingSetError(VCLabError):
    """All retries failed to hit every translate; carries diagnostics."""

    def __init__(self, message, missed=None):
        self.missed = missed
        super().__init__(message)
