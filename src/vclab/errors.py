"""Exception types shared across the package."""


class VCLabError(Exception):
    """Base class for errors raised by this package."""


class UnsampleableError(VCLabError):
    """Requested a uniform sample from a zero-measure region."""


class UndecidedMembershipError(VCLabError):
    """Membership in a fat Cantor set was not decided within the stage budget."""

    def __init__(self, point, budget):
        self.point = point
        self.budget = budget
        super().__init__(f"membership of {point} undecided at stage budget {budget}")


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
