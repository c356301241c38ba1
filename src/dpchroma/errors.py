"""Exception types shared across the package, and the default search budget."""

DEFAULT_BUDGET = 10**6  # covers, cycles, bases per girth, decided vertex sets, quad candidates


class GraphParseError(ValueError):
    """Raised for malformed edge-list input; message names the bad line."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration runs over its budget.

    `counter` names what the search counts, `attempted` is how far it got and
    `budget` the limit it ran over (attempted > budget).  The three values are
    the exception's args, so it survives pickling from a worker process.
    """

    def __init__(self, counter: str, attempted: int, budget: int):
        super().__init__(counter, attempted, budget)
        self.counter = counter
        self.attempted = attempted
        self.budget = budget

    def __str__(self) -> str:
        return f"{self.counter}: reached {self.attempted}, over the budget of {self.budget}"
