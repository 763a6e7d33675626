"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or input validation failure."""


class NumericalError(RuntimeError):
    """A solver produced non-finite values, breached its boundary guard,
    or failed a convergence gate.

    `row` is the index of the failing row when a batched evolution fails,
    and None otherwise.
    """

    def __init__(self, *args, row=None):
        super().__init__(*args)
        self.row = row
