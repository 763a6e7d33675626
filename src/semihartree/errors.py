"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or input validation failure."""


class NumericalError(RuntimeError):
    """A solver produced non-finite values, breached its boundary guard,
    or failed a convergence gate.

    `row` is the failing row's index, which the stepping engine always sets
    (a caller may map it to its own rows), and None for other failures.
    """

    def __init__(self, *args, row=None):
        super().__init__(*args)
        self.row = row
