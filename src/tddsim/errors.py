"""Exception types shared across the simulator."""


class StructureError(ValueError):
    """A slot structure or schedule element is internally inconsistent."""


class SimulationError(Exception):
    """Internal engine invariant broken (a bug, not a scenario problem)."""


class ConfigError(Exception):
    """Scenario configuration failed validation.

    Carries the complete list of problems, not just the first one.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
