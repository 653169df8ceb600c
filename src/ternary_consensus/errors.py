"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or combination)."""


class ProtocolError(RuntimeError):
    """Protocol-order violation: an operation was fed state it must never see."""


class PolicyViolationError(ProtocolError, ConfigError):
    """A fixed degree bound is below a pair degree of the graph: a config
    that cannot run on this graph sequence."""


class DivergenceError(RuntimeError):
    """A node value became non-finite during a run (implementation bug)."""


class InvariantViolationError(RuntimeError):
    """A checked run observed one or more per-round invariant violations."""

    def __init__(self, t: int, violations: list[str]):
        self.t = t
        self.violations = violations
        lines = "\n  ".join(violations)
        super().__init__(f"invariant violations at round {t}:\n  {lines}")
