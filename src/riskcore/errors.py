"""The one library error: every refusal raises RiskError, and its message
is the CLI's one-line diagnostic, which ends in exit code 2."""


class RiskError(ValueError):
    """A riskcore refusal; the message says which check failed."""
