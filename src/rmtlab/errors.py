"""Exception hierarchy. Every computational failure maps to one of these."""


class RmtlabError(Exception):
    """Base class for all rmtlab failures."""

    kind = "error"


class InvalidParameterError(RmtlabError, ValueError):
    kind = "invalid-parameter"


class NoConvergenceError(RmtlabError):
    kind = "no-convergence"


class NotOneCutRegularError(RmtlabError):
    kind = "not-one-cut-regular"


class NoSingularPointError(RmtlabError):
    kind = "no-singular-point"


class WrongOrderError(RmtlabError):
    kind = "wrong-order"


class NumericalBreakdownError(RmtlabError):
    kind = "numerical-breakdown"


class OffAxisRequiredError(RmtlabError):
    kind = "off-axis-required"


class PrecisionLimitError(RmtlabError):
    kind = "precision-limit"
