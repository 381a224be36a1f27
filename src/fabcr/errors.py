"""Exception hierarchy.

The CLI maps these onto exit codes: usage/parse problems exit 2, numerical
failures exit 3.
"""


class FabcrError(Exception):
    """Base class for all package errors."""


class DomainError(FabcrError, ValueError):
    """Input outside the stated domain of an operation."""


def check_alpha(alpha, closed_top=False):
    """alpha as a float in (0, 1), or in (0, 1] with `closed_top`; any other
    value raises DomainError."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0 or (closed_top and alpha == 1.0)):
        raise DomainError("alpha must be in (0,%s, got %r"
                          % ("1]" if closed_top else "1)", alpha))
    return alpha


class SpecParseError(FabcrError, ValueError):
    """Malformed prior/family/config spec string."""


class UnsupportedModelError(FabcrError):
    """Operation's hypotheses are not met by the model (e.g. asymptotic
    limits for a Gaussian-tailed prior)."""


class NumericalError(FabcrError):
    """A solve failed to converge or overflowed; carries diagnostics."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics

    def __str__(self):
        base = super().__str__()
        if self.diagnostics:
            detail = ", ".join("%s=%r" % kv for kv in sorted(self.diagnostics.items()))
            return "%s [%s]" % (base, detail)
        return base


class RegionBoundError(NumericalError):
    """Region boundary bracketing exhausted its search range: the region may
    be open-ended."""
