"""Exception hierarchy.

The CLI maps these onto exit codes: usage/parse problems exit 2, numerical
failures exit 3.
"""

import math
import numbers

# most points any grid (a p-value curve, a scan, an NEF theta grid) may hold
MAX_GRID_POINTS = 10 ** 6


class FabcrError(Exception):
    """Base class for all package errors."""


class DomainError(FabcrError, ValueError):
    """Input outside the stated domain of an operation."""


def _float(value):
    """float(value), an int past the float range becoming an infinity of
    its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# the smallest alpha: from about 1e-308 the tail weights the solves start
# from (alpha * 1e-16 and alpha * 1e-15) underflow to 0, which has no normal
# quantile
ALPHA_MIN = 1e-300


def check_alpha(alpha, closed_top=False):
    """alpha as a float in [ALPHA_MIN, 1), or in [ALPHA_MIN, 1] with
    `closed_top`; any other value raises DomainError."""
    alpha = _float(alpha)
    if not (ALPHA_MIN <= alpha < 1.0 or (closed_top and alpha == 1.0)):
        raise DomainError("alpha must be in [%r, 1%s, got %r"
                          % (ALPHA_MIN, "]" if closed_top else ")", alpha))
    return alpha


def check_direction(direction):
    """direction, one of "+inf" and "-inf"; any other value raises
    DomainError."""
    if direction not in ("+inf", "-inf"):
        raise DomainError("direction must be '+inf' or '-inf', got %r"
                          % (direction,))
    return direction


def check_finite(name, value):
    """value as a float; a nan or an infinity (or an int past the float
    range) raises DomainError."""
    value = _float(value)
    if not math.isfinite(value):
        raise DomainError("%s must be finite, got %r" % (name, value))
    return value


def check_positive(name, value):
    """value as a finite float > 0; any other value raises DomainError."""
    value = _float(value)
    if not 0.0 < value < math.inf:
        raise DomainError("%s must be finite and positive, got %r"
                          % (name, value))
    return value


def check_count(name, value, least=1):
    """value as an int >= least; anything else raises DomainError."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise DomainError("%s must be an integer >= %d, got %r"
                          % (name, least, value))
    return int(value)


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
