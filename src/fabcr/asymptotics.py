"""Large-|y| behaviour of the regions for bounded-influence priors.

When the marginal has tails f(y) ~ gamma * |y|^(-delta) * exp(-kappa|y|/sigma)
the region C_alpha(y) - y converges, as y -> +inf, to a fixed interval

    [-sigma * Phi^-1(1 - alpha(1 - c)), sigma * Phi^-1(1 - alpha c)],

where c = g_alpha^-1(-2 kappa) and g_alpha(w) = Phi^-1(alpha w) -
Phi^-1(alpha(1 - w)). The focal point drifts by sigma * kappa:
y - posterior_mean(y) -> sigma * kappa. For kappa = 0 (power-law tails) the
limit is the classical z-interval and the drift vanishes.
"""

from dataclasses import dataclass

from fabcr import _core
from fabcr.errors import (DomainError, NumericalError, UnsupportedModelError,
                          check_alpha, check_finite)
from fabcr.gaussian import _bisect
from fabcr.priors import PriorModel


@dataclass(frozen=True)
class LimitInterval:
    lo_offset: float
    hi_offset: float
    c_alpha: float
    direction: str  # "+inf" or "-inf"

    @property
    def width(self):
        return self.hi_offset - self.lo_offset


def g_alpha(alpha, w):
    """Phi^-1(alpha w) - Phi^-1(alpha (1-w)); strictly increasing in w."""
    alpha = check_alpha(alpha, closed_top=True)
    w = float(w)
    if not (0.0 < w < 1.0):
        raise DomainError("w must be in (0,1), got %r" % (w,))
    return _core.norm_quantile(alpha * w) - _core.norm_quantile(alpha * (1.0 - w))


def g_alpha_inv(alpha, t):
    """Inverse of g_alpha in w, by bisection on [1e-16, 1 - 1e-16]."""
    alpha = check_alpha(alpha, closed_top=True)
    t = check_finite("t", t)
    wa, wb = 1e-16, 1.0 - 1e-16
    if g_alpha(alpha, wa) >= t:
        return wa
    if g_alpha(alpha, wb) <= t:
        return wb
    return _bisect(lambda w: g_alpha(alpha, w) < t, wa, wb, 1e-16)


def c_alpha(alpha, kappa):
    """Limiting spending weight c = g_alpha^-1(-2 kappa) as theta0 -> -inf."""
    return g_alpha_inv(alpha, -2.0 * float(kappa))


def _tail_or_raise(model: PriorModel):
    prof = model.tail_profile()
    if prof is None:
        raise UnsupportedModelError(
            "limit interval undefined for the Gaussian prior: its marginal "
            "tail is Gaussian, not polynomial-exponential")
    return prof


def limit_interval(model: PriorModel, alpha, direction="+inf"):
    """Limit of C_alpha(y) - y as y tends to +inf or -inf."""
    alpha = check_alpha(alpha)
    if direction not in ("+inf", "-inf"):
        raise DomainError("direction must be '+inf' or '-inf', got %r"
                          % (direction,))
    prof = _tail_or_raise(model)
    s = model.sigma
    c = c_alpha(alpha, prof.kappa)
    if not (0.0 < c <= _core.norm_cdf(-prof.kappa)):
        raise UnsupportedModelError(
            "limit weight c=%r outside (0, Phi(-kappa)]" % (c,))
    if 1.0 - alpha * c == 1.0:
        raise NumericalError("limit weight too small to resolve: 1 - alpha "
                             "c rounds to 1", alpha=alpha, c_alpha=c,
                             kappa=prof.kappa, prior=model.spec_string())
    # toward +inf the region reaches further on the shrinkage (lower) side
    lo = -s * _core.norm_quantile(1.0 - alpha * c)
    hi = s * _core.norm_quantile(1.0 - alpha * (1.0 - c))
    if direction == "-inf":
        lo, hi = -hi, -lo
    return LimitInterval(lo_offset=lo, hi_offset=hi, c_alpha=c,
                         direction=direction)


def focal_drift(model: PriorModel, direction="+inf"):
    """Limit of y - posterior_mean(y): sigma * kappa toward +inf (mirrored
    toward -inf)."""
    if direction not in ("+inf", "-inf"):
        raise DomainError("direction must be '+inf' or '-inf', got %r"
                          % (direction,))
    prof = _tail_or_raise(model)
    drift = model.sigma * prof.kappa
    return drift if direction == "+inf" else -drift
