"""Prior catalog for the Gaussian-mean problem.

Each model is a normal likelihood y ~ N(theta, sigma^2) paired with a prior
on theta located at ``loc`` (default 0). The model exposes the log-marginal
likelihood l(y) = log f(y), its derivative, the posterior mean (the focal
point of the confidence regions), and the tail classification
f(y) ~ gamma * |y|^(-delta) * exp(-kappa |y| / sigma) that governs the
large-|y| behaviour of the regions.

Catalog:

==============  ======================================  ==================
kind            prior on theta                          tail (kappa, delta)
==============  ======================================  ==================
flat            improper Lebesgue                       (0, 0)
flat+atom       improper flat + point mass at loc       (0, 0)
gaussian        N(loc, tau^2), tau free                 gaussian (excluded)
bp              normal scale mixture, BetaPrime(a, b)   (0, 2a+1)
horseshoe       bp with a = b = 1/2                     (0, 2)
gpd             bp with a = 1/2, b = 1                  (0, 2)
bessel          bp with a = 1, b = 1/2                  (0, 3)
laplace         double exponential, rate kappa/sigma    (kappa, 0)
==============  ======================================  ==================

The prior scale of every kind except ``gaussian`` (free tau) and
``flat+atom`` is tied to sigma, giving the model a clean scale-family
structure in sigma.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from fabcr import _core
from fabcr.errors import (DomainError, SpecParseError, check_finite,
                          check_positive)

_LOG_SQRTPI = 0.5 * math.log(math.pi)

# per kind, the parameters it takes besides sigma and loc (all required but
# gaussian's tau, which ties the prior scale to sigma when left out)
_KINDS = {
    "flat": (),
    "flat+atom": ("gamma",),
    "gaussian": ("tau",),
    "bp": ("a", "b"),
    "horseshoe": (),
    "gpd": (),
    "bessel": (),
    "laplace": ("kappa",),
}
KINDS = tuple(_KINDS)
# the largest Laplace kappa the kernels take: against 60-digit mpmath at y
# from 0.25 sigma to 5 kappa sigma, the posterior mean's relative error is
# 3.5e-12 at kappa = 10, 3.7e-10 at 30 and 5.4e-9 at 40
KAPPA_MAX = 30.0
_PARAM_NAMES = sorted({n for names in _KINDS.values() for n in names})


def _refuse_extra(kind, names):
    extra = set(names) - set(_KINDS[kind])
    if extra:
        raise SpecParseError("unexpected parameter(s) %s for prior kind %r"
                             % (", ".join(sorted(extra)), kind))


@dataclass(frozen=True)
class TailProfile:
    """Asymptotic marginal tail f(y) ~ gamma * |y|^(-delta) * exp(-kappa|y|/sigma)."""
    kappa: float
    delta: float
    gamma: float


@dataclass(frozen=True)
class PriorModel:
    kind: str
    sigma: float = 1.0
    loc: float = 0.0
    tau: Optional[float] = None     # gaussian; None means tied to sigma
    a: Optional[float] = None       # bp
    b: Optional[float] = None       # bp
    kappa: Optional[float] = None   # laplace
    gamma: Optional[float] = None   # flat+atom

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecParseError("unknown prior kind %r (choose from %s)"
                                 % (self.kind, ", ".join(KINDS)))
        check_positive("sigma", self.sigma)
        check_finite("loc", self.loc)
        _refuse_extra(self.kind, [n for n in _PARAM_NAMES
                                  if getattr(self, n) is not None])
        names = _KINDS[self.kind]
        for name in names:
            value = getattr(self, name)
            if value is not None:
                check_positive("%s prior: %s" % (self.kind, name), value)
            elif self.kind != "gaussian":  # tau=None ties tau to sigma
                raise DomainError("%s prior requires %s"
                                  % (self.kind, " and ".join(names)))

    # -- kernel plumbing ---------------------------------------------------

    @cached_property
    def _kernel_args(self):
        """(kind, p1, p2, sigma) for the kernels: the kind's parameters in
        table order, padded with 0.0; a free tau left out is sigma."""
        names = _KINDS[self.kind]
        p1, p2 = ([getattr(self, n) for n in names] + [0.0, 0.0])[:2]
        if p1 is None:  # gaussian's tau, tied to sigma
            p1 = self.sigma
        # the kernels evaluate 1F1(a + s, a + b + s, .) at s = 1/2 and 3/2,
        # which needs b to survive as (a + b + s) - (a + s)
        if self.kind == "bp" and p2 <= 2.0 * math.ulp(p1 + 1.5):
            raise DomainError("bp prior: b=%r is below the double precision "
                              "resolution of a=%r" % (p2, p1))
        if self.kind == "laplace" and p1 > KAPPA_MAX:
            raise DomainError("laplace prior: kappa=%r is above %r, where the "
                              "posterior mean loses digits" % (p1, KAPPA_MAX))
        return self.kind, p1, p2, self.sigma

    def _shift(self, y):
        if not math.isfinite(y):
            raise DomainError("y must be finite, got %r" % (y,))
        return float(y) - self.loc

    # -- public surface ----------------------------------------------------

    @property
    def scale_tied(self):
        """True when the prior scale is tied to sigma (scale-family kinds)."""
        if self.kind == "gaussian":
            return self.tau is None
        return self.kind != "flat+atom"

    def log_marginal(self, y):
        kind, p1, p2, s = self._kernel_args
        return _core.log_marginal(kind, p1, p2, s, self._shift(y))

    def dlog_marginal(self, y):
        kind, p1, p2, s = self._kernel_args
        return _core.dlog_marginal(kind, p1, p2, s, self._shift(y))

    def posterior_mean(self, y):
        kind, p1, p2, s = self._kernel_args
        return self.loc + _core.posterior_mean(kind, p1, p2, s, self._shift(y))

    def tail_profile(self):
        """TailProfile of the marginal, or None for the Gaussian prior
        (its tail is Gaussian; the bounded-region asymptotics do not apply)."""
        if self.kind == "gaussian":
            return None
        if self.kind == "flat":
            return TailProfile(kappa=0.0, delta=0.0, gamma=1.0)
        if self.kind == "flat+atom":
            return TailProfile(kappa=0.0, delta=0.0, gamma=self.gamma)
        if self.kind == "laplace":
            kappa, delta = self.kappa, 0.0
            log_g = (math.log(kappa) - math.log(2.0 * self.sigma)
                     + 0.5 * kappa * kappa)
        else:
            a, b = _core.SHAPES.get(self.kind) or (self.a, self.b)
            kappa, delta = 0.0, 2.0 * a + 1.0
            log_g = (math.lgamma(a + 0.5) + a * math.log(2.0 * self.sigma ** 2)
                     - _LOG_SQRTPI - _core.log_beta(a, b))
        try:
            g = math.exp(log_g)
        except OverflowError:
            # large a or kappa; the region search and the limits read only
            # kappa
            g = math.inf
        return TailProfile(kappa=kappa, delta=delta, gamma=g)

    def spec_string(self):
        """Canonical plain-text spec, parseable by parse_prior."""
        parts = ["%s=%.17g" % (n, getattr(self, n)) for n in
                 _KINDS[self.kind] if getattr(self, n) is not None]
        if self.loc != 0.0:
            parts.append("loc=%.17g" % self.loc)
        if parts:
            return "%s:%s" % (self.kind, ",".join(parts))
        return self.kind


def _parse_spec(spec, what, heads):
    """Split a "head:key=value,..." spec into its head, lower-cased and
    checked against `heads`, and a dict of float values by lower-cased key;
    `what` names the spec in error messages."""
    if not isinstance(spec, str) or not spec.strip():
        raise SpecParseError("empty %s spec" % what)
    head, _, tail = spec.strip().partition(":")
    head = head.strip().lower()
    if head not in heads:
        raise SpecParseError("unknown %s %r in spec %r (choose from %s)"
                             % (what, head, spec, ", ".join(heads)))
    kv = {}
    for item in tail.split(",") if tail.strip() else []:
        key, eq, val = item.partition("=")
        key = key.strip().lower()
        if not eq or not key:
            raise SpecParseError("malformed parameter %r in %s spec %r"
                                 % (item, what, spec))
        try:
            kv[key] = float(val)
        except ValueError:
            raise SpecParseError("non-numeric value %r for %r in %s spec %r"
                                 % (val.strip(), key, what, spec)) from None
    return head, kv


def parse_prior(spec, sigma=1.0):
    """Build a PriorModel from a plain-text spec string.

    Examples: "flat", "horseshoe", "bp:a=1,b=0.5", "laplace:kappa=2",
    "gaussian:tau=1", "gaussian" (tau tied to sigma), "flat+atom:gamma=0.1".
    An optional "loc=<value>" entry shifts the prior location.
    """
    kind, kv = _parse_spec(spec, "prior", KINDS)
    _refuse_extra(kind, set(kv) - {"loc"})
    return PriorModel(kind=kind, sigma=check_positive("sigma", sigma), **kv)
