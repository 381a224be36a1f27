"""Special functions with validated domains.

Thin wrappers over the kernels in ``fabcr._core`` adding the domain checks
the bare kernels skip. Everything here is scalar, deterministic and
thread-safe.
"""

import math

from fabcr import _core
from fabcr.errors import DomainError


def _require_finite(name, x):
    if not math.isfinite(x):
        raise DomainError("%s: argument must be finite, got %r" % (name, x))
    return float(x)


def std_normal_pdf(z):
    """Standard normal density phi(z)."""
    return _core.norm_pdf(_require_finite("std_normal_pdf", z))


def std_normal_cdf(z):
    """Standard normal CDF Phi(z), absolute error below 1e-15."""
    return _core.norm_cdf(_require_finite("std_normal_cdf", z))


def std_normal_log_cdf(z):
    """log Phi(z), accurate far into the lower tail."""
    return _core.norm_log_cdf(_require_finite("std_normal_log_cdf", z))


def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError("std_normal_quantile: p must be in (0,1), got %r" % (p,))
    return _core.norm_quantile(p)


def kummer_1f1(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z).

    Intended domain is b > a > 0 with z <= 0 (what normal scale-mixture
    marginals need); moderate z > 0 is supported. Raises on overflow rather
    than returning inf.
    """
    a = _require_finite("kummer_1f1", a)
    b = _require_finite("kummer_1f1", b)
    z = _require_finite("kummer_1f1", z)
    if b <= 0.0:
        raise DomainError("kummer_1f1: b must be positive, got %r" % (b,))
    return _core.kummer_1f1(a, b, z)


def dawson(z):
    """Dawson integral D(z) = exp(-z^2) * int_0^z exp(t^2) dt."""
    return _core.dawson(_require_finite("dawson", z))


def bessel_i0(z):
    """Modified Bessel function I0(z), z >= 0."""
    z = _require_finite("bessel_i0", z)
    if z < 0.0:
        raise DomainError("bessel_i0: z must be nonnegative, got %r" % (z,))
    return _core.bessel_i0(z)


def bessel_i1(z):
    """Modified Bessel function I1(z), z >= 0."""
    z = _require_finite("bessel_i1", z)
    if z < 0.0:
        raise DomainError("bessel_i1: z must be nonnegative, got %r" % (z,))
    return _core.bessel_i1(z)


def bessel_i0e(z):
    """Scaled modified Bessel exp(-z) * I0(z), finite for all z >= 0."""
    z = _require_finite("bessel_i0e", z)
    if z < 0.0:
        raise DomainError("bessel_i0e: z must be nonnegative, got %r" % (z,))
    return _core.bessel_i0e(z)


def bessel_i1e(z):
    """Scaled modified Bessel exp(-z) * I1(z), finite for all z >= 0."""
    z = _require_finite("bessel_i1e", z)
    if z < 0.0:
        raise DomainError("bessel_i1e: z must be nonnegative, got %r" % (z,))
    return _core.bessel_i1e(z)


def digamma(x):
    """Digamma function for x > 0."""
    x = _require_finite("digamma", x)
    if x <= 0.0:
        raise DomainError("digamma: x must be positive, got %r" % (x,))
    return _core.digamma(x)


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    x = _require_finite("log_gamma", x)
    if x <= 0.0:
        raise DomainError("log_gamma: x must be positive, got %r" % (x,))
    return _core.log_gamma(x)


def log_beta(a, b):
    """log B(a, b) for a, b > 0."""
    a = _require_finite("log_beta", a)
    b = _require_finite("log_beta", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError("log_beta: a, b must be positive, got %r, %r" % (a, b))
    return _core.log_beta(a, b)
