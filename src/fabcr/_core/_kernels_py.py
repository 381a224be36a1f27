"""Pure-Python scalar kernels.

The numerical core: special functions, log-marginal likelihoods for the
prior catalog, and the spending weight solve. The package reaches them
through the re-exports in ``fabcr._core``.

All functions are pure and operate on Python floats. Argument validation
(domain errors for callers) lives in the public wrapper modules; kernels
assume finite inputs unless stated otherwise.
"""

import math

# ---------------------------------------------------------------------------
# prior kind codes (shared with fabcr.priors)
# ---------------------------------------------------------------------------

KIND_FLAT = 0
KIND_GAUSSIAN = 1       # p1 = tau (free prior scale, not tied to sigma)
KIND_BETAPRIME = 2      # p1 = a, p2 = b
KIND_LAPLACE = 3        # p1 = kappa
KIND_FLAT_ATOM = 4      # p1 = gamma
KIND_HORSESHOE = 5      # BP(1/2, 1/2), Dawson closed form
KIND_GPD = 6            # BP(1/2, 1), explicit exp form
KIND_BESSEL = 7         # BP(1, 1/2), scaled Bessel form

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# standard normal
# ---------------------------------------------------------------------------

def norm_pdf(z):
    return math.exp(-0.5 * z * z) / _SQRT2PI


def norm_cdf(z):
    return 0.5 * math.erfc(-z / _SQRT2)


def norm_log_cdf(z):
    """log Phi(z), accurate into the far lower tail."""
    if z >= -25.0:
        return math.log(0.5 * math.erfc(-z / _SQRT2))
    # Mills-ratio asymptotic: Phi(z) = phi(z)/(-z) * sum_k (-1)^k (2k-1)!!/z^(2k)
    zz = z * z
    s = 1.0
    term = 1.0
    for k in range(1, 16):
        term *= -(2 * k - 1) / zz
        s += term
        if abs(term) < 1e-17 * s:
            break
    return -0.5 * zz - _LOG_SQRT2PI - math.log(-z) + math.log(s)


# Acklam's rational approximation for the normal quantile (~1.2e-9 relative),
# refined below by one Halley step against norm_cdf.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _quantile_approx(p):
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 0.97575:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def norm_quantile(p):
    """Inverse of norm_cdf on (0, 1)."""
    if p > 0.5:
        return -norm_quantile(1.0 - p)
    x = _quantile_approx(p)
    # one Halley step; cdf error is evaluated through the lower tail where
    # erfc keeps full relative accuracy
    f = norm_cdf(x) - p
    if f != 0.0:
        u = f / norm_pdf(x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------

_KUMMER_TAYLOR_CUTOFF = 45.0


def _kummer_taylor(a, b, z):
    term = 1.0
    s = 1.0
    for k in range(2000):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        s += term
        if abs(term) < 1e-17 * abs(s):
            return s
    return s


def _kummer_asymp_neg(a, b, z):
    """1F1(a, b, z) for z << 0 via the (b-a) asymptotic after the Kummer
    transform: Gamma(b)/Gamma(b-a) * x^(-a) * sum_k (a)_k (a-b+1)_k / (k! x^k),
    with x = -z."""
    x = -z
    s = 1.0
    term = 1.0
    prev = math.inf
    for k in range(200):
        term *= (a + k) * (a - b + 1.0 + k) / ((k + 1.0) * x)
        if abs(term) >= prev:
            break
        s += term
        prev = abs(term)
        if abs(term) < 1e-17 * abs(s):
            break
    lg = math.lgamma(b) - math.lgamma(b - a) - a * math.log(x)
    return math.exp(lg) * s if s > 0 else -math.exp(lg) * (-s)


def _kummer_asymp_pos(a, b, z):
    """1F1(a, b, z) for z >> 0: Gamma(b)/Gamma(a) e^z z^(a-b) * series."""
    s = 1.0
    term = 1.0
    prev = math.inf
    for k in range(200):
        term *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * z)
        if abs(term) >= prev:
            break
        s += term
        prev = abs(term)
        if abs(term) < 1e-17 * abs(s):
            break
    lg = math.lgamma(b) - math.lgamma(a) + z + (a - b) * math.log(z)
    if lg > 709.0:
        raise OverflowError("kummer_1f1 overflow: a=%g b=%g z=%g" % (a, b, z))
    return math.exp(lg) * s


def kummer_1f1(a, b, z):
    """Confluent hypergeometric 1F1(a, b, z); intended domain b > 0 with
    z <= 0 (what the beta-prime marginals need), z > 0 supported where the
    direct series or asymptotic expansion applies."""
    if z == 0.0:
        return 1.0
    if abs(z) <= _KUMMER_TAYLOR_CUTOFF:
        if z > 0.0 or b - a <= 0.0:
            return _kummer_taylor(a, b, z)
        # transformed series has positive terms: no cancellation for z < 0
        return math.exp(z) * _kummer_taylor(b - a, b, -z)
    if z < 0.0:
        return _kummer_asymp_neg(a, b, z)
    return _kummer_asymp_pos(a, b, z)


def log_kummer_1f1_neg(a, b, z):
    """log 1F1(a, b, z) for z <= 0, b > a > 0 (positive value guaranteed)."""
    if z == 0.0:
        return 0.0
    if -z <= _KUMMER_TAYLOR_CUTOFF:
        return z + math.log(_kummer_taylor(b - a, b, -z))
    x = -z
    s = 1.0
    term = 1.0
    prev = math.inf
    for k in range(200):
        term *= (a + k) * (a - b + 1.0 + k) / ((k + 1.0) * x)
        if abs(term) >= prev:
            break
        s += term
        prev = abs(term)
        if abs(term) < 1e-17 * abs(s):
            break
    return math.lgamma(b) - math.lgamma(b - a) - a * math.log(x) + math.log(s)


# ---------------------------------------------------------------------------
# Dawson function
# ---------------------------------------------------------------------------

_DAWSON_H = 0.2
_DAWSON_REACH = 36  # half-width in lattice steps; exp(-(36*0.2)^2) ~ 3e-23


def _dawson_rybicki(x):
    # Rybicki's exponentially convergent lattice sum over odd n:
    # D(x) = pi^(-1/2) * sum_{n odd} exp(-(x - n h)^2) / n
    h = _DAWSON_H
    n0 = int(round(x / h))
    if n0 % 2 == 0:
        n0 += 1
    s = 0.0
    for m in range(-_DAWSON_REACH, _DAWSON_REACH + 1, 2):
        n = n0 + m
        d = x - n * h
        s += math.exp(-d * d) / n
    return _INV_SQRTPI * s


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * int_0^x exp(t^2) dt."""
    ax = abs(x)
    if ax < 1.0:
        # Maclaurin: D = sum (-2)^n x^(2n+1) / (2n+1)!!
        t = x
        s = x
        xx = -2.0 * x * x
        for n in range(1, 40):
            t *= xx / (2.0 * n + 1.0)
            s += t
            if abs(t) < 1e-17 * abs(s):
                break
        return s
    if ax < 7.0:
        v = _dawson_rybicki(ax)
    else:
        # asymptotic: D(x) ~ 1/(2x) sum_k (2k-1)!!/(2x^2)^k
        inv2 = 1.0 / (2.0 * ax * ax)
        term = 1.0
        s = 1.0
        for k in range(1, 40):
            term *= (2.0 * k - 1.0) * inv2
            s += term
            if term < 1e-17 * s:
                break
        v = s / (2.0 * ax)
    return v if x > 0 else -v


# ---------------------------------------------------------------------------
# modified Bessel I0, I1 (exponentially scaled variants are primary)
# ---------------------------------------------------------------------------

_BESSEL_SERIES_CUTOFF = 18.0


def _i0_series(z):
    q = 0.25 * z * z
    term = 1.0
    s = 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        s += term
        if term < 1e-17 * s:
            break
    return s


def _i1_series(z):
    q = 0.25 * z * z
    term = 0.5 * z
    s = term
    for k in range(1, 200):
        term *= q / (k * (k + 1.0))
        s += term
        if term < 1e-17 * s:
            break
    return s


def _iv_asymp_scaled(z, nu):
    # e^{-z} I_nu(z) ~ (2 pi z)^(-1/2) * sum_k term_k,
    # term_k = term_{k-1} * -(4 nu^2 - (2k-1)^2) / (8 z k)
    mu = 4.0 * nu * nu
    term = 1.0
    s = 1.0
    prev = math.inf
    for k in range(1, 60):
        c = 2.0 * k - 1.0
        term *= -(mu - c * c) / (8.0 * z * k)
        if abs(term) >= prev:
            break
        s += term
        prev = abs(term)
        if abs(term) < 1e-17 * abs(s):
            break
    return s / math.sqrt(2.0 * math.pi * z)


def bessel_i0e(z):
    """exp(-z) * I0(z) for z >= 0."""
    if z <= _BESSEL_SERIES_CUTOFF:
        return math.exp(-z) * _i0_series(z)
    return _iv_asymp_scaled(z, 0.0)


def bessel_i1e(z):
    """exp(-z) * I1(z) for z >= 0."""
    if z <= _BESSEL_SERIES_CUTOFF:
        return math.exp(-z) * _i1_series(z)
    return _iv_asymp_scaled(z, 1.0)


def bessel_i0(z):
    if z <= _BESSEL_SERIES_CUTOFF:
        return _i0_series(z)
    if z > 705.0:
        raise OverflowError("bessel_i0 overflow: z=%g" % z)
    return math.exp(z) * _iv_asymp_scaled(z, 0.0)


def bessel_i1(z):
    if z <= _BESSEL_SERIES_CUTOFF:
        return _i1_series(z)
    if z > 705.0:
        raise OverflowError("bessel_i1 overflow: z=%g" % z)
    return math.exp(z) * _iv_asymp_scaled(z, 1.0)


# ---------------------------------------------------------------------------
# digamma / log-gamma / log-beta
# ---------------------------------------------------------------------------

def digamma(x):
    """Digamma for x > 0: recurrence shift to x >= 8, then the Bernoulli
    asymptotic series."""
    s = 0.0
    while x < 8.0:
        s -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # B_2n / (2n x^{2n}) terms
    series = inv2 * (1.0 / 12.0
             - inv2 * (1.0 / 120.0
             - inv2 * (1.0 / 252.0
             - inv2 * (1.0 / 240.0
             - inv2 * (1.0 / 132.0
             - inv2 * (691.0 / 32760.0
             - inv2 * (1.0 / 12.0)))))))
    return s + math.log(x) - 0.5 * inv - series


def log_gamma(x):
    return math.lgamma(x)


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# ---------------------------------------------------------------------------
# log-marginal likelihoods of the prior catalog (prior located at 0)
# ---------------------------------------------------------------------------

def _log_marginal_betaprime(a, b, sigma, y):
    z = -(y * y) / (2.0 * sigma * sigma)
    pref = (math.lgamma(a + 0.5) + math.lgamma(a + b)
            - math.lgamma(a) - math.lgamma(a + b + 0.5))
    return pref - _LOG_SQRT2PI - math.log(sigma) + log_kummer_1f1_neg(a + 0.5, a + b + 0.5, z)


def _laplace_log_terms(kappa, sigma, y):
    # log of A = e^{-kappa t} Phi(t - kappa), B = e^{kappa t} Phi(-t - kappa)
    t = y / sigma
    la = -kappa * t + norm_log_cdf(t - kappa)
    lb = kappa * t + norm_log_cdf(-t - kappa)
    return la, lb


def log_marginal(kind, p1, p2, sigma, y):
    if kind == KIND_FLAT:
        return 0.0
    if kind == KIND_GAUSSIAN:
        v = sigma * sigma + p1 * p1
        return -0.5 * math.log(2.0 * math.pi * v) - y * y / (2.0 * v)
    if kind == KIND_BETAPRIME:
        return _log_marginal_betaprime(p1, p2, sigma, y)
    if kind == KIND_HORSESHOE:
        t = abs(y) / (_SQRT2 * sigma)
        if t < 0.05:
            # Dawson form is 0/0 at the origin; the general 1F1 form is smooth
            return _log_marginal_betaprime(0.5, 0.5, sigma, y)
        return math.log(2.0 / math.pi ** 1.5) - math.log(abs(y)) + math.log(dawson(t))
    if kind == KIND_GPD:
        s = y * y / (2.0 * sigma * sigma)
        if s == 0.0:
            ratio = 0.5
        else:
            ratio = -math.expm1(-s) / (2.0 * s)
        return -math.log(sigma) - _LOG_SQRT2PI + math.log(ratio)
    if kind == KIND_BESSEL:
        w = y * y / (4.0 * sigma * sigma)
        diff = bessel_i0e(w) - bessel_i1e(w)
        return (-_LOG_SQRT2PI - math.log(sigma)
                + math.log(math.pi / 4.0) + math.log(diff))
    if kind == KIND_LAPLACE:
        kappa = p1
        la, lb = _laplace_log_terms(kappa, sigma, y)
        m = la if la > lb else lb
        lse = m + math.log(math.exp(la - m) + math.exp(lb - m))
        return math.log(kappa / (2.0 * sigma)) + 0.5 * kappa * kappa + lse
    if kind == KIND_FLAT_ATOM:
        gamma = p1
        lphi = -0.5 * (y / sigma) ** 2 - _LOG_SQRT2PI - math.log(sigma)
        lg = math.log(gamma)
        if lphi > lg:
            return lphi + math.log1p(gamma * math.exp(-lphi))
        return lg + math.log1p(math.exp(lphi - lg))
    raise ValueError("unknown prior kind code %r" % (kind,))


def dlog_marginal(kind, p1, p2, sigma, y):
    """d/dy of log_marginal, analytic per kind."""
    if kind == KIND_FLAT:
        return 0.0
    if kind == KIND_GAUSSIAN:
        return -y / (sigma * sigma + p1 * p1)
    if kind == KIND_BETAPRIME or kind == KIND_HORSESHOE or kind == KIND_GPD \
            or kind == KIND_BESSEL:
        if kind == KIND_HORSESHOE:
            t = abs(y) / (_SQRT2 * sigma)
            if t >= 0.05:
                d = dawson(t)
                sgn = 1.0 if y > 0 else -1.0
                return -1.0 / y + sgn * (1.0 - 2.0 * t * d) / (d * _SQRT2 * sigma)
            a, b = 0.5, 0.5
        elif kind == KIND_GPD:
            s = y * y / (2.0 * sigma * sigma)
            if s < 1e-5:
                dds = -0.5 + s / 12.0 - s * s * s / 720.0
            elif s > 40.0:
                dds = -1.0 / s
            else:
                dds = 1.0 / math.expm1(s) - 1.0 / s
            return (y / (sigma * sigma)) * dds
        elif kind == KIND_BESSEL:
            w = y * y / (4.0 * sigma * sigma)
            if w < 1e-8:
                ratio = 0.5 * (1.0 + 0.5 * w)
            else:
                ratio = bessel_i1e(w) / (w * (bessel_i0e(w) - bessel_i1e(w)))
            return (y / (2.0 * sigma * sigma)) * (ratio - 2.0)
        else:
            a, b = p1, p2
        z = -(y * y) / (2.0 * sigma * sigma)
        lr = (log_kummer_1f1_neg(a + 1.5, a + b + 1.5, z)
              - log_kummer_1f1_neg(a + 0.5, a + b + 0.5, z))
        return -(y / (sigma * sigma)) * (a + 0.5) / (a + b + 0.5) * math.exp(lr)
    if kind == KIND_LAPLACE:
        kappa = p1
        la, lb = _laplace_log_terms(kappa, sigma, y)
        return (kappa / sigma) * math.tanh(0.5 * (lb - la))
    if kind == KIND_FLAT_ATOM:
        gamma = p1
        lphi = -0.5 * (y / sigma) ** 2 - _LOG_SQRT2PI - math.log(sigma)
        lf = log_marginal(kind, p1, p2, sigma, y)
        return -(y / (sigma * sigma)) * math.exp(lphi - lf)
    raise ValueError("unknown prior kind code %r" % (kind,))


def posterior_mean(kind, p1, p2, sigma, y):
    """Tweedie posterior mean y + sigma^2 * l'(y); beta-prime kinds and
    Laplace go through their closed forms (algebraically the same thing,
    grouped to avoid cancellation at large |y|)."""
    if kind == KIND_FLAT:
        return y
    if kind == KIND_GAUSSIAN:
        v = p1 * p1
        return y * v / (sigma * sigma + v)
    if kind == KIND_BETAPRIME:
        z = -(y * y) / (2.0 * sigma * sigma)
        a, b = p1, p2
        lr = (log_kummer_1f1_neg(a + 1.5, a + b + 1.5, z)
              - log_kummer_1f1_neg(a + 0.5, a + b + 0.5, z))
        return y * (1.0 - (a + 0.5) / (a + b + 0.5) * math.exp(lr))
    if kind == KIND_LAPLACE:
        kappa = p1
        la, lb = _laplace_log_terms(kappa, sigma, y)
        # xi = B/(A+B); theta = y + sigma*kappa*(2 xi - 1)
        return y + sigma * kappa * math.tanh(0.5 * (lb - la))
    return y + sigma * sigma * dlog_marginal(kind, p1, p2, sigma, y)


# ---------------------------------------------------------------------------
# spending-weight solve
# ---------------------------------------------------------------------------

_W_LO = 1e-15
_W_HI = 1.0 - 1e-15


def _lam(kind, p1, p2, sigma, theta0, y):
    # log-likelihood ratio up to additive constants in theta0
    d = y - theta0
    return log_marginal(kind, p1, p2, sigma, y) + d * d / (2.0 * sigma * sigma)


def _bounds_for_w(theta0, sigma, alpha, w):
    # Phi^-1(1 - q) = -Phi^-1(q); going through the lower tail keeps full
    # relative accuracy and avoids 1 - q rounding to 1.0 for tiny q
    lo = theta0 + sigma * norm_quantile(alpha * w)
    hi = theta0 - sigma * norm_quantile(alpha * (1.0 - w))
    return lo, hi


def weight_solve(kind, p1, p2, sigma, theta0, alpha):
    """Solve for the weight w in (0,1) equalising the log-likelihood ratio at
    the two acceptance bounds. Returns (w, lo, hi).

    G(w) = lam(lo(w)) - lam(hi(w)) is strictly decreasing (lam is strictly
    convex), so a bracketing bisection with secant acceleration converges.
    """
    wa, wb = _W_LO, _W_HI
    lo, hi = _bounds_for_w(theta0, sigma, alpha, wa)
    ga = _lam(kind, p1, p2, sigma, theta0, lo) - _lam(kind, p1, p2, sigma, theta0, hi)
    if ga <= 0.0:
        return wa, lo, hi
    lo, hi = _bounds_for_w(theta0, sigma, alpha, wb)
    gb = _lam(kind, p1, p2, sigma, theta0, lo) - _lam(kind, p1, p2, sigma, theta0, hi)
    if gb >= 0.0:
        return wb, lo, hi

    w = 0.5
    g_prev = None
    w_prev = None
    for _ in range(200):
        lo, hi = _bounds_for_w(theta0, sigma, alpha, w)
        g = (_lam(kind, p1, p2, sigma, theta0, lo)
             - _lam(kind, p1, p2, sigma, theta0, hi))
        if g == 0.0:
            return w, lo, hi
        if g > 0.0:
            wa = w
        else:
            wb = w
        if wb - wa < 1e-13:
            break
        # secant step, safeguarded into the bracket
        w_next = -1.0
        if g_prev is not None and g != g_prev:
            w_next = w - g * (w - w_prev) / (g - g_prev)
        w_prev, g_prev = w, g
        if not (wa < w_next < wb):
            w_next = 0.5 * (wa + wb)
        w = w_next
    w = 0.5 * (wa + wb)
    lo, hi = _bounds_for_w(theta0, sigma, alpha, w)
    return w, lo, hi
