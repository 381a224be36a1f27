"""Pure-Python scalar kernels.

The numerical core: special functions, log-marginal likelihoods for the
prior catalog, and the spending weight solve. The package reaches them
through the re-exports in ``fabcr._core``.

All functions are pure and operate on Python floats. Argument validation
(domain errors for callers) lives in the public modules that call them;
kernels assume finite inputs inside their domains.
"""

import functools
import math

# ---------------------------------------------------------------------------
# the named beta-prime kinds: BP(a, b) shapes (shared with fabcr.priors)
# ---------------------------------------------------------------------------

SHAPES = {"horseshoe": (0.5, 0.5), "gpd": (0.5, 1.0), "bessel": (1.0, 0.5)}

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
    """At p <= 0.5 (or nan), the only half norm_quantile asks for."""
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
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
# log Kummer 1F1 at negative argument
# ---------------------------------------------------------------------------

_KUMMER_TAYLOR_CUTOFF = 45.0
_KUMMER_RESCALE = 1e280
_LOG_KUMMER_RESCALE = math.log(_KUMMER_RESCALE)
_KUMMER_LOG_DROP = math.log(1e-12)


def _log_kummer_taylor(a, b, x):
    """log 1F1(a, b, x) for x >= 0 and a, b > 0 from the Taylor series. Its
    terms are all positive and peak before k = x; the sum is rescaled as it
    grows so that it cannot overflow."""
    term = 1.0
    s = 1.0
    log_scale = 0.0
    for k in range(2000 + 4 * int(x)):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        s += term
        if s > _KUMMER_RESCALE:
            s /= _KUMMER_RESCALE
            term /= _KUMMER_RESCALE
            log_scale += _LOG_KUMMER_RESCALE
        if term < 1e-17 * s:
            break
    return log_scale + math.log(s)


def log_kummer_1f1_neg(a, b, z):
    """log 1F1(a, b, z) for z <= 0, b > a > 0 (positive value guaranteed)."""
    if z == 0.0:
        return 0.0
    x = -z
    if not x < math.inf:
        return z  # log 1F1(a, b, -inf) = -inf; a nan passes through
    # For large x, 1F1(a, b, -x) = Gamma(b)/Gamma(b-a) x^-a S1
    #   + Gamma(b)/Gamma(a) e^-x x^(a-b) S2
    # with asymptotic series S1, S2 = 1 + O(1/x). Only S1 is summed, so it is
    # used only where S2 = O(1), the dropped part is below 1e-12 of the kept
    # one, and the terms of S1 fall below 1e-17 of its sum before they start
    # to grow.
    if x > _KUMMER_TAYLOR_CUTOFF and (b - a) * abs(1.0 - a) < x and (
            math.lgamma(b - a) - math.lgamma(a) - x
            + (2.0 * a - b) * math.log(x) < _KUMMER_LOG_DROP):
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
                return (math.lgamma(b) - math.lgamma(b - a) - a * math.log(x)
                        + math.log(s))
    # Kummer's transformation: 1F1(a, b, -x) = e^-x 1F1(b - a, b, x)
    return z + _log_kummer_taylor(b - a, b, x)


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
# exponentially scaled modified Bessel I0, I1
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


def bessel_i0e(z):
    """exp(-z) * I0(z) for 0 <= z <= _BESSEL_SERIES_CUTOFF."""
    return math.exp(-z) * _i0_series(z)


def bessel_i1e(z):
    """exp(-z) * I1(z) for 0 <= z <= _BESSEL_SERIES_CUTOFF."""
    return math.exp(-z) * _i1_series(z)


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
# log-marginal likelihoods of the prior catalog by kind name (prior at 0)
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
    if kind == "flat":
        return 0.0
    if kind == "gaussian":
        v = sigma * sigma + p1 * p1
        return -0.5 * math.log(2.0 * math.pi * v) - y * y / (2.0 * v)
    if kind == "bp":
        return _log_marginal_betaprime(p1, p2, sigma, y)
    if kind == "horseshoe":
        t = abs(y) / (_SQRT2 * sigma)
        if t < 0.05:
            # Dawson form is 0/0 at the origin; the general 1F1 form is smooth
            return _log_marginal_betaprime(*SHAPES[kind], sigma, y)
        return math.log(2.0 / math.pi ** 1.5) - math.log(abs(y)) + math.log(dawson(t))
    if kind == "gpd":
        s = y * y / (2.0 * sigma * sigma)
        if s == 0.0:
            ratio = 0.5
        else:
            ratio = -math.expm1(-s) / (2.0 * s)
        return -math.log(sigma) - _LOG_SQRT2PI + math.log(ratio)
    if kind == "bessel":
        w = y * y / (4.0 * sigma * sigma)
        if w > _BESSEL_SERIES_CUTOFF:
            # i0e - i1e cancels as w grows; the general 1F1 form does not
            return _log_marginal_betaprime(*SHAPES[kind], sigma, y)
        diff = bessel_i0e(w) - bessel_i1e(w)
        return (-_LOG_SQRT2PI - math.log(sigma)
                + math.log(math.pi / 4.0) + math.log(diff))
    if kind == "laplace":
        kappa = p1
        la, lb = _laplace_log_terms(kappa, sigma, y)
        m = la if la > lb else lb
        lse = m + math.log(math.exp(la - m) + math.exp(lb - m))
        return math.log(kappa / (2.0 * sigma)) + 0.5 * kappa * kappa + lse
    # flat+atom
    gamma = p1
    lphi = -0.5 * (y / sigma) ** 2 - _LOG_SQRT2PI - math.log(sigma)
    lg = math.log(gamma)
    if lphi > lg:
        return lphi + math.log1p(gamma * math.exp(-lphi))
    return lg + math.log1p(math.exp(lphi - lg))


def _dlog_betaprime(a, b, sigma, y):
    z = -(y * y) / (2.0 * sigma * sigma)
    lr = (log_kummer_1f1_neg(a + 1.5, a + b + 1.5, z)
          - log_kummer_1f1_neg(a + 0.5, a + b + 0.5, z))
    return -(y / (sigma * sigma)) * (a + 0.5) / (a + b + 0.5) * math.exp(lr)


def dlog_marginal(kind, p1, p2, sigma, y):
    """d/dy of log_marginal, analytic per kind."""
    if kind == "flat":
        return 0.0
    if kind == "gaussian":
        return -y / (sigma * sigma + p1 * p1)
    if kind == "bp":
        return _dlog_betaprime(p1, p2, sigma, y)
    if kind == "horseshoe":
        # the Dawson form -1/y + (1 - 2tD(t))/(sqrt(2) sigma D(t)) cancels
        # near 0 and as |y| grows; the general 1F1 form does not
        return _dlog_betaprime(*SHAPES[kind], sigma, y)
    if kind == "gpd":
        s = y * y / (2.0 * sigma * sigma)
        if s < 1e-5:
            dds = -0.5 + s / 12.0 - s * s * s / 720.0
        elif s > 40.0:
            dds = -1.0 / s
        else:
            dds = 1.0 / math.expm1(s) - 1.0 / s
        return (y / (sigma * sigma)) * dds
    if kind == "bessel":
        w = y * y / (4.0 * sigma * sigma)
        if w > _BESSEL_SERIES_CUTOFF:
            # i0e - i1e cancels as w grows; the general 1F1 form does not
            return _dlog_betaprime(*SHAPES[kind], sigma, y)
        if w < 1e-8:
            ratio = 0.5 * (1.0 + 0.5 * w)
        else:
            ratio = bessel_i1e(w) / (w * (bessel_i0e(w) - bessel_i1e(w)))
        return (y / (2.0 * sigma * sigma)) * (ratio - 2.0)
    if kind == "laplace":
        kappa = p1
        la, lb = _laplace_log_terms(kappa, sigma, y)
        return (kappa / sigma) * math.tanh(0.5 * (lb - la))
    # flat+atom
    lphi = -0.5 * (y / sigma) ** 2 - _LOG_SQRT2PI - math.log(sigma)
    lf = log_marginal(kind, p1, p2, sigma, y)
    return -(y / (sigma * sigma)) * math.exp(lphi - lf)


def posterior_mean(kind, p1, p2, sigma, y):
    """Tweedie posterior mean y + sigma^2 * l'(y); beta-prime kinds and
    Laplace go through their closed forms (algebraically the same thing,
    grouped to avoid cancellation at large |y|)."""
    if kind == "flat":
        return y
    if kind == "gaussian":
        v = p1 * p1
        return y * v / (sigma * sigma + v)
    if kind == "bp":
        z = -(y * y) / (2.0 * sigma * sigma)
        a, b = p1, p2
        lr = (log_kummer_1f1_neg(a + 1.5, a + b + 1.5, z)
              - log_kummer_1f1_neg(a + 0.5, a + b + 0.5, z))
        return y * (1.0 - (a + 0.5) / (a + b + 0.5) * math.exp(lr))
    if kind == "laplace":
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
# w is solved to about 1e-13, too coarse for its bounds within W_CUTOFF of
# 0 or 1; weight_solve returns None there, for the cutoff formulation
W_CUTOFF = 1e-8


def _quantiles(alpha, w):
    # Phi^-1(1 - q) = -Phi^-1(q); going through the lower tail keeps full
    # relative accuracy and avoids 1 - q rounding to 1.0 for tiny q
    return norm_quantile(alpha * w), norm_quantile(alpha * (1.0 - w))


@functools.lru_cache(maxsize=64)
def _end_quantiles(alpha):
    """_quantiles at the initial bracket ends _W_LO and _W_HI."""
    return _quantiles(alpha, _W_LO), _quantiles(alpha, _W_HI)


def _bounds(theta0, sigma, q):
    # the acceptance bounds from q = _quantiles(alpha, w)
    return theta0 + sigma * q[0], theta0 - sigma * q[1]


def weight_solve(kind, p1, p2, sigma, theta0, alpha, y=None, y_tol=0.0):
    """Solve for the weight w in (0,1) equalising the log-likelihood ratio at
    the two acceptance bounds lo = theta0 + sigma Phi^-1(alpha w) and hi =
    theta0 - sigma Phi^-1(alpha (1 - w)). Returns (w, lo, hi), or None where
    w ends within W_CUTOFF of 0 or 1.

    G(w) = lam(lo(w)) - lam(hi(w)), with lam(t) = l(t) + (t - theta0)^2 /
    (2 sigma^2), is strictly decreasing (lam is strictly convex), so a
    bracketing bisection with secant acceleration converges.

    Given y, the solve stops once its bracket [wa, wb] lies inside
    (W_CUTOFF, 1 - W_CUTOFF) and settles by more than y_tol whether lo <= y
    <= hi at the solved w: lo and hi both rise with w, so the solved bounds
    lie between those at wa and wb. It then returns the bracket end whose
    bounds give the same answer.
    """
    s2 = 2.0 * sigma * sigma

    def at(q):
        # (lo, hi, G) at the quantile pair q = _quantiles(alpha, w)
        lo, hi = _bounds(theta0, sigma, q)
        dlo, dhi = lo - theta0, hi - theta0
        g = (log_marginal(kind, p1, p2, sigma, lo) + dlo * dlo / s2
             - (log_marginal(kind, p1, p2, sigma, hi) + dhi * dhi / s2))
        return lo, hi, g

    q_a, q_b = _end_quantiles(alpha)
    lo_a, hi_a, g = at(q_a)
    if g <= 0.0:
        return None
    lo_b, hi_b, g = at(q_b)
    if g >= 0.0:
        return None
    wa, wb = _W_LO, _W_HI
    w = 0.5
    g_prev = None
    w_prev = None
    for _ in range(200):
        lo, hi, g = at(_quantiles(alpha, w))
        if g == 0.0:
            return (w, lo, hi) if W_CUTOFF < w < 1.0 - W_CUTOFF else None
        if g > 0.0:
            wa, lo_a, hi_a = w, lo, hi
        else:
            wb, lo_b, hi_b = w, lo, hi
        if y is not None and W_CUTOFF < wa and wb < 1.0 - W_CUTOFF:
            if y < lo_a - y_tol or lo_b + y_tol < y < hi_a - y_tol:
                return wa, lo_a, hi_a
            if y > hi_b + y_tol:
                return wb, lo_b, hi_b
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
    if not W_CUTOFF < w < 1.0 - W_CUTOFF:
        return None
    return (w,) + _bounds(theta0, sigma, _quantiles(alpha, w))
