"""Confidence regions for a normal mean, shortest near a prior focal point.

For y ~ N(theta0, sigma^2) the acceptance interval at theta0 splits the error
budget alpha between the tails with a weight w solving the equal-ordinate
condition on the log-likelihood ratio

    lam_theta0(y) = l(y) + (y - theta0)^2 / (2 sigma^2)   (up to constants),

where l is the prior's log-marginal likelihood. Inverting the family of
acceptance intervals over theta0 yields a region with exact coverage whose
smallest member across all levels is the posterior mean (the focal point).
"""

import json
import math
from dataclasses import dataclass
from typing import Tuple

from fabcr import _core
from fabcr.errors import DomainError, NumericalError, RegionBoundError
from fabcr.priors import PriorModel

_ENDPOINT_TOL = 1e-8
_MARCH_STEPS = 200


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1), got %r" % (alpha,))
    return alpha


@dataclass(frozen=True)
class AcceptanceInterval:
    theta0: float
    w: float
    lo: float
    hi: float
    alpha: float

    def contains(self, y):
        return self.lo <= y <= self.hi


@dataclass(frozen=True)
class ConfidenceRegion:
    """Union of closed intervals in theta, sorted and disjoint."""
    intervals: Tuple[Tuple[float, float], ...]
    alpha: float
    focal: float
    y: float
    prior_spec: str
    multiple_components: bool = False

    def contains(self, theta):
        return any(lo <= theta <= hi for lo, hi in self.intervals)

    @property
    def width(self):
        return sum(hi - lo for lo, hi in self.intervals)

    @property
    def lo(self):
        return self.intervals[0][0]

    @property
    def hi(self):
        return self.intervals[-1][1]

    def to_json(self):
        return json.dumps({
            "prior": self.prior_spec,
            "y": self.y,
            "alpha": self.alpha,
            "focal": self.focal,
            "intervals": [[lo, hi] for lo, hi in self.intervals],
            "multiple_components": self.multiple_components,
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(intervals=tuple((lo, hi) for lo, hi in d["intervals"]),
                   alpha=d["alpha"], focal=d["focal"], y=d["y"],
                   prior_spec=d["prior"],
                   multiple_components=d["multiple_components"])


@dataclass(frozen=True)
class PValueCurve:
    grid: Tuple[float, ...]
    pvals: Tuple[float, ...]
    y: float

    def write_csv(self, stream):
        stream.write("theta0,pvalue\n")
        for t, p in zip(self.grid, self.pvals):
            stream.write("%.17g,%.17g\n" % (t, p))


# -- bracket search shared by every inversion -------------------------------


def _march(inside_at, start, direction, step, limit=None, **context):
    """Step from `start`, where `inside_at` holds, in `direction` (+-1) to
    start + step, start + 3 step, start + 7 step, ..., clipped at `limit`,
    until `inside_at` fails. Returns the last (inside, outside) pair, or None
    if `inside_at` still holds at `limit`."""
    inside = start
    for _ in range(_MARCH_STEPS):
        t = inside + direction * step
        if limit is not None and direction * (t - limit) > 0.0:
            t = limit
        if not inside_at(t):
            return inside, t
        if t == limit:
            return None
        inside = t
        step *= 2.0
    raise NumericalError("bracket search exhausted its step budget",
                         start=start, direction=direction, last=inside,
                         steps=_MARCH_STEPS, **context)


def _bisect(inside_at, inside, outside, tol):
    """Halve the bracket until it is at most `tol` wide or no float lies
    between its ends; returns the midpoint."""
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if inside_at(mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


class _DegenerateWeight(Exception):
    """The spending weight is closer to 0/1 than double precision resolves
    (Gaussian prior far from its location); use the cutoff formulation."""


def _solve(model: PriorModel, theta0, alpha):
    """Kernel weight solve in prior-centred coordinates; returns (w, lo, hi)
    back in the original parameterization."""
    code, p1, p2, s = model._kernel_args()
    t0 = theta0 - model.loc
    w, lo, hi = _core.weight_solve(code, p1, p2, s, t0, alpha)
    if w <= 1e-8 or w >= 1.0 - 1e-8:
        # the solver resolves w only to ~1e-13 absolute, so this close to the
        # boundary the implied interval endpoint gets noisy; the cutoff
        # formulation stays well-conditioned there
        raise _DegenerateWeight(theta0, alpha, w)
    return w, lo + model.loc, hi + model.loc


# -- cutoff (Neyman-Pearson) formulation, used when w degenerates ----------
#
# The acceptance set is {t : lam(t) <= k} with lam(t) = l(t) +
# (t - theta0)^2 / (2 sigma^2), a strictly convex function whose minimiser
# y* satisfies posterior_mean(y*) = theta0. Membership of y only needs the
# null mass of the sublevel set at k = lam(y), which stays well-conditioned
# when the tail weight underflows.

def _lam(model, theta0, y):
    d = y - theta0
    return model.log_marginal(y) + d * d / (2.0 * model.sigma ** 2)


def _lam_minimizer(model, theta0):
    """Solve posterior_mean(t) = theta0 (the minimiser of lam)."""
    if model.kind == "gaussian":
        tau = model.sigma if model.tau is None else model.tau
        return model.loc + (theta0 - model.loc) * \
            (model.sigma ** 2 + tau ** 2) / tau ** 2
    # the posterior mean increases in t: march toward theta0's side of it
    direction = -1.0 if model.posterior_mean(theta0) > theta0 else 1.0

    def short(t):
        return direction * (model.posterior_mean(t) - theta0) < 0.0

    inside, outside = _march(short, theta0, direction, model.sigma,
                             theta0=theta0, prior=model.spec_string())
    return _bisect(short, inside, outside, 1e-12 * model.sigma)


def _lam_root(model, theta0, level, start, direction):
    """Root of lam(t) = level marching from `start` (where lam < level)."""
    if model.kind == "gaussian":
        # lam is an explicit quadratic: solve it directly
        s2 = model.sigma ** 2
        tau = model.sigma if model.tau is None else model.tau
        v = s2 + tau * tau
        mu, t0 = model.loc, theta0 - model.loc
        a = 0.5 / s2 - 0.5 / v
        b = -t0 / s2
        c0 = t0 * t0 / (2.0 * s2) - 0.5 * math.log(2.0 * math.pi * v) - level
        disc = b * b - 4.0 * a * c0
        if disc < 0.0:
            raise NumericalError("lam level below its minimum", theta0=theta0,
                                 level=level, prior=model.spec_string())
        root = (-b + direction * math.sqrt(disc)) / (2.0 * a)
        return mu + root

    def below(t):
        return _lam(model, theta0, t) < level

    inner, outer = _march(below, start, direction, model.sigma,
                          theta0=theta0, level=level,
                          prior=model.spec_string())
    return _bisect(below, inner, outer, 1e-11 * model.sigma)


def _sublevel_mass(model, theta0, level, ystar):
    a = _lam_root(model, theta0, level, ystar, -1.0)
    b = _lam_root(model, theta0, level, ystar, +1.0)
    s = model.sigma
    return (_core.norm_cdf((b - theta0) / s)
            - _core.norm_cdf((a - theta0) / s)), a, b


def _np_member(model, theta0, alpha, y):
    ystar = _lam_minimizer(model, theta0)
    level = _lam(model, theta0, y)
    if _lam(model, theta0, ystar) >= level:
        return True  # y is (numerically) the minimiser itself
    mass, _, _ = _sublevel_mass(model, theta0, level, ystar)
    return mass <= 1.0 - alpha + 1e-12


def _np_interval(model, theta0, alpha):
    """Acceptance bounds via bisection on the cutoff level."""
    ystar = _lam_minimizer(model, theta0)

    def short(k):
        return _sublevel_mass(model, theta0, k, ystar)[0] < 1.0 - alpha

    lo_k, hi_k = _march(short, _lam(model, theta0, ystar), 1.0, 1.0,
                        theta0=theta0, alpha=alpha, prior=model.spec_string())
    # relative tolerance on the level, taken at the bracket end nearer zero
    k = _bisect(short, lo_k, hi_k, 1e-13 * max(1.0, min(abs(lo_k), abs(hi_k))))
    _, a, b = _sublevel_mass(model, theta0, k, ystar)
    w = _core.norm_cdf((a - theta0) / model.sigma) / alpha
    return w, a, b


def weight(model: PriorModel, theta0, alpha):
    """Spending weight w in (0,1): the share of alpha put in the lower tail
    of the acceptance interval at theta0."""
    alpha = _check_alpha(alpha)
    try:
        w, _, _ = _solve(model, float(theta0), alpha)
    except _DegenerateWeight:
        w, _, _ = _np_interval(model, float(theta0), alpha)
    return w


def acceptance_interval(model: PriorModel, theta0, alpha):
    alpha = _check_alpha(alpha)
    theta0 = float(theta0)
    try:
        w, lo, hi = _solve(model, theta0, alpha)
    except _DegenerateWeight:
        w, lo, hi = _np_interval(model, theta0, alpha)
    return AcceptanceInterval(theta0=theta0, w=w, lo=lo, hi=hi, alpha=alpha)


def focal_point(model: PriorModel, y):
    """Posterior mean of theta given y: the one point inside the region at
    every confidence level."""
    return model.posterior_mean(y)


def _membership(model, theta0, alpha, y):
    try:
        _, lo, hi = _solve(model, theta0, alpha)
    except _DegenerateWeight:
        return _np_member(model, theta0, alpha, y), None, None
    return lo <= y <= hi, lo, hi


def _search_cap(model, y):
    prof = model.tail_profile()
    kappa = prof.kappa if prof is not None else 0.0
    # the search range is centred on the prior location and must hold the
    # focal point, which lies between the location and y
    return abs(y - model.loc) + 50.0 * model.sigma * max(1.0, kappa)


def _bracket_endpoint(model, y, alpha, start, direction, cap):
    """March from an interior point `start` in +-1 direction until membership
    is lost, then bisect the boundary to absolute tolerance 1e-8."""
    def member(t):
        return _membership(model, t, alpha, y)[0]

    bracket = _march(member, start, direction, model.sigma,
                     limit=model.loc + direction * cap, y=y, alpha=alpha,
                     prior=model.spec_string())
    if bracket is None:
        raise RegionBoundError(
            "region endpoint search exhausted its range: region may be "
            "open-ended", y=y, alpha=alpha, direction=direction, cap=cap,
            prior=model.spec_string())
    return _bisect(member, *bracket, _ENDPOINT_TOL)


def confidence_region(model: PriorModel, y, alpha, scan_step=None):
    """Region {theta0 : lo(theta0) <= y <= hi(theta0)}, endpoints to 1e-8.

    Default mode brackets outward from the focal point and returns a single
    interval. Passing ``scan_step`` enables a diagnostic dense scan of the
    membership function; if the scan detects disconnected components, the
    union is returned and ``multiple_components`` is set.
    """
    alpha = _check_alpha(alpha)
    y = float(y)
    if not math.isfinite(y):
        raise DomainError("y must be finite, got %r" % (y,))
    focal = model.posterior_mean(y)
    member, lo0, hi0 = _membership(model, focal, alpha, y)
    if not member:
        # allow only solve-tolerance slack before declaring failure
        slack = 1e-7 * model.sigma
        if lo0 is None or not (lo0 - slack <= y <= hi0 + slack):
            raise NumericalError("focal point not in its own region",
                                 y=y, alpha=alpha, focal=focal,
                                 prior=model.spec_string())
    cap = _search_cap(model, y)

    if scan_step is not None:
        return _scan_region(model, y, alpha, focal, cap, float(scan_step))

    left = _bracket_endpoint(model, y, alpha, focal, -1.0, cap)
    right = _bracket_endpoint(model, y, alpha, focal, +1.0, cap)
    return ConfidenceRegion(intervals=((left, right),), alpha=alpha,
                            focal=focal, y=y, prior_spec=model.spec_string())


def _scan_region(model, y, alpha, focal, cap, step):
    lo_grid = model.loc - cap
    n = max(2, int(math.ceil(2.0 * cap / step)) + 1)

    def member(t):
        return _membership(model, t, alpha, y)[0]

    members = [member(lo_grid + i * step) for i in range(n)]
    comps = []
    start = None
    for i, m in enumerate(members):
        if m and start is None:
            start = i
        elif not m and start is not None:
            comps.append((start, i - 1))
            start = None
    if start is not None:
        comps.append((start, n - 1))
    if not comps:
        raise NumericalError("dense scan found an empty region", y=y,
                             alpha=alpha, prior=model.spec_string())
    intervals = []
    for i0, i1 in comps:
        a = lo_grid + i0 * step
        b = lo_grid + i1 * step
        # refine the outer boundaries of each component
        if i0 > 0:
            a = _bisect(member, a, a - step, _ENDPOINT_TOL)
        if i1 < n - 1:
            b = _bisect(member, b, b + step, _ENDPOINT_TOL)
        intervals.append((a, b))
    return ConfidenceRegion(intervals=tuple(intervals), alpha=alpha,
                            focal=focal, y=y, prior_spec=model.spec_string(),
                            multiple_components=len(intervals) > 1)


def p_value_curve(model: PriorModel, y, grid):
    """p_y(theta0) = sup {alpha : theta0 in C_alpha(y)}, by bisection on
    alpha (tolerance 1e-6) using direct membership tests."""
    y = float(y)
    pvals = []
    for theta0 in grid:
        theta0 = float(theta0)

        def member(alpha):
            return _membership(model, theta0, alpha, y)[0]

        a_lo, a_hi = 1e-9, 1.0 - 1e-9
        if not member(a_lo):
            pvals.append(0.0)
        elif member(a_hi):
            pvals.append(1.0)
        else:
            pvals.append(_bisect(member, a_lo, a_hi, 1e-6))
    return PValueCurve(grid=tuple(float(t) for t in grid),
                       pvals=tuple(pvals), y=y)


def z_interval(y, sigma, alpha):
    """Classical equal-tailed interval y +- sigma * Phi^-1(1 - alpha/2)."""
    alpha = _check_alpha(alpha)
    half = sigma * _core.norm_quantile(1.0 - 0.5 * alpha)
    return (y - half, y + half)
