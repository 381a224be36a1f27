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
from fabcr.errors import (MAX_GRID_POINTS, DomainError, NumericalError,
                          RegionBoundError, check_alpha, check_finite,
                          check_positive)
from fabcr.priors import PriorModel

_ENDPOINT_TOL = 1e-8


def _in_range(model, name, value, alpha=None):
    """value (y or theta0) as a finite float. DomainError unless sigma is in
    [1e-75, 1e75] and |value - loc| <= 1e75 sigma, where the kernels form no
    product past 1e300; for the Gaussian prior with a free tau, also unless
    tau is in [1e-4 sigma, 1e75] and |value - loc| <= 1e15 sigma: from about
    1e17 sigma, where floats near y lie sigma or more apart, a region that
    the prior pulls away from y can fall between two of them. For a region
    at level `alpha` with a free tau, also unless the float spacing at loc
    is at most (1 - alpha) tau^2 / sigma, the scale of the region near loc:
    in sweeps the focal point fell outside its region from a spacing of
    about 2.7 times that."""
    value = check_finite(name, value)
    s, tau = model.sigma, model.tau
    reach = 1e75 if tau is None else 1e15
    if not (1e-75 <= s <= 1e75 and abs(value - model.loc) <= reach * s
            and (tau is None or 1e-4 * s <= tau <= 1e75)):
        raise DomainError("need sigma in [1e-75, 1e75] and |%s - loc| <= "
                          "1e75 sigma (for a free gaussian tau, 1e15 sigma "
                          "and tau in [1e-4 sigma, 1e75]), got %s=%r, "
                          "loc=%r, sigma=%r, tau=%r"
                          % (name, name, value, model.loc, s, tau))
    if alpha is not None and tau is not None \
            and math.ulp(model.loc) > (1.0 - alpha) * tau * tau / s:
        raise DomainError("need the float spacing at loc to be at most (1 - "
                          "alpha) tau^2 / sigma, got %r at loc=%r with "
                          "alpha=%r, sigma=%r, tau=%r"
                          % (math.ulp(model.loc), model.loc, alpha, s, tau))
    return value


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
    if `inside_at` still holds at `limit`. The first step is at least the
    float spacing at `start`, so every step moves."""
    inside = start
    step = max(step, math.ulp(start))
    while True:
        t = inside + direction * step
        if limit is not None and direction * (t - limit) > 0.0:
            t = limit
        if not math.isfinite(t):
            raise NumericalError("bracket search overflowed", start=start,
                                 direction=direction, last=inside, **context)
        if not inside_at(t):
            return inside, t
        if t == limit:
            return None
        inside = t
        step *= 2.0


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
# y* satisfies posterior_mean(y*) = theta0 (Pratt 1961). The null mass
# outside the sublevel set through y is the p-value of theta0, which stays
# well-conditioned when the tail weight underflows. Each end of a sublevel
# set fixes the other, its partner point, so no set needs a level search.
#
# For the Gaussian prior lam is a parabola with vertex y* = theta0 + sigma u,
# u = sigma (theta0 - loc) / tau^2, so the partner point is the mirror image
# about y* and needs no level: a level of size (y / sigma)^2 would leave its
# roots only a few digits far from the prior location.

def _lam(model, theta0, y):
    d = y - theta0
    return model.log_marginal(y) + d * d / (2.0 * model.sigma ** 2)


def _tail_mass(lo, hi):
    """Null mass outside [theta0 + sigma lo, theta0 + sigma hi]."""
    return _core.norm_cdf(lo) + _core.norm_cdf(-hi)


def _lam_minimizer(model, theta0):
    """Solve posterior_mean(t) = theta0 (the minimiser of lam)."""
    # the posterior mean increases in t: march toward theta0's side of it
    direction = -1.0 if model.posterior_mean(theta0) > theta0 else 1.0

    def short(t):
        return direction * (model.posterior_mean(t) - theta0) < 0.0

    inside, outside = _march(short, theta0, direction, model.sigma,
                             theta0=theta0, prior=model.spec_string())
    return _bisect(short, inside, outside, 1e-12 * model.sigma)


def _lam_root(model, theta0, level, start, direction):
    """Root of lam(t) = level marching from `start` (where lam < level)."""
    def below(t):
        return _lam(model, theta0, t) < level

    inner, outer = _march(below, start, direction, model.sigma,
                          theta0=theta0, level=level,
                          prior=model.spec_string())
    return _bisect(below, inner, outer, 1e-12 * model.sigma)


def _sublevel(model, theta0):
    """The sublevel sets of lam in sigma units z = (t - theta0) / sigma:
    returns lam's minimiser z* and the map from one end z of a sublevel set
    to its other end (z itself where z is numerically z*)."""
    s = model.sigma
    if model.kind == "gaussian":
        tau = model._kernel_args()[1]
        u = (theta0 - model.loc) / tau * (s / tau)
        return u, lambda z: 2.0 * u - z
    ystar = _lam_minimizer(model, theta0)
    bottom = _lam(model, theta0, ystar)

    def partner(z):
        t = theta0 + s * z
        level = _lam(model, theta0, t)
        if level <= bottom:
            return z
        direction = 1.0 if t < ystar else -1.0
        return (_lam_root(model, theta0, level, ystar, direction)
                - theta0) / s

    return (ystar - theta0) / s, partner


def _p_value(model, theta0, y):
    """p(theta0) = P_theta0(lam(Y) >= lam(y)), the largest alpha whose
    acceptance interval at theta0 holds y: the null mass outside the
    sublevel set through y, which ends at y and at its partner point."""
    z = (y - theta0) / model.sigma
    w = _sublevel(model, theta0)[1](z)
    return 1.0 if w == z else min(1.0, _tail_mass(min(z, w), max(z, w)))


def _np_interval(model, theta0, alpha):
    """Acceptance bounds by bisection on the end of the sublevel set on
    theta0's side of lam's minimiser, stepping from the minimiser toward
    theta0 until the null mass outside the set falls to alpha."""
    zstar, partner = _sublevel(model, theta0)

    def ends(z):
        w = partner(z)
        return min(z, w), max(z, w)

    def short(z):
        return _tail_mass(*ends(z)) > alpha

    bracket = _march(short, zstar, -1.0 if zstar >= 0.0 else 1.0, 1.0,
                     theta0=theta0, alpha=alpha, prior=model.spec_string())
    lo, hi = ends(_bisect(short, *bracket, 1e-12))
    return (_core.norm_cdf(lo) / alpha, theta0 + model.sigma * lo,
            theta0 + model.sigma * hi)


def weight(model: PriorModel, theta0, alpha):
    """Spending weight w in (0,1): the share of alpha put in the lower tail
    of the acceptance interval at theta0."""
    return acceptance_interval(model, theta0, alpha).w


def acceptance_interval(model: PriorModel, theta0, alpha):
    alpha = check_alpha(alpha)
    theta0 = _in_range(model, "theta0", theta0)
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
        return _p_value(model, theta0, y) >= alpha - 1e-12, None, None
    return lo <= y <= hi, lo, hi


def _search_cap(model, y):
    prof = model.tail_profile()
    kappa = prof.kappa if prof is not None else 0.0
    # the search range is centred on the prior location and must hold the
    # focal point, which lies between the location and y; its margin also
    # spans a few floats where they are spaced wider than sigma
    return abs(y - model.loc) + max(50.0 * model.sigma * max(1.0, kappa),
                                    16.0 * math.ulp(abs(y) + abs(model.loc)))


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
    """Region {theta0 : lo(theta0) <= y <= hi(theta0)}, endpoints to 1e-8
    or to the float spacing near y, whichever is wider.

    Default mode brackets outward from the focal point and returns a single
    interval. Passing ``scan_step`` enables a diagnostic dense scan of the
    membership function; if the scan detects disconnected components, the
    union is returned and ``multiple_components`` is set. A y outside the
    supported range (see `_in_range`), or a ``scan_step`` that is not finite
    and positive or that gives more than 10^6 scan points, raises
    DomainError.
    """
    alpha = check_alpha(alpha)
    y = _in_range(model, "y", y, alpha)
    if scan_step is not None:
        scan_step = check_positive("scan_step", scan_step)
    cap = _search_cap(model, y)
    if scan_step is not None and 2.0 * cap / scan_step > MAX_GRID_POINTS - 1:
        raise DomainError("scan_step %r gives more than %d scan points"
                          % (scan_step, MAX_GRID_POINTS))
    focal = model.posterior_mean(y)
    member, lo0, hi0 = _membership(model, focal, alpha, y)
    if not member:
        # allow only solve-tolerance slack before declaring failure
        slack = 1e-7 * model.sigma
        if lo0 is None or not (lo0 - slack <= y <= hi0 + slack):
            raise NumericalError("focal point not in its own region",
                                 y=y, alpha=alpha, focal=focal,
                                 prior=model.spec_string())

    if scan_step is not None:
        return _scan_region(model, y, alpha, focal, cap, scan_step)

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
    """p_y(theta0) = sup {alpha : theta0 in C_alpha(y)} on each grid point,
    in closed form: the null mass outside the acceptance interval at theta0
    whose boundary passes through y. A y or grid point outside the
    supported range (see `_in_range`) raises DomainError."""
    y = _in_range(model, "y", y)
    grid = tuple(_in_range(model, "theta0", t) for t in grid)
    return PValueCurve(grid=grid, pvals=tuple(_p_value(model, t, y)
                                              for t in grid), y=y)


def z_interval(y, sigma, alpha):
    """Classical equal-tailed interval y +- sigma * Phi^-1(1 - alpha/2)."""
    alpha = check_alpha(alpha)
    y = check_finite("y", y)
    sigma = check_positive("sigma", sigma)
    half = sigma * _core.norm_quantile(1.0 - 0.5 * alpha)
    return (y - half, y + half)
