"""Confidence regions for discrete natural exponential families.

Families with conjugate-style priors: binomial with a beta prior, Poisson
with a gamma prior, multinomial with a Dirichlet prior (k <= 4 categories).
The prior enters only through the marginal-to-base log-ratio lambda(y); the
acceptance set at natural parameter eta keeps the support points with the
smallest

    lambda_eta(y) = lambda(y) - eta . y + psi(eta)

until their null probability reaches 1 - alpha (ties included, so coverage
is a lower bound). Inverting membership over a theta grid gives the region
in mean (theta) scale; the estimator theta_hat = F(grad lambda(y)) is the
point inside the region at every level.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from fabcr import _core
from fabcr.errors import DomainError, NumericalError, SpecParseError

FAMILIES = ("binom", "poisson", "multinom")

_TIE_REL = 1e-12


@dataclass(frozen=True)
class NefModel:
    family: str
    n: Optional[int] = None            # binom / multinom trials
    a: Optional[Tuple[float, ...]] = None  # prior shapes (len 1, or k for multinom)
    b: Optional[float] = None          # binom second shape
    p: Optional[float] = None          # poisson gamma scale parameter in (0,1)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecParseError("unknown NEF family %r (choose from %s)"
                                 % (self.family, ", ".join(FAMILIES)))
        if self.family == "binom":
            if self.n is None or self.n < 1:
                raise DomainError("binom: n must be >= 1, got %r" % (self.n,))
            if self.a is None or len(self.a) != 1 or self.a[0] <= 0:
                raise DomainError("binom: shape a must be positive")
            if self.b is None or self.b <= 0:
                raise DomainError("binom: shape b must be positive")
        elif self.family == "poisson":
            if self.a is None or len(self.a) != 1 or self.a[0] <= 0:
                raise DomainError("poisson: shape a must be positive")
            if self.p is None or not (0.0 < self.p < 1.0):
                raise DomainError("poisson: p must be in (0,1), got %r" % (self.p,))
        else:
            if self.n is None or self.n < 1:
                raise DomainError("multinom: n must be >= 1, got %r" % (self.n,))
            if self.a is None or len(self.a) < 2 or any(x <= 0 for x in self.a):
                raise DomainError("multinom: need k >= 2 positive shapes")
            if len(self.a) > 4:
                raise DomainError("multinom: k <= 4 supported (exhaustive "
                                  "support enumeration), got k=%d" % len(self.a))

    @property
    def k(self):
        return len(self.a) if self.family == "multinom" else None

    # -- support -----------------------------------------------------------

    def support(self, eta=None, mass=1.0 - 1e-12):
        """Support points; for Poisson, truncated where the null mass under
        eta reaches `mass` (enlarged automatically by acceptance_set)."""
        if self.family == "binom":
            return list(range(self.n + 1))
        if self.family == "multinom":
            return self._simplex_lattice()
        theta = math.exp(eta) if eta is not None else self.a[0] * (1 - self.p) / self.p
        m = int(theta + 12.0 * math.sqrt(theta + 1.0) + 30.0)
        while m <= 10 ** 8 and self._poisson_tail(theta, m) > 1.0 - mass:
            m *= 2
        if m > 10 ** 8:
            raise NumericalError("poisson support truncation runaway",
                                 theta=theta, support_max=m)
        return list(range(m + 1))

    def _simplex_lattice(self):
        k, n = len(self.a), self.n
        pts = []

        def rec(prefix, rest, left):
            if rest == 1:
                pts.append(tuple(prefix) + (left,))
                return
            for c in range(left + 1):
                rec(prefix + [c], rest - 1, left - c)

        rec([], k, n)
        return pts

    @staticmethod
    def _poisson_tail(theta, m):
        """P(Y > m) for Y ~ Poisson(theta) and m >= theta, summed upward from
        m + 1 until a term falls below 1e-17 of the sum. Summing the tail
        keeps its relative accuracy; 1 - P(Y <= m) has an absolute rounding
        error above 1e-13 once theta is about 1e3."""
        term = math.exp((m + 1) * math.log(theta) - theta - math.lgamma(m + 2.0))
        total = term
        y = m + 1
        while term > 1e-17 * total:
            y += 1
            term *= theta / y
            total += term
        return total

    # -- prior cumulant lambda and its gradient ----------------------------

    def lam(self, y):
        """Marginal-to-base log ratio lambda(y) on the extended domain."""
        if self.family == "binom":
            yy = float(y)
            if not (-self.a[0] < yy < self.b + self.n):
                raise DomainError("binom lambda: y=%r outside (-a, b+n)" % (y,))
            return (_core.log_beta(self.a[0] + yy, self.b + self.n - yy)
                    - _core.log_beta(self.a[0], self.b))
        if self.family == "poisson":
            yy = float(y)
            if not yy > -self.a[0]:
                raise DomainError("poisson lambda: y=%r outside (-a, inf)" % (y,))
            a, p = self.a[0], self.p
            return (_core.log_gamma(a + yy) - _core.log_gamma(a)
                    + yy * math.log(1.0 - p) + a * math.log(p))
        ys = tuple(float(v) for v in y)
        if len(ys) != len(self.a):
            raise DomainError("multinom lambda: y must have k=%d entries"
                              % len(self.a))
        if not all(v > -ai for v, ai in zip(ys, self.a)):
            raise DomainError("multinom lambda: y=%r outside domain" % (y,))
        asum = sum(self.a)
        nsum = sum(ys)
        out = _core.log_gamma(asum) - _core.log_gamma(asum + nsum)
        for ai, v in zip(self.a, ys):
            out += _core.log_gamma(ai + v) - _core.log_gamma(ai)
        return out

    def grad_lam(self, y):
        """Gradient of lambda at y (digamma closed forms) on the domain of
        lam: outside it the lam call raises DomainError, so digamma is never
        evaluated at a nonpositive argument."""
        self.lam(y)
        if self.family == "binom":
            return _core.digamma(self.a[0] + y) - _core.digamma(self.b + self.n - y)
        if self.family == "poisson":
            return _core.digamma(self.a[0] + y) + math.log(1.0 - self.p)
        ys = tuple(float(v) for v in y)
        last = _core.digamma(self.a[-1] + ys[-1])
        return tuple(_core.digamma(ai + v) - last
                     for ai, v in zip(self.a[:-1], ys[:-1]))

    def observation(self, y):
        """y checked as an observed outcome and returned in canonical form:
        an int in {0..n} (binomial), a nonnegative int (Poisson), k
        nonnegative ints summing to n (multinomial). Integral floats are
        accepted; anything else raises DomainError."""
        if self.family == "binom":
            if not (0 <= y <= self.n) or y != int(y):
                raise DomainError("binom: y must be in {0..n}, got %r" % (y,))
            return int(y)
        if self.family == "poisson":
            if not (0 <= y < math.inf) or y != int(y):
                raise DomainError("poisson: y must be a nonnegative integer, "
                                  "got %r" % (y,))
            return int(y)
        ys = tuple(y)
        if len(ys) != self.k or sum(ys) != self.n \
                or not all(0 <= v <= self.n and v == int(v) for v in ys):
            raise DomainError("multinom: y must be k counts summing to n, "
                              "got %r" % (y,))
        return tuple(int(v) for v in ys)

    # -- natural parameterization ------------------------------------------

    def eta_of_theta(self, theta):
        if self.family == "binom":
            if not (0.0 < theta < 1.0):
                raise DomainError("binom: theta must be in (0,1), got %r" % (theta,))
            return math.log(theta / (1.0 - theta))
        if self.family == "poisson":
            if theta <= 0.0:
                raise DomainError("poisson: theta must be positive, got %r" % (theta,))
            return math.log(theta)
        th = tuple(float(v) for v in theta)
        if len(th) != len(self.a) or any(v <= 0 for v in th) \
                or abs(sum(th) - 1.0) > 1e-9:
            raise DomainError("multinom: theta must be a length-k point in "
                              "the open simplex")
        return tuple(math.log(v / th[-1]) for v in th[:-1])

    def mean_map(self, eta):
        """F(eta): probability/mean scale value of the natural parameter."""
        if self.family == "binom":
            return 1.0 / (1.0 + math.exp(-eta))
        if self.family == "poisson":
            return math.exp(eta)
        es = tuple(eta) + (0.0,)
        m = max(es)
        ws = [math.exp(e - m) for e in es]
        z = sum(ws)
        return tuple(w / z for w in ws)

    def _log_pmf(self, eta, y):
        """log f_eta(y) on the support."""
        if self.family == "binom":
            n = self.n
            lbin = (_core.log_gamma(n + 1.0) - _core.log_gamma(y + 1.0)
                    - _core.log_gamma(n - y + 1.0))
            return lbin + y * eta - n * math.log1p(math.exp(eta)) \
                if eta < 500 else lbin + (y - n) * eta
        if self.family == "poisson":
            theta = math.exp(eta)
            return y * eta - theta - _core.log_gamma(y + 1.0)
        n = self.n
        out = _core.log_gamma(n + 1.0)
        theta = self.mean_map(eta)
        for v, t in zip(y, theta):
            out += v * math.log(t) - _core.log_gamma(v + 1.0)
        return out

    def _lam_eta(self, eta, y):
        """lambda(y) - eta . y + psi(eta) (the NP sorting statistic)."""
        if self.family == "binom":
            psi = self.n * math.log1p(math.exp(eta)) if eta < 500 else self.n * eta
            return self.lam(y) - eta * y + psi
        if self.family == "poisson":
            return self.lam(y) - eta * y + math.exp(eta)
        es = tuple(eta)
        m = max(es + (0.0,))
        psi = self.n * (m + math.log(sum(math.exp(e - m) for e in es + (0.0,))))
        dot = sum(e * v for e, v in zip(es, y[:-1]))
        return self.lam(y) - dot + psi

    def fab_estimator(self, y):
        """(eta_hat, theta_hat): posterior-mean natural parameter and its
        mean-scale image."""
        eta_hat = self.grad_lam(y)
        return eta_hat, self.mean_map(eta_hat)

    def spec_string(self):
        if self.family == "binom":
            return "binom:n=%d,a=%.17g,b=%.17g" % (self.n, self.a[0], self.b)
        if self.family == "poisson":
            return "poisson:a=%.17g,p=%.17g" % (self.a[0], self.p)
        shapes = ",".join("a%d=%.17g" % (i + 1, v) for i, v in enumerate(self.a))
        return "multinom:n=%d,%s" % (self.n, shapes)


@dataclass(frozen=True)
class DiscreteAcceptanceSet:
    eta: object
    alpha: float
    members: Tuple
    attained_coverage: float

    def contains(self, y):
        return y in self.members


def acceptance_set(model: NefModel, eta, alpha):
    """Smallest-lambda_eta acceptance set with null mass >= 1 - alpha.

    Support points are sorted by lambda_eta ascending and accumulated until
    the target mass is reached; points tied with the cutoff are included
    (over-coverage is permitted), with deterministic ordering by y.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1), got %r" % (alpha,))
    support = model.support(eta=eta if model.family == "poisson" else None)
    scored = sorted(((model._lam_eta(eta, y), y) for y in support),
                    key=lambda t: (t[0], t[1] if model.family != "multinom" else t[1]))
    target = 1.0 - alpha
    total_mass = 0.0
    acc = 0.0
    cutoff = None
    members = []
    probs = [math.exp(model._log_pmf(eta, y)) for _, y in scored]
    total_mass = sum(probs)
    if model.family == "poisson" and total_mass < target:
        raise NumericalError("poisson truncation insufficient", eta=eta,
                             mass=total_mass)
    for (lv, y), pr in zip(scored, probs):
        if cutoff is not None and lv > cutoff:
            break
        members.append(y)
        acc += pr
        if cutoff is None and acc >= target:
            cutoff = lv + _TIE_REL * max(1.0, abs(lv))
    if cutoff is None:
        # numerically short of the target due to truncation rounding: take all
        members = [y for _, y in scored]
        acc = total_mass
    members.sort()
    return DiscreteAcceptanceSet(eta=eta, alpha=alpha, members=tuple(members),
                                 attained_coverage=acc)


@dataclass(frozen=True)
class NefRegion:
    """Region in mean (theta) scale: intervals for scalar families, a tuple
    of simplex grid cells for the multinomial."""
    family_spec: str
    y: object
    alpha: float
    estimator: object
    estimator_member: bool
    intervals: Optional[Tuple[Tuple[float, float], ...]] = None
    cells: Optional[Tuple] = None
    grid: Optional[float] = None

    def contains(self, theta):
        if self.intervals is not None:
            return any(lo <= theta <= hi for lo, hi in self.intervals)
        return tuple(theta) in set(self.cells)

    def to_json(self):
        d = {"family": self.family_spec, "y": self.y, "alpha": self.alpha,
             "estimator": self.estimator, "estimator_member": self.estimator_member,
             "grid": self.grid}
        if self.intervals is not None:
            d["intervals"] = [[lo, hi] for lo, hi in self.intervals]
        else:
            d["cells"] = [list(c) for c in self.cells]
        return json.dumps(d)


def _components(thetas, member_flags):
    comps = []
    start = None
    for i, m in enumerate(member_flags):
        if m and start is None:
            start = i
        elif not m and start is not None:
            comps.append((thetas[start], thetas[i - 1]))
            start = None
    if start is not None:
        comps.append((thetas[start], thetas[-1]))
    return tuple(comps)


def _zero_accepted_below(model, theta, alpha):
    """Whether the Poisson outcome y = 0 is accepted at every theta below
    `theta`, by either of two sufficient conditions:

    * the outcomes y' > 0 hold null mass 1 - exp(-theta) < 1 - alpha (less
      a margin for the rounding of the summed masses), so the acceptance set
      reaches 0 before its target mass;
    * 0 sorts first on the support at `theta`: lambda_eta(y') -
      lambda_eta(0) = lambda(y') - lambda(0) - eta y' grows as eta falls and
      is convex in y' (log-gamma is), so 0 then sorts first among all
      outcomes at every smaller theta.
    """
    if -math.expm1(-theta) < 1.0 - alpha - 1e-9:
        return True
    eta = model.eta_of_theta(theta)
    first = min(model.support(eta=eta), key=lambda v: (model._lam_eta(eta, v), v))
    return first == 0


def theta_grid(model: NefModel, y, grid=None):
    """(step, thetas): the theta points at which `confidence_region_nef`
    tests membership of y, and the step it reports as the region's `grid`.

    Binomial: multiples of the theta step `grid` (default 1e-4) inside
    (0, 1). Poisson: log-theta steps of `grid` (default 1e-3) from
    (y+1)/60 to at least 60 (y+1). Multinomial: the open-simplex points
    with coordinates in multiples of 1/denominator, `grid` being the
    denominator (default 60; truncated to an integer), and step
    1/denominator. A `grid` that is not finite and positive, or that leaves
    no grid point inside the family's range, raises DomainError.
    """
    default = {"binom": 1e-4, "poisson": 1e-3, "multinom": 60}[model.family]
    step = default if grid is None else float(grid)
    if not (0.0 < step < math.inf):
        raise DomainError("grid must be finite and positive, got %r" % (grid,))

    if model.family == "binom":
        m = int(round(1.0 / step))
        if m < 2:
            raise DomainError("binom: grid step %r leaves no theta inside "
                              "(0, 1)" % (grid,))
        return step, [i * step for i in range(1, m)]

    if model.family == "poisson":
        lo = math.log(max(1e-8, (y + 1.0) / 60.0))
        hi = math.log(60.0 * (y + 1.0))
        npts = int(math.ceil((hi - lo) / step)) + 1
        if npts < 3:
            raise DomainError("poisson: log-theta grid step %r leaves no "
                              "theta inside the search window" % (grid,))
        return step, [math.exp(lo + i * step) for i in range(npts)]

    denom = int(step)
    k = model.k
    if denom < k:
        raise DomainError("multinom: grid (the simplex denominator) must "
                          "be >= k=%d, got %r" % (k, grid))
    cells = []

    def rec(prefix, rest, left):
        if rest == 1:
            if left > 0:
                cells.append(tuple(prefix) + (left,))
            return
        for c in range(1, left - (rest - 1) + 1):
            rec(prefix + [c], rest - 1, left - c)

    rec([], k, denom)
    return 1.0 / denom, [tuple(c / denom for c in cell) for cell in cells]


def confidence_region_nef(model: NefModel, y, alpha, grid=None):
    """Grid inversion of the acceptance sets, reported in theta scale.

    `grid` sets the resolution: the theta step for the binomial (default
    1e-4), the log-theta step for the Poisson (default 1e-3), and the simplex
    denominator for the multinomial (default 60, i.e. cells at multiples of
    1/60); see `theta_grid`. Returns the union of grid-connected components;
    the estimator is checked for membership and flagged (never clamped) when
    outside. A Poisson region that reaches the first grid point starts at
    0.0 if y = 0 and 0 is accepted at every smaller theta; any other Poisson
    region that reaches either end of the grid raises NumericalError.

    An alpha outside (0,1), a y that is not an outcome of the family (see
    `NefModel.observation`), or an unusable grid (see `theta_grid`) raises
    DomainError before any computation.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1), got %r" % (alpha,))
    y = model.observation(y)
    step, thetas = theta_grid(model, y, grid)
    eta_hat, theta_hat = model.fab_estimator(y)
    flags = [y in acceptance_set(model, model.eta_of_theta(t), alpha).members
             for t in thetas]

    if model.family == "multinom":
        members = [t for t, m in zip(thetas, flags) if m]
        member = False
        # estimator membership judged at its nearest grid cell
        if members:
            nearest = min(thetas, key=lambda t: sum(
                (a - b) ** 2 for a, b in zip(t, theta_hat)))
            member = nearest in set(members)
        return NefRegion(family_spec=model.spec_string(), y=y, alpha=alpha,
                         estimator=theta_hat, estimator_member=member,
                         cells=tuple(members), grid=step)

    comps = _components(thetas, flags)
    if model.family == "poisson" and (flags[0] or flags[-1]):
        if flags[-1] or y != 0 \
                or not _zero_accepted_below(model, thetas[0], alpha):
            raise NumericalError("poisson theta grid does not cover the "
                                 "region", y=y, alpha=alpha)
        comps = ((0.0, comps[0][1]),) + comps[1:]
    member = any(lo <= theta_hat <= hi for lo, hi in comps)
    return NefRegion(family_spec=model.spec_string(), y=y, alpha=alpha,
                     estimator=theta_hat, estimator_member=member,
                     intervals=comps, grid=step)


def parse_family(spec):
    """Build a NefModel from a spec string: "binom:n=8,a=1,b=1",
    "poisson:a=1,p=0.5", "multinom:n=15,a1=1,a2=1,a3=1"."""
    if not isinstance(spec, str) or not spec.strip():
        raise SpecParseError("empty family spec")
    head, _, tail = spec.strip().partition(":")
    family = head.strip().lower()
    if family not in FAMILIES:
        raise SpecParseError("unknown NEF family %r in spec %r" % (family, spec))
    kv = {}
    for item in tail.split(",") if tail.strip() else []:
        key, eq, val = item.partition("=")
        key = key.strip().lower()
        if not eq or not key:
            raise SpecParseError("malformed parameter %r in family spec %r"
                                 % (item, spec))
        try:
            kv[key] = float(val)
        except ValueError:
            raise SpecParseError("non-numeric value %r in family spec %r"
                                 % (val.strip(), spec)) from None
    try:
        if family == "binom":
            model = NefModel(family="binom", n=int(kv.pop("n")),
                             a=(kv.pop("a"),), b=kv.pop("b"))
            if kv:
                raise SpecParseError("unexpected parameter(s) %s in family "
                                     "spec %r" % (", ".join(sorted(kv)), spec))
            return model
        if family == "poisson":
            model = NefModel(family="poisson", a=(kv.pop("a"),), p=kv.pop("p"))
            if kv:
                raise SpecParseError("unexpected parameter(s) %s in family "
                                     "spec %r" % (", ".join(sorted(kv)), spec))
            return model
        n = int(kv.pop("n"))
        shapes = []
        i = 1
        while ("a%d" % i) in kv:
            shapes.append(kv.pop("a%d" % i))
            i += 1
        if kv:
            raise SpecParseError("unexpected parameter(s) %s in family spec %r"
                                 % (", ".join(sorted(kv)), spec))
        return NefModel(family="multinom", n=n, a=tuple(shapes))
    except KeyError as exc:
        raise SpecParseError("missing parameter %s in family spec %r"
                             % (exc, spec)) from None
