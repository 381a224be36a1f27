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

import bisect
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from fabcr import _core
from fabcr.errors import (MAX_GRID_POINTS, DomainError, NumericalError,
                          SpecParseError, check_alpha, check_count,
                          check_finite, check_positive)
from fabcr.gaussian import _runs
from fabcr.priors import _parse_spec

FAMILIES = ("binom", "poisson", "multinom")

# the parameters each family takes, all required
_FAMILY_PARAMS = {"binom": ("n", "a", "b"), "poisson": ("a", "p"),
                  "multinom": ("n", "a")}
_FAMILY_FIELDS = sorted(set().union(*_FAMILY_PARAMS.values()))

_TIE_REL = 1e-12
# the largest eta whose e^eta is a float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# matrix elements (grid rows x support points) evaluated at once
_BLOCK = 16384
# elements `_map` lists at once
_CHUNK = 4096
# the most ulps np.exp may differ from math.exp by for `_accepted` to give
# math.exp's decisions (tests/test_nef.py checks it on the CPU it runs on)
_EXP_ULPS = 8
# the most points a Poisson support may have: a region's terms and rows take
# about 100 bytes per point
_SUPPORT_MAX = 10 ** 7


def _compositions(total, k, least):
    """The k-tuples of integers >= `least` summing to `total`, in
    lexicographic order, as the rows of an int array."""
    free = total - k * least
    heads = np.zeros((1, 0), int)
    for _ in range(k - 1):
        # each head takes every next entry that leaves `least` for the rest
        room = free - heads.sum(axis=1) + 1
        nxt = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        heads = np.column_stack([np.repeat(heads, room, axis=0), nxt])
    return np.column_stack([heads, free - heads.sum(axis=1)]) + least


def _map(fn, x):
    """The `math` function fn at each element of the array x, _CHUNK
    elements at a time (so no list of the whole argument is built): numpy's
    transcendentals are not correctly rounded and may differ by CPU."""
    flat = x.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _CHUNK):
        out[i:i + _CHUNK] = np.fromiter(map(fn, flat[i:i + _CHUNK].tolist()),
                                        float)
    return out.reshape(x.shape)


def _row_sum(x):
    """Each row of the matrix x summed left to right, as `sum` does."""
    total = x[:, 0]
    for j in range(1, x.shape[1]):
        total = total + x[:, j]
    return total


def _softmax(es):
    """(top, w, z) at each row of the multinomial natural parameters `es`
    extended by eta_k = 0: the row maximum, w = e^(eta - top) and
    z = w_1 + ... + w_k, so that F(eta) = w / z and psi = n (top + log z)."""
    ext = np.concatenate([es, np.zeros((len(es), 1))], axis=1)
    top = ext.max(axis=1)
    w = _map(math.exp, ext - top[:, None])
    return top, w, _row_sum(w)


def _poisson_tops(thetas):
    """The last Poisson support point m = theta + 12 sqrt(theta + 1) + 30 at
    each mean in the array `thetas`, as ints: by Bernstein's inequality the
    null tail P(Y > m) is below exp(-60) at every theta. An m above
    _SUPPORT_MAX raises NumericalError."""
    tops = np.floor(thetas + 12.0 * _map(math.sqrt, thetas + 1.0) + 30.0)
    runaway = tops > _SUPPORT_MAX
    if runaway.any():
        r = int(np.argmax(runaway))
        raise NumericalError("poisson support truncation runaway",
                             theta=float(thetas[r]), support_max=int(tops[r]))
    return tops.astype(int)


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
        params = _FAMILY_PARAMS[self.family]
        given = [f for f in _FAMILY_FIELDS if getattr(self, f) is not None]
        if sorted(params) != given:
            raise SpecParseError("%s family takes %s, got %s" % (
                self.family, ", ".join(params), ", ".join(given) or "none"))
        if self.n is not None:
            check_count("%s: n" % self.family, self.n)
        least, most = (2, 4) if self.family == "multinom" else (1, 1)
        if not least <= len(self.a) <= most:
            raise DomainError("%s: need %d to %d shapes a (the multinomial "
                              "support is enumerated), got %d"
                              % (self.family, least, most, len(self.a)))
        for v in self.a:
            check_positive("%s: shape a" % self.family, v)
        if self.b is not None:
            check_positive("binom: shape b", self.b)
        if self.p is not None and not 0.0 < self.p < 1.0:
            raise DomainError("poisson: p must be in (0,1), got %r" % (self.p,))

    @property
    def k(self):
        return len(self.a) if self.family == "multinom" else None

    # -- support -----------------------------------------------------------

    def support(self, eta=None):
        """Support points: {0..n} for the binomial, the k-tuples of counts
        summing to n for the multinomial, {0..m} for the Poisson, m being
        `_poisson_top(eta)`."""
        if self.family == "binom":
            return list(range(self.n + 1))
        if self.family == "multinom":
            return list(map(tuple, _compositions(self.n, self.k, 0).tolist()))
        return list(range(self._poisson_top(eta) + 1))

    def _poisson_top(self, eta=None):
        """`_poisson_tops` at theta = exp(eta), or at the prior mean when eta
        is None."""
        theta = math.exp(eta) if eta is not None else self.a[0] * (1 - self.p) / self.p
        return int(_poisson_tops(np.array([theta]))[0])

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
        """The natural parameter of one mean-scale point (see `_etas`)."""
        eta = self._etas([theta])[0]
        return tuple(eta.tolist()) if self.k else float(eta)

    def _etas(self, thetas):
        """The natural parameter of each mean-scale point in `thetas`, one
        row of an array each: log(theta / (1 - theta)) (binomial), log theta
        (Poisson), the k - 1 values log(theta_j / theta_k) (multinomial). A
        point that is not one real (k reals for the multinomial), lies
        outside (0, 1), is a non-finite or nonpositive Poisson mean, or is
        off the open simplex raises DomainError."""
        try:
            th = np.asarray(thetas, dtype=float)
        except (OverflowError, ValueError):
            th = None
        if th is None or th.shape[1:] != ((self.k,) if self.k else ()):
            raise DomainError("%s: theta must be %s, got %r" % (
                self.family, "k = %d reals" % self.k if self.k
                else "one real", thetas))
        if self.family == "multinom":
            if (th <= 0).any() or (np.abs(_row_sum(th) - 1.0) > 1e-9).any():
                raise DomainError("multinom: theta must be a length-k point "
                                  "in the open simplex")
            return _map(math.log, th[:, :-1] / th[:, -1:])
        if self.family == "binom":
            bad = ~((0.0 < th) & (th < 1.0))
            if bad.any():
                raise DomainError("binom: theta must be in (0,1), got %r"
                                  % (thetas[int(np.argmax(bad))],))
            return _map(math.log, th / (1.0 - th))
        bad = ~((0.0 < th) & (th < math.inf))
        if bad.any():
            check_positive("poisson: theta", thetas[int(np.argmax(bad))])
        return _map(math.log, th)

    def mean_map(self, eta):
        """F(eta): probability/mean scale value of the natural parameter."""
        if self.family == "binom":
            return 1.0 / (1.0 + math.exp(-eta))
        if self.family == "poisson":
            return math.exp(eta)
        _, w, z = _softmax(np.array([eta], dtype=float))
        return tuple((w[0] / z[0]).tolist())

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


def _terms(model, support):
    """The eta-free parts of lambda_eta and log f_eta at each support point,
    computed once per support: (points as floats, lambda(y), base), base
    being log C(n, y) (binomial), log y! (Poisson) or, for the multinomial,
    (log n!, the log y_j! of each cell)."""
    lg = _core.log_gamma
    ys = np.array(support, dtype=float)
    lam = np.array([model.lam(y) for y in support])
    if model.family == "binom":
        head, n = lg(model.n + 1.0), model.n
        base = np.array([head - lg(y + 1.0) - lg(n - y + 1.0) for y in support])
    elif model.family == "poisson":
        base = np.array([lg(y + 1.0) for y in support])
    else:
        base = (lg(model.n + 1.0),
                np.array([[lg(v + 1.0) for v in y] for y in support]))
    return ys, lam, base


def _log_partition(model, es):
    """(psi, log theta) at each row of the natural parameters `es`: psi(eta)
    as an array and, for the multinomial, the log cell probabilities
    log theta_j (one column per cell; None for the other families). The
    binomial takes psi = n eta from eta = 500 on, where n log1p(e^eta) is
    n eta to double precision and e^eta soon overflows."""
    if model.family == "binom":
        psi = model.n * es
        small = es < 500
        psi[small] = model.n * _map(math.log1p, _map(math.exp, es[small]))
        return psi, None
    if model.family == "poisson":
        return _map(math.exp, es), None
    top, w, z = _softmax(es)
    return model.n * (top + _map(math.log, z)), _map(math.log, w / z[:, None])


def _rows(model, terms, etas):
    """(lambda_eta, log f_eta): one row per natural parameter in `etas`, one
    column per support point of `terms`. numpy does only the correctly
    rounded +, -, x, / and max, in the order of the scalar formulas, and
    the transcendentals (psi, log theta_j) are `math` functions mapped over
    each block's rows, so each entry is the same float at any block size
    and on any CPU."""
    ys, lam, base = terms
    es = np.asarray(etas, dtype=float)
    psi, logt = _log_partition(model, es)
    psi = psi[:, None]
    if model.family == "multinom":
        # the dot product eta . y left to right, column by column (np.dot
        # may use BLAS or fused multiply-adds)
        dot = es[:, :1] * ys[:, 0]
        for j in range(1, model.k - 1):
            dot = dot + es[:, j:j + 1] * ys[:, j]
        head, cells = base
        lp = head
        for j in range(model.k):
            lp = lp + (ys[:, j] * logt[:, j:j + 1] - cells[:, j])
        return (lam - dot) + psi, lp
    ey = es[:, None] * ys
    if model.family == "poisson":
        return (lam - ey) + psi, (ey - psi) - base
    lp = (base + ey) - psi
    for r in np.flatnonzero(es >= 500):
        # psi = n eta there, and the pmf takes the (y - n) eta form
        lp[r] = base + (ys - model.n) * es[r]
    return (lam - ey) + psi, lp


def _accepted(model, terms, etas, alpha, sizes=None):
    """(members, ranked) of the acceptance sets at each natural parameter
    in `etas`: a (rows x support) boolean matrix and each row's log null
    masses in rank order. Each row is sorted stably by lambda_eta (the
    support is in ascending order, so ties fall in the order of y), its
    masses are exponentiated and summed in that order, and a point is a
    member unless some prefix sum reaches 1 - alpha and its lambda_eta lies
    past the tie cutoff of the first such prefix. The masses go through one
    np.exp. They sum to about 1 at most, so if np.exp is within _EXP_ULPS
    of math.exp, each prefix sum over K ranks is within
    (_EXP_ULPS + 2 K) 2^-52 of the `math.exp` one, and a row whose sums all
    stay that far from 1 - alpha reaches it at the same rank; the other
    rows are summed again from `math.exp`. So the members are those of
    `math.exp` sums on any CPU. `sizes` limits each row to its first
    sizes[r] points (the Poisson support grows with theta)."""
    if sizes is not None:
        terms = tuple(t[:max(sizes)] for t in terms)
    lv, lp = _rows(model, terms, etas)
    if sizes is not None:
        beyond = np.arange(lv.shape[1]) >= np.array(sizes)[:, None]
        lv[beyond], lp[beyond] = math.inf, -math.inf
    order = np.argsort(lv, axis=1, kind="stable")
    rows = np.arange(len(lv))
    ranked = np.take(lp, order + lv.shape[1] * rows[:, None])
    mass = np.cumsum(np.exp(ranked), axis=1)
    target = 1.0 - alpha
    tol = (_EXP_ULPS + 2 * lv.shape[1]) * 2.0 ** -52
    # the sums do not decrease, so a row's first sum past target - tol is
    # the only one that may lie within tol of the target
    near = mass >= target - tol
    first = near.argmax(axis=1)
    reached = near[rows, first]
    redo = np.flatnonzero(reached & (mass[rows, first] <= target + tol))
    if redo.size:
        reach = np.cumsum(_map(math.exp, ranked[redo]), axis=1) >= target
        first[redo], reached[redo] = reach.argmax(axis=1), reach.any(axis=1)
    level = lv[rows, order[rows, first]]
    cutoff = np.where(reached,
                      level + _TIE_REL * np.maximum(1.0, np.abs(level)),
                      math.inf)
    members = lv <= cutoff[:, None]
    if model.family == "poisson" and not np.isfinite(cutoff).all():
        r = int(np.argmax(cutoff))
        raise NumericalError("poisson truncation insufficient",
                             eta=float(np.asarray(etas)[r]),
                             mass=_coverage(ranked[r], members[r].sum()))
    return members, ranked


def _coverage(ranked, count):
    """The null mass of the first `count` of a row's ranked log-masses,
    exponentiated with `math.exp` and summed in rank order."""
    return float(np.cumsum(_map(math.exp, ranked[:count]))[-1])


def _check_eta(model, eta):
    """eta as a natural parameter of the family: a float for the binomial
    and the Poisson, a tuple of k - 1 floats for the multinomial. An eta of
    another type or shape, a non-finite one, or one whose mean-scale value
    is not a float (e^eta overflows for the Poisson, a cell of F(eta)
    underflows to 0 for the multinomial), or one whose product with n or
    with the largest Poisson support point overflows (so the rows' eta . y
    would) raises DomainError."""
    k = model.k
    try:
        values = tuple(eta) if k else (eta,)
    except TypeError:
        values = ()
    if len(values) != (k - 1 if k else 1) \
            or not all(isinstance(v, numbers.Real) for v in values):
        raise DomainError("%s: eta must be %s, got %r" % (
            model.family, "k - 1 = %d reals" % (k - 1) if k else "one real",
            eta))
    values = tuple(check_finite("%s: eta" % model.family, v) for v in values)
    if model.family == "poisson" and values[0] > _LOG_FLOAT_MAX:
        raise DomainError("poisson: e^eta overflows at eta=%r" % values)
    if k and 0.0 in model.mean_map(values):
        raise DomainError("multinom: a cell of F(eta) underflows to 0 at "
                          "eta=%r" % (values,))
    most = model.n if model.n is not None else model._poisson_top(values[0])
    if not math.isfinite(max(map(abs, values)) * most):
        raise DomainError("%s: eta=%r times the largest support point %d "
                          "overflows" % (model.family, eta, most))
    return values if k else values[0]


def acceptance_set(model: NefModel, eta, alpha):
    """Smallest-lambda_eta acceptance set with null mass >= 1 - alpha.

    Support points are sorted by lambda_eta ascending and accumulated until
    the target mass is reached; points tied with the cutoff are included
    (over-coverage is permitted), with deterministic ordering by y. A set
    whose summed mass never reaches the target holds every point; for the
    Poisson, whose support is truncated, that raises NumericalError. The
    Poisson support's top is doubled while it is a member (lambda_eta is
    convex, so the members are a run of integers), up to _SUPPORT_MAX. An
    alpha outside (0, 1) or an eta refused by `_check_eta` raises
    DomainError before any computation.
    """
    alpha = check_alpha(alpha)
    eta = _check_eta(model, eta)
    support = model.support(eta=eta if model.family == "poisson" else None)
    while True:
        members, ranked = _accepted(model, _terms(model, support), [eta],
                                    alpha)
        if model.family != "poisson" or not members[0, -1]:
            break
        top = 2 * support[-1]
        if top > _SUPPORT_MAX:
            raise NumericalError("poisson support truncation runaway",
                                 eta=eta, support_max=top)
        support = list(range(top + 1))
    return DiscreteAcceptanceSet(
        eta=eta, alpha=alpha,
        members=tuple(y for y, m in zip(support, members[0]) if m),
        attained_coverage=_coverage(ranked[0], members[0].sum()))


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
        """Whether theta lies in the reported region. Interval ends are grid
        points, so this is exact only on the grid: a theta between an end
        and its outer grid neighbour may be accepted by the construction
        yet fall outside, e.g. 0.417 for binom:n=30,a=1,b=1 at y = 17,
        alpha = 0.1, reported as [0.41700000000000004, 0.7173]. A
        multinomial theta is in only if it is one of the region's cells."""
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


def _blocks(sizes):
    """[start, stop) runs of consecutive rows, each run holding at most
    _BLOCK matrix elements (or one row) at the width of its widest row. The
    row sizes are nondecreasing, so that row is a run's last, and each run
    ends at the first row that would overfill it, found by bisection."""
    start = 0
    while True:
        stop = bisect.bisect_right(
            range(len(sizes)), _BLOCK, lo=start + 1,
            key=lambda r: (r - start + 1) * sizes[r])
        yield start, min(stop, len(sizes))
        if stop >= len(sizes):
            return
        start = stop


def _grid_flags(model, y, etas, alpha):
    """Whether y is in the acceptance set at each natural parameter of
    `etas` (in ascending order), as a bool array, block by block over terms
    computed once. A Poisson row's support is {0..max(m, y)}, m being
    `_poisson_tops` at e^eta: it always holds y. Elsewhere this is
    `acceptance_set(model, eta, alpha)`'s membership."""
    etas = np.asarray(etas, dtype=float)
    poisson = model.family == "poisson"
    if poisson:
        sizes = np.maximum(_poisson_tops(_map(math.exp, etas)), y) + 1
        support = list(range(sizes.max()))
    else:
        support = model.support()
        sizes = [len(support)] * len(etas)
    terms = _terms(model, support)
    col = support.index(y)
    flags = np.empty(len(etas), bool)
    for start, stop in _blocks(sizes):
        members, _ = _accepted(model, terms, etas[start:stop], alpha,
                               sizes[start:stop] if poisson else None)
        flags[start:stop] = members[:, col]
    return flags


def theta_grid(model: NefModel, y, alpha, grid=None):
    """(step, thetas): the theta points (an array, a row per multinomial
    cell) at which `confidence_region_nef` tests membership of y at level
    alpha, and the step it reports as the region's `grid`.

    Binomial: multiples of the theta step `grid` (default 1e-4) inside
    (0, 1). Poisson: log-theta steps of `grid` (default 1e-3) from
    theta_lo = min(a(1-p), -log(1-alpha)) / 2 to at least 60 (y+1), the
    top theta doubled while the outcome y is accepted at the last point
    (until the grid would pass 10^6 points). Below a(1-p), outcome 0 sorts
    strictly first (lambda is convex and lambda(1) - lambda(0) =
    log(a(1-p))), and below -log(1-alpha) it holds 1 - alpha alone: at and
    below theta_lo, 0 is accepted and every other y rejected.
    Multinomial: the open-simplex points with coordinates in multiples of
    1/denominator, `grid` being the denominator (default 60; truncated to an
    integer), and step 1/denominator. An alpha outside (0, 1), or a `grid`
    that is not finite and positive, that leaves no grid point inside the
    family's range, or that gives more than 10^6 points raises DomainError
    before any array is built.
    """
    alpha = check_alpha(alpha)
    default = {"binom": 1e-4, "poisson": 1e-3, "multinom": 60}[model.family]
    step = default if grid is None else check_positive("grid", grid)
    too_many = DomainError("%s: grid %r gives more than %d theta points"
                           % (model.family, grid, MAX_GRID_POINTS))

    if model.family == "binom":
        if not 1.0 / step < MAX_GRID_POINTS + 1.5:
            raise too_many
        m = int(round(1.0 / step))
        if m < 2:
            raise DomainError("binom: grid step %r leaves no theta inside "
                              "(0, 1)" % (grid,))
        return step, np.arange(1, m) * step

    if model.family == "poisson":
        # in logs, so that a tiny a(1-p) or alpha cannot underflow to 0
        lo = min(math.log(model.a[0]) + math.log1p(-model.p),
                 math.log(-math.log1p(-alpha))) - math.log(2.0)
        hi = math.log(60.0 * (y + 1.0))
        if not (hi - lo) / step <= MAX_GRID_POINTS - 1:
            raise too_many
        npts = int(math.ceil((hi - lo) / step)) + 1
        if npts < 3:
            raise DomainError("poisson: log-theta grid step %r leaves no "
                              "theta inside the search window" % (grid,))
        while _grid_flags(model, y, model._etas(
                [math.exp(lo + (npts - 1) * step)]), alpha)[0]:
            hi += math.log(2.0)
            if not (hi - lo) / step <= MAX_GRID_POINTS - 1:
                break
            npts = int(math.ceil((hi - lo) / step)) + 1
        return step, _map(math.exp, lo + np.arange(npts) * step)

    denom = int(step)
    if denom < model.k:
        raise DomainError("multinom: grid (the simplex denominator) must "
                          "be >= k=%d, got %r" % (model.k, grid))
    if math.comb(denom - 1, model.k - 1) > MAX_GRID_POINTS:
        raise too_many
    return 1.0 / denom, _compositions(denom, model.k, 1) / denom


def confidence_region_nef(model: NefModel, y, alpha, grid=None):
    """Grid inversion of the acceptance sets, reported in theta scale.

    `grid` sets the resolution: the theta step for the binomial (default
    1e-4), the log-theta step for the Poisson (default 1e-3), and the simplex
    denominator for the multinomial (default 60, i.e. cells at multiples of
    1/60); see `theta_grid`. Returns the union of grid-connected components;
    the estimator is flagged a member when the acceptance set at the
    estimator itself holds y (never judged or clamped on the grid). A
    Poisson region that reaches the first grid point is y = 0's, which is
    accepted at every smaller theta (see `theta_grid`): it starts at 0.0.
    A Poisson region of another y that reaches the first grid point, or any
    that reaches the last (the grid's top is capped), raises NumericalError.

    An alpha outside (0,1), a y that is not an outcome of the family (see
    `NefModel.observation`), or an unusable grid (see `theta_grid`) raises
    DomainError before any computation.
    """
    alpha = check_alpha(alpha)
    y = model.observation(y)
    step, thetas = theta_grid(model, y, alpha, grid)
    eta_hat, theta_hat = model.fab_estimator(y)
    flags = _grid_flags(model, y, model._etas(thetas), alpha)
    member = bool(_grid_flags(model, y, [eta_hat], alpha)[0])

    if model.family == "multinom":
        cells = tuple(map(tuple, thetas[flags].tolist()))
        return NefRegion(family_spec=model.spec_string(), y=y, alpha=alpha,
                         estimator=theta_hat, estimator_member=member,
                         cells=cells, grid=step)

    comps = [tuple(thetas[[i, j]].tolist()) for i, j in _runs(flags)]
    if model.family == "poisson" and (flags[0] or flags[-1]):
        if flags[-1] or y != 0:
            raise NumericalError("poisson theta grid does not cover the "
                                 "region", y=y, alpha=alpha)
        comps[0] = (0.0, comps[0][1])
    return NefRegion(family_spec=model.spec_string(), y=y, alpha=alpha,
                     estimator=theta_hat, estimator_member=member,
                     intervals=tuple(comps), grid=step)


def parse_family(spec):
    """Build a NefModel from a spec string: "binom:n=8,a=1,b=1",
    "poisson:a=1,p=0.5", "multinom:n=15,a1=1,a2=1,a3=1"."""
    family, kv = _parse_spec(spec, "family", FAMILIES)
    shape_keys = ["a"]
    if family == "multinom":
        shape_keys = []
        while "a%d" % (len(shape_keys) + 1) in kv:
            shape_keys.append("a%d" % (len(shape_keys) + 1))
    try:
        args = {f: kv.pop(f) for f in _FAMILY_PARAMS[family] if f != "a"}
        args["a"] = tuple(kv.pop(key) for key in shape_keys)
    except KeyError as exc:
        raise SpecParseError("missing parameter %s in family spec %r"
                             % (exc, spec)) from None
    if kv:
        raise SpecParseError("unexpected parameter(s) %s in family spec %r"
                             % (", ".join(sorted(kv)), spec))
    if "n" in args:
        if not args["n"].is_integer():
            raise SpecParseError("n must be a whole number, got %r in family "
                                 "spec %r" % (args["n"], spec))
        args["n"] = int(args["n"])
    return NefModel(family=family, **args)
