"""Linear-regression layer: shrinkage confidence regions for coefficients.

Y | beta ~ N(X beta, Sigma). The MLE beta_hat = (X'X)^-1 X'Y and its
covariance Sigma_tilde = (X'X)^-1 X' Sigma X (X'X)^-1 are computed through a
QR decomposition (no explicit normal-equation inverse). A linear combination
theta = x' beta is then a scalar Gaussian problem with sigma^2 =
x' Sigma_tilde x, to which any catalog prior applies with its scale tied to
sigma; for one-hot x this is the marginal region for a single coefficient
with prior scale sqrt(Sigma_tilde_jj).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from fabcr.errors import DomainError
from fabcr.gaussian import ConfidenceRegion, confidence_region, z_interval
from fabcr.priors import parse_prior

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RegressionProblem:
    X: np.ndarray
    Y: np.ndarray
    beta_hat: np.ndarray
    Sigma_tilde: np.ndarray
    sigma2: float               # noise variance actually used (given or estimated)
    sigma2_estimated: bool      # True => coverage is approximate

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


def fit_regression(X, Y, Sigma=None, sigma2=None):
    """Fit the linear model; exactly one of Sigma / sigma2 may be given.

    With neither, sigma2 is estimated by the unbiased residual variance
    RSS/(n-p) (requires n > p) and the fit is flagged approximate.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise DomainError("X must be a 2-d matrix")
    n, p = X.shape
    if Y.shape[0] != n:
        raise DomainError("Y length %d does not match X rows %d" % (Y.shape[0], n))
    if n < p:
        raise DomainError("need n >= p, got n=%d, p=%d" % (n, p))
    if Sigma is not None and sigma2 is not None:
        raise DomainError("give Sigma or sigma2, not both")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.min() == 0.0 or diag.max() / diag.min() > _COND_LIMIT:
        raise DomainError("design matrix is rank deficient or too "
                          "ill-conditioned (condition > 1e12)")
    beta_hat = np.linalg.solve(R, Q.T @ Y)
    Rinv = np.linalg.solve(R, np.eye(p))

    estimated = False
    if Sigma is not None:
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.shape != (n, n):
            raise DomainError("Sigma must be n x n")
        # Sigma_tilde = R^-1 Q' Sigma Q R^-T
        M = Q.T @ Sigma @ Q
        Sigma_tilde = Rinv @ M @ Rinv.T
        s2 = float(np.trace(Sigma) / n)
    else:
        if sigma2 is None:
            if n <= p:
                raise DomainError("sigma2 estimation requires n > p")
            resid = Y - X @ beta_hat
            sigma2 = float(resid @ resid) / (n - p)
            estimated = True
        s2 = float(sigma2)
        if s2 <= 0:
            raise DomainError("sigma2 must be positive, got %r" % (s2,))
        Sigma_tilde = s2 * (Rinv @ Rinv.T)

    Sigma_tilde = 0.5 * (Sigma_tilde + Sigma_tilde.T)  # enforce symmetry
    return RegressionProblem(X=X, Y=Y, beta_hat=beta_hat,
                             Sigma_tilde=Sigma_tilde, sigma2=s2,
                             sigma2_estimated=estimated)


def combo_region(prob: RegressionProblem, x, prior_spec, alpha) -> ConfidenceRegion:
    """FAB region for theta = x' beta with prior scale tied to
    sqrt(x' Sigma_tilde x)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != prob.p:
        raise DomainError("x must have p=%d entries" % prob.p)
    if not np.any(x):
        raise DomainError("x must be nonzero")
    var = float(x @ prob.Sigma_tilde @ x)
    if var <= 0.0:
        raise DomainError("x' Sigma_tilde x must be positive, got %r" % (var,))
    sigma = math.sqrt(var)
    model = parse_prior(prior_spec, sigma=sigma)
    y = float(x @ prob.beta_hat)
    return confidence_region(model, y, alpha)


def all_marginal_regions(prob: RegressionProblem, prior_spec, alpha):
    """Marginal FAB regions for every coefficient.

    Returns a list of (j, region, focal, z_width) with the classical
    z-interval width included for comparison.
    """
    out = []
    for j in range(prob.p):
        e = np.zeros(prob.p)
        e[j] = 1.0
        region = combo_region(prob, e, prior_spec, alpha)
        sigma_j = math.sqrt(prob.Sigma_tilde[j, j])
        zlo, zhi = z_interval(float(prob.beta_hat[j]), sigma_j, alpha)
        out.append((j, region, region.focal, zhi - zlo))
    return out


def load_csv(path, response, covariates=None, impute_median=False,
             standardize=False, intercept=False):
    """Read a regression problem from CSV.

    `response` names the response column; `covariates` selects covariate
    columns (default: all others). Empty/NaN covariate cells can be imputed
    by the column median; columns can be standardized to mean 0, variance 1;
    an all-ones intercept column can be appended.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    if response not in header:
        raise DomainError("response column %r not found in %r" % (response, path))
    cols = covariates if covariates is not None else \
        [h for h in header if h != response]
    missing = [c for c in cols if c not in header]
    if missing:
        raise DomainError("covariate column(s) not found: %s" % ", ".join(missing))

    def cell(row, name):
        v = row[header.index(name)].strip()
        return float(v) if v else math.nan

    Y = np.array([cell(r, response) for r in rows])
    X = np.array([[cell(r, c) for c in cols] for r in rows])
    if np.isnan(Y).any():
        raise DomainError("response column contains missing values")
    if impute_median:
        for j in range(X.shape[1]):
            col = X[:, j]
            mask = np.isnan(col)
            if mask.all():
                raise DomainError("covariate %r entirely missing" % cols[j])
            col[mask] = np.median(col[~mask])
    elif np.isnan(X).any():
        raise DomainError("covariates contain missing values "
                          "(use impute_median)")
    if standardize:
        mu = X.mean(axis=0)
        sd = X.std(axis=0, ddof=0)
        if (sd == 0).any():
            raise DomainError("cannot standardize a constant covariate column")
        X = (X - mu) / sd
    names = list(cols)
    if intercept:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
        names.append("(intercept)")
    return X, Y, names
