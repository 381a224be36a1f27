"""Monte-Carlo harness: coverage and width of regression regions.

Synthetic protocol: rows of X are AR(1)-correlated Gaussians (lag correlation
0.5, unit variance), beta ~ N(0, sigma_beta^2 I), Y = X beta + eps with known
noise variance. For each replication the marginal regions of all
coefficients are computed under each prior; the harness aggregates mean
width and empirical coverage with standard errors over replications.

Randomness comes from a counter-based generator (Philox) with one substream
per (grid point, replication), so results are independent of execution order
and identical across reruns with the same seed. Normal deviates are produced
by inverse-CDF transform of the generator's uniforms through the package's
own normal quantile.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from fabcr import _core
from fabcr.errors import (DomainError, SpecParseError, check_alpha,
                          check_count, check_finite, check_positive)
from fabcr.priors import parse_prior
from fabcr.regression import all_marginal_regions, fit_regression

_AR_RHO = 0.5
_AR_INNOV = math.sqrt(1.0 - _AR_RHO * _AR_RHO)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: int
    sigma_y2: float
    log_sigma_beta_grid: Tuple[float, ...]
    priors: Tuple[str, ...]
    alpha: float
    reps: int
    seed: int

    def __post_init__(self):
        for name in ("n", "p", "reps"):
            check_count(name, getattr(self, name))
        if self.n < self.p:
            raise DomainError("need n >= p, got n=%d, p=%d" % (self.n, self.p))
        check_positive("sigma_y2", self.sigma_y2)
        if not self.log_sigma_beta_grid or not self.priors:
            raise DomainError("grids must be non-empty")
        for v in self.log_sigma_beta_grid:
            check_finite("log_sigma_beta", v)
        check_alpha(self.alpha)
        check_count("seed", self.seed, 0)
        for spec in self.priors:
            parse_prior(spec)

    @classmethod
    def from_file(cls, path):
        """Parse a plain-text key = value config file.

        Keys: n, p, sigma_y2, log_sigma_beta (space/comma separated list),
        priors (space separated spec strings), alpha, reps, seed.
        """
        kv = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = line.partition("=")
                if not eq:
                    raise SpecParseError("%s:%d: expected key = value, got %r"
                                         % (path, lineno, raw.rstrip()))
                kv[key.strip().lower()] = val.strip()
        try:
            grid = tuple(float(v) for v in
                         kv["log_sigma_beta"].replace(",", " ").split())
            priors = tuple(kv["priors"].split())
            return cls(n=int(kv["n"]), p=int(kv["p"]),
                       sigma_y2=float(kv["sigma_y2"]),
                       log_sigma_beta_grid=grid, priors=priors,
                       alpha=float(kv["alpha"]), reps=int(kv["reps"]),
                       seed=int(kv["seed"]))
        except KeyError as exc:
            raise SpecParseError("missing config key %s in %s" % (exc, path)) \
                from None
        except ValueError as exc:
            raise SpecParseError("bad config value in %s: %s" % (path, exc)) \
                from None


@dataclass(frozen=True)
class CellResult:
    prior: str
    log_sigma_beta: float
    mean_width: float
    se_width: float
    coverage: float
    se_coverage: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: Tuple[CellResult, ...]

    def cell(self, prior, log_sigma_beta):
        for c in self.cells:
            if c.prior == prior and c.log_sigma_beta == log_sigma_beta:
                return c
        raise KeyError((prior, log_sigma_beta))

    def write_csv(self, stream):
        stream.write("prior,log_sigma_beta,mean_width,se_width,"
                     "coverage,se_coverage\n")
        for c in self.cells:
            stream.write("%s,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                         % (c.prior, c.log_sigma_beta, c.mean_width,
                            c.se_width, c.coverage, c.se_coverage))


def _normals(rng, size):
    """Standard normals via inverse-CDF of the generator's uniforms."""
    u = rng.random(size)
    flat = u.reshape(-1)
    out = np.empty(flat.shape[0])
    q = _core.norm_quantile
    for i in range(flat.shape[0]):
        out[i] = q(flat[i])
    return out.reshape(u.shape)


def gen_design(n, p, seed):
    """n x p design with unit-variance AR(1) rows, corr 0.5^|j-k|."""
    check_count("n", n)
    check_count("p", p)
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(check_count("seed", seed, 0))
    rng = np.random.Generator(np.random.Philox(ss))
    eps = _normals(rng, (n, p))
    X = np.empty((n, p))
    X[:, 0] = eps[:, 0]
    for k in range(1, p):
        X[:, k] = _AR_RHO * X[:, k - 1] + _AR_INNOV * eps[:, k]
    return X


def _run_rep(cfg: ExperimentConfig, grid_idx: int, rep: int):
    """One replication at one grid point: per-prior (mean width, coverage)."""
    ls = cfg.log_sigma_beta_grid[grid_idx]
    sigma_beta = math.exp(ls)
    ss = np.random.SeedSequence(entropy=cfg.seed,
                                spawn_key=(grid_idx, rep))
    rng = np.random.Generator(np.random.Philox(ss))
    beta = sigma_beta * _normals(rng, cfg.p)
    X_seed = np.random.SeedSequence(entropy=cfg.seed,
                                    spawn_key=(grid_idx, rep, 1))
    X = gen_design(cfg.n, cfg.p, X_seed)
    eps = math.sqrt(cfg.sigma_y2) * _normals(rng, cfg.n)
    Y = X @ beta + eps
    prob = fit_regression(X, Y, sigma2=cfg.sigma_y2)
    out = {}
    for spec in cfg.priors:
        rows = all_marginal_regions(prob, spec, cfg.alpha)
        widths = [r.width for _, r, _, _ in rows]
        covered = [1.0 if r.contains(beta[j]) else 0.0 for j, r, _, _ in rows]
        out[spec] = (float(np.mean(widths)), float(np.mean(covered)))
    return out


def _rep_task(args):
    cfg, grid_idx, rep = args
    return grid_idx, rep, _run_rep(cfg, grid_idx, rep)


def run_experiment(config: ExperimentConfig, threads=1):
    """Run all replications; deterministic given config regardless of the
    number of worker processes `threads`, an int >= 1 (DomainError
    otherwise). No more workers start than there are replications."""
    tasks = [(config, gi, r)
             for gi in range(len(config.log_sigma_beta_grid))
             for r in range(config.reps)]
    workers = min(check_count("threads", threads), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_rep_task, tasks, chunksize=1))
    else:
        done = map(_rep_task, tasks)
    results = {(gi, r): res for gi, r, res in done}

    cells = []
    for spec in config.priors:
        for gi, ls in enumerate(config.log_sigma_beta_grid):
            widths = np.array([results[(gi, r)][spec][0]
                               for r in range(config.reps)])
            covers = np.array([results[(gi, r)][spec][1]
                               for r in range(config.reps)])
            nr = config.reps
            se_w = float(widths.std(ddof=1) / math.sqrt(nr)) if nr > 1 else 0.0
            se_c = float(covers.std(ddof=1) / math.sqrt(nr)) if nr > 1 else 0.0
            cells.append(CellResult(prior=spec, log_sigma_beta=ls,
                                    mean_width=float(widths.mean()),
                                    se_width=se_w,
                                    coverage=float(covers.mean()),
                                    se_coverage=se_c))
    return ExperimentResult(config=config, cells=tuple(cells))
