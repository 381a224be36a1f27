"""Workload definitions: op pools, seeded op lists and op execution.

Every workload draws its ops from a fixed, finite pool, so that the output of
every op that can ever run has a frozen reference (see ``freeze.py``). The
``--seed`` of a run only chooses which pool ops run and in what order. Ops are
grouped in blocks of fixed composition; a run executes whole blocks, so the
share of each op category in a run does not depend on the seed or on where
the run happens to stop.

The package is reached only through module attributes at call time (for
example ``gaussian.confidence_region``), so that the traced run's patches are
seen.
"""

import hashlib
import json
import math
import os
import random

POOL_SEED = "fabcr-perfbench-pool-1"

# one op is one user-level request; these are the op categories
REGION, PVALUE, LIMITS, PROBE = "region", "pvalue_curve", "limits", "probe"
SIM, REGRESS, NEF = "simulate", "regress", "nef"

ALPHAS = (0.01, 0.05, 0.1, 0.2)
SIGMAS = (0.5, 1.0, 3.0)
# |y - loc| / sigma: near the prior location, transition band, far out
BANDS = {"near": (0.0, 2.0), "transition": (2.0, 6.0), "far": (6.0, 15.0)}
KINDS = ("flat", "flat_atom", "gaussian", "bp", "horseshoe", "gpd", "bessel",
         "laplace")
REGION_VARIANTS = 8       # pool ops per (kind, band, alpha) cell
PVALUE_POINTS = 21

SIM_PRIORS = ("flat", "gaussian:tau=1", "horseshoe", "laplace:kappa=1")
SIM_LOG_SIGMA_BETA = (-1.0, 1.0, 3.0)
SIM_SEEDS_PER_LS = 8
SIMS_PER_BLOCK_PER_LS = 8
REGRESS_DATASETS = 3
REGRESS_N, REGRESS_P, REGRESS_SIGNALS = 400, 200, 10

NEF_ALPHAS = (0.05, 0.1, 0.2)
POISSON_Y = tuple(range(1, 21))

BLOCKS_PER_LIST = {"region_mix": 200, "regression_batch": 40, "nef_mix": 40,
                   "nef_defects": 1}
# op time of one block at the time of writing (median of ten runs on a
# 2-vCPU x86-64 machine, Python 3.11, pure-Python backend); a run of
# `seconds` executes blocks_for() blocks whatever the machine's speed
BLOCK_SECONDS = {"region_mix": 1.1, "regression_batch": 8.9, "nef_mix": 14.3,
                 "nef_defects": 60.0}

WORKLOADS = ("region_mix", "regression_batch", "nef_mix")


def blocks_for(workload, seconds):
    """Blocks in a run of about `seconds` (at least one)."""
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def _rng(*key):
    return random.Random("%s/%s" % (POOL_SEED, "/".join(str(k) for k in key)))


# -- region_mix --------------------------------------------------------------

def _prior_spec(kind, rnd, loc):
    if kind == "flat_atom":
        spec = "flat+atom:gamma=%g" % rnd.choice((0.05, 0.1, 0.5))
    elif kind == "gaussian":
        spec = rnd.choice(("gaussian", "gaussian:tau=0.5", "gaussian:tau=1",
                           "gaussian:tau=2"))
    elif kind == "bp":
        spec = "bp:a=%g,b=%g" % rnd.choice(((1.0, 0.5), (0.75, 1.0),
                                             (1.5, 0.5)))
    elif kind == "laplace":
        spec = "laplace:kappa=%g" % rnd.choice((0.5, 1.0, 2.0))
    else:
        spec = kind
    if loc != 0.0:
        spec += ("," if ":" in spec else ":") + "loc=%g" % loc
    return spec


def _random_loc(rnd):
    return 0.0 if rnd.random() < 0.5 else round(rnd.uniform(-3.0, 3.0), 3)


def _region_pool():
    pool = {}
    for kind in KINDS:
        for band, (u_lo, u_hi) in BANDS.items():
            for alpha in ALPHAS:
                for v in range(REGION_VARIANTS):
                    rnd = _rng("region", kind, band, alpha, v)
                    loc = _random_loc(rnd)
                    sigma = rnd.choice(SIGMAS)
                    sign = rnd.choice((-1.0, 1.0))
                    y = round(loc + sign * sigma * rnd.uniform(u_lo, u_hi), 6)
                    op_id = "region/%s/%s/%g/%d" % (kind, band, alpha, v)
                    pool[op_id] = {"id": op_id, "cat": REGION, "kind": kind,
                                   "band": band,
                                   "prior": _prior_spec(kind, rnd, loc),
                                   "sigma": sigma, "y": y, "alpha": alpha}
    for v, kind in enumerate(KINDS):
        rnd = _rng("pvalue", v)
        loc = _random_loc(rnd)
        sigma = rnd.choice(SIGMAS)
        y = round(loc + rnd.choice((-1.0, 1.0)) * sigma * rnd.uniform(0.0, 6.0), 6)
        step = 0.3 * sigma
        lo = y - 0.5 * (PVALUE_POINTS - 1) * step
        op_id = "pvalue/%d" % v
        pool[op_id] = {"id": op_id, "cat": PVALUE, "kind": kind,
                       "prior": _prior_spec(kind, rnd, loc), "sigma": sigma,
                       "y": y, "grid": [lo + i * step
                                        for i in range(PVALUE_POINTS)]}
    for kind in KINDS:
        if kind == "gaussian":
            continue  # no limit interval for a Gaussian-tailed marginal
        for alpha in ALPHAS:
            for direction in ("+inf", "-inf"):
                rnd = _rng("limits", kind, alpha, direction)
                op_id = "limits/%s/%g/%s" % (kind, alpha, direction)
                pool[op_id] = {"id": op_id, "cat": LIMITS, "kind": kind,
                               "prior": _prior_spec(kind, rnd, 0.0),
                               "sigma": rnd.choice(SIGMAS), "alpha": alpha,
                               "direction": direction}
    # invalid inputs whose only correct outcome is a DomainError
    for i, (y, alpha) in enumerate(((1.0, 0.0), (1.0, 1.0), (1.0, -0.05),
                                    (1.0, 1.5), (math.nan, 0.1),
                                    (math.inf, 0.1), (-math.inf, 0.1))):
        op_id = "probe/region/%d" % i
        pool[op_id] = {"id": op_id, "cat": PROBE, "target": "region",
                       "prior": "horseshoe", "sigma": 1.0, "y": y,
                       "alpha": alpha}
    return pool


def _region_blocks(pool, seed, nblocks):
    rnd = random.Random("region_mix/%d" % seed)
    pvalues = sorted(k for k in pool if k.startswith("pvalue/"))
    limits = sorted(k for k in pool if k.startswith("limits/"))
    probes = sorted(k for k in pool if k.startswith("probe/"))
    # p-value curves cost 20-250 ms by prior and set the latency tail, so
    # they cycle through the pool (one per kind) instead of being drawn, two
    # per block: enough that the tail sample falls among them in every run
    rnd.shuffle(pvalues)
    blocks = []
    for b in range(nblocks):
        block = ["region/%s/%s/%g/%d" % (kind, band, alpha,
                                         rnd.randrange(REGION_VARIANTS))
                 for kind in KINDS for band in BANDS for alpha in ALPHAS]
        block.extend(pvalues[(2 * b + i) % len(pvalues)] for i in range(2))
        block.extend(rnd.sample(limits, 2))
        block.append(probes[b % len(probes)])
        rnd.shuffle(block)
        blocks.append(block)
    return blocks


# -- regression_batch ----------------------------------------------------------

def _regression_pool():
    pool = {}
    for gi, ls in enumerate(SIM_LOG_SIGMA_BETA):
        for v in range(SIM_SEEDS_PER_LS):
            op_id = "sim/%g/%d" % (ls, v)
            pool[op_id] = {"id": op_id, "cat": SIM, "log_sigma_beta": ls,
                           "seed": 20240902 + 1000 * gi + v}
    for k in range(REGRESS_DATASETS):
        op_id = "regress/%d" % k
        pool[op_id] = {"id": op_id, "cat": REGRESS, "dataset": k,
                       "prior": "horseshoe", "alpha": 0.1, "sigma2": 1.0}
    return pool


def _regression_blocks(pool, seed, nblocks):
    rnd = random.Random("regression_batch/%d" % seed)
    blocks = []
    for _ in range(nblocks):
        block = ["sim/%g/%d" % (ls, rnd.randrange(SIM_SEEDS_PER_LS))
                 for ls in SIM_LOG_SIGMA_BETA
                 for _ in range(SIMS_PER_BLOCK_PER_LS)]
        block.append("regress/%d" % rnd.randrange(REGRESS_DATASETS))
        rnd.shuffle(block)
        blocks.append(block)
    return blocks


def regress_csv_text(dataset):
    """CSV of one CLI-`regress`-sized dataset: i.i.d. standard normal
    design, 10 strong signals of size 5, unit noise."""
    rnd = _rng("regress-data", dataset)
    n, p = REGRESS_N, REGRESS_P
    signals = rnd.sample(range(p), REGRESS_SIGNALS)
    lines = [",".join(["y"] + ["x%d" % j for j in range(p)])]
    for _ in range(n):
        row = [rnd.gauss(0.0, 1.0) for _ in range(p)]
        y = sum(5.0 * row[j] for j in signals) + rnd.gauss(0.0, 1.0)
        lines.append(",".join("%.17g" % v for v in [y] + row))
    return "\n".join(lines) + "\n"


# -- nef_mix -------------------------------------------------------------------

def _binom(cat, n, shapes, rnd):
    a, b = rnd.choice(shapes)
    return {"cat": NEF, "group": cat,
            "family": "binom:n=%d,a=%g,b=%g" % (n, a, b),
            "y": rnd.randrange(n + 1), "alpha": rnd.choice(NEF_ALPHAS)}


def _multinom(cat, n, k, rnd):
    shapes = [rnd.choice((0.5, 1.0, 2.0)) for _ in range(k)]
    cuts = sorted(rnd.randrange(n + 1) for _ in range(k - 1))
    y = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
    spec = "multinom:n=%d,%s" % (n, ",".join("a%d=%g" % (i + 1, s)
                                             for i, s in enumerate(shapes)))
    return {"cat": NEF, "group": cat, "family": spec, "y": y,
            "alpha": rnd.choice(NEF_ALPHAS)}


# category -> (pool size, ops per block, op factory); the Poisson category is
# drawn antithetically (see _nef_blocks) and its pool holds one op per count.
# A run holds only ~24 ops, so its median and tail are single samples: the
# block is composed so that both land in the middle of the eight n=30
# binomials of a run, a group of similar cost, rather than between groups. The k=4 ops set the peak
# memory, which differs by variant: with a pool of two, every two-block run
# holds both.
_GENERAL_SHAPES = ((0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0))
NEF_CATEGORIES = {
    "binom8": (12, 2, lambda r: _binom("binom8", 8, _GENERAL_SHAPES, r)),
    "binom8_sterne": (9, 1, lambda r: _binom("binom8_sterne", 8,
                                             ((1.0, 1.0),), r)),
    "binom30": (8, 4, lambda r: _binom("binom30", 30, _GENERAL_SHAPES, r)),
    "binom100": (6, 1, lambda r: _binom("binom100", 100, _GENERAL_SHAPES, r)),
    "multinom3_n3": (6, 1, lambda r: _multinom("multinom3_n3", 3, 3, r)),
    "multinom3_n10": (6, 1, lambda r: _multinom("multinom3_n10", 10, 3, r)),
    "multinom4_n1": (2, 1, lambda r: _multinom("multinom4_n1", 1, 4, r)),
}


def _nef_pool():
    pool = {}
    for cat, (size, _, build) in NEF_CATEGORIES.items():
        for v in range(size):
            op = build(_rng("nef", cat, v))
            op["id"] = "nef/%s/%d" % (cat, v)
            pool[op["id"]] = op
    for y in POISSON_Y:
        rnd = _rng("nef", "poisson", y)
        a, p = rnd.choice(((1.0, 0.5), (2.0, 0.3), (0.5, 0.9), (3.0, 0.6)))
        op_id = "nef/poisson/%d" % y
        pool[op_id] = {"id": op_id, "cat": NEF, "group": "poisson",
                       "family": "poisson:a=%g,p=%g" % (a, p), "y": y,
                       "alpha": rnd.choice(NEF_ALPHAS)}
    for i, alpha in enumerate((0.0, 1.0, 1.5)):
        op_id = "probe/nef/%d" % i
        pool[op_id] = {"id": op_id, "cat": PROBE, "target": "nef",
                       "family": "binom:n=8,a=1,b=1", "y": 4, "alpha": alpha}
    return pool


def _nef_blocks(pool, seed, nblocks):
    rnd = random.Random("nef_mix/%d" % seed)
    probes = sorted(k for k in pool if k.startswith("probe/"))
    # a run holds only a few blocks, so each category cycles through its
    # pool in a seeded order rather than drawing with replacement
    order = {cat: rnd.sample(range(size), size)
             for cat, (size, _, _) in NEF_CATEGORIES.items()}
    blocks = []
    y = None
    for b in range(nblocks):
        block = ["nef/%s/%d" % (cat, order[cat][(b * per_block + i) % size])
                 for cat, (size, per_block, _) in NEF_CATEGORIES.items()
                 for i in range(per_block)]
        # Poisson cost grows with y; consecutive blocks take y and 21 - y so
        # that every pair of blocks does the same Poisson work
        y = rnd.choice(POISSON_Y) if b % 2 == 0 else 21 - y
        block.append("nef/poisson/%d" % y)
        block.append(probes[b % len(probes)])
        rnd.shuffle(block)
        blocks.append(block)
    return blocks


# -- known defects (not a timed workload) --------------------------------------

def _defect_pool():
    """Valid inputs that fail at the time of writing, plus the binomial
    y > n probe; run by ``run.py --workload nef_defects``."""
    pool = {
        "nef/poisson_zero": {"cat": NEF, "group": "poisson",
                             "family": "poisson:a=1,p=0.5", "y": 0,
                             "alpha": 0.1},
        "nef/poisson_large": {"cat": NEF, "group": "poisson",
                              "family": "poisson:a=1,p=0.5", "y": 30,
                              "alpha": 0.1},
        "probe/nef/binom_y_above_n": {"cat": PROBE, "target": "nef",
                                      "family": "binom:n=8,a=1,b=1", "y": 9,
                                      "alpha": 0.1},
    }
    for op_id, op in pool.items():
        op["id"] = op_id
    return pool


def _defect_blocks(pool, seed, nblocks):
    return [sorted(pool)] * nblocks


_DEFINITIONS = {
    "region_mix": (_region_pool, _region_blocks),
    "regression_batch": (_regression_pool, _regression_blocks),
    "nef_mix": (_nef_pool, _nef_blocks),
    "nef_defects": (_defect_pool, _defect_blocks),
}


def pool(workload):
    return _DEFINITIONS[workload][0]()


def op_list(workload, seed):
    """(pool, blocks, hash): blocks are lists of pool ids; the hash covers
    the full definition of every op in the list, in order."""
    make_pool, make_blocks = _DEFINITIONS[workload]
    ops = make_pool()
    blocks = make_blocks(ops, seed, BLOCKS_PER_LIST[workload])
    h = hashlib.sha256()
    for block in blocks:
        for op_id in block:
            h.update(json.dumps(ops[op_id], sort_keys=True).encode())
        h.update(b"|")
    return ops, blocks, h.hexdigest()


def model_specs(workload, ops):
    """The package models a workload builds before its first op: (prior,
    sigma) pairs and NEF family specs, for the set-up timing."""
    if workload == "regression_batch":
        return {"priors": [[p, 1.0] for p in SIM_PRIORS], "families": []}
    if workload in ("nef_mix", "nef_defects"):
        return {"priors": [],
                "families": sorted({op["family"] for op in ops.values()})}
    priors = sorted({(op["prior"], op["sigma"]) for op in ops.values()})
    return {"priors": priors, "families": []}


def prepare(ops, outdir):
    """Write the input files a workload reads (regress CSVs)."""
    paths = {}
    for op in ops.values():
        if op["cat"] == REGRESS:
            path = os.path.join(outdir, "regress-%d.csv" % op["dataset"])
            with open(path, "w") as fh:
                fh.write(regress_csv_text(op["dataset"]))
            paths[op["dataset"]] = path
    return paths


# -- execution -----------------------------------------------------------------

def execute(op, paths):
    """Run one op through the package's public API; returns its result."""
    from fabcr import asymptotics, gaussian, nef, priors, regression, simulate

    cat = op["cat"]
    if cat == REGION:
        model = priors.parse_prior(op["prior"], sigma=op["sigma"])
        return gaussian.confidence_region(model, op["y"], op["alpha"])
    if cat == PVALUE:
        model = priors.parse_prior(op["prior"], sigma=op["sigma"])
        return gaussian.p_value_curve(model, op["y"], op["grid"])
    if cat == LIMITS:
        model = priors.parse_prior(op["prior"], sigma=op["sigma"])
        li = asymptotics.limit_interval(model, op["alpha"],
                                        direction=op["direction"])
        return li, asymptotics.focal_drift(model, direction=op["direction"])
    if cat == SIM:
        cfg = simulate.ExperimentConfig(
            n=50, p=10, sigma_y2=1.0,
            log_sigma_beta_grid=(op["log_sigma_beta"],), priors=SIM_PRIORS,
            alpha=0.1, reps=1, seed=op["seed"])
        return simulate.run_experiment(cfg, threads=1)
    if cat == REGRESS:
        X, Y, _ = regression.load_csv(paths[op["dataset"]], "y")
        prob = regression.fit_regression(X, Y, sigma2=op["sigma2"])
        return regression.all_marginal_regions(prob, op["prior"], op["alpha"])
    if cat == NEF or (cat == PROBE and op["target"] == "nef"):
        model = nef.parse_family(op["family"])
        return nef.confidence_region_nef(model, op_y(op), op["alpha"])
    if cat == PROBE:
        model = priors.parse_prior(op["prior"], sigma=op["sigma"])
        return gaussian.confidence_region(model, op["y"], op["alpha"])
    raise ValueError("unknown op category %r" % (cat,))


def op_y(op):
    """The observation of an op (multinomial counts as a tuple)."""
    y = op.get("y")
    return tuple(y) if isinstance(y, list) else y
