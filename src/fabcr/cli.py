"""Command-line interface.

Every subcommand is deterministic given its flags (plus the seed where one
applies) and emits machine-readable output: JSON records that round-trip
through a parser, or tidy CSV. Numeric fields are printed with 17
significant digits. Exit codes: 0 success, 2 usage/parse error, 3 numerical
failure.
"""

import json
import math
import sys
from functools import wraps

import click

from fabcr import asymptotics, gaussian, nef, regression, simulate
from fabcr.errors import (DomainError, NumericalError, SpecParseError,
                          UnsupportedModelError)
from fabcr.priors import parse_prior

_G = "%.17g"


def _fmt(x):
    return _G % x


def _guarded(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SpecParseError, DomainError, UnsupportedModelError) as exc:
            raise click.UsageError(str(exc))
        except NumericalError as exc:
            click.echo("numerical failure: %s" % exc, err=True)
            sys.exit(3)
    return wrapper


@click.group()
def main():
    """Confidence regions with exact coverage, assisted by shrinkage priors."""


@main.command()
@click.option("--prior", "prior_spec", required=True,
              help="prior spec, e.g. horseshoe, laplace:kappa=1, bp:a=1,b=0.5")
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--y", type=float, required=True, help="observed value")
@click.option("--alpha", type=float, required=True, help="error level in (0,1)")
@click.option("--pvalue-grid", default=None, metavar="LO:HI:STEP",
              help="emit a p-value curve CSV over this theta grid instead of "
                   "the region record")
@_guarded
def region(prior_spec, sigma, y, alpha, pvalue_grid):
    """Confidence region for a normal mean."""
    model = parse_prior(prior_spec, sigma=sigma)
    if pvalue_grid is not None:
        try:
            lo, hi, step = (float(v) for v in pvalue_grid.split(":"))
        except ValueError:
            raise SpecParseError("--pvalue-grid expects LO:HI:STEP, got %r"
                                 % (pvalue_grid,))
        if step <= 0 or hi < lo:
            raise SpecParseError("--pvalue-grid: need LO <= HI and STEP > 0")
        npts = int(math.floor((hi - lo) / step + 1e-9)) + 1
        grid = [lo + i * step for i in range(npts)]
        curve = gaussian.p_value_curve(model, y, grid)
        curve.write_csv(click.get_text_stream("stdout"))
        return
    reg = gaussian.confidence_region(model, y, alpha)
    zlo, zhi = gaussian.z_interval(y, sigma, alpha)
    payload = {
        "prior": model.spec_string(),
        "sigma": sigma,
        "y": y,
        "alpha": alpha,
        "focal": reg.focal,
        "intervals": [[a, b] for a, b in reg.intervals],
        "width": reg.width,
        "multiple_components": reg.multiple_components,
        "z_interval": [zlo, zhi],
        "z_width": zhi - zlo,
    }
    click.echo(json.dumps(payload))


@main.command(name="nef")
@click.option("--family", "family_spec", required=True,
              help="family spec, e.g. binom:n=8,a=1,b=1 or poisson:a=1,p=0.5")
@click.option("--y", required=True,
              help="observed count (comma-separated counts for multinom)")
@click.option("--alpha", type=float, required=True)
@click.option("--grid", type=float, default=None,
              help="grid resolution (theta step / log-theta step / simplex "
                   "denominator, per family)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@_guarded
def nef_cmd(family_spec, y, alpha, grid, fmt):
    """Confidence region for a discrete natural exponential family."""
    model = nef.parse_family(family_spec)
    if model.family == "multinom":
        try:
            yval = tuple(int(v) for v in y.split(","))
        except ValueError:
            raise SpecParseError("multinom y must be comma-separated counts, "
                                 "got %r" % (y,))
    else:
        try:
            yval = int(y)
        except ValueError:
            raise SpecParseError("y must be an integer count, got %r" % (y,))
    reg = nef.confidence_region_nef(model, yval, alpha, grid=grid)
    if fmt == "json":
        click.echo(reg.to_json())
        return
    out = click.get_text_stream("stdout")
    if reg.intervals is not None:
        out.write("theta,member\n")
        _, thetas = nef.theta_grid(model, reg.y, reg.grid)
        for t in thetas:
            out.write("%s,%d\n" % (_fmt(t), 1 if reg.contains(t) else 0))
    else:
        out.write("%s,member\n"
                  % ",".join("theta%d" % (i + 1) for i in range(model.k)))
        for cell in reg.cells:
            out.write("%s,1\n" % ",".join(_fmt(v) for v in cell))


@main.command()
@click.option("--prior", "prior_spec", required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--direction", type=click.Choice(["+inf", "-inf"]),
              default="+inf", show_default=True)
@_guarded
def limits(prior_spec, alpha, sigma, direction):
    """Limiting region offsets and focal drift far from the prior location."""
    model = parse_prior(prior_spec, sigma=sigma)
    li = asymptotics.limit_interval(model, alpha, direction=direction)
    payload = {
        "prior": model.spec_string(),
        "alpha": alpha,
        "sigma": sigma,
        "direction": direction,
        "c_alpha": li.c_alpha,
        "lo_offset": li.lo_offset,
        "hi_offset": li.hi_offset,
        "width": li.width,
        "focal_drift": asymptotics.focal_drift(model, direction=direction),
    }
    click.echo(json.dumps(payload))


@main.command()
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--response", required=True, help="response column name")
@click.option("--covariates", default=None,
              help="comma-separated covariate columns (default: all others)")
@click.option("--prior", "prior_spec", required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--impute-median", is_flag=True)
@click.option("--standardize", is_flag=True)
@click.option("--intercept", is_flag=True)
@click.option("--sigma2", default="estimate", show_default=True,
              help="noise variance: a number, or 'estimate'")
@_guarded
def regress(data_path, response, covariates, prior_spec, alpha, impute_median,
            standardize, intercept, sigma2):
    """Marginal coefficient regions from a CSV dataset."""
    cols = [c.strip() for c in covariates.split(",")] if covariates else None
    X, Y, names = regression.load_csv(
        data_path, response, covariates=cols, impute_median=impute_median,
        standardize=standardize, intercept=intercept)
    if sigma2 == "estimate":
        prob = regression.fit_regression(X, Y)
    else:
        try:
            s2 = float(sigma2)
        except ValueError:
            raise SpecParseError("--sigma2 must be a number or 'estimate', "
                                 "got %r" % (sigma2,))
        prob = regression.fit_regression(X, Y, sigma2=s2)
    rows = regression.all_marginal_regions(prob, prior_spec, alpha)
    out = click.get_text_stream("stdout")
    out.write("coef,mle,focal,lo,hi,z_lo,z_hi,width_ratio\n")
    for j, reg, focal, z_width in rows:
        sigma_j = math.sqrt(prob.Sigma_tilde[j, j])
        zlo, zhi = gaussian.z_interval(float(prob.beta_hat[j]), sigma_j, alpha)
        out.write("%s,%s,%s,%s,%s,%s,%s,%s\n" % (
            names[j], _fmt(float(prob.beta_hat[j])), _fmt(focal),
            _fmt(reg.lo), _fmt(reg.hi), _fmt(zlo), _fmt(zhi),
            _fmt(reg.width / z_width)))
    if prob.sigma2_estimated:
        click.echo("note: sigma2 estimated from residuals; coverage is "
                   "approximate", err=True)


@main.command(name="simulate")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--threads", type=int, default=None,
              help="worker processes (default: FABCR_THREADS or 1)")
@_guarded
def simulate_cmd(config_path, threads):
    """Monte-Carlo coverage/width experiment from a config file."""
    cfg = simulate.ExperimentConfig.from_file(config_path)
    result = simulate.run_experiment(cfg, threads=threads)
    result.write_csv(click.get_text_stream("stdout"))


if __name__ == "__main__":
    main()
