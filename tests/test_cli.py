"""Command-line interface: outputs, formats, exit codes."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fabcr.cli import main

Z90 = 1.6448536269514722


@pytest.fixture
def runner():
    return CliRunner()


# -- region -----------------------------------------------------------------


def test_region_flat_json(runner):
    res = runner.invoke(main, ["region", "--prior", "flat", "--y", "3",
                               "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    assert d["prior"] == "flat" and d["y"] == 3.0 and d["alpha"] == 0.1
    assert abs(d["focal"] - 3.0) < 1e-12
    (lo, hi), = d["intervals"]
    assert abs(lo - (3.0 - Z90)) < 1e-6 and abs(hi - (3.0 + Z90)) < 1e-6
    assert abs(d["width"] - d["z_width"]) < 1e-5
    assert d["multiple_components"] is False


def test_region_horseshoe_far_reverts(runner):
    res = runner.invoke(main, ["region", "--prior", "horseshoe",
                               "--y", "100", "--alpha", "0.1"])
    d = json.loads(res.output)
    assert abs(d["width"] - 2 * Z90) < 0.1
    assert d["intervals"][0][0] < d["z_interval"][0]  # reaches toward 0


def test_region_gaussian_prior_shrinks(runner):
    res = runner.invoke(main, ["region", "--prior", "gaussian:tau=1",
                               "--y", "1", "--alpha", "0.1"])
    d = json.loads(res.output)
    assert abs(d["focal"] - 0.5) < 1e-9
    assert d["width"] < d["z_width"]


def test_region_sigma_flag(runner):
    res = runner.invoke(main, ["region", "--prior", "flat", "--sigma", "2",
                               "--y", "0", "--alpha", "0.1"])
    d = json.loads(res.output)
    assert abs(d["width"] - 4 * Z90) < 1e-5


def test_region_pvalue_grid_csv(runner):
    res = runner.invoke(main, ["region", "--prior", "flat", "--y", "1",
                               "--alpha", "0.1",
                               "--pvalue-grid", "0:2:0.5"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "theta0,pvalue"
    assert len(lines) == 6
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows[1.0] > 0.99
    assert abs(rows[0.0] - 2 * (1 - 0.8413447460685429)) < 1e-4


def test_region_usage_errors(runner):
    res = runner.invoke(main, ["region", "--prior", "nope", "--y", "0",
                               "--alpha", "0.1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["region", "--prior", "flat", "--y", "0",
                               "--alpha", "1.2"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["region", "--prior", "flat", "--y", "0",
                               "--alpha", "0.1", "--pvalue-grid", "bad"])
    assert res.exit_code == 2


@pytest.mark.parametrize("y", ["nan", "inf"])
def test_region_pvalue_grid_non_finite_y(runner, y):
    res = runner.invoke(main, ["region", "--prior", "horseshoe", "--y", y,
                               "--alpha", "0.1", "--pvalue-grid", "0:1:0.5"])
    assert res.exit_code == 2


@pytest.mark.parametrize("grid", ["0:nan:0.5", "nan:1:0.5", "0:1:nan",
                                  "0:inf:0.5", "-inf:1:0.5", "0:1:inf"])
def test_region_pvalue_grid_non_finite_bounds(runner, grid):
    res = runner.invoke(main, ["region", "--prior", "horseshoe", "--y", "0",
                               "--alpha", "0.1", "--pvalue-grid", grid])
    assert res.exit_code == 2, res.output
    assert "must be finite" in res.output and "theta0" not in res.output


@pytest.mark.parametrize("grid", ["0:1e308:1e-10", "-1e308:1e308:1", "0:1e7:1",
                                  "0:1000000:1"])
def test_region_pvalue_grid_too_many_points(runner, grid):
    # the last grid holds 10^6 + 1 points
    res = runner.invoke(main, ["region", "--prior", "flat", "--y", "0",
                               "--alpha", "0.1", "--pvalue-grid", grid])
    assert res.exit_code == 2, res.output
    assert "at most 1000000 points" in res.output


def test_region_bessel_far_out(runner):
    res = runner.invoke(main, ["region", "--prior", "bessel", "--y", "1e6",
                               "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    assert abs(d["focal"] - (1e6 - 3e-6)) < 1e-9
    (lo, hi), = d["intervals"]
    # the region is the z-interval shifted by O(sigma^2 / y)
    assert abs((lo - 1e6) + Z90) < 1e-5 and abs((hi - 1e6) - Z90) < 1e-5


@pytest.mark.parametrize("args", [
    ["--prior", "horseshoe", "--y", "1.01e75"],
    ["--prior", "bp:a=1,b=0.5", "--y", "1e200"],
    ["--prior", "flat", "--sigma", "1e-170", "--y", "0"],
    ["--prior", "flat", "--sigma", "1e76", "--y", "0"],
    ["--prior", "gaussian:tau=1", "--y", "2e15"],
    ["--prior", "gaussian:tau=1", "--sigma", "2e4", "--y", "0"],
])
def test_region_outside_the_supported_range(runner, args):
    res = runner.invoke(main, ["region", "--alpha", "0.1"] + args)
    assert res.exit_code == 2, res.output
    assert "sigma" in res.output


@pytest.mark.parametrize("y", ["3.1622776601683795e17", "1e75", "-1e75"])
def test_region_where_floats_are_wider_apart_than_sigma(runner, y):
    # the search range and the first bracket step allow for float spacing
    res = runner.invoke(main, ["region", "--prior", "horseshoe", "--y", y,
                               "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    (lo, hi), = json.loads(res.output)["intervals"]
    assert lo <= float(y) <= hi and hi - lo <= 4.0 * math.ulp(float(y))


# -- nef --------------------------------------------------------------------


def test_nef_binom_json(runner):
    res = runner.invoke(main, ["nef", "--family", "binom:n=8,a=1,b=1",
                               "--y", "4", "--alpha", "0.1",
                               "--grid", "0.001"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    assert d["estimator_member"] is True
    assert abs(d["estimator"] - 0.5) < 1e-12
    lo, hi = d["intervals"][0][0], d["intervals"][-1][1]
    assert abs((1.0 - hi) - lo) < 2e-3  # symmetric about 1/2


def test_nef_multinom_json(runner):
    res = runner.invoke(main, ["nef", "--family",
                               "multinom:n=15,a1=1,a2=1,a3=1",
                               "--y", "5,5,5", "--alpha", "0.1",
                               "--grid", "30"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    assert d["estimator_member"] is True
    assert len(d["cells"]) > 0


def test_nef_csv_format(runner):
    res = runner.invoke(main, ["nef", "--family", "binom:n=8,a=1,b=1",
                               "--y", "4", "--alpha", "0.1",
                               "--grid", "0.01", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "theta,member"
    assert len(lines) == 100  # 99 interior grid points + header
    members = [l for l in lines[1:] if l.endswith(",1")]
    assert members


def test_nef_usage_errors(runner):
    res = runner.invoke(main, ["nef", "--family", "binom:n=8,a=1,b=1",
                               "--y", "x", "--alpha", "0.1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["nef", "--family", "weird:n=1",
                               "--y", "0", "--alpha", "0.1"])
    assert res.exit_code == 2


def test_nef_bad_grid(runner):
    for family, y, grid in (("binom:n=8,a=1,b=1", "4", "0"),
                            ("binom:n=8,a=1,b=1", "4", "nan"),
                            ("binom:n=8,a=1,b=1", "4", "0.9"),
                            ("poisson:a=1,p=0.5", "3", "0"),
                            ("multinom:n=3,a1=1,a2=1,a3=1", "1,1,1", "2")):
        res = runner.invoke(main, ["nef", "--family", family, "--y", y,
                                   "--alpha", "0.1", "--grid", grid,
                                   "--format", "csv"])
        assert res.exit_code == 2, (family, grid, res.output)
        assert "grid" in res.output


def test_nef_grid_with_too_many_points(runner):
    res = runner.invoke(main, ["nef", "--family", "binom:n=8,a=1,b=1",
                               "--y", "4", "--alpha", "0.1", "--grid", "1e-9"])
    assert res.exit_code == 2, res.output
    assert "more than 1000000 theta points" in res.output


def test_nef_non_integral_n(runner):
    res = runner.invoke(main, ["nef", "--family", "binom:n=2.5,a=1,b=1",
                               "--y", "1", "--alpha", "0.1"])
    assert res.exit_code == 2, res.output
    assert "whole number" in res.output


def test_region_beta_prime_large_b(runner):
    # the large-x series of log 1F1 fails for a large b; the Taylor series
    # after Kummer's transformation answers
    res = runner.invoke(main, ["region", "--prior", "bp:a=1,b=50",
                               "--y", "1", "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    (lo, hi), = d["intervals"]
    assert lo <= d["focal"] <= hi


def test_region_large_beta_prime_shape(runner):
    # Gamma(a + 1/2) overflows a double here; the region needs only kappa
    res = runner.invoke(main, ["region", "--prior", "bp:a=200,b=1",
                               "--y", "1", "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    (lo, hi), = d["intervals"]
    assert lo <= d["focal"] <= hi


def test_nef_out_of_range_y(runner):
    res = runner.invoke(main, ["nef", "--family", "binom:n=8,a=1,b=1",
                               "--y", "9", "--alpha", "0.1"])
    assert res.exit_code == 2, res.output
    assert "y must be in {0..n}" in res.output
    res = runner.invoke(main, ["nef", "--family", "poisson:a=1,p=0.5",
                               "--y", "-1", "--alpha", "0.1"])
    assert res.exit_code == 2, res.output
    assert "nonnegative integer" in res.output


def test_nef_poisson_zero(runner):
    res = runner.invoke(main, ["nef", "--family", "poisson:a=1,p=0.5",
                               "--y", "0", "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["intervals"][0][0] == 0.0


# -- limits -----------------------------------------------------------------


def test_limits_laplace(runner):
    res = runner.invoke(main, ["limits", "--prior", "laplace:kappa=1",
                               "--alpha", "0.1"])
    assert res.exit_code == 0, res.output
    d = json.loads(res.output)
    assert abs(d["c_alpha"] - 0.00510875479919934755) < 1e-10
    assert d["focal_drift"] == 1.0
    assert abs(d["width"] - (d["hi_offset"] - d["lo_offset"])) < 1e-12


def test_limits_minus_direction(runner):
    plus = json.loads(runner.invoke(
        main, ["limits", "--prior", "laplace:kappa=2", "--alpha", "0.05"]).output)
    minus = json.loads(runner.invoke(
        main, ["limits", "--prior", "laplace:kappa=2", "--alpha", "0.05",
               "--direction", "-inf"]).output)
    assert abs(plus.get("lo_offset") + minus.get("hi_offset")) < 1e-12


def test_limits_rejects_gaussian(runner):
    res = runner.invoke(main, ["limits", "--prior", "gaussian:tau=1",
                               "--alpha", "0.1"])
    assert res.exit_code == 2


def test_limits_unresolved_weight_exits_3(runner):
    res = runner.invoke(main, ["limits", "--prior", "laplace:kappa=4",
                               "--alpha", "0.1"])
    assert res.exit_code == 3, res.output
    assert "numerical failure" in res.output
    assert isinstance(res.exception, SystemExit)


# -- regress ----------------------------------------------------------------


def _write_regression_csv(path, n=60, p=3, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[0] = 4.0
    Y = X @ beta + rng.standard_normal(n)
    header = ",".join(["y"] + ["x%d" % (j + 1) for j in range(p)])
    rows = [",".join("%.17g" % v for v in [Y[i]] + list(X[i]))
            for i in range(n)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def test_regress_csv_output(runner, tmp_path):
    data = _write_regression_csv(tmp_path / "d.csv")
    res = runner.invoke(main, ["regress", "--data", data, "--response", "y",
                               "--prior", "horseshoe", "--alpha", "0.1",
                               "--sigma2", "1"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "coef,mle,focal,lo,hi,z_lo,z_hi,width_ratio"
    assert len(lines) == 4
    parsed = {l.split(",")[0]: [float(v) for v in l.split(",")[1:]]
              for l in lines[1:]}
    # null coefficients get narrower-than-z regions
    for name in ("x2", "x3"):
        assert parsed[name][-1] < 1.0, parsed[name]
    # the strong coefficient keeps an honest region containing its MLE focal
    mle, focal, lo, hi = parsed["x1"][:4]
    assert lo <= focal <= hi
    assert abs(mle - 4.0) < 0.6


def test_regress_gaussian_prior_small_standard_errors(runner, tmp_path):
    # sigma2 = 1e-12 gives standard errors near 1e-7, so gaussian:tau=1 puts
    # tau / sigma near 1e7 and the strong coefficient some 3e7 sigma out
    data = _write_regression_csv(tmp_path / "d.csv")
    res = runner.invoke(main, ["regress", "--data", data, "--response", "y",
                               "--prior", "gaussian:tau=1", "--alpha", "0.1",
                               "--sigma2", "1e-12"])
    assert res.exit_code == 0, res.output
    for line in res.output.strip().splitlines()[1:]:
        mle, focal, lo, hi, z_lo, z_hi = (float(v)
                                          for v in line.split(",")[1:7])
        assert lo <= focal <= hi, line
        assert z_lo - 1e-6 <= lo and hi <= z_hi + 1e-6, line


def test_regress_estimated_sigma_notes(runner, tmp_path):
    data = _write_regression_csv(tmp_path / "d.csv")
    res = runner.invoke(main, ["regress", "--data", data, "--response", "y",
                               "--prior", "flat", "--alpha", "0.1"])
    assert res.exit_code == 0
    assert "approximate" in res.output  # stderr note captured by the runner


def test_regress_usage_errors(runner, tmp_path):
    data = _write_regression_csv(tmp_path / "d.csv")
    res = runner.invoke(main, ["regress", "--data", data, "--response", "nope",
                               "--prior", "flat", "--alpha", "0.1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["regress", "--data", data, "--response", "y",
                               "--prior", "flat", "--alpha", "0.1",
                               "--sigma2", "abc"])
    assert res.exit_code == 2


@pytest.mark.parametrize("sigma2", ["nan", "inf", "-inf", "0", "-1"])
def test_regress_non_positive_sigma2(runner, tmp_path, sigma2):
    data = _write_regression_csv(tmp_path / "d.csv")
    res = runner.invoke(main, ["regress", "--data", data, "--response", "y",
                               "--prior", "flat", "--alpha", "0.1",
                               "--sigma2", sigma2])
    assert res.exit_code == 2, res.output
    assert "sigma2 must be finite and positive" in res.output


@pytest.mark.parametrize("text, message", [
    ("y,x1\n1,2\n3,x\n", "non-numeric value 'x' in column 'x1'"),
    ("y,x1\n1,2\n3\n", "no value in column 'x1'"),
    ("y,x1\n", "no data rows"),
])
def test_regress_malformed_csv(runner, tmp_path, text, message):
    data = tmp_path / "d.csv"
    data.write_text(text)
    res = runner.invoke(main, ["regress", "--data", str(data), "--response",
                               "y", "--prior", "flat", "--alpha", "0.1",
                               "--sigma2", "1"])
    assert res.exit_code == 2, res.output
    assert message in res.output


# -- simulate ---------------------------------------------------------------


def test_simulate_cli(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 25\np = 2\nsigma_y2 = 1\nlog_sigma_beta = 0\n"
        "priors = flat\nalpha = 0.1\nreps = 3\nseed = 5\n")
    res = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("prior,log_sigma_beta")
    assert len(lines) == 2


def test_simulate_bad_config(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 25\n")
    res = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 2


# -- output precision -------------------------------------------------------


def test_seventeen_digit_roundtrip(runner):
    res = runner.invoke(main, ["region", "--prior", "flat", "--y",
                               "0.1234567890123456", "--alpha", "0.1",
                               "--pvalue-grid", "0:0:1"])
    val = res.output.strip().splitlines()[1].split(",")[1]
    assert float(val) == float(repr(float(val)))  # parses losslessly
