"""Regression layer: QR fit, coefficient covariance, combo regions, CSV IO."""

import math

import numpy as np
import pytest

from fabcr.errors import DomainError
from fabcr.gaussian import z_interval
from fabcr.regression import (all_marginal_regions, combo_region,
                              fit_regression, load_csv)

Z90 = 1.6448536269514722


def test_identity_design():
    X = np.eye(4)
    Y = np.array([1.0, -2.0, 0.5, 3.0])
    prob = fit_regression(X, Y, sigma2=1.0)
    assert np.allclose(prob.beta_hat, Y)
    assert np.allclose(prob.Sigma_tilde, np.eye(4))
    assert not prob.sigma2_estimated


def test_exact_three_by_two_system():
    # X'X = [[2,1],[1,2]] so (X'X)^-1 = (1/3)[[2,-1],[-1,2]]
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Y = np.array([1.0, 1.0, 2.0])
    prob = fit_regression(X, Y, sigma2=1.0)
    assert np.allclose(prob.beta_hat, [1.0, 1.0], atol=1e-12)
    want = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert np.allclose(prob.Sigma_tilde, want, atol=1e-12)


def test_residual_orthogonality():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 5))
    Y = rng.standard_normal(40)
    prob = fit_regression(X, Y, sigma2=2.0)
    resid = Y - X @ prob.beta_hat
    assert np.max(np.abs(X.T @ resid)) < 1e-9


def test_sigma2_estimation():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 3))
    beta = np.array([1.0, 0.0, -2.0])
    Y = X @ beta + 0.5 * rng.standard_normal(60)
    prob = fit_regression(X, Y)
    assert prob.sigma2_estimated
    resid = Y - X @ prob.beta_hat
    assert abs(prob.sigma2 - resid @ resid / 57.0) < 1e-12
    assert 0.1 < prob.sigma2 < 0.6


def test_general_noise_covariance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    Y = rng.standard_normal(30)
    D = np.diag(rng.uniform(0.5, 2.0, size=30))
    prob = fit_regression(X, Y, Sigma=D)
    # direct normal-equation reference
    XtXi = np.linalg.inv(X.T @ X)
    want = XtXi @ X.T @ D @ X @ XtXi
    assert np.allclose(prob.Sigma_tilde, want, atol=1e-10)


def test_fit_rejections():
    with pytest.raises(DomainError):
        fit_regression(np.ones((3, 2)), np.zeros(3), sigma2=1.0)  # rank 1
    with pytest.raises(DomainError):
        fit_regression(np.eye(2), np.zeros(3), sigma2=1.0)  # shape mismatch
    with pytest.raises(DomainError):
        fit_regression(np.eye(3), np.zeros(3), sigma2=0.0)
    with pytest.raises(DomainError):
        fit_regression(np.eye(3), np.zeros(3), Sigma=np.eye(3), sigma2=1.0)
    with pytest.raises(DomainError):
        fit_regression(np.eye(3)[:, :2][:1], np.zeros(1), sigma2=1.0)


def test_combo_region_flat_is_z_interval():
    X = np.eye(3)
    Y = np.array([2.0, 0.0, -1.0])
    prob = fit_regression(X, Y, sigma2=1.0)
    reg = combo_region(prob, [1.0, 0.0, 0.0], "flat", 0.1)
    lo, hi = z_interval(2.0, 1.0, 0.1)
    assert abs(reg.lo - lo) < 1e-6 and abs(reg.hi - hi) < 1e-6


def test_combo_region_scale():
    # combo variance x' Sigma_tilde x drives the prior scale
    X = np.eye(2)
    Y = np.array([1.0, 1.0])
    prob = fit_regression(X, Y, sigma2=4.0)
    reg = combo_region(prob, [1.0, 1.0], "flat", 0.1)
    sigma = math.sqrt(8.0)  # var = 4 + 4
    assert abs(reg.width - 2 * Z90 * sigma) < 1e-5


def test_combo_rejections():
    prob = fit_regression(np.eye(2), np.zeros(2), sigma2=1.0)
    with pytest.raises(DomainError):
        combo_region(prob, [0.0, 0.0], "flat", 0.1)
    with pytest.raises(DomainError):
        combo_region(prob, [1.0, 0.0, 0.0], "flat", 0.1)


def test_marginal_regions_shrink_null_coefficients():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 4))
    beta = np.array([5.0, 0.0, 0.0, 0.0])
    Y = X @ beta + rng.standard_normal(80)
    prob = fit_regression(X, Y, sigma2=1.0)
    rows = all_marginal_regions(prob, "horseshoe", 0.1)
    assert len(rows) == 4
    for j, reg, focal, zw in rows:
        assert reg.contains(focal)
        if j > 0:
            assert reg.width < zw  # nulls benefit from shrinkage
            assert abs(focal) < abs(prob.beta_hat[j])


def test_one_hot_combo_equals_marginal():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((50, 3))
    Y = rng.standard_normal(50)
    prob = fit_regression(X, Y, sigma2=1.0)
    rows = all_marginal_regions(prob, "horseshoe", 0.1)
    direct = combo_region(prob, [0.0, 1.0, 0.0], "horseshoe", 0.1)
    assert abs(rows[1][1].lo - direct.lo) < 1e-9
    assert abs(rows[1][1].hi - direct.hi) < 1e-9


# -- CSV loading ------------------------------------------------------------


def _write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    p = _write_csv(tmp_path / "d.csv",
                   "y,x1,x2\n1,2,3\n4,5,6\n7,8,10\n")
    X, Y, names = load_csv(p, "y")
    assert names == ["x1", "x2"]
    assert X.shape == (3, 2) and list(Y) == [1.0, 4.0, 7.0]
    assert X[2, 1] == 10.0


def test_load_csv_select_and_intercept(tmp_path):
    p = _write_csv(tmp_path / "d.csv",
                   "y,x1,x2\n1,2,3\n4,5,6\n7,8,10\n")
    X, Y, names = load_csv(p, "y", covariates=["x2"], intercept=True)
    assert names == ["x2", "(intercept)"]
    assert np.allclose(X[:, 1], 1.0)


def test_load_csv_impute_and_standardize(tmp_path):
    p = _write_csv(tmp_path / "d.csv",
                   "y,x1\n1,2\n4,\n7,8\n10,4\n")
    with pytest.raises(DomainError):
        load_csv(p, "y")
    X, Y, _ = load_csv(p, "y", impute_median=True)
    assert X[1, 0] == 4.0  # median of {2, 8, 4}
    Xs, _, _ = load_csv(p, "y", impute_median=True, standardize=True)
    assert abs(Xs[:, 0].mean()) < 1e-12
    assert abs(Xs[:, 0].std() - 1.0) < 1e-12


def test_load_csv_errors(tmp_path):
    p = _write_csv(tmp_path / "d.csv", "y,x1\n1,2\n,3\n")
    with pytest.raises(DomainError):
        load_csv(p, "y")  # missing response
    with pytest.raises(DomainError):
        load_csv(p, "z")
    with pytest.raises(DomainError):
        load_csv(p, "y", covariates=["nope"])


@pytest.mark.parametrize("text, where", [
    ("y,x1,x2\n1,2,3\n4,five,6\n", "line 3 .*'five'.*'x1'"),
    ("y,x1,x2\n1,2,3\n4,5\n", "line 3 .*'x2'"),
])
def test_load_csv_bad_cell_names_line_and_column(tmp_path, text, where):
    p = _write_csv(tmp_path / "d.csv", text)
    with pytest.raises(DomainError, match=where):
        load_csv(p, "y")


@pytest.mark.parametrize("text", ["y,x1\n", ""])
def test_load_csv_without_data_rows(tmp_path, text):
    p = _write_csv(tmp_path / "d.csv", text)
    with pytest.raises(DomainError, match="no data rows"):
        load_csv(p, "y")
