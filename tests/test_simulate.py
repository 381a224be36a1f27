"""Monte-Carlo harness: design generation, determinism, small experiments."""

import numpy as np
import pytest

from fabcr import simulate
from fabcr.errors import DomainError, SpecParseError
from fabcr.simulate import (ExperimentConfig, gen_design, run_experiment)


def test_gen_design_marginals():
    X = gen_design(20000, 3, seed=123)
    assert X.shape == (20000, 3)
    assert np.max(np.abs(X.mean(axis=0))) < 0.05
    assert np.max(np.abs(X.std(axis=0) - 1.0)) < 0.05


def test_gen_design_lag_one_correlation():
    X = gen_design(100000, 3, seed=42)
    for k in (1, 2):
        r = np.corrcoef(X[:, k - 1], X[:, k])[0, 1]
        assert abs(r - 0.5) < 0.02, (k, r)
    # lag-2 correlation 0.25
    r2 = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
    assert abs(r2 - 0.25) < 0.02


def test_gen_design_deterministic():
    A = gen_design(50, 4, seed=7)
    B = gen_design(50, 4, seed=7)
    assert np.array_equal(A, B)
    C = gen_design(50, 4, seed=8)
    assert not np.array_equal(A, C)


def test_gen_design_rejects():
    with pytest.raises(DomainError):
        gen_design(0, 3, seed=1)


def _config(**over):
    base = dict(n=30, p=3, sigma_y2=1.0, log_sigma_beta_grid=(0.0, 1.0),
                priors=("flat", "horseshoe"), alpha=0.1, reps=5, seed=2024)
    base.update(over)
    return ExperimentConfig(**base)


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# small experiment\n"
        "n = 30\np = 3\nsigma_y2 = 1.0\n"
        "log_sigma_beta = 0.0, 1.0\n"
        "priors = flat horseshoe\n"
        "alpha = 0.1\nreps = 5\nseed = 2024\n")
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg == _config()


def test_config_from_file_rejects(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n = 30\n")
    with pytest.raises(SpecParseError):
        ExperimentConfig.from_file(str(p))
    p.write_text("just a line\n")
    with pytest.raises(SpecParseError):
        ExperimentConfig.from_file(str(p))


def test_config_validation():
    with pytest.raises(DomainError):
        _config(reps=0)
    with pytest.raises(DomainError):
        _config(alpha=1.5)
    with pytest.raises(DomainError):
        _config(priors=())


def test_run_experiment_small():
    cfg = _config()
    res = run_experiment(cfg)
    assert len(res.cells) == 4  # 2 priors x 2 grid points
    for c in res.cells:
        assert 0.0 <= c.coverage <= 1.0
        assert c.mean_width > 0.0
        assert c.se_width >= 0.0 and c.se_coverage >= 0.0
    # flat-prior regions are z-intervals: their width depends only on the
    # design, not on sigma_beta, so the two grid cells agree closely
    w0 = res.cell("flat", 0.0).mean_width
    w1 = res.cell("flat", 1.0).mean_width
    assert abs(w0 - w1) < 0.1 * w0
    for ls in (0.0, 1.0):
        assert res.cell("flat", ls).coverage > 0.6


def test_run_experiment_gaussian_prior_small_noise():
    # sigma_y2 / n ~ 3e-12: standard errors near 2e-6, far below tau = 1
    cfg = _config(sigma_y2=1e-10, log_sigma_beta_grid=(-1.0, 20.0),
                  priors=("gaussian:tau=1",), reps=2)
    res = run_experiment(cfg)
    for c in res.cells:
        assert c.mean_width > 0.0 and 0.0 <= c.coverage <= 1.0


def test_run_experiment_deterministic():
    cfg = _config(reps=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.cells == b.cells


def test_run_experiment_threads_match_serial():
    cfg = _config(reps=4, priors=("flat",))
    serial = run_experiment(cfg, threads=1)
    parallel = run_experiment(cfg, threads=2)
    assert serial.cells == parallel.cells


def _recording_pool(started):
    """A stand-in for ProcessPoolExecutor that records its max_workers and
    runs the tasks in this process, so that no worker is ever started."""
    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)
    return Pool


def test_run_experiment_starts_no_more_workers_than_tasks(monkeypatch):
    started = []
    monkeypatch.setattr(simulate, "ProcessPoolExecutor",
                        _recording_pool(started))
    cfg = _config(reps=2, priors=("flat",), log_sigma_beta_grid=(0.0,))
    assert run_experiment(cfg, threads=8).cells == run_experiment(cfg).cells
    assert started == [2]


@pytest.mark.parametrize("threads", [0, -1, 1.5, "2", None])
def test_run_experiment_refuses_bad_threads(monkeypatch, threads):
    started = []
    monkeypatch.setattr(simulate, "ProcessPoolExecutor",
                        _recording_pool(started))
    with pytest.raises(DomainError, match="threads"):
        run_experiment(_config(reps=1, priors=("flat",),
                               log_sigma_beta_grid=(0.0,)), threads=threads)
    assert started == []


def test_write_csv(tmp_path):
    cfg = _config(reps=2, priors=("flat",), log_sigma_beta_grid=(0.0,))
    res = run_experiment(cfg)
    out = tmp_path / "res.csv"
    with open(out, "w") as fh:
        res.write_csv(fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "prior,log_sigma_beta,mean_width,se_width,coverage,se_coverage"
    assert len(lines) == 2
    assert lines[1].startswith("flat,0,")
