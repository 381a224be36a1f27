"""Every public entry point refuses an input outside its domain with
DomainError or SpecParseError before it computes: nan, +-inf and an int past
the float range wherever a real number is taken, 0 and -1 wherever a
positive one is, and an alpha below its 1e-300 floor.

The kernels and numpy's QR are replaced by a tripwire for these tests, so an
input that reaches any computation fails the test rather than the kernel.
"""

import math

import numpy as np
import pytest

from fabcr import _core, asymptotics, gaussian, nef, regression, simulate
from fabcr.errors import DomainError, SpecParseError
from fabcr.priors import PriorModel, parse_prior

# an int past the float range is no finite float either
NON_FINITE = (math.nan, math.inf, -math.inf, 10 ** 400)
NON_POSITIVE = NON_FINITE + (0.0, -1.0)

HS = PriorModel(kind="horseshoe")
BINOM = nef.NefModel(family="binom", n=8, a=(1.0,), b=1.0)
POISSON = nef.NefModel(family="poisson", a=(1.0,), p=0.5)
MULTINOM3 = nef.NefModel(family="multinom", n=3, a=(1.0,) * 3)
MULTINOM4 = nef.NefModel(family="multinom", n=4, a=(1.0,) * 4)
SIM = dict(n=30, p=3, sigma_y2=1.0, log_sigma_beta_grid=(0.0,),
           priors=("flat",), alpha=0.1, reps=2, seed=1)
REGRESSION = regression.RegressionProblem(
    X=np.eye(2), Y=np.ones(2), beta_hat=np.ones(2), Sigma_tilde=np.eye(2),
    sigma2=1.0, sigma2_estimated=False)


def _cases():
    for v in NON_POSITIVE:
        yield "PriorModel sigma=%r" % v, lambda v=v: PriorModel("flat", sigma=v)
        yield "parse_prior sigma=%r" % v, lambda v=v: parse_prior("flat", v)
        for kind, name in (("gaussian", "tau"), ("bp", "a"), ("bp", "b"),
                           ("laplace", "kappa"), ("flat+atom", "gamma")):
            kw = {"a": 1.0, "b": 1.0} if kind == "bp" else {}
            kw[name] = v
            yield ("PriorModel %s %s=%r" % (kind, name, v),
                   lambda kind=kind, kw=kw: PriorModel(kind, **kw))
        yield ("scan_step=%r" % v, lambda v=v: gaussian.confidence_region(
            HS, 1.0, 0.1, scan_step=v))
        yield ("z_interval sigma=%r" % v,
               lambda v=v: gaussian.z_interval(0.0, v, 0.1))
        yield "NefModel a=%r" % v, lambda v=v: nef.NefModel(
            "binom", n=8, a=(v,), b=1.0)
        yield "NefModel b=%r" % v, lambda v=v: nef.NefModel(
            "binom", n=8, a=(1.0,), b=v)
        yield ("theta_grid grid=%r" % v,
               lambda v=v: nef.theta_grid(BINOM, 4, 0.1, v))
        # the Poisson window starts where alpha says
        yield ("theta_grid poisson alpha=%r" % v,
               lambda v=v: nef.theta_grid(POISSON, 3, v))
        yield ("confidence_region_nef grid=%r" % v,
               lambda v=v: nef.confidence_region_nef(BINOM, 4, 0.1, grid=v))
        yield ("fit_regression sigma2=%r" % v, lambda v=v:
               regression.fit_regression(np.eye(3), np.zeros(3), sigma2=v))
        yield ("ExperimentConfig sigma_y2=%r" % v,
               lambda v=v: simulate.ExperimentConfig(**dict(SIM, sigma_y2=v)))
    for v in NON_FINITE:
        yield "PriorModel loc=%r" % v, lambda v=v: PriorModel("flat", loc=v)
        yield ("confidence_region y=%r" % v,
               lambda v=v: gaussian.confidence_region(HS, v, 0.1))
        yield ("focal_point y=%r" % v,
               lambda v=v: gaussian.focal_point(HS, v))
        yield ("acceptance_interval theta0=%r" % v,
               lambda v=v: gaussian.acceptance_interval(HS, v, 0.1))
        yield ("p_value_curve y=%r" % v,
               lambda v=v: gaussian.p_value_curve(HS, v, [0.0]))
        yield ("p_value_curve theta0=%r" % v,
               lambda v=v: gaussian.p_value_curve(HS, 0.0, [0.0, v]))
        yield ("z_interval y=%r" % v,
               lambda v=v: gaussian.z_interval(v, 1.0, 0.1))
        yield ("g_alpha_inv t=%r" % v,
               lambda v=v: asymptotics.g_alpha_inv(0.1, v))
        for model, eta in ((BINOM, v), (POISSON, v), (MULTINOM3, (0.0, v))):
            yield ("acceptance_set %s eta=%r" % (model.family, eta),
                   lambda model=model, eta=eta: nef.acceptance_set(
                       model, eta, 0.1))
        yield ("fit_regression Y=%r" % v, lambda v=v:
               regression.fit_regression(np.eye(2), [1.0, v], sigma2=1.0))
        yield ("ExperimentConfig log_sigma_beta=%r" % v, lambda v=v:
               simulate.ExperimentConfig(**dict(SIM, log_sigma_beta_grid=(v,))))
    for v in (0, -1, 2.5, math.nan):
        for name in ("n", "p", "reps"):
            yield ("ExperimentConfig %s=%r" % (name, v), lambda v=v, name=name:
                   simulate.ExperimentConfig(**dict(SIM, **{name: v})))
        yield "gen_design n=%r" % v, lambda v=v: simulate.gen_design(v, 2, 1)
        yield "NefModel n=%r" % v, lambda v=v: nef.NefModel(
            "binom", n=v, a=(1.0,), b=1.0)
    # parameters the kind or family does not take
    yield ("PriorModel horseshoe kappa, a",
           lambda: PriorModel("horseshoe", kappa=2.0, a=3.0))
    yield "PriorModel gaussian a", lambda: PriorModel("gaussian", a=1.0)
    yield ("NefModel binom p",
           lambda: nef.NefModel("binom", n=8, a=(1.0,), b=1.0, p=0.3))
    yield ("NefModel poisson n",
           lambda: nef.NefModel("poisson", n=3, a=(1.0,), p=0.5))
    # natural parameters of the wrong type or shape, whose mean-scale value
    # is not a float, or whose product with n or with the largest Poisson
    # support point (42 at eta = -1e308) is not a float
    for model, eta in ((BINOM, (0.1,)), (BINOM, "0.1"), (POISSON, None),
                       (MULTINOM3, (0.1, 0.2, 0.3)), (MULTINOM3, (0.1,)),
                       (MULTINOM3, 0.1), (POISSON, 800.0),
                       (MULTINOM3, (800.0, 0.0)), (BINOM, 1e308),
                       (BINOM, -1e308), (POISSON, -1e308)):
        yield ("acceptance_set %s eta=%r" % (model.family, eta),
               lambda model=model, eta=eta: nef.acceptance_set(
                   model, eta, 0.1))
    # past the supported y and sigma range of the Gaussian-mean regions
    yield ("confidence_region y=1.01e75",
           lambda: gaussian.confidence_region(HS, 1.01e75, 0.1))
    yield ("focal_point y=1.01e75",
           lambda: gaussian.focal_point(HS, 1.01e75))
    yield ("focal_point bp y=1e160",
           lambda: gaussian.focal_point(parse_prior("bp:a=1,b=0.5"), 1e160))
    yield ("confidence_region sigma=1e-170", lambda: gaussian.confidence_region(
        PriorModel("flat", sigma=1e-170), 0.0, 0.1))
    yield ("confidence_region sigma=1e76", lambda: gaussian.confidence_region(
        PriorModel("flat", sigma=1e76), 0.0, 0.1))
    yield ("p_value_curve theta0=-1.01e75",
           lambda: gaussian.p_value_curve(HS, 0.0, [-1.01e75]))
    yield ("confidence_region gaussian tau=1 y=1.01e15",
           lambda: gaussian.confidence_region(
               PriorModel("gaussian", tau=1.0), 1.01e15, 0.1))
    yield ("acceptance_interval gaussian tau=1e-5", lambda:
           gaussian.acceptance_interval(PriorModel("gaussian", tau=1e-5), 0.0,
                                        0.1))
    yield ("confidence_region gaussian tau=1.01e75", lambda:
           gaussian.confidence_region(PriorModel("gaussian", tau=1.01e75),
                                      0.0, 0.1))
    yield ("confidence_region gaussian tau=1e-4 loc=1e9", lambda:
           gaussian.confidence_region(
               PriorModel("gaussian", tau=1e-4, loc=1e9), 1e9 + 3.0, 0.1))
    # alphas below the 1e-300 floor, where the tail weights of the solves
    # underflow to 0
    for v in (1e-310, 5e-324):
        for name, call in (
                ("acceptance_interval", lambda v: gaussian.acceptance_interval(
                    HS, 1.0, v)),
                ("weight", lambda v: gaussian.weight(HS, 1.0, v)),
                ("confidence_region", lambda v: gaussian.confidence_region(
                    HS, 1.0, v)),
                ("z_interval", lambda v: gaussian.z_interval(1.0, 1.0, v)),
                ("g_alpha", lambda v: asymptotics.g_alpha(v, 0.5)),
                ("g_alpha_inv", lambda v: asymptotics.g_alpha_inv(v, -1.0)),
                ("c_alpha", lambda v: asymptotics.c_alpha(v, 1.0)),
                ("limit_interval", lambda v: asymptotics.limit_interval(
                    PriorModel("laplace", kappa=1.0), v)),
                ("acceptance_set binom", lambda v: nef.acceptance_set(
                    BINOM, 0.0, v)),
                ("acceptance_set poisson", lambda v: nef.acceptance_set(
                    POISSON, 0.0, v)),
                ("acceptance_set multinom", lambda v: nef.acceptance_set(
                    MULTINOM3, (0.0, 0.0), v)),
                ("confidence_region_nef", lambda v: nef.confidence_region_nef(
                    BINOM, 4, v)),
                ("theta_grid poisson", lambda v: nef.theta_grid(POISSON, 3, v)),
                ("all_marginal_regions",
                 lambda v: regression.all_marginal_regions(
                     REGRESSION, "horseshoe", v)),
                ("ExperimentConfig", lambda v: simulate.ExperimentConfig(
                    **dict(SIM, alpha=v)))):
            yield "%s alpha=%r" % (name, v), lambda v=v, call=call: call(v)
    # a regression without covariates, seeds below 0 or not integers, and
    # simulation priors that do not parse or lack a parameter
    yield ("fit_regression p=0", lambda: regression.fit_regression(
        np.zeros((3, 0)), np.zeros(3), sigma2=1.0))
    for v in (-1, 2.5, math.nan, "1"):
        yield ("ExperimentConfig seed=%r" % (v,),
               lambda v=v: simulate.ExperimentConfig(**dict(SIM, seed=v)))
        yield "gen_design seed=%r" % (v,), lambda v=v: simulate.gen_design(
            3, 2, v)
    for priors in (("flat", "nope"), ("bp:a=1",), ("laplace:kappa=x",)):
        yield ("ExperimentConfig priors=%r" % (priors,),
               lambda priors=priors: simulate.ExperimentConfig(
                   **dict(SIM, priors=priors)))
    # Laplace kappa past the bound where its posterior mean loses digits
    for v in (30.000000000000004, 40.0, 1e155):
        m = PriorModel("laplace", kappa=v)
        for name, call in (("log_marginal", lambda m: m.log_marginal(1.0)),
                           ("posterior_mean", lambda m: m.posterior_mean(1.0)),
                           ("confidence_region",
                            lambda m: gaussian.confidence_region(m, 1.0, 0.1)),
                           ("acceptance_interval",
                            lambda m: gaussian.acceptance_interval(m, 1.0, 0.1)),
                           ("p_value_curve",
                            lambda m: gaussian.p_value_curve(m, 1.0, [0.0]))):
            yield ("%s laplace kappa=%r" % (name, v),
                   lambda m=m, call=call: call(m))
    # grids past the 10^6-point cap
    yield ("theta_grid binom grid=1e-9",
           lambda: nef.theta_grid(BINOM, 4, 0.1, 1e-9))
    yield ("theta_grid multinom grid=1000",
           lambda: nef.theta_grid(MULTINOM4, (1, 1, 1, 1), 0.1, 1000))
    yield ("scan_step=1e-6", lambda: gaussian.confidence_region(
        PriorModel("flat"), 1.0, 0.1, scan_step=1e-6))


_CASES = list(_cases())


@pytest.fixture
def tripwire(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("computed before refusing the input")

    for name, value in vars(_core).items():
        if callable(value) and not name.startswith("_"):
            monkeypatch.setattr(_core, name, fail)
    monkeypatch.setattr(np.linalg, "qr", fail)


@pytest.mark.parametrize("call", [c for _, c in _CASES],
                         ids=[i.replace(repr(10 ** 400), "10**400")
                              for i, _ in _CASES])
def test_refused_before_computing(tripwire, call):
    with pytest.raises((DomainError, SpecParseError)):
        call()
