"""Time the numerical kernels of ``fabcr._core``.

Usage: python benchmarks/bench_kernels.py

Without an installed ``fabcr`` it imports the package from the checkout's
``src/``.
"""

import os
import sys
import time

try:
    from fabcr import _core
except ModuleNotFoundError as exc:
    if exc.name != "fabcr":
        raise
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from fabcr import _core


def bench(label, fn, args, n):
    t0 = time.perf_counter()
    for _ in range(n):
        fn(*args)
    dt = (time.perf_counter() - t0) / n
    print("  %-28s %10.2f us" % (label, dt * 1e6))
    return dt


CASES = [
    ("norm_quantile(0.0123)", "norm_quantile", (0.0123,), 200000),
    ("log_marginal horseshoe y=3", "log_marginal",
     ("horseshoe", 0.0, 0.0, 1.0, 3.0), 100000),
    ("log_marginal laplace y=3", "log_marginal",
     ("laplace", 1.0, 0.0, 1.0, 3.0), 100000),
    ("log_marginal bp(1,.5) y=3", "log_marginal",
     ("bp", 1.0, 0.5, 1.0, 3.0), 50000),
    ("posterior_mean bp y=3", "posterior_mean",
     ("bp", 1.0, 0.5, 1.0, 3.0), 50000),
    ("weight_solve horseshoe", "weight_solve",
     ("horseshoe", 0.0, 0.0, 1.0, 7.7, 0.1), 3000),
    ("weight_solve laplace", "weight_solve",
     ("laplace", 1.0, 0.0, 1.0, -12.0, 0.05), 3000),
]


def main():
    for label, fn, args, n in CASES:
        bench(label, getattr(_core, fn), args, n)


if __name__ == "__main__":
    main()
