"""fabcr benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload region_mix --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py; one op is one user-level request):

* region_mix: interactive CLI `region` users, one normal-mean region at a
  time across the whole prior catalog, plus p-value curves, limit intervals
  and invalid-input probes. Dominated by endpoint bisection and weight solves.
* regression_batch: bulk work; one replication of the criterion-8 simulation
  design per op (40 regions sharing priors), and a CLI-`regress`-sized
  dataset (n=400, p=200) through load_csv, fit_regression and
  all_marginal_regions.
* nef_mix: binomial, Poisson and multinomial regions on default grids. It
  never touches the Gaussian path, so it is the no-change control for
  Gaussian work.

One caller runs each workload in a single process, on the pure-Python kernel
backend, in a fresh interpreter. A run executes a fixed number of whole
blocks of ops (each block has a fixed composition): --seconds over the
workload's nominal block time (workloads.BLOCK_SECONDS), rounded, so that the
work of a run does not depend on how fast the machine is at the time. It
checks every output against frozen references (check.py), and prints a
summary followed, on the last line, by one JSON object. With --trace 0 it
holds the end-to-end metrics:

* ops_per_s: timed ops completed per second of op time;
* op_ms_p50: median op latency;
* op_ms_tail: the latency with exactly 10 samples above it (the highest
  percentile with at least 10 samples beyond it; the summary records which);
* peak_rss_mb: peak resident memory of the run's process;
* setup_s: median over fresh interpreters of the time to import fabcr and
  fabcr.cli and build the workload's models.

Invalid-input probes count as attempted ops but not in latency or
throughput. A failed op (it raised, missed the per-op deadline or failed the
output check) counts in `failed`; the summary reports failed_frac.

With --trace 1 the run first repeats the untraced loop for half of --seconds
under a stack sampler (per-layer shares of op time, per-family NEF region
times), then installs the span tracer (spans.py) and runs the same op list
again for the other half, and reports the per-layer metrics (perlayer.py),
including the tracing overhead. Spans are written to .bench_out/.
`--seconds 0` runs one block (one per phase with --trace 1).

`--workload nef_defects` runs the valid inputs that fail at the time of
writing (Poisson y=0 and y>=25) and the binomial y>n probe; it is not a
timed workload.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEADLINE_S = 60.0     # per op; the slowest passing op takes about 7 s
SETUP_REPEATS = 5

E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_CHILD = r"""
import json, os, sys
spec = json.loads(sys.argv[1])
import fabcr, fabcr.cli
from fabcr import nef, priors
if not os.path.abspath(fabcr.__file__).startswith(spec["src"] + os.sep) \
        or fabcr.BACKEND != "python":
    sys.exit(3)
for prior, sigma in spec["priors"]:
    priors.parse_prior(prior, sigma=sigma)
for family in spec["families"]:
    nef.parse_family(family).support()
"""


class Deadline(BaseException):
    """The running op exceeded DEADLINE_S (a BaseException, so that no
    handler inside the package swallows it)."""


def _on_alarm(signum, frame):
    raise Deadline()


def child_env():
    env = dict(os.environ)
    env["FABCR_BACKEND"] = "python"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(specs):
    """Median wall time of fresh interpreters importing the package and
    building the workload's models."""
    arg = json.dumps(dict(specs, src=SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, arg],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("set-up interpreter failed (exit %d): %s"
                             % (proc.returncode, proc.stderr.decode()[-500:]))
    return statistics.median(times)


def run_op(op, paths, refs, runner, current):
    """Execute and check one op, calling `runner(fn)` to run it; returns
    (seconds, failure reason or None)."""
    import check
    import workloads as W
    from fabcr.errors import DomainError

    current["y"] = W.op_y(op)
    fn = lambda: W.execute(op, paths)  # noqa: E731
    result, why = None, None
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = perf_counter()
    try:
        result = runner(fn)
    except Deadline:
        why = "deadline"
    except DomainError as exc:
        why = None if op["cat"] == W.PROBE else "raised %r" % (exc,)
    except Exception as exc:  # any other failure is counted, not fatal
        why = "raised %r" % (exc,)
    else:
        if op["cat"] == W.PROBE:
            why = "invalid input accepted"
    finally:
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    if why is None and op["cat"] != W.PROBE:
        try:
            problems = check.check(op, result, refs)
        except Exception as exc:  # an unreadable result fails its check
            problems = ["raised %r" % (exc,)]
        if problems:
            why = "output check: " + "; ".join(problems[:3])
    return t1 - t0, why


def run_phase(blocks, ops, paths, refs, nblocks, runner=lambda fn: fn(),
              current=None):
    """Closed loop over the first `nblocks` blocks. Returns [(op, seconds,
    why)] and the (ops done, seconds elapsed) after each block."""
    done, blocks_done = [], []
    current = {} if current is None else current
    t_start = perf_counter()
    for block in itertools.islice(itertools.cycle(blocks), nblocks):
        for op_id in block:
            op = ops[op_id]
            secs, why = run_op(op, paths, refs, runner, current)
            done.append((op, secs, why))
        blocks_done.append((len(done), perf_counter() - t_start))
    return done, blocks_done


def tail(lat):
    """(value, percentile): the sample with exactly 10 samples above it, or
    the maximum when there are 10 samples or fewer."""
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def end_to_end(done, setup_s):
    import workloads as W
    timed = [(op, s, why) for op, s, why in done if op["cat"] != W.PROBE]
    lat = sorted(s * 1e3 for _, s, why in timed if why is None)
    total = sum(s for _, s, _ in timed)
    tail_ms, tail_pct = tail(lat) if lat else (0.0, 0.0)
    values = {
        "ops_per_s": len(lat) / total if total else 0.0,
        "op_ms_p50": statistics.median(lat) if lat else 0.0,
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    samples = {"ops_per_s": len(timed), "op_ms_p50": len(lat),
               "op_ms_tail": len(lat), "peak_rss_mb": 1,
               "setup_s": SETUP_REPEATS}
    return values, samples, tail_pct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fabcr", "__init__.py")):
        print("error: package source not found under %s" % SRC, file=sys.stderr)
        return 2
    os.environ["FABCR_BACKEND"] = "python"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads as W
    if args.workload not in W.BLOCKS_PER_LIST:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    ops, blocks, op_hash = W.op_list(args.workload, args.seed)
    setup_s = 0.0
    if not args.trace:
        setup_s = measure_setup(W.model_specs(args.workload, ops))

    import numpy
    import fabcr
    # the modules an op uses are imported here, so no op pays for an import
    import fabcr.cli  # noqa: F401
    from fabcr import (asymptotics, gaussian, nef, priors,  # noqa: F401
                       regression, simulate)
    if not os.path.abspath(fabcr.__file__).startswith(SRC + os.sep) \
            or fabcr.BACKEND != "python":
        print("error: fabcr imported from %s with backend %s"
              % (fabcr.__file__, fabcr.BACKEND), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    paths = W.prepare(ops, OUT)
    ref_path = os.path.join(HERE, "reference", args.workload + ".json")
    refs = {}
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            refs = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)

    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "backend": fabcr.BACKEND, "python": platform.python_version(),
              "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
              "op_hash": op_hash, "deadline_s": DEADLINE_S}
    print("# env " + json.dumps(header, sort_keys=True))

    if args.trace:
        import perlayer
        from spans import LayerSampler, Tracer
        nblocks = W.blocks_for(args.workload, args.seconds / 2.0)
        sampler = LayerSampler()
        sampler.start()
        try:
            plain, _ = run_phase(blocks, ops, paths, refs, nblocks,
                                 runner=sampler.call)
        finally:
            sampler.stop()
        tracer = Tracer()
        current = {}
        tracer.install(perlayer.tag_functions(current))
        try:
            traced, progress = run_phase(
                blocks, ops, paths, refs, nblocks,
                runner=lambda fn: tracer.call("op", fn), current=current)
        finally:
            tracer.uninstall()
        done = plain + traced
        m = min(len(plain), len(traced))
        values = perlayer.from_spans(
            tracer, sum(1 for op, _, _ in traced if op["cat"] != W.PROBE),
            [(op, why) for op, _, why in traced if why is not None])
        values.update(perlayer.from_untraced(
            plain, sampler, perlayer.calls_per_op(tracer, "nef.acceptance_set")))
        values["trace.overhead_frac"] = (sum(s for _, s, _ in traced[:m])
                                         / sum(s for _, s, _ in plain[:m]) - 1.0)
        values.update(perlayer.kernel_cases())
        units = dict(perlayer.names())
        samples = {"ops_traced": len(traced), "ops_untraced": len(plain),
                   "spans": len(tracer.start), "stack_samples": sampler.total}
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.json.gz"
                                  % (args.workload, args.seed)))
        extra = {}
    else:
        done, progress = run_phase(blocks, ops, paths, refs,
                                   W.blocks_for(args.workload, args.seconds))
        values, samples, tail_pct = end_to_end(done, setup_s)
        units = E2E_UNITS
        extra = {"op_ms_tail_percentile": tail_pct}
        groups = {}
        for op, secs, _ in done:
            groups.setdefault(op.get("group", op["cat"]), []).append(secs * 1e3)
        for group, lat in sorted(groups.items()):
            extra["ops.%s.ms_p50" % group] = statistics.median(lat)
            samples["ops.%s.ms_p50" % group] = len(lat)

    failures = [(op["id"], why) for op, _, why in done if why is not None]
    failed_frac = len(failures) / len(done)
    for name, unit in units.items():
        print("%-48s %16.6f %-6s n=%s" % (name, values[name], unit,
                                          samples.get(name, len(done))))
    for key, val in extra.items():
        print("%-48s %16.6f        n=%s" % (key, val, samples.get(key, "")))
    print("%-48s %16.6f %-6s n=%d" % ("failed_frac", failed_frac, "frac",
                                      len(done)))
    for op_id, why in failures[:20]:
        print("# failed %s: %s" % (op_id, why))

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    slowest = sorted(((secs * 1e3, op["id"]) for op, secs, _ in done),
                     reverse=True)[:20]
    record = {"header": header, "blocks": progress, "slowest": slowest,
              "metrics": metrics, "samples": samples,
              "failed_frac": failed_frac, "failures": failures[:100]}
    record.update(extra)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": len(done),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
