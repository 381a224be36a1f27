"""Per-layer metrics, computed from the traced run's spans.

The layers are the package modules; each metric below notes the end-to-end
metric it should move, and on which workload (see BENCHMARK.json):

* ``core.*.calls_per_region`` / ``us_per_call``: kernel work per region;
  moves ``ops_per_s`` and ``op_ms_p50`` on region_mix and regression_batch
  (weight solves) or nef_mix (log-gamma, digamma, log-beta).
* ``<layer>.self_share``: share of op time spent in the layer's own code,
  by stack sampling in the untraced phase (spans.LayerSampler).
* ``gaussian.*``: region latency per prior kind, the cutoff fallback and
  p-value curves (region_mix).
* ``regression.*``, ``simulate.*``, ``priors.parse_prior.calls_per_op``:
  regression_batch.
* ``nef.*``: nef_mix; ``nef.member_frac`` is the useful-work ratio of the
  grid inversion (grid points whose acceptance set holds y, over points
  evaluated); ``nef.region_s_p50.<family>`` and
  ``nef.acceptance_set.us_per_call`` come from untraced op times.
* ``core.case.*``: the kernel cases of benchmarks/bench_kernels.py, timed
  untraced.
"""

import importlib.util
import os
import re
import statistics
from time import perf_counter

import workloads as W

KIND_LABEL = {k.replace("_", "+"): k for k in W.KINDS}
NEF_FAMILIES = ("binom", "poisson", "multinom")
REGION_SPANS = ("gaussian.confidence_region", "nef.confidence_region_nef")
SHARE_LAYERS = ("core", "priors", "gaussian", "asymptotics", "nef",
                "regression", "simulate")
PER_REGION_KERNELS = ("weight_solve", "log_marginal", "posterior_mean",
                      "norm_cdf", "log_gamma", "digamma", "log_beta")


# the kernel cases (label, kernel, args, calls) of benchmarks/bench_kernels.py
_spec = importlib.util.spec_from_file_location(
    "bench_kernels", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "bench_kernels.py"))
_bench_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_kernels)
KERNEL_CASES = _bench_kernels.CASES
CASE_ROUNDS, CASE_CALL_DIVISOR = 5, 20


def case_name(label):
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")


def tag_functions(current):
    """Tags attached to spans; `current["y"]` is the running op's y."""
    return {
        "gaussian.confidence_region": lambda a, k, r: a[0].kind,
        "gaussian.p_value_curve": lambda a, k, r: len(r.grid),
        "regression.all_marginal_regions": lambda a, k, r: len(r),
        "nef.NefModel.support": lambda a, k, r: len(r),
        "nef.acceptance_set": lambda a, k, r: current["y"] in r.members,
    }


def names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for kern in PER_REGION_KERNELS:
        out.append(("core.%s.calls_per_region" % kern, "count"))
    out += [("core.weight_solve.us_per_call", "us"),
            ("core.norm_quantile.calls_per_op", "count")]
    out += [("%s.self_share" % layer, "frac") for layer in SHARE_LAYERS]
    out += [("gaussian.region_ms_p50.%s" % kind, "ms") for kind in W.KINDS]
    out += [("gaussian.cutoff_fallback_frac", "frac"),
            ("gaussian.fallback_region_ms_p50", "ms"),
            ("gaussian.p_value_curve.ms_per_point", "ms"),
            ("gaussian.errors", "count"),
            ("asymptotics.limit_interval.ms_p50", "ms"),
            ("asymptotics.calls_per_region", "count"),
            ("priors.parse_prior.calls_per_op", "count"),
            ("regression.fit_regression.ms_p50", "ms"),
            ("regression.load_csv.ms", "ms"),
            ("regression.all_marginal_regions.ms_per_coef", "ms"),
            ("simulate.gen_design.ms_p50", "ms"),
            ("simulate.draw_share", "frac"),
            ("nef.acceptance_set.calls_per_region", "count"),
            ("nef.acceptance_set.us_per_call", "us")]
    out += [("nef.region_s_p50.%s" % fam, "s") for fam in NEF_FAMILIES]
    out += [("nef.member_frac", "frac"),
            ("nef.support.points_max", "count"),
            ("nef.errors", "count"),
            ("nef.deadline_misses", "count"),
            ("trace.overhead_frac", "frac")]
    out += [("core.case.%s.us_per_call" % case_name(label), "us")
            for label, _, _, _ in KERNEL_CASES]
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def from_spans(tr, nops, failures):
    """Per-layer values from a Tracer's spans. `nops` counts the traced
    timed ops; `failures` lists (op, reason) for the traced phase."""
    n = len(tr.start)
    label = tr.names
    name = [label[i] for i in tr.name]
    parent, dur, count, tags = tr.parent, tr.dur, tr.count, tr.tags

    region = [-1] * n
    for i in range(n):
        p = parent[i]
        region[i] = i if name[i] in REGION_SPANS else (region[p] if p >= 0 else -1)

    calls, in_region, total, durs = {}, {}, {}, {}
    for nid, per_span in tr.leaf_calls.items():
        nm = label[nid]
        calls[nm] = sum(per_span.values())
        in_region[nm] = sum(c for span, c in per_span.items()
                            if span >= 0 and region[span] >= 0)
    fallback = set()
    draw = 0.0
    for i in range(n):
        nm = name[i]
        calls[nm] = calls.get(nm, 0) + count[i]
        total[nm] = total.get(nm, 0.0) + dur[i]
        if region[i] >= 0:
            in_region[nm] = in_region.get(nm, 0) + count[i]
        if count[i] == 1:
            durs.setdefault(nm, []).append(i)
        if nm == "core.norm_cdf" and region[i] >= 0 \
                and name[region[i]] == "gaussian.confidence_region":
            fallback.add(region[i])
        if nm == "simulate.gen_design" or (
                nm == "core.norm_quantile" and parent[i] >= 0
                and name[parent[i]] == "simulate.run_experiment"):
            draw += dur[i]

    def ms(idx):
        return [dur[i] * 1e3 for i in idx]

    regions = calls.get("gaussian.confidence_region", 0) \
        + calls.get("nef.confidence_region_nef", 0)
    gauss = durs.get("gaussian.confidence_region", [])
    acc = durs.get("nef.acceptance_set", [])
    acc_tagged = [tags[i] for i in acc if i in tags]
    v = {}
    for kern in PER_REGION_KERNELS:
        v["core.%s.calls_per_region" % kern] = _ratio(
            in_region.get("core." + kern, 0), regions)
    v["core.weight_solve.us_per_call"] = 1e6 * _ratio(
        total.get("core.weight_solve", 0.0), calls.get("core.weight_solve", 0))
    v["core.norm_quantile.calls_per_op"] = _ratio(
        calls.get("core.norm_quantile", 0), nops)
    for kind in W.KINDS:
        v["gaussian.region_ms_p50.%s" % kind] = _median(
            ms(i for i in gauss if KIND_LABEL.get(tags.get(i)) == kind))
    v["gaussian.cutoff_fallback_frac"] = _ratio(len(fallback), len(gauss))
    v["gaussian.fallback_region_ms_p50"] = _median(ms(sorted(fallback)))
    pvc = durs.get("gaussian.p_value_curve", [])
    v["gaussian.p_value_curve.ms_per_point"] = _ratio(
        sum(ms(pvc)), sum(tags.get(i, 0) for i in pvc))
    v["gaussian.errors"] = sum(1 for op, _ in failures
                               if op["cat"] in (W.REGION, W.PVALUE, W.LIMITS))
    v["asymptotics.limit_interval.ms_p50"] = _median(
        ms(durs.get("asymptotics.limit_interval", [])))
    v["asymptotics.calls_per_region"] = _ratio(
        sum(c for nm, c in calls.items() if nm.startswith("asymptotics.")),
        regions)
    v["priors.parse_prior.calls_per_op"] = _ratio(
        calls.get("priors.parse_prior", 0), nops)
    v["regression.fit_regression.ms_p50"] = _median(
        ms(durs.get("regression.fit_regression", [])))
    v["regression.load_csv.ms"] = _median(ms(durs.get("regression.load_csv", [])))
    amr = durs.get("regression.all_marginal_regions", [])
    v["regression.all_marginal_regions.ms_per_coef"] = _ratio(
        sum(ms(amr)), sum(tags.get(i, 0) for i in amr))
    v["simulate.gen_design.ms_p50"] = _median(
        ms(durs.get("simulate.gen_design", [])))
    v["simulate.draw_share"] = _ratio(draw, total.get("simulate.run_experiment",
                                                      0.0))
    v["nef.acceptance_set.calls_per_region"] = _ratio(
        in_region.get("nef.acceptance_set", 0),
        calls.get("nef.confidence_region_nef", 0))
    v["nef.member_frac"] = _ratio(sum(acc_tagged), len(acc_tagged))
    v["nef.support.points_max"] = max(
        [tags.get(i, 0) for i in durs.get("nef.NefModel.support", [])],
        default=0)
    v["nef.errors"] = sum(1 for op, _ in failures if op["cat"] == W.NEF)
    v["nef.deadline_misses"] = sum(1 for op, why in failures
                                   if op["cat"] == W.NEF and why == "deadline")
    return v


def calls_per_op(tr, span_name):
    """Calls of `span_name` under each root (op) span, in run order."""
    nid = tr.names.index(span_name) if span_name in tr.names else None
    root, per_op = [], {}
    for i, p in enumerate(tr.parent):
        root.append(i if p < 0 else root[p])
        if p < 0:
            per_op[i] = 0
        elif tr.name[i] == nid:
            per_op[root[i]] += tr.count[i]
    return [per_op[i] for i in sorted(per_op)]


def from_untraced(done, sampler, acceptance_calls):
    """Per-layer values from the untraced phase: `done` lists its (op,
    seconds, failure reason); `sampler` is the LayerSampler it ran under;
    `acceptance_calls` counts the acceptance sets of each traced op (the
    phases run the same op list from its start). Acceptance sets take
    nearly all of a NEF region's time, so their time per call is taken as
    untraced NEF op time per acceptance set."""
    v = {"%s.self_share" % layer: sampler.share(layer)
         for layer in SHARE_LAYERS}
    paired = [(secs, calls) for (op, secs, why), calls
              in zip(done, acceptance_calls) if why is None and op["cat"] == W.NEF]
    v["nef.acceptance_set.us_per_call"] = 1e6 * _ratio(
        sum(secs for secs, _ in paired), sum(calls for _, calls in paired))
    for fam in NEF_FAMILIES:
        v["nef.region_s_p50.%s" % fam] = _median(
            [secs for op, secs, why in done if why is None
             and op["cat"] == W.NEF and op["family"].startswith(fam + ":")])
    return v


def kernel_cases():
    """Median microseconds per call of each kernel case, untraced, over
    CASE_ROUNDS rounds of 1/CASE_CALL_DIVISOR of the script's call count."""
    from fabcr import _core
    out = {}
    for label, kern, args, calls in KERNEL_CASES:
        fn = getattr(_core, kern)
        reps = max(1, calls // CASE_CALL_DIVISOR)
        times = []
        for _ in range(CASE_ROUNDS):
            t0 = perf_counter()
            for _ in range(reps):
                fn(*args)
            times.append((perf_counter() - t0) / reps)
        out["core.case.%s.us_per_call" % case_name(label)] = \
            1e6 * statistics.median(times)
    return out
