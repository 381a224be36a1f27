"""Span tracer for the traced run, installed from the benchmark's own files.

Every public function of each layer module and the public methods of
``PriorModel`` (plus ``NefModel.support``) are wrapped, and each name is
patched wherever a package module looks it up, including names imported
with ``from ... import``. Calls inside the kernel implementation module are
internal to the ``_core`` layer and are not traced.

Spans are kept in memory as columns (name, start, end, parent, count,
duration) and written out at the end. Consecutive calls of the same leaf
function under the same parent are merged into one span with a count; self
time and call counts are unchanged by the merge.

The kernels in ``COUNT_ONLY`` cost a fraction of a span's own bookkeeping
and are called over a million times per NEF region, so timing them would
make the NEF figures mostly tracer time. They are only counted, per
enclosing span, and their time stays in that span.

``LayerSampler`` gives each layer's share of op time by sampling the stack
on a CPU-time timer. It adds no cost per call, so it runs on the untraced
phase and its shares are those of the untraced program.
"""

import gzip
import importlib
import inspect
import json
import signal
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("_core", "priors", "gaussian", "asymptotics", "nef", "regression",
          "simulate")
# kernel implementations: calls inside them stay inside the _core layer
_INTERNAL = ("fabcr._core._kernels_py", "fabcr._core._kernels_cy")
COUNT_ONLY = ("core.log_gamma", "core.digamma", "core.log_beta")
SAMPLE_INTERVAL_S = 0.001   # of process CPU time


def layer_label(module_name):
    return module_name.lstrip("_")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dur = array("d")
        self.count = array("i")
        self.tags = {}
        self.leaf_calls = {}    # name id -> {enclosing span: calls}
        self._stack = [-1]
        self._restore = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, tag=None):
        """Traced version of fn. `tag(args, kwargs, result)` attaches a value
        to the span (tagged spans are never merged)."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        durs, counts, stack, tags = self.dur, self.count, self._stack, self.tags

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            counts.append(1)
            ends.append(0.0)
            durs.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                prev = idx - 1
                if (tag is None and idx == len(starts) - 1 and parent >= 0
                        and names[prev] == nid and parents[prev] == parent
                        and prev not in tags):
                    # leaf call following a sibling leaf of the same name
                    # (op spans, at the root, are never merged)
                    counts[prev] += 1
                    durs[prev] += t1 - t0
                    ends[prev] = t1
                    for col in (names, parents, counts, ends, durs, starts):
                        col.pop()
                else:
                    ends[idx] = t1
                    durs[idx] = t1 - t0
            if tag is not None:
                tags[idx] = tag(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Counted, untimed version of fn (see COUNT_ONLY)."""
        calls = self.leaf_calls.setdefault(self.name_id(name), {})
        stack = self._stack

        def counted(*args, **kwargs):
            span = stack[-1]
            calls[span] = calls.get(span, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, tags=None):
        """Wrap every public callable of each layer and patch every place a
        package module looks one up. `tags` maps span names to tag
        functions."""
        tags = tags or {}
        from fabcr.nef import NefModel
        from fabcr.priors import PriorModel

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("fabcr." + layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) \
                        or isinstance(obj, (type, types.ModuleType)):
                    continue
                # _core re-exports its kernels; other layers define their own
                if layer != "_core" and obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer_label(layer), attr)
                wrapped = (self.counter(name, obj) if name in COUNT_ONLY
                           else self.wrap(name, obj, tags.get(name)))
                wrappers[id(obj)] = (obj, wrapped)
        methods = [(PriorModel, attr) for attr, obj in vars(PriorModel).items()
                   if not attr.startswith("_") and inspect.isfunction(obj)]
        methods.append((NefModel, "support"))
        for cls, attr in methods:
            orig = cls.__dict__[attr]
            name = "%s.%s.%s" % (layer_label(cls.__module__.split(".")[-1]),
                                 cls.__name__, attr)
            setattr(cls, attr, self.wrap(name, orig, tags.get(name)))
            self._restore.append((cls, attr, orig))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "fabcr" or modname.startswith("fabcr.")) \
                    or modname in _INTERNAL:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def call(self, name, fn):
        """Run fn() as a span; the benchmark's op span, at the root."""
        return self.wrap(name, fn)()

    def write(self, path):
        data = {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "dur": self.dur.tolist(),
                "count": self.count.tolist(),
                "tags": {str(k): v for k, v in self.tags.items()},
                "leaf_calls": {self.names[nid]: {str(k): v for k, v in c.items()}
                               for nid, c in self.leaf_calls.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


class LayerSampler:
    """Samples, every SAMPLE_INTERVAL_S of process CPU time, which layer's
    code is running: the innermost frame of a layer module on the stack
    (frames of other package modules, such as ``specfun``, count for the
    layer that called them). Only samples taken inside ``call`` count."""

    def __init__(self):
        self.samples = {}
        self.total = 0
        self._active = False
        self._layers = {"fabcr." + layer: layer_label(layer) for layer in LAYERS}

    def _on_sample(self, signum, frame):
        if not self._active:
            return
        self.total += 1
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            layer = self._layers.get(name) or self._layers.get(
                name.rpartition(".")[0])
            if layer is not None:
                self.samples[layer] = self.samples.get(layer, 0) + 1
                return
            frame = frame.f_back

    def start(self):
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def call(self, fn):
        """Run fn() as an op whose samples count."""
        self._active = True
        try:
            return fn()
        finally:
            self._active = False

    def share(self, layer):
        return self.samples.get(layer, 0) / self.total if self.total else 0.0
