"""Span tracing of slabscat's public functions, installed from outside the package.

``Tracer.install`` replaces each function named in ``layers.json`` with a
wrapper, in the namespace of every slabscat module that holds it (``from
.numerics import integrate_1d`` binds the name at import, so patching only
the defining module would miss most calls).  A wrapper records one span per
call (name, start, end, parent span, task id), its exact work counters, and
whether it raised.  Integrands handed to ``integrate_1d``/``integrate_2d`` get
their own ``<module>.integrand`` span, so a layer's callback time is not
booked as quadrature self time.  Spans live in flat arrays and are written out
once, by ``save``.
"""

import functools
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = json.loads((Path(__file__).with_name("layers.json")).read_text())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans, self times and work counters of one traced pass."""

    def __init__(self):
        self.active = False
        self.task = -1
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self._open = []  # [span index, seconds covered by child spans]
        self.calls = Counter()
        self.failed = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._patched = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_task.append(self.task)
        self.span_end.append(float("nan"))
        self._open.append([index, 0.0])
        self.span_start.append(time.perf_counter())
        return index

    def _finish(self, name, ok):
        end = time.perf_counter()
        index, child_s = self._open.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.self_s[name] += duration - child_s
        if self._open:
            self._open[-1][1] += duration
        self.calls[name] += 1
        if not ok:
            self.failed[name] += 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self._begin(name)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self._finish(name, ok)

    # -- wrappers ---------------------------------------------------------

    def _integrand(self, f, evals_key=None):
        module = getattr(f, "__module__", None) or "unknown"
        name = module.rsplit(".", 1)[-1] + ".integrand"

        def traced(x, *rest):
            if evals_key is not None:
                self.counts[evals_key] += np.size(x)
            return self.call(name, f, x, *rest)

        return traced

    def _with_integrand(self, args, kwargs, evals_key=None):
        if args:
            return (self._integrand(args[0], evals_key),) + args[1:], kwargs
        return args, dict(kwargs, f=self._integrand(kwargs["f"], evals_key))

    def _prepare(self, name, args, kwargs):
        """Count the work of one call; wrap integrand arguments."""
        counts = self.counts
        if name == "numerics.integrate_1d":
            return self._with_integrand(args, kwargs, name + ".evals")
        if name == "numerics.integrate_2d":
            return self._with_integrand(args, kwargs)
        if name == "numerics.transform_samples_1d":
            momenta = np.size(_arg(args, kwargs, 2, "p"))
            counts[name + ".momenta"] += momenta
            counts[name + ".sample_momenta"] += momenta * np.size(
                _arg(args, kwargs, 0, "values")
            )
        elif name == "profiles.moment_2d":
            counts[name + ".momenta"] += np.size(_arg(args, kwargs, 2, "p"))
        elif name == "profiles.moment_3d":
            pvec = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "pvec")))
            counts[name + ".momenta"] += pvec.shape[0]
        elif name == "kernels.kernel_matrix":
            counts[name + ".entries"] += _arg(args, kwargs, 4, "grid").nodes.size ** 2
        return args, kwargs

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            args, kwargs = self._prepare(name, args, kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_eval(self, fn):
        """Count the points of a benchmark-built profile's ``eval``."""

        def traced(*args):
            if not self.active:
                return fn(*args)
            self.counts["profiles.eval_points"] += np.broadcast(
                *(np.asarray(a) for a in args[:-1])
            ).size
            return self.call("profiles.eval", fn, *args)

        return traced

    def install(self):
        """Patch every slabscat namespace that binds a traced function."""
        modules = [importlib.import_module("slabscat")] + [
            importlib.import_module(f"slabscat.{m}") for m in LAYERS["traced"]
        ]
        for layer, functions in LAYERS["traced"].items():
            home = importlib.import_module(f"slabscat.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metric(self, name):
        """Value of a per-layer metric: ``<span>.calls``, ``.failed``, ``.self_s``,
        or a work counter such as ``numerics.integrate_1d.evals``."""
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            return self.calls[span]
        if stat == "failed":
            return self.failed[span]
        if stat == "self_s":
            return self.self_s.get(span, 0.0)
        return int(self.counts[name])

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            task=np.frombuffer(self.span_task, dtype=np.int32),
        )
