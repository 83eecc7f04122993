"""Span tracing of lcflow from outside the package.

``Tracer.install()`` replaces every public function of every ``lcflow``
module (plus a few private ones the per-layer table names) at each of its
import sites, and the ``numpy.roll`` / ``scipy.fft`` entry points, with a
wrapper that records a span: name, start, end and the span that called it.
``uninstall()`` puts the original objects back.  Nothing under
``src/lcflow`` is edited.

Spans live in an in-memory list per process.  A forked worker (the sweep's
process pool) drops the parent's spans it inherited, and writes its own to
``spill_dir`` each time its outermost span ends; ``collect()`` merges those
files into the parent's list.

Self time of a span is its duration minus the durations of its direct
children, so time spent in unwrapped private helpers stays with the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

LCFLOW_MODULES = ("config", "diagnostics", "errors", "fields", "grid",
                  "integrator", "io", "operators", "pressure", "sweep")
# modules that only import names: their attributes are patched as import
# sites, but nothing they define is wrapped (the CLI is the harness's entry
# point; its own glue shows up as other.self_s)
IMPORT_ONLY = ("cli",)
# private functions named by the per-layer table
PRIVATE_TARGETS = {"pressure": ("_thomas_batched",),
                   "diagnostics": ("_time_derivatives",),
                   "sweep": ("_member_job",)}
SCIPY_FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                   "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "dct",
                   "idct", "dctn", "idctn", "dst", "idst")


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.spans = []      # [name, start, end, parent index, pid]
        self.stack = []
        self.owner_pid = os.getpid()
        self.installed = False
        self._patches = []   # (namespace, attribute, original)
        self._spills = 0
        os.register_at_fork(after_in_child=self._forked)

    # -- recording ---------------------------------------------------------

    def _forked(self):
        # a forked worker starts with a copy of the parent's buffer and call
        # stack; neither belongs to it
        if self.installed:
            self.spans = []
            self.stack = []
            self._spills = 0

    def wrap(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if not stack and os.getpid() != self.owner_pid:
                    self._spill()
        return traced

    def _spill(self):
        pid = os.getpid()
        for rec in self.spans:
            rec[4] = pid
        path = self.spill_dir / f"spans-{pid}-{self._spills}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)
        self._spills += 1
        self.spans = []

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """{id(original): (span name, original)} for everything traced."""
        targets = {}
        for short in LCFLOW_MODULES:
            mod = importlib.import_module(f"lcflow.{short}")
            for attr, val in vars(mod).items():
                if not callable(val) or isinstance(val, type):
                    continue
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_TARGETS.get(short, ()):
                    continue
                targets[id(val)] = (f"{short}.{attr}", val)
        return targets

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        import numpy
        import scipy.fft
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        targets = self._targets()
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        sites = [importlib.import_module("lcflow")]
        sites += [importlib.import_module(f"lcflow.{m}")
                  for m in LCFLOW_MODULES + IMPORT_ONLY]
        for ns in sites:
            for attr, val in list(vars(ns).items()):
                if id(val) in wrappers and targets[id(val)][1] is val:
                    self._patch(ns, attr, wrappers[id(val)])
        self._patch(numpy, "roll", self.wrap("numpy.roll", numpy.roll))
        for attr in SCIPY_FFT_FUNCS:
            fn = getattr(scipy.fft, attr)
            self._patch(scipy.fft, attr, self.wrap(f"scipy.fft.{attr}", fn))
        self.owner_pid = os.getpid()
        self.installed = True
        return self

    def _patch(self, ns, attr, new):
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []
        self.installed = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def collect(self):
        """Merge spans spilled by forked workers into this process's list
        and return the whole list (parent indices stay valid)."""
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            base = len(self.spans)
            for name, t0, t1, parent, pid in json.loads(path.read_text()):
                self.spans.append([name, t0, t1,
                                   parent + base if parent >= 0 else -1, pid])
            path.unlink()
        return self.spans


def summarize(spans):
    """Per-name aggregates and span context.

    Returns (stats, ctx) where stats[name] = {"calls", "self_s",
    "durations"} and ctx[i] is the name of the nearest enclosing
    ``integrator.step`` or ``diagnostics.make_record`` span of span i
    (or None), which is how per-step and per-record counts are attributed.
    """
    n = len(spans)
    child_s = [0.0] * n
    ctx = [None] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
        if name in ("integrator.step", "diagnostics.make_record"):
            ctx[i] = name
        elif parent >= 0:
            ctx[i] = ctx[parent]
    stats = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0,
                                    "durations": []})
        s["calls"] += 1
        s["self_s"] += (t1 - t0) - child_s[i]
        s["durations"].append(t1 - t0)
    return stats, ctx
