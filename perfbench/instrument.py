"""Wrappers around airylab's public functions, installed from outside it.

Two kinds of wrapper, both installed by rebinding names in the module
namespaces of the `airylab` package (the package itself is never edited):

* `Capture` keeps the inputs and outputs of every `ai_values` and
  `cubic_phase_integral` call so the oracles can check them after an
  operation.  It is installed in every run; its cost is one extra Python
  call per wrapped call.
* `Tracer` records a span (name, layer, start, end, parent, op id) around
  every public function of the seven layer modules and keeps exact counters
  at the same boundaries.  It is installed only in the traced run.

Spans stay in memory; `Tracer.self_times()` gives each span's duration less
its children's, from which the run sums per-layer self times at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("core", "airy", "oscillatory", "states", "operators", "experiments",
          "cli")

_WINDOW_FUNCS = ("window_weights", "inner_product", "windowed_norm")
# Airy position builds; perelomov_state counts here only in position form.
# gaussian_packet and xi_eigenstate_x do no Airy work and keep their own
# states.<name> spans.
_POSITION_BUILDS = ("berry_balazs_initial",)


def _modules():
    pkg = importlib.import_module("airylab")
    return [pkg] + [importlib.import_module(f"airylab.{name}")
                    for name in LAYERS]


class _Rebinder:
    """Replace functions by name in every airylab module that binds them."""

    def __init__(self):
        self._saved = []

    def rebind(self, select, make_wrapper) -> None:
        wrappers = {}
        for mod in _modules():
            for attr, obj in list(vars(mod).items()):
                if not select(attr, obj):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = make_wrapper(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


class Capture(_Rebinder):
    """Keeps (args, result) of Airy and cubic-phase calls for the oracles."""

    def __init__(self):
        super().__init__()
        self.airy = []
        self.cubic = []

    def install(self) -> None:
        targets = {"ai_values": self.airy, "cubic_phase_integral": self.cubic}

        def select(attr, obj):
            return attr in targets and inspect.isfunction(obj) \
                and obj.__module__.startswith("airylab.")

        def make(fn):
            sink = targets[fn.__name__]

            @functools.wraps(fn)
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                sink.append((args, kwargs, result))
                return result
            return captured

        self.rebind(select, make)

    def clear(self) -> None:
        self.airy.clear()
        self.cubic.clear()


def _layer_of(obj) -> str | None:
    home = getattr(obj, "__module__", "") or ""
    parts = home.split(".")
    if len(parts) == 2 and parts[0] == "airylab" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer(_Rebinder):
    """Span recorder and exact counters around every public layer function."""

    ROOT = "bench.op"

    def __init__(self):
        super().__init__()
        # span: [name, layer, start, end, parent index, op id]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.op_id = -1

    def install(self) -> None:
        def select(attr, obj):
            return (not attr.startswith("_") and inspect.isfunction(obj)
                    and _layer_of(obj) is not None)

        self.rebind(select, self._wrap)

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0,
               self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn):
        """Run one benchmark operation under a root span; returns fn()."""
        self.op_id = op_id
        rec = self._open(self.ROOT, "bench")
        try:
            return fn()
        finally:
            self._close(rec)

    def _wrap(self, fn):
        layer = _layer_of(fn)
        base = f"{layer}.{fn.__name__}"
        count = self._counter_for(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = count(args, kwargs) or base
            rec = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(rec)
            self._after(fn.__name__, args, kwargs)
            return result
        return traced

    def _counter_for(self, fname: str):
        counts = self.counts

        def plain(args, kwargs):
            return None

        if fname == "ai_values":
            def airy_points(args, kwargs):
                z = np.asarray(args[0] if args else kwargs["z"], dtype=float)
                neg = int(np.count_nonzero(z < 0.0))
                counts["airy.points"] += z.size
                counts["airy.points_zneg"] += neg
                counts["airy.points_zpos"] += z.size - neg
                return None
            return airy_points
        if fname == "airy_ai":
            def airy_scalar(args, kwargs):
                z = float(args[0] if args else kwargs["z"])
                sign = "zneg" if z < 0.0 else "zpos"
                counts["airy.points"] += 1
                counts[f"airy.points_{sign}"] += 1
                return None
            return airy_scalar
        if fname == "fourier":
            def fft_points(args, kwargs):
                field = args[0] if args else kwargs["field"]
                counts["core.fourier.points"] += field.grid.n_points
                return None
            return fft_points
        if fname == "perelomov_state":
            def rep_kind(args, kwargs):
                rep = args[1] if len(args) > 1 else kwargs["rep"]
                return ("states.momentum_build" if rep.value == "momentum"
                        else "states.position_build")
            return rep_kind
        if fname in _POSITION_BUILDS:
            return lambda args, kwargs: "states.position_build"
        if fname in _WINDOW_FUNCS:
            return lambda args, kwargs: f"core.window.{fname}"
        return plain

    def _after(self, fname: str, args, kwargs) -> None:
        if fname in ("emit_csv", "emit_svg_plot"):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts[f"cli.{fname}.bytes"] += os.path.getsize(path)

    def self_times(self) -> list:
        """Self time of each span: its duration less its children's."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op_id in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[3] - s[2]) - child[i] for i, s in enumerate(self.spans)]
