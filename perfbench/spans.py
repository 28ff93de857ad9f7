"""Timing spans around proxint's public functions, recorded from outside.

``Tracer.install()`` swaps each public function of the proxint modules for
a timing wrapper, in every loaded proxint module that holds a reference
to it: modules look their callees up as globals at call time, and
``proxint.cli`` imports names directly.  ``uninstall()`` puts the
originals back, so untraced passes run the program untouched.  Nothing
under ``src/`` is edited.

A span is ``[name, start, end, parent, job]``; spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children (calls are sequential, so
children never overlap).  Counters (integrand points, grid nodes,
segments, bytes) are taken at the same boundaries, per job.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("distributions", "interaction", "asymptotics", "heightmap", "cli")


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _segments(f) -> int:
    segs = getattr(f, "segments", None)
    return len(segs) if segs else 0


def _nodes(f) -> int:
    vals = getattr(f, "values", None)
    return int(np.size(vals)) if vals is not None else 0


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job = -1
        self._stack: list[int] = []
        self._swaps: list[tuple] = []

    def count(self, key: str, n: int) -> None:
        self.counters[self.job][key] += int(n)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, func, name: str, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, tracer.clock(), 0.0, parent, tracer.job]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        if self._swaps:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in names:
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    before, after = _HOOKS.get(f"{layer}.{attr}", (None, None))
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}", before, after))
        prefix = package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._swaps.append((module, attr, val))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swaps):
            setattr(module, attr, original)
        self._swaps.clear()

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent, job), c in zip(self.spans, child)]

    def by_job(self):
        """{job: {function: [calls, self_s]}} over the recorded spans."""
        table: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[4]][span[0]]
            row[0] += 1
            row[1] += own
        return table


# Counters taken at the wrapped boundaries.

def _count_quad_points(tracer, args, kwargs):
    fn = _arg(args, kwargs, 0, "fn")

    def counted(x):
        tracer.count("interaction.quad_points", np.size(x))
        return fn(x)

    if "fn" in kwargs:
        kwargs = dict(kwargs, fn=counted)
    else:
        args = (counted,) + tuple(args[1:])
    return args, kwargs


def _count_segments_integrated(tracer, args, kwargs, result):
    tracer.count("interaction.segments_integrated", _segments(_arg(args, kwargs, 0, "f")))


def _count_convolve_out(tracer, args, kwargs, result):
    tracer.count("distributions.convolve.nodes_out", _nodes(result))
    tracer.count("distributions.convolve.segments_out", _segments(result))


def _count_bytes_in(tracer, args, kwargs, result):
    tracer.count("heightmap.load_heightmap.bytes_in", _size(_arg(args, kwargs, 0, "path")))


def _count_bytes_out(tracer, args, kwargs, result):
    tracer.count("heightmap.save_heightmap.bytes_out", _size(_arg(args, kwargs, 1, "path")))


_HOOKS = {
    "interaction.adaptive_quad": (_count_quad_points, None),
    "interaction.pa_interaction": (None, _count_segments_integrated),
    "distributions.convolve": (None, _count_convolve_out),
    "heightmap.load_heightmap": (None, _count_bytes_in),
    "heightmap.save_heightmap": (None, _count_bytes_out),
}
