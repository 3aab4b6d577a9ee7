"""Span tracing from outside the program: every public function of each
`pspinlab` module is wrapped at every module-global reference to it, and a
few numpy/scipy kernels are wrapped as leaf spans.

Spans (name, parent, command, start, end) are kept in flat arrays while the
traced pass runs and written out when it ends; self times and call counts are
computed from them afterwards.  Tracing assumes one thread, which holds for
the CLI at its default of --threads 1.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

# (module path, attribute): kernels traced as leaves and named after the layer
# of the span that called them, e.g. rmt.eigvalsh or kacrice.nquad.
LEAVES = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "det"), ("scipy.integrate", "nquad"))
LAYERS = ("cli", "core", "spikes", "rates", "rmt", "kacrice")


class Tracer:
    """Records one span per traced call in flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_command = -1

    def label_id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.command.append(self.current_command)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, label: str):
        nid = self.label_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(i)

        return traced

    def wrap_leaf(self, fn, leaf: str):
        """Wrap a kernel; its span is named after the caller's layer."""
        by_layer: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = self._stack[-1]
            layer = self.labels[self.name[top]].split(".")[0] if top >= 0 else "bench"
            nid = by_layer.get(layer)
            if nid is None:
                nid = by_layer[layer] = self.label_id(f"{layer}.{leaf}")
            i = self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(i)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "command": np.frombuffer(self.command, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def instrument(tracer: Tracer, package) -> Callable[[], None]:
    """Wrap the package's public functions wherever a module global (or a dict
    held in one, such as a dispatch table) refers to them, and the LEAVES.
    Returns a function that restores every patched reference."""
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    wrappers = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(module).items():
            wrappers[fn] = tracer.wrap(fn, f"{layer}.{name}")

    patches = []  # (container, key, original, is_module)
    for module in [package, *modules]:
        for name, obj in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, name, obj, True))
            elif isinstance(obj, dict):
                patches += [(obj, k, v, False) for k, v in obj.items() if inspect.isfunction(v) and v in wrappers]
    for module_path, attr in LEAVES:
        module = importlib.import_module(module_path)
        original = getattr(module, attr)
        wrappers[original] = tracer.wrap_leaf(original, attr)
        patches.append((module, attr, original, True))

    for container, key, original, is_module in patches:
        if is_module:
            setattr(container, key, wrappers[original])
        else:
            container[key] = wrappers[original]

    def restore() -> None:
        for container, key, original, is_module in reversed(patches):
            if is_module:
                setattr(container, key, original)
            else:
                container[key] = original

    return restore


def summarize(labels: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span label: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because tracing is single-threaded.
    """
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    size = len(labels)
    calls = np.bincount(spans["name"], minlength=size)
    incl = np.bincount(spans["name"], weights=dur, minlength=size)
    own = np.bincount(spans["name"], weights=self_time, minlength=size)
    return {
        label: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
        for i, label in enumerate(labels)
    }


def per_command(labels: list[str], spans: dict[str, np.ndarray], command: int) -> dict[str, dict]:
    """summarize() restricted to the spans of one command."""
    keep = spans["command"] == command
    index = np.full(len(keep), -1, dtype=np.int64)
    index[keep] = np.arange(int(keep.sum()))
    parent = spans["parent"][keep]
    sub = {
        "name": spans["name"][keep],
        "parent": np.where(parent >= 0, index[np.maximum(parent, 0)], -1),
        "start": spans["start"][keep],
        "end": spans["end"][keep],
    }
    return summarize(labels, sub)
