"""Span tracer installed from outside the package around its public calls.

``install`` rebinds every module-level public function of ofdm_papr as it
is bound in ``cli``, ``harness``, ``slm``, ``pts`` and ``frame`` (the names
those modules look up at call time), and the ``__init__`` of the wrapper
classes, to a wrapper that records a span: name, start, end and parent.
``uninstall`` restores the originals; the pair can alternate call by call.
Spans stay in flat arrays in memory and are written once at the end.
A span's self time is its duration minus its children's durations; work
counts are recorded at the same boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
import types
from array import array
from pathlib import Path

import numpy as np

# Public names that are not layers: a predicate called inside many layers,
# and the zero padding, whose cost belongs to frame.time_samples ("pad +
# transform" in the ROADMAP's layer list).
_NOT_LAYERS = {"is_power_of_two", "pad_spectrum"}
_BINDING_MODULES = ("cli", "harness", "slm", "pts", "frame")
_WRAPPER_CLASSES = (("modulation", "FrequencyFrame"), ("frame", "TimeFrame"),
                    ("slm", "PhaseSequence"), ("slm", "SlmResult"),
                    ("pts", "SubBlockPartition"), ("pts", "PhaseVector"),
                    ("pts", "PtsResult"))


def span_name(fn) -> str:
    """``<module>.<function>`` of the module that defines ``fn``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._bindings = self._wrap_package()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(add, args, kwargs, result)``."""
        nid = len(self.names)
        self.names.append(name)
        stack, parent, start, end, name_id = (
            self._stack, self.parent, self.start, self.end, self.name_id)
        add = self._adder(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(add, args, kwargs, result)
            return result

        return traced

    def _adder(self, layer: str):
        def add(key: str, value: float) -> None:
            name = f"{layer}.{key}"
            self.counts[name] = self.counts.get(name, 0.0) + value
        return add

    def _wrap_package(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapped) for every traced binding."""
        modules = {m: importlib.import_module(f"ofdm_papr.{m}")
                   for m in {*_BINDING_MODULES, *(m for m, _ in _WRAPPER_CLASSES)}}
        wrapped = {}
        bindings = []
        for mod_name in _BINDING_MODULES:
            mod = modules[mod_name]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or attr in _NOT_LAYERS
                        or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("ofdm_papr.")):
                    continue
                if fn not in wrapped:
                    name = span_name(fn)
                    count = _COUNTERS.get(name)
                    if name == "pts.pts_reduce":
                        count = functools.partial(_count_pts_reduce, inspect.signature(fn))
                    wrapped[fn] = self.wrap(name, fn, count)
                bindings.append((mod, attr, fn, wrapped[fn]))
        for mod_name, cls_name in _WRAPPER_CLASSES:
            cls = getattr(modules[mod_name], cls_name)
            bindings.append((cls, "__init__", cls.__init__,
                             self.wrap(f"{mod_name}.{cls_name}", cls.__init__)))
        return bindings

    def install(self) -> None:
        """Rebind the package's public functions and wrapper-class constructors."""
        for owner, attr, _, traced in self._bindings:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        per_name = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                               weights=dur - children, minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def calls(self) -> dict[str, int]:
        per_name = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                               minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent index) as a compressed .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end))


def _count_inverse_dft(add, args, kwargs, result) -> None:
    points = result.shape[-1]
    rows = result.size // points
    add("rows", rows)
    add("points", result.size)
    add("flops_computed", 5.0 * points * math.log2(points) * rows)
    add("bytes_computed", 2.0 * result.nbytes)     # complex128 in and out


def _count_papr_linear(add, args, kwargs, result) -> None:
    add("rows", np.size(result))
    add("samples", np.size(args[0]))


def _count_pts_reduce(signature, add, args, kwargs, result) -> None:
    bound = signature.bind(*args, **kwargs).arguments
    # A common alphabet factor leaves PAPR unchanged, so W^(V-1) orbits of
    # W members each cover all PAPR values that the search can find.
    add("orbits", bound["w"] ** (bound["partition"].v_count - 1))
    add("candidates_scored", result.combinations_searched)


def _count_write_result(add, args, kwargs, result) -> None:
    destination = args[2] if len(args) > 2 else kwargs["destination"]
    if isinstance(destination, (str, os.PathLike)):
        add("bytes", os.path.getsize(destination))


_COUNTERS = {
    "dft.inverse_dft": _count_inverse_dft,
    "frame.papr_linear": _count_papr_linear,
    "harness.write_result": _count_write_result,
    "slm.generate_phase_sequences": lambda add, a, k, result: add("sequences", len(result)),
}
