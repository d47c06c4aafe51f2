"""Span recorder for traced benchmark passes.

The recorder wraps every public function of each inarlim layer, and every
public method of the layer's public classes, at the names its callers
resolve: a function is replaced in every ``inarlim`` module namespace that
holds it, so ``montecarlo.simulate_batch`` and ``simulate.simulate`` are
both traced.  A span opens only where a call crosses into another layer;
a call from a layer into itself is that layer's own work.  Each span
records its parent and stays in memory until the pass ends.  Then the
per-layer self times are computed from the spans, and the spans are
dropped.

Nothing here changes the package: ``install`` swaps wrappers in and
``uninstall`` puts the originals back, so untraced passes run unwrapped
code.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "montecarlo",
    "simulate",
    "recursions",
    "asymptotics",
    "model",
    "oracle",
    "distributions",
    "cli",
)
JOB = len(LAYERS)  # root span of one benchmark job
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

# Work counters read from the arguments of a few entry points:
# (layer, function) -> (counter, argument holding the amount of work).
_COUNTERS = {
    ("simulate", "simulate"): ("simulate.steps", "n"),
    ("recursions", "tilt_recursion"): ("recursions.steps", "n"),
    ("recursions", "gbar_tables"): ("recursions.steps", "n"),
    ("montecarlo", "validate_lln"): ("montecarlo.reps", "reps"),
    ("montecarlo", "validate_clt"): ("montecarlo.reps", "reps"),
    ("montecarlo", "validate_mdp"): ("montecarlo.reps", "reps"),
    ("montecarlo", "validate_gamma"): ("montecarlo.reps", "reps"),
}


class Recorder:
    """Spans of one pass, kept in one flat array, plus work counters.

    Each span takes four slots: layer, offset of the parent span (-1 for a
    root), start and end in nanoseconds.
    """

    def __init__(self):
        self.buf = array("q")
        self.open_offset = [-1]
        self.open_layer = [-1]
        self.errors = [0] * len(LAYERS)
        self.counts = {"simulate.steps": 0, "recursions.steps": 0, "montecarlo.reps": 0}
        self.validate_calls = 0
        self.validated = set()

    def open(self, layer: int) -> int:
        off = len(self.buf)
        self.buf.extend((layer, self.open_offset[-1], 0, 0))
        self.open_offset.append(off)
        self.open_layer.append(layer)
        self.buf[off + 2] = time.perf_counter_ns()
        return off

    def close(self, off: int) -> None:
        self.buf[off + 3] = time.perf_counter_ns()
        self.open_offset.pop()
        self.open_layer.pop()

    def summary(self) -> dict:
        """Per-layer calls, self and inclusive seconds, errors, and the counters."""
        n_ids = len(LAYERS) + 1
        spans = np.frombuffer(self.buf, dtype=np.int64).reshape(-1, 4)
        layer = spans[:, 0]
        parent = spans[:, 1] // 4
        dur = (spans[:, 3] - spans[:, 2]) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = np.bincount(layer, weights=dur - child, minlength=n_ids)
        incl_s = np.bincount(layer, weights=dur, minlength=n_ids)
        calls = np.bincount(layer, minlength=n_ids)
        out = {
            "layers": {
                name: {
                    "calls": int(calls[i]),
                    "self_s": float(self_s[i]),
                    "incl_s": float(incl_s[i]),
                    "errors": self.errors[i],
                }
                for i, name in enumerate(LAYERS)
            },
            "harness_self_s": float(self_s[JOB]),
            "validate_calls": self.validate_calls,
            "distinct_validated": len(self.validated),
        }
        out.update(self.counts)
        return out


def _make_wrapper(rec: Recorder, layer: int, fn, counter=None, on_validate=False):
    buf, open_offset, open_layer, errors = rec.buf, rec.open_offset, rec.open_layer, rec.errors
    now = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if open_layer[-1] == layer:
            return fn(*args, **kwargs)
        # Inlined Recorder.open/close: this runs once per boundary call.
        off = len(buf)
        buf.extend((layer, open_offset[-1], 0, 0))
        open_offset.append(off)
        open_layer.append(layer)
        buf[off + 2] = now()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            errors[layer] += 1
            raise
        finally:
            buf[off + 3] = now()
            open_offset.pop()
            open_layer.pop()

    if counter is None and not on_validate:
        return wrapper
    key, arg = counter or (None, None)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def counting(*args, **kwargs):
        if key is not None:
            rec.counts[key] += int(sig.bind(*args, **kwargs).arguments.get(arg) or 0)
        if on_validate:
            rec.validate_calls += 1
            rec.validated.add(args[0])
        return wrapper(*args, **kwargs)

    return counting


def _public_targets(mod):
    """(owner, attribute, function) for the module's public functions and methods."""
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield mod, name, obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, val in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(val):
                    yield obj, attr, val


class Tracer:
    """Installs and removes the wrappers for one recorder at a time."""

    def __init__(self, package):
        self.package = package
        self._saved = []

    def install(self, rec: Recorder) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for lname in LAYERS:
            mod = sys.modules[f"{self.package}.{lname}"]
            lid = _LAYER_ID[lname]
            for owner, attr, fn in _public_targets(mod):
                own = owner is mod
                w = _make_wrapper(
                    rec,
                    lid,
                    fn,
                    counter=_COUNTERS.get((lname, attr)) if own else None,
                    on_validate=own and lname == "model" and attr == "validate",
                )
                if own:
                    wrapped[id(fn)] = (fn, w)
                else:
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, w)
        # Replace each function wherever a caller resolves it by name.
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []
