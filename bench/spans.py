"""Spans around wignerlab's public functions, for the traced run.

The tracer wraps each function a module lists in ``__all__`` once, and
installs that wrapper at every wignerlab module that binds the function
by name (``scenarios`` imports ``cross_validate`` by name, ``tomography``
imports ``rotate_field``, ...).  The numpy.fft transforms are wrapped
before wignerlab is imported, so a module that binds them by name sees
the wrapper too.  Evaluations of ``PhaseGrid.x`` and ``.p`` are counted,
not spanned: there are hundreds of thousands per pass.

A span is ``[id, parent id, name, start, end, pass id, work]``, where
work is the unit the layer's rate is taken over (steps, angles, points
or bytes).  Wrappers do nothing but call through while no pass is open.
Spans stay in memory until the run ends.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

FFT_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                  "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                  "hfft", "ihfft")

# A span per CSV cell would cost more than the writer it sits in; its
# time is part of io.write_csv.
UNTRACED = {"io.format_float"}

PROPAGATORS = {"schrodinger": "dynamics.propagate_schrodinger",
               "moyal": "dynamics.propagate_moyal_exact",
               "truncated": "dynamics.propagate_moyal_truncated",
               "characteristic": "dynamics.propagate_characteristic"}

PER_CALL = ("wigner.wigner_transform", "wigner.to_characteristic",
            "wigner.factorize_characteristic", "observables.moments")

IO_WRITERS = ("io.write_csv", "io.write_field", "io.write_json")

UNITS = {
    "dynamics.characteristic.step_us": "us",
    "dynamics.moyal.step_us": "us",
    "dynamics.schrodinger.step_us": "us",
    "dynamics.truncated.step_us": "us",
    "dynamics.cross_validate.self_s": "s",
    "dynamics.boundary_mass.calls": "count",
    "dynamics.boundary_mass.busy_s": "s",
    "dynamics.route_steps": "count",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.busy_s": "s",
    "tomography.inverse_tomogram.angle_ms": "ms",
    "tomography.forward_tomogram.angle_ms": "ms",
    "spectral.rotate_field.call_ms": "ms",
    "wigner.wigner_transform.call_ms": "ms",
    "wigner.to_characteristic.call_ms": "ms",
    "wigner.factorize_characteristic.call_ms": "ms",
    "observables.moments.call_ms": "ms",
    "scenarios.run_scenario.self_s": "s",
    "grid.axis_builds": "count",
    "io.write_csv.busy_s": "s",
    "io.write_csv.mb_per_s": "MB/s",
    "io.write_field.mb_per_s": "MB/s",
    "io.read_field.mb_per_s": "MB/s",
    "io.bytes_written": "B",
    "scenarios.load_config.ms": "ms",
    "trace.overhead_s": "s",
}


def _argument(fn, name):
    """Work function returning the named argument of a call to fn."""
    signature = inspect.signature(fn)

    def work(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]
    return work


def _file_size(args, kwargs):
    try:
        path = os.fspath(args[0])
        # timing.json holds wall-clock times, so its size varies from run
        # to run; io.bytes_written counts the reproducible artifacts only.
        if os.path.basename(path) == "timing.json":
            return 0
        return os.path.getsize(path)
    except (OSError, IndexError, TypeError):
        return 0


def _work_function(name, fn):
    if name in PROPAGATORS.values():
        return _argument(fn, "steps")
    if name == "tomography.forward_tomogram":
        angles = _argument(fn, "angles")
        return lambda args, kwargs: len(angles(args, kwargs))
    if name == "tomography.inverse_tomogram":
        tomo = _argument(fn, "tomo")
        return lambda args, kwargs: len(tomo(args, kwargs).frames)
    if name in IO_WRITERS or name == "io.read_field":
        return _file_size
    return None


def _points(args, kwargs):
    data = args[0] if args else kwargs.get("a")
    return int(getattr(data, "size", 0))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.pass_id = None
        self.axis_builds = Counter()
        self._bindings = []     # (original, wrapper)

    def begin(self, pass_id):
        self.pass_id = pass_id

    def end(self):
        self.pass_id = None

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pass_id = tracer.pass_id
            if pass_id is None:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, name,
                    0.0, 0.0, pass_id, 0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if work is not None:
                    span[6] = work(args, kwargs)
        return traced

    def install_fft(self):
        """Wrap the numpy.fft transforms; call before importing wignerlab."""
        import numpy.fft as npfft
        for name in FFT_TRANSFORMS:
            original = getattr(npfft, name, None)
            if original is None:
                continue
            wrapper = self.wrap("fft." + name, original, _points)
            setattr(npfft, name, wrapper)
            self._bindings.append((original, wrapper))

    def install_wignerlab(self):
        """Wrap wignerlab's public functions at every module binding them."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "wignerlab" or key.startswith("wignerlab.")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1].lstrip("_")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or name in UNTRACED
                        or fn.__module__ != module.__name__):
                    continue
                self._bindings.append(
                    (fn, self.wrap(name, fn, _work_function(name, fn))))
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in self._bindings:
                    if value is original:
                        setattr(module, attr, wrapper)
        from wignerlab.grid import PhaseGrid
        PhaseGrid.x = self._counted(PhaseGrid.x)
        PhaseGrid.p = self._counted(PhaseGrid.p)

    def _counted(self, prop):
        fget, counts, tracer = prop.fget, self.axis_builds, self

        def get(grid):
            if tracer.pass_id is not None:
                counts[tracer.pass_id] += 1
            return fget(grid)
        return property(get, doc=prop.__doc__)

    def write(self, path, header):
        """Write the header and then one JSON array per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def pass_metrics(self, pass_id) -> dict:
        """Per-layer metrics of one pass."""
        mine = {s[0]: s for s in self.spans if s[5] == pass_id}
        calls, busy, work, child = (Counter(), defaultdict(float), Counter(),
                                    defaultdict(float))
        fft = [0, 0, 0.0]
        for sid, parent, name, t0, t1, _, units in mine.values():
            up = mine.get(parent)
            if name.startswith("fft."):
                if up is None or not up[2].startswith("fft."):
                    fft[0] += 1
                    fft[1] += units
                    fft[2] += t1 - t0
            calls[name] += 1
            busy[name] += t1 - t0
            work[name] += units
            if up is not None:
                child[up[2]] += t1 - t0

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {}
        for route, name in PROPAGATORS.items():
            out[f"dynamics.{route}.step_us"] = ratio(busy[name], work[name], 1e6)
        out["dynamics.cross_validate.self_s"] = (
            busy["dynamics.cross_validate"] - child["dynamics.cross_validate"])
        out["dynamics.boundary_mass.calls"] = calls["dynamics.boundary_mass"]
        out["dynamics.boundary_mass.busy_s"] = busy["dynamics.boundary_mass"]
        out["dynamics.route_steps"] = sum(work[n] for n in PROPAGATORS.values())
        out["fft.calls"], out["fft.points"], out["fft.busy_s"] = fft
        for name in ("tomography.inverse_tomogram",
                     "tomography.forward_tomogram"):
            out[name + ".angle_ms"] = ratio(busy[name], work[name], 1e3)
        for name in ("spectral.rotate_field",) + PER_CALL:
            out[name + ".call_ms"] = ratio(busy[name], calls[name], 1e3)
        out["scenarios.run_scenario.self_s"] = (
            busy["scenarios.run_scenario"] - child["scenarios.run_scenario"])
        out["grid.axis_builds"] = self.axis_builds[pass_id]
        out["io.write_csv.busy_s"] = busy["io.write_csv"]
        for name in ("io.write_csv", "io.write_field", "io.read_field"):
            out[name + ".mb_per_s"] = ratio(work[name], busy[name], 1e-6)
        out["io.bytes_written"] = sum(work[n] for n in IO_WRITERS)
        return out

    def layer_metrics(self, traced_passes, traced_s, untraced_s) -> dict:
        """Median over the traced passes of each per-layer metric, plus
        load_config time from set-up and the tracing overhead."""
        per_pass = [self.pass_metrics(k) for k in traced_passes]
        out = {key: statistics.median(m[key] for m in per_pass)
               for key in per_pass[0]}
        loads = [s[4] - s[3] for s in self.spans
                 if s[5] == "setup" and s[2] == "scenarios.load_config"]
        out["scenarios.load_config.ms"] = (
            statistics.mean(loads) * 1e3 if loads else 0.0)
        out["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(untraced_s))
        return out
