"""Outside-in tracing of tangentray's layers, from the benchmark's own files.

Every public function of each layer module is wrapped at every binding of its
name in the package: ``fock``, ``pekeris`` and ``matching`` import
``integrate*`` and ``truncate`` by name, and ``pekeris`` calls
``pekeris_caret`` as a global, so rebinding only the defining module would
miss those calls.  Each call opens a span.  A span's self time is its
duration minus the time its child spans cover; the tracer's own bookkeeping
is left out of both, so it shows only in the wall time of a traced run.
Spans are aggregated per function as they close.

Integrands handed to a quadrature driver are wrapped too, as a span of the
module that called the driver, so the integrand's arithmetic counts as that
module's time and the driver's self time is the driver alone.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

from tangentray.quadrature import QuadratureError

LAYERS = ("airy", "contours", "quadrature", "pekeris", "fock", "matching")
FIELD_FUNCTIONS = ("scattered_new", "total_new", "total_new_dy",
                   "scattered_forked", "total_gamma")
QUADRATURE_DRIVERS = ("integrate", "integrate_rounds", "integrate_batch")
ROUTES = ("residue_series", "reciprocal_airy_contour", "forked_contour", "pole_split")

# Airy input classes.  They are the benchmark's, fixed here, so that a change
# to the evaluator's own branches does not change what is counted.
AIRY_SMALL = 3.5               # |z| <= 3.5
AIRY_FAR = 8.5                 # |z| > 8.5
AIRY_GROWING_RADIUS = 6.0      # mid_growing: |z| > 6 ...
AIRY_GROWING_REZETA = 2.5      # ... and Re (2/3) z^{3/2} > 2.5


class _Stat:
    __slots__ = ("module", "name", "calls", "entries", "self_s", "total_s")

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name
        self.calls = 0
        self.entries = 0       # calls from another layer or from the benchmark
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Install with ``install()``, run the ops, read ``metrics()``, then
    ``uninstall()``."""

    def __init__(self):
        self._stack: list = []       # open spans: [stat, time covered by children]
        self._stats: dict = {}
        self._bindings: list = []
        self.airy_points = {"small": 0, "mid": 0, "mid_growing": 0, "far": 0}
        self.quad_evals = 0
        self.quad_members = 0
        self.quad_errors = 0
        self.caret_points = 0
        self.batch_points = 0
        self.batch_fallbacks = 0
        self.routes = dict.fromkeys(ROUTES + ("other",), 0)
        self._hooks = {"airy.airy_scaled_vec": self._count_airy,
                       "pekeris.caret_log_many": self._count_batch,
                       "pekeris.pekeris_caret": self._count_caret}
        for name in QUADRATURE_DRIVERS:
            self._hooks[f"quadrature.{name}"] = self._wrap_integrand

    # -- spans ---------------------------------------------------------------

    def _stat(self, module: str, name: str) -> _Stat:
        key = f"{module}.{name}"
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = _Stat(module, name)
        return stat

    def _span(self, stat: _Stat, fn, before=None):
        """``fn`` wrapped in a span.  ``before(parent, args, kwargs)`` returns
        ``(args, kwargs, finish)``; ``finish(result, exc)``, when not None,
        runs as the span closes.  Both count as bookkeeping."""
        stack = self._stack
        clock = time.perf_counter
        module = stat.module

        def wrapper(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else None
            stat.calls += 1
            if parent is None or parent[0].module != module:
                stat.entries += 1
            finish = None
            if before is not None:
                args, kwargs, finish = before(parent, args, kwargs)
            frame = [stat, 0.0]
            stack.append(frame)
            result = exc = None
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t2 = clock()
                stack.pop()
                stat.self_s += t2 - t1 - frame[1]
                stat.total_s += t2 - t1
                if finish is not None:
                    finish(result, exc)
                exc = None
                if parent is not None:
                    parent[1] += clock() - t0

        return wrapper

    # -- layer hooks ---------------------------------------------------------

    def _count_airy(self, parent, args, kwargs):
        z = np.asarray(args[0] if args else kwargs["z"], dtype=complex).ravel()
        az = np.abs(z)
        small = int(np.count_nonzero(az <= AIRY_SMALL))
        far = int(np.count_nonzero(az > AIRY_FAR))
        growing = 0
        band = (az > AIRY_GROWING_RADIUS) & (az <= AIRY_FAR)
        if band.any():
            zeta = (2.0 / 3.0) * z[band] ** 1.5
            growing = int(np.count_nonzero(zeta.real > AIRY_GROWING_REZETA))
        points = self.airy_points
        points["small"] += small
        points["far"] += far
        points["mid_growing"] += growing
        points["mid"] += z.size - small - far - growing
        return args, kwargs, None

    def _count_batch(self, parent, args, kwargs):
        n = int(np.size(args[0] if args else kwargs["ts"]))
        if parent is None or parent[0].module != "pekeris":
            self.caret_points += n
        self.batch_points += n
        return args, kwargs, None

    def _count_caret(self, parent, args, kwargs):
        if parent is None or parent[0].module != "pekeris":
            self.caret_points += 1
        elif parent[0] is self._stats["pekeris.caret_log_many"]:
            self.batch_fallbacks += 1

        def finish(result, exc):
            if exc is None:
                route = result.representation_used
                self.routes[route if route in self.routes else "other"] += 1

        return args, kwargs, finish

    def _wrap_integrand(self, parent, args, kwargs):
        caller = parent[0].module if parent is not None else "bench"
        width = [1]

        def count_nodes(_parent, iargs, ikwargs):
            self.quad_evals += int(np.size(iargs[0]))
            return iargs, ikwargs, record_width

        def record_width(result, exc):
            if exc is None and np.ndim(result) == 2:
                width[0] = int(np.shape(result)[0])

        def finish(result, exc):
            self.quad_members += width[0]
            if isinstance(exc, QuadratureError):
                self.quad_errors += 1

        key = "f" if "f" in kwargs else "fmat"
        f = args[0] if args else kwargs[key]
        counted = self._span(self._stat(caller, "<integrand>"), f, count_nodes)
        if args:
            args = (counted,) + args[1:]
        else:
            kwargs = dict(kwargs, **{key: counted})
        return args, kwargs, finish

    # -- installation ----------------------------------------------------------

    def install(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "tangentray" or name.startswith("tangentray.")]
        for layer in LAYERS:
            mod = sys.modules[f"tangentray.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                hook = self._hooks.get(f"{layer}.{name}")
                wrapper = functools.wraps(fn)(self._span(self._stat(layer, name), fn, hook))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._bindings.append((ns, attr, fn))

    def uninstall(self):
        for ns, attr, fn in reversed(self._bindings):
            setattr(ns, attr, fn)
        self._bindings.clear()

    # -- results ---------------------------------------------------------------

    def functions(self) -> list:
        """(name, calls, self seconds) of every span that ran, by self time."""
        rows = [(k, s.calls, s.self_s) for k, s in self._stats.items() if s.calls]
        return sorted(rows, key=lambda r: -r[2])

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        stats = self._stats.values()
        self_s = {layer: sum(s.self_s for s in stats if s.module == layer)
                  for layer in LAYERS}
        entries = {layer: sum(s.entries for s in stats
                              if s.module == layer and s.name != "<integrand>")
                   for layer in LAYERS}
        evaluator = self._stats["airy.airy_scaled_vec"]
        points = sum(self.airy_points.values())
        robin = self._stats["airy.robin_root"]
        quad_calls = sum(self._stats[f"quadrature.{n}"].calls for n in QUADRATURE_DRIVERS)
        m = {
            "airy.calls": (evaluator.calls, "count"),
            "airy.points": (points, "count"),
            "airy.points_per_call": (points / max(evaluator.calls, 1), "points/call"),
            "airy.self_s": (self_s["airy"], "s"),
            "airy.us_per_point": (1e6 * evaluator.total_s / max(points, 1), "us/point"),
        }
        for cls, n in self.airy_points.items():
            m[f"airy.points.{cls}"] = (n, "count")
        m.update({
            "airy.robin_root.calls": (robin.calls, "count"),
            "airy.robin_root.self_s": (robin.self_s, "s"),
            "airy.robin_root.total_s": (robin.total_s, "s"),
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.self_s": (self_s["quadrature"], "s"),
            "quadrature.evals": (self.quad_evals, "count"),
            "quadrature.evals_per_call": (self.quad_evals / max(quad_calls, 1), "evals/call"),
            "quadrature.members": (self.quad_members, "count"),
            "quadrature.errors": (self.quad_errors, "count"),
            "pekeris.points": (self.caret_points, "count"),
            "pekeris.self_s": (self_s["pekeris"], "s"),
            "pekeris.scalar_calls": (self._stats["pekeris.pekeris_caret"].calls, "count"),
            "pekeris.fallback_frac": (self.batch_fallbacks / max(self.batch_points, 1), "ratio"),
        })
        for route, n in self.routes.items():
            m[f"pekeris.route.{route}"] = (n, "count")
        m.update({
            "fock.points": (sum(self._stats[f"fock.{n}"].entries for n in FIELD_FUNCTIONS), "count"),
            "fock.self_s": (self_s["fock"], "s"),
            "matching.calls": (entries["matching"], "count"),
            "matching.self_s": (self_s["matching"], "s"),
            "contours.calls": (entries["contours"], "count"),
            "contours.self_s": (self_s["contours"], "s"),
        })
        return m
