"""Span tracing of psqm's public functions, installed from outside the
package for the traced benchmark run only.

`Tracer.install()` replaces each traced function or method with a
wrapper that records one span (name, parent, start, end) per call.  A
module-level function is rebound in every psqm module that imported it,
so calls made through `from .moyal import moyal_map` are seen too, and
`numpy.linalg.eigh` is wrapped to count eigendecompositions.
`Tracer.uninstall()` puts every original back.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, qualified name) of every traced callable; the span name is
# "<module>.<qualname>".  Verify suites are named after the suite.
TRACED = [
    ("fourier", "ft_array"), ("fourier", "ift_array"),
    ("fourier", "fourier_shift"), ("fourier", "resample_scaled"),
    ("fourier", "upsample2"), ("fourier", "require_band_limited"),
    ("weyl", "symbol_to_kernel"), ("weyl", "kernel_to_symbol"),
    ("weyl", "quantize_config"), ("weyl", "star_values"),
    ("weyl", "moyal_product"),
    ("moyal", "moyal_map"), ("moyal", "moyal_map_inv"),
    ("moyal", "cross_wigner"), ("moyal", "dilate"), ("moyal", "rotate"),
    ("moyal", "bopp_apply"), ("moyal", "star_apply"),
    ("moyal", "MoyalWeylOp.evolve"),
    ("moyal", "MoyalWeylOp.restrict"),
    ("phase_weyl", "PhaseWeylOp.apply"), ("phase_weyl", "PhaseWeylOp.evolve"),
    ("phase_weyl", "PhaseWeylOp.restrict"),
    ("phase_weyl", "intertwining_report"),
    ("isometry", "WindowedIsometry.apply"),
    ("isometry", "WindowedIsometry.adjoint"),
    ("isometry", "WindowedIsometry.project"),
    ("spectral", "eig"), ("spectral", "evolve"),
    ("spectral", "compare_representations"), ("spectral", "spectrum_report"),
    ("mixed", "MixedState.__post_init__"), ("mixed", "mixed_to_phase"),
    ("mixed", "measure_probability"), ("mixed", "collapse"),
    ("mixed", "measurement_basis"),
    ("states", "norm_phase"), ("states", "inner_phase"),
    ("reference", "cross_wigner_quadrature"),
    ("reference", "fd_oscillator_levels"),
    ("serialize", "report_json"),
    ("cli", "main"),
]

SUITES = ("isometry", "intertwining", "unitarity", "star", "spectrum",
          "dynamics", "mixed")

# Functions that call no other traced function: their total time equals
# their self time, so only calls and self_s are reported for them.
LEAVES = {
    "fourier.ft_array", "fourier.ift_array", "fourier.fourier_shift",
    "fourier.upsample2", "fourier.require_band_limited",
    "moyal.bopp_apply", "phase_weyl.PhaseWeylOp.apply",
    "phase_weyl.PhaseWeylOp.restrict", "isometry.WindowedIsometry.apply",
    "isometry.WindowedIsometry.adjoint", "states.norm_phase",
    "states.inner_phase", "reference.cross_wigner_quadrature",
    "reference.fd_oscillator_levels", "serialize.report_json",
}

def _span_name(module: str, qualname: str, args) -> str:
    if (module, qualname) == ("weyl", "star_values"):
        # split by path: both factors sampled (the twisted product) or
        # one polynomial factor (the terminating mixed expansion)
        n_poly = isinstance(args[0], dict) + isinstance(args[1], dict)
        return "weyl.star_values." + ("sampled", "mixed", "poly")[n_poly]
    if qualname == "MixedState.__post_init__":
        return "mixed.MixedState"
    return f"{module}.{qualname}"


def _unit(name: str) -> tuple:
    field = name.rpartition(".")[2]
    if field == "calls":
        return "count", "lower"
    if name == "fourier.bytes_computed":
        return "B", "lower"
    if field == "worst_margin":
        return "1", "lower"
    if field == "below_verify_self_frac":
        return "1", "higher"
    return "s", "lower"


def layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for module, qualname in TRACED:
        if qualname == "star_values":
            for path in ("sampled", "mixed"):
                names += [f"weyl.star_values.{path}.{m}"
                          for m in ("calls", "self_s", "total_s")]
            continue
        base = _span_name(module, qualname, None)
        if module == "mixed":
            names.append(f"{base}.total_s")
        elif base in LEAVES:
            names += [f"{base}.calls", f"{base}.self_s"]
        else:
            names += [f"{base}.{m}" for m in ("calls", "self_s", "total_s")]
    names += ["spectral.eigh.calls", "spectral.eigh.self_s",
              "fourier.bytes_computed"]
    for suite in SUITES:
        names += [f"verify.{suite}.wall_s", f"verify.{suite}.worst_margin"]
    names += ["trace.overhead_s", "trace.below_verify_self_frac"]
    return [(name, *_unit(name)) for name in names]


class Tracer:
    """Records spans as [name, parent index, start, end] rows."""

    def __init__(self):
        self.spans: list = []
        self.bytes_computed = 0
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, module: str, qualname: str, name=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if module == "fourier" and args:
                tracer.bytes_computed += getattr(args[0], "nbytes", 0)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name or _span_name(module, qualname, args), parent, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy
        import psqm
        modules = [psqm] + [importlib.import_module(f"psqm.{m}") for m in
                            ("grids", "states", "fourier", "weyl", "isometry",
                             "phase_weyl", "moyal", "mixed", "spectral",
                             "reference", "serialize", "verify", "cli")]
        for module, qualname in TRACED:
            home = sys.modules[f"psqm.{module}"]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth], module, qualname))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(original, module, qualname)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        verify = sys.modules["psqm.verify"]
        for suite, fn in list(verify._SUITES.items()):
            self._undo.append((verify._SUITES, suite, fn))
            verify._SUITES[suite] = self._wrap(fn, "verify", suite,
                                               name=f"verify.{suite}")
        self._set(numpy.linalg, "eigh",
                  self._wrap(numpy.linalg.eigh, "spectral", "eigh",
                             name="spectral.eigh"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans = []
        self.bytes_computed = 0

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s (duration minus the
        time covered by its child spans; calls are properly nested on one
        thread, so the children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out
