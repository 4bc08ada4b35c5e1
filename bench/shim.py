"""Outside-in tracing for one benchmark pass; the program is not modified.

``Tracer.install`` wraps the public functions of the primepairs layer
modules, ``PrimeTable.ring_indicator`` and the ``numpy.fft`` entry points.
Each wrapper is rebound in every module namespace that holds the original,
because harness and spectral import with ``from .x import f``.  Spans nest:
a span's self time is its duration minus its child spans.  Spans stay in
memory until ``write``.

``tracemalloc`` runs only inside the spans whose peak is reported
(``build_table``, the FFTs, spectral functions), from the outermost such
span's entry to its exit: it slows every Python-level allocation several
fold, and elsewhere it would distort the self times of pure-Python loops
such as ``fnv1a64`` and CSV rendering.  Other spans report no peak.

Left unwrapped: ``reports.fmt_value`` (one call per CSV cell) and the
``factored`` integer helpers (one call per boundary element); their time
lands in the calling span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

LAYER_MODULES = ("harness", "sieve", "transform", "spectral", "constants", "reports")
UNWRAPPED = {"reports.fmt_value"}
PEAK_SPANS = ("sieve.build_table", "numpy.fft.", "spectral.")
FFT_ENTRY_POINTS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn",
)
ROUGH_FACTOR = 100  # pocketfft leaves its fast radix paths above this prime factor


@functools.lru_cache(maxsize=None)
def largest_prime_factor(m: int) -> int:
    largest, p = 1, 2
    while p * p <= m:
        while m % p == 0:
            largest, m = p, m // p
        p += 1
    return max(largest, m)


def _fft_attrs(attrs, a, result):
    x = np.asarray(a["a"])
    if "axis" in a:  # one-dimensional entry point
        axis = a["axis"]
        length = max(a["n"] or x.shape[axis], result.shape[axis])
        batches = result.size // result.shape[axis]
    else:
        length, batches = max(x.size, result.size), 1
    attrs["points"] = length * batches
    attrs["rough_calls"] = int(largest_prime_factor(length) > ROUGH_FACTOR)
    attrs["gflop"] = 5 * length * math.log2(max(length, 2)) * batches / 1e9
    attrs["gbytes"] = (x.nbytes + result.nbytes) / 1e9


def _csv_attrs(attrs, a, result):
    body = Path(result).read_bytes()
    comments = sum(1 for line in body.splitlines() if line.startswith(b"#"))
    attrs["bytes"] = len(body)
    attrs["rows"] = body.count(b"\n") - comments - 1


# span name -> fills span attrs from (bound arguments, result) after the call
AFTER = {
    "sieve.build_table": lambda attrs, a, r: attrs.update(entries=a["n"] + 1),
    "sieve.save_table": lambda attrs, a, r: attrs.update(bytes=Path(r).stat().st_size),
    "sieve.load_table": lambda attrs, a, r: attrs.update(bytes=Path(a["path"]).stat().st_size),
    "sieve.fnv1a64": lambda attrs, a, r: attrs.update(bytes=len(a["data"])),
    "transform.forward": lambda attrs, a, r: attrs.update(points=len(a["f"])),
    "transform.phases": lambda attrs, a, r: attrs.update(bytes=r.nbytes),
    "reports.write_csv": _csv_attrs,
    **{f"numpy.fft.{attr}": _fft_attrs for attr in FFT_ENTRY_POINTS},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self._stack: list[dict] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._cache_path = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        owner = name.startswith(PEAK_SPANS) and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        tracing = tracemalloc.is_tracing()
        current = 0
        if tracing:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
        rec = {"name": name, "parent": parent["id"] if parent else None, "id": len(self.spans),
               "attrs": {}, "peak_bytes": None, "_base": current, "_peak": current, "_child": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        self.calls[name] += 1
        start = time.perf_counter()
        try:
            yield rec
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            rec["s"] = duration
            rec["self_s"] = duration - rec.pop("_child")
            if parent is not None:
                parent["_child"] += duration
            if tracing:
                current, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                rec["_peak"] = max(rec["_peak"], peak)
                rec["peak_bytes"] = rec["_peak"] - rec["_base"]
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], rec["_peak"])
            if owner:
                tracemalloc.stop()

    def _wrap(self, name: str, fn):
        tracer, after = self, AFTER.get(name)
        signature = inspect.signature(fn) if after or name == "sieve.load_or_build" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            with tracer.span(name) as rec:
                # cache events judged from outside: did the file exist, and
                # did build_table run inside load_or_build?
                cached = name == "sieve.load_or_build" and bound["cache_dir"] is not None
                if cached:
                    existed = tracer._cache_path(bound["cache_dir"], bound["n"]).exists()
                    builds = tracer.calls["sieve.build_table"]
                result = fn(*args, **kwargs)
                if cached:
                    built = tracer.calls["sieve.build_table"] > builds
                    rec["attrs"]["event"] = ("rebuild" if built else "hit") if existed else "miss"
            if after is not None:
                after(rec["attrs"], bound, result)
            return result

        return traced

    def install(self) -> None:
        import numpy.fft

        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"primepairs.{short}")
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        sieve = importlib.import_module("primepairs.sieve")
        self._cache_path = sieve.cache_path
        ring = sieve.PrimeTable.ring_indicator
        wrappers[id(ring)] = (ring, self._wrap("sieve.PrimeTable.ring_indicator", ring))
        for attr in FFT_ENTRY_POINTS:
            fn = getattr(numpy.fft, attr)
            wrappers[id(fn)] = (fn, self._wrap(f"numpy.fft.{attr}", fn))

        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "primepairs" or key.startswith("primepairs.")]
        for ns in namespaces + [numpy.fft, sieve.PrimeTable]:
            for attr, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebound.append((ns, attr, value))
                    setattr(ns, attr, entry[1])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._rebound):
            setattr(ns, attr, original)
        self._rebound.clear()

    def write(self, path: Path) -> None:
        keep = ("name", "parent", "s", "self_s", "peak_bytes", "attrs")
        path.write_text(json.dumps([{k: rec[k] for k in keep} for rec in self.spans]))
