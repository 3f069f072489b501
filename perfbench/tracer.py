"""Span tracing from outside the program.

Every public function of the traced nvsk modules is wrapped where it is
looked up: as an attribute of its defining module and of every nvsk module
that imported it by name (nvsk.cli imports several directly). Spans record
name, start, end, parent span and command id; they stay in memory and are
written out when the run ends. Self time is a span's duration minus the
time its child spans cover.

A few functions are called thousands of times per command; they get a
call counter instead of a span. Hooks read work counts (samples, tiles,
bytes, solver evaluations) at the same boundaries. A name that a later
refactor removes is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("photophysics", "strainmap", "ramsey", "sensitivity", "charge",
           "dephasing", "config", "dataio", "cli")
CLI_SPANS = ("main",)  # cli.self_s is main() minus child spans
COUNT_ONLY = ("sensitivity.ramsey_sensitivity", "sensitivity.simplified_metric")
# Names the per-layer metrics read; reported absent if they disappear.
EXPECTED = (
    "photophysics.ti_band", "photophysics.initialization_time", "photophysics.evolve",
    "photophysics.contrast_trace", "photophysics.lowpass",
    "photophysics.max_stable_dt", "photophysics.default_trace_window",
    "strainmap.partition_sweep", "strainmap.histogram_fwhm", "strainmap.least_squares",
    "dataio.emit_csv", "dataio.emit_json", "dataio.write_manifest", "dataio.sha256_file",
    "dataio.load_strain_map", "dataio.load_spectrum", "dataio.ingest_intensity_table",
    "ramsey.fit", "sensitivity.volume_normalized_sensitivity",
    "sensitivity.optimal_nitrogen", *COUNT_ONLY, "charge.decompose_to_psi",
    "config.parse_config", "cli.main",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.stack = []
        self.counts = Counter()
        self.command = 0
        self.patches = []  # (module, attribute, original)
        self.originals = {}
        self.absent = []

    # --- hooks: work counts read at layer boundaries ---

    def _ti_band(self, args, kwargs, result):
        params, grid = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "intensities")
        dt_of = self.originals["photophysics.max_stable_dt"]
        window = self.originals["photophysics.default_trace_window"]
        for i_sat in params.i_sat_band:
            for intensity in grid:
                s = float(intensity) / i_sat
                self.counts["photophysics.samples_evaluated"] += (
                    int(math.ceil(window(params, s) / dt_of(params, s))) + 1
                )

    def _initialization_time(self, args, kwargs, result):
        self.counts["photophysics.samples_kept"] += len(_arg(args, kwargs, 0, "curve").contrast)

    def _partition_sweep(self, args, kwargs, result):
        self.counts["strainmap.tiles"] += sum(s.n_tiles for s in result)
        self.counts["strainmap.tiles_skipped"] += sum(s.n_skipped for s in result)

    def _least_squares(self, args, kwargs, result):
        self.counts["strainmap.lsq.nfev"] += int(result.nfev)

    def _ramsey_fit(self, args, kwargs, result):
        self.counts["ramsey.fit.nfev"] += int(result.n_evaluations)

    def _written(self, args, kwargs, result):
        self.counts["dataio.bytes_written"] += _size(_arg(args, kwargs, 1, "path"))

    def _manifest(self, args, kwargs, result):
        self.counts["dataio.bytes_written"] += _size(result)

    def _read(self, args, kwargs, result):
        self.counts["dataio.bytes_read"] += _size(_arg(args, kwargs, 0, "path"))

    def _read_map(self, args, kwargs, result):
        path = str(_arg(args, kwargs, 0, "path"))
        self.counts["dataio.bytes_read"] += _size(path) + _size(os.path.splitext(path)[0] + ".json")

    HOOKS = {
        "photophysics.ti_band": _ti_band,
        "photophysics.initialization_time": _initialization_time,
        "strainmap.partition_sweep": _partition_sweep,
        "strainmap.least_squares": _least_squares,
        "ramsey.fit": _ramsey_fit,
        "dataio.emit_csv": _written,
        "dataio.emit_json": _written,
        "dataio.write_manifest": _manifest,
        "dataio.sha256_file": _read,
        "dataio.load_strain_map": _read_map,
        "dataio.load_spectrum": _read,
        "dataio.ingest_intensity_table": _read,
    }

    # --- wrapping ---

    def _span_wrapper(self, name, fn):
        hook = self.HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced name in every nvsk module that refers to it."""
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"nvsk.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if short == "cli" and attr not in CLI_SPANS:
                    continue
                targets[obj] = f"{short}.{attr}"
        self.originals = {name: fn for fn, name in targets.items()}
        wrappers = {
            fn: (self._count_wrapper if name in COUNT_ONLY else self._span_wrapper)(name, fn)
            for fn, name in targets.items()
        }
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nvsk" or mod_name.startswith("nvsk.")):
                continue
            for attr, obj in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        # scipy's solver as strainmap sees it (ramsey's import stays untouched)
        strainmap = sys.modules["nvsk.strainmap"]
        if hasattr(strainmap, "least_squares"):
            name = "strainmap.least_squares"
            self.originals[name] = strainmap.least_squares
            self._patch(strainmap, "least_squares",
                        self._span_wrapper(name, strainmap.least_squares))
        self.absent = [n for n in EXPECTED if n not in self.originals]

    def _patch(self, module, attr, wrapper):
        self.patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    # --- results ---

    def self_times(self):
        """Per-name (self seconds, calls), from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name][0] += end - start - covered
            totals[name][1] += 1
        return {name: {"self_s": v[0], "calls": v[1]} for name, v in totals.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "spans": self.spans}, handle)
