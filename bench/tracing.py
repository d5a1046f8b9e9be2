"""Spans around the lwemassart layers, from outside the package.

A traced command runs with wrappers installed at the names the callers
bound (``lwemassart.cli.generate_instance``, ``lwemassart.rejection.
sample_lattice_rows``, ...), so nothing under ``src/`` changes.  Each call
records a span (id, parent, name, start, end, counts); spans stay in
memory and are written out when the traced process ends.

A span's self time is its duration minus the part of it covered by its
direct children.  Per-layer metrics sum self times and counts over every
span of a layer, so the self times of all layers plus ``cli.command.s``
(the root span's own time) add up to the traced command time.

This module imports nothing from lwemassart at import time: the bench
runner uses the arithmetic half without loading the package.
"""

import functools
import importlib
import math
import os
import time
import tracemalloc
from contextlib import contextmanager

ROOT = "cli.command"
MB = 1024.0 * 1024.0

# Every per-layer metric of a traced run, with its unit.  Layers that a
# workload never reaches report 0.
LAYER_METRICS = {
    "gaussians.sample_lattice_rows.s": "s",
    "gaussians.sample_lattice_rows.rows": "count",
    "gaussians.sample_lattice_rows.window": "count",
    "gaussians.sample_lattice_rows.peak_mb": "MB",
    "gaussians.sample_discrete_gaussian_1d.s": "s",
    "rejection.transform_accepted.s": "s",
    "rejection.transform_accepted.rows": "count",
    "instances.generate_instance.s": "s",
    "instances.generate_instance.consumed": "count",
    "instances.accept_ratio": "ratio",
    "instances.labeled_io.s": "s",
    "instances.ptf_region.s": "s",
    "instances.ptf_region.calls": "count",
    "lwe.gen_continuous_lwe.s": "s",
    "lwe.gen_classic_lwe.s": "s",
    "lwe.run_chain.s": "s",
    "lwe.batch_io.s": "s",
    "lwe.batch_io.bytes": "bytes",
    "verify.oracle.s": "s",
    "verify.oracle.grid_points": "count",
    "verify.orthogonal_gaussianity_test.s": "s",
    "verify.orthogonal_gaussianity_test.ks_tests": "count",
    "verify.isotropic_gaussianity_test.s": "s",
    "verify.hidden_direction_test.s": "s",
    "verify.massart_condition_estimate.s": "s",
    "verify.ptf_error_estimate.s": "s",
    "verify.distinguish.s": "s",
    "verify.distinguish.trials": "count",
    "cli.command.s": "s",
}

# counts that take the largest value over spans instead of the sum
MAX_COUNTS = {"window", "peak_mb"}
# metrics taken from sets run with install(memory=True)
MEMORY_METRICS = ("gaussians.sample_lattice_rows.peak_mb",)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        """Time the body as one span; yields the span's counts dict."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "parent": parent, "name": name,
               "start": self.clock(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = self.clock()
            self._stack.pop()


def self_times(spans):
    """Span id -> duration minus the durations of its direct children.

    The traced program is single-threaded, so a span's children run one
    after the other inside it and never overlap.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans):
    """Per-layer metrics (LAYER_METRICS names) summed over a list of spans."""
    out = {name: 0.0 for name in LAYER_METRICS}
    own = self_times(spans)
    for s in spans:
        prefix = s["name"]
        out[prefix + ".s"] = out.get(prefix + ".s", 0.0) + own[s["id"]]
        for key, value in s["counts"].items():
            name = f"{prefix}.{key}"
            if key in MAX_COUNTS:
                out[name] = max(out.get(name, 0.0), value)
            else:
                out[name] = out.get(name, 0.0) + value
    draws = out.pop("instances.generate_instance.draws", 0.0)
    consumed = out["instances.generate_instance.consumed"]
    out["instances.accept_ratio"] = draws / consumed if consumed else 0.0
    return out


def command_time(spans):
    """Summed duration of the root (cli.command) spans."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


# --------------------------------------------------------------- counters


def _lattice_counts(args, kwargs, result):
    import numpy as np
    from lwemassart.gaussians import DEFAULT_TRUNCATION

    sigma = args[1]
    trunc = args[2] if len(args) > 2 else kwargs.get("trunc", DEFAULT_TRUNCATION)
    half = math.ceil(trunc.radius_multiplier * float(np.max(sigma))) + 1
    return {"rows": len(result), "window": 2 * half + 1}


def _transform_counts(args, kwargs, result):
    return {"rows": len(result)}


def _instance_counts(args, kwargs, result):
    return {"consumed": result.consumed, "draws": result.draws}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _file_bytes(args, kwargs, result):
    # LweBatch.save(self, path) or LweBatch.load(path)
    return {"bytes": os.path.getsize(args[-1])}


def _grid_points(args, kwargs, result):
    return {"grid_points": len(result.xs)}


def _ks_tests(args, kwargs, result):
    return {"ks_tests": result.params.get("tests", 0)}


def _trials(args, kwargs, result):
    return {"trials": result.trials}


# (span name, [(module, attribute) the callers look up], counter, memory)
PROBES = [
    ("gaussians.sample_lattice_rows", [("lwemassart.rejection", "sample_lattice_rows")],
     _lattice_counts, True),
    ("gaussians.sample_discrete_gaussian_1d",
     [("lwemassart.lwe", "sample_discrete_gaussian_1d")], None, False),
    ("rejection.transform_accepted", [("lwemassart.instances", "transform_accepted")],
     _transform_counts, False),
    ("instances.generate_instance", [("lwemassart.cli", "generate_instance")],
     _instance_counts, False),
    ("instances.labeled_io", [("lwemassart.cli", "read_labeled_file"),
                              ("lwemassart.cli", "write_labeled_file")], None, False),
    ("instances.ptf_region", [("lwemassart.cli", "ptf_region"),
                              ("lwemassart.verify", "ptf_region")], _calls, False),
    ("lwe.gen_continuous_lwe", [("lwemassart.cli", "gen_continuous_lwe")], None, False),
    ("lwe.gen_classic_lwe", [("lwemassart.cli", "gen_classic_lwe")], None, False),
    ("lwe.run_chain", [("lwemassart.cli", "run_chain")], None, False),
    ("verify.oracle", [("lwemassart.cli", "mixture_oracle"),
                       ("lwemassart.cli", "gaussian_oracle")], _grid_points, False),
    ("verify.orthogonal_gaussianity_test",
     [("lwemassart.cli", "orthogonal_gaussianity_test")], _ks_tests, False),
    ("verify.isotropic_gaussianity_test",
     [("lwemassart.cli", "isotropic_gaussianity_test")], None, False),
    ("verify.hidden_direction_test", [("lwemassart.cli", "hidden_direction_test")],
     None, False),
    ("verify.massart_condition_estimate",
     [("lwemassart.cli", "massart_condition_estimate")], None, False),
    ("verify.ptf_error_estimate", [("lwemassart.cli", "ptf_error_estimate")], None, False),
    ("verify.distinguish", [("lwemassart.cli", "distinguish")], _trials, False),
]


def wrap(tracer, name, fn, counter=None, memory=False):
    """fn inside a span; memory=True adds the tracemalloc peak in MB."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if memory:
            tracemalloc.start()
        try:
            with tracer.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
                if memory:
                    counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
        finally:
            if memory:
                tracemalloc.stop()
        return result

    return wrapper


def install(tracer, memory=False):
    """Wrap every probe and LweBatch.save/load; call once per process.

    memory=True also takes the tracemalloc peak of the probes that ask for
    it.  tracemalloc slows those calls by about a third, so the bench runs
    it in separate sets whose times it does not use.
    """
    for name, sites, counter, wants_memory in PROBES:
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            setattr(module, attr, wrap(tracer, name, getattr(module, attr),
                                       counter, memory and wants_memory))
    from lwemassart.lwe import LweBatch

    LweBatch.save = wrap(tracer, "lwe.batch_io", LweBatch.save, _file_bytes)
    LweBatch.load = classmethod(
        wrap(tracer, "lwe.batch_io", LweBatch.load.__func__, _file_bytes))
