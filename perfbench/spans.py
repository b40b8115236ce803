"""Span tracing around vlcfed's layer boundaries, installed from outside.

Each probe replaces a function at the attribute its caller looks up, e.g.
``vlcfed.runner.usba`` (called by ``run_experiment``) and
``vlcfed.allocation.vlc_sinr`` (called by ``get_s``), so the package itself
carries no timing code. A probe whose function a refactor has removed is
skipped and reports 0 calls.

Coarse calls keep a span (name, start, end, parent span, record id). The
per-user functions are called millions of times per pass on select_sweep and
oracle_small, so they keep running totals and a bounded sample of durations
instead; their time still counts against the enclosing call's self time.
"""

from __future__ import annotations

import csv
import importlib
import os
import statistics
import time
from array import array

SAMPLE_CAP = 1 << 16

# (span name, layer, lookup sites "module:attr.path", keep one span per call)
PROBES = (
    ("config.validate", "config", ("vlcfed.config:SimConfig.validate",), False),
    ("dataset.partition", "dataset", ("vlcfed.runner:split_and_partition",), True),
    (
        "topology.generate",
        "topology",
        ("vlcfed.runner:generate_topology", "vlcfed.topology:generate_topology"),
        True,
    ),
    ("channel.vlc_sinr", "channel", ("vlcfed.allocation:vlc_sinr",), False),
    ("channel.rf_rate", "channel", ("vlcfed.allocation:rf_rate",), False),
    ("compute.cost_breakdown", "compute", ("vlcfed.allocation:cost_breakdown",), False),
    ("allocation.usba", "allocation", ("vlcfed.runner:usba", "vlcfed.allocation:usba"), True),
    ("allocation.get_s", "allocation", ("vlcfed.allocation:get_s",), True),
    ("allocation.get_b", "allocation", ("vlcfed.allocation:get_b",), True),
    ("allocation.is_feasible", "allocation", ("vlcfed.allocation:is_feasible",), False),
    ("allocation.oracle", "allocation", ("vlcfed.allocation:oracle_enumerate",), True),
    ("fl.train", "fl", ("vlcfed.runner:run_federated_training",), True),
    ("fl.local_train", "fl", ("vlcfed.fl:local_train",), False),
    ("fl.aggregate", "fl", ("vlcfed.fl:aggregate",), True),
    ("runner.run_experiment", "runner", ("vlcfed.runner:run_experiment",), True),
    ("runner.emit", "runner", ("vlcfed.runner:emit_report",), True),
)
RECORD = "bench.record"
BENCH_LAYER = "bench"
LAYERS = ("config", "dataset", "topology", "channel", "compute", "allocation", "fl", "runner", BENCH_LAYER)


class CallStats:
    """Totals for one probe plus an evenly strided sample of its calls."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.extra: dict[str, float] = {}  # per-probe counts from the call's result
        self._durations = array("d")
        self._selfs = array("d")
        self._stride = 1

    def add(self, duration: float, own: float) -> None:
        self.count += 1
        self.total += duration
        self.self_total += own
        if self.count % self._stride == 0:
            self._durations.append(duration)
            self._selfs.append(own)
            if len(self._durations) >= SAMPLE_CAP:
                # Keep every other sample, i.e. calls at multiples of 2*stride.
                self._durations = self._durations[1::2]
                self._selfs = self._selfs[1::2]
                self._stride *= 2

    def bump(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def median_ms(self) -> float:
        return statistics.median(self._durations) * 1e3 if self._durations else 0.0

    def median_self_ms(self) -> float:
        return statistics.median(self._selfs) * 1e3 if self._selfs else 0.0


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _after_usba(stats, args, kwargs, result, duration):
    stats.bump("iterations", result.iterations)
    stats.bump("nonconverged", 0 if result.converged else 1)


def _after_get_s(stats, args, kwargs, result, duration):
    stats.bump("evaluated", len(_arg(args, kwargs, 1, "topology").users))
    stats.bump("admitted", result.size)


def _after_train(stats, args, kwargs, result, duration):
    stats.extra["rounds"] = _arg(args, kwargs, 3, "config").global_rounds


def _after_emit(stats, args, kwargs, result, duration):
    stats.bump("bytes", sum(os.path.getsize(p) for p in result.values()))


AFTER = {
    "allocation.usba": _after_usba,
    "allocation.get_s": _after_get_s,
    "fl.train": _after_train,
    "runner.emit": _after_emit,
}


class Tracer:
    """Installs the probes, keeps spans in memory, and restores on exit."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stats = {name: CallStats() for name, *_ in PROBES}
        self.stats[RECORD] = CallStats()
        self.layer_incl = dict.fromkeys(LAYERS, 0.0)
        self.spans: list = []
        self.record_id = -1  # the record being run, -1 between records
        self._records_started = 0
        # Frame: [time covered by children, layer, enclosing span id].
        self._root = [0.0, BENCH_LAYER, -1]
        self._stack = [self._root]
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        for name, layer, sites, keep_span in PROBES:
            for site in sites:
                module_name, _, path = site.partition(":")
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    continue  # removed by a refactor: the probe reports 0 calls
                setattr(owner, attr, self.wrap(name, layer, original, keep_span))
                self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def record(self, run):
        """Wrap a workload's record function as the root span of each record."""
        wrapped = self.wrap(RECORD, BENCH_LAYER, run, True)

        def call(key):
            self.record_id = self._records_started
            self._records_started += 1
            try:
                return wrapped(key)
            finally:
                self.record_id = -1

        return call

    def wrap(self, name: str, layer: str, fn, keep_span: bool):
        stats = self.stats[name]
        after = AFTER.get(name)
        stack, spans, incl = self._stack, self.spans, self.layer_incl
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[2]
            frame = [0.0, layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                if parent[1] != layer:
                    incl[layer] += duration
                stats.add(duration, duration - frame[0])
                if keep_span:
                    spans[span_id] = (name, start - self.origin, end - self.origin, parent[2], self.record_id)
            if after is not None:
                try:
                    after(stats, args, kwargs, result, duration)
                except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError):
                    pass  # a changed signature loses the extra count, not the run
            return result

        return wrapper

    def layer_self(self, wall: float) -> dict[str, float]:
        """Self time per layer; the benchmark's own code is the ``bench`` layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, layer, *_ in PROBES:
            out[layer] += self.stats[name].self_total
        out[BENCH_LAYER] += self.stats[RECORD].self_total + (wall - self._root[0])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "record"])
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, record = span
                    writer.writerow([i, name, "%.9f" % start, "%.9f" % end, parent, record])
