"""Benchmark for vlcfed: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload select_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
fedavg_default, select_sweep, oracle_small. The benchmark imports vlcfed from
src/ of the checkout it sits in and drives it through its public functions.

--trace 0 runs the workload untraced for --seconds (at least one whole pass)
and measures set-up time in fresh interpreters every few seconds meanwhile.
--trace 1 runs one pass untraced and the same pass with probes on every layer
boundary (spans.py); their time ratio is the tracing overhead.

All times are scaled to a reference machine speed (calibration.py), because
other tenants of the benchmark machine change its speed by up to 1.6x.
Record times exclude output checks, which run after the timed loop.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names are those listed in
BENCHMARK.json. A fuller result (environment stamp, sample count, p90 when at
least ten records lie beyond it, raw times, simulated outcomes, determinism
fingerprints and, for --trace 1, every span) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("fedavg_default", "select_sweep", "oracle_small")
# The kernels are tiny (9-row shards, 13x10 weights), so threads only add
# noise; one BLAS thread keeps the load to one process on one core.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))  # before numpy is first imported

import calibration  # noqa: E402

SETUP_EVERY_S = 2.0
DATASET_LOADS = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import vlcfed\n"
    "vlcfed.load_bundled_dataset()\n"
    "print(repr(time.perf_counter() - t0))\n"
    "print(vlcfed.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> float:
    """Seconds to import vlcfed and load the bundled dataset in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise BenchError(f"set-up child failed:\n{out.stderr}")
    elapsed, module_file = out.stdout.split("\n")[:2]
    if not _inside_src(module_file):
        raise BenchError(f"set-up child imported vlcfed from {module_file}, not {SRC}")
    return float(elapsed)


class SetupSampler:
    """Measures set-up between records, at most once per SETUP_EVERY_S.

    The speed timer is paused while the child runs, and the sample is scaled
    by the kernel timed just before and after it.
    """

    def __init__(self, speed):
        measure_setup()  # writes the bytecode caches a user's second start finds
        self.speed = speed
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._last = -math.inf
        self()

    def __call__(self) -> None:
        if time.perf_counter() - self._last < SETUP_EVERY_S:
            return
        self.speed.pause()
        self.speed.sample()
        seconds = measure_setup()
        self.speed.sample()
        self.speed.resume()
        kernel_s = statistics.fmean(self.speed.kernel_s[-2:])
        self.raw.append(seconds)
        self.scaled.append(calibration.scale(seconds, kernel_s))
        self._last = time.perf_counter()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # the benchmark may run from an exported tree


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Run:
    """One timed run: the first pass, then repeated records."""

    def __init__(self):
        # (index in the pass, seconds, start, end); seconds exclude the speed sampler
        self.samples: list[tuple[int, float, float, float]] = []
        self.first_pass: list[tuple] = []  # (key, value) of records that did not raise
        self.attempted = 0
        self.problems: list[str] = []
        self.wall = 0.0
        self.finish_state = None
        self.finish_error: str | None = None


def timed_run(workload, call, speed, seconds: float, out_dir: str, cycle: bool, between=None) -> Run:
    """Run one pass, then (if ``cycle``) keep repeating records until time is up.

    Each record's output is checked after its time is taken; only the first
    pass's values are kept.
    """
    clock = time.perf_counter
    run = Run()
    keys = workload.keys
    start = clock()
    i = 0
    while i < len(keys) or (cycle and clock() - start < seconds):
        index = i % len(keys)
        key = keys[index]
        handler_s = speed.handler_s
        t0 = clock()
        try:
            value, problem = call(key), None
        except Exception:  # counted as a failed record; the run goes on
            value, problem = None, f"record {key!r}:\n{traceback.format_exc()}"
        t1 = clock()
        run.samples.append((index, t1 - t0 - (speed.handler_s - handler_s), t0, t1))
        if problem is None:
            problem = workload.check(key, value)
            if i < len(keys):
                run.first_pass.append((key, value))
        run.attempted += 1
        if problem:
            run.problems.append(problem)
        if between is not None:
            between()
        i += 1
    try:
        run.finish_state = workload.finish([value for _, value in run.first_pass], out_dir)
    except Exception:
        run.finish_error = traceback.format_exc()
    run.wall = clock() - start
    return run


def check_run(workload, run: Run, out_dir: str) -> None:
    """The workload's run-level output check, counted as one more operation."""
    if workload.run_checks:
        run.attempted += workload.run_checks
        problem = run.finish_error or workload.check_run(run.finish_state, out_dir)
        if problem:
            run.problems.append(problem)


def outcomes(workload, pairs) -> dict[str, float]:
    """Selection and accuracy outcomes of the first pass; deterministic per seed."""
    selected = {"hybrid": [], "rf_only": []}
    r2 = {"hybrid": [], "rf_only": []}
    for key, value in pairs:
        for mode, n_selected, final_r2 in workload.outcomes(key, value):
            selected[mode].append(n_selected)
            if final_r2 is not None:
                r2[mode].append(final_r2)
    out = {f"selected_mean.{m}": statistics.fmean(v) if v else 0.0 for m, v in selected.items()}
    rf = out["selected_mean.rf_only"]
    out["selection_gain"] = out["selected_mean.hybrid"] / rf if rf else 0.0
    for m, v in r2.items():
        out[f"r2_final_mean.{m}"] = statistics.fmean(v) if v else 0.0
    # Both modes of a seed are paired records, so this is the paired mean difference.
    out["r2_gain"] = out["r2_final_mean.hybrid"] - out["r2_final_mean.rf_only"]
    return out


def _scaled_total(run: Run, speed) -> float:
    return math.fsum(calibration.scale(t, speed.during(start, end)) for _, t, start, end in run.samples)


def per_layer(tracer, traced: Run, untraced: Run, speed, load_s: list[float], outcome: dict) -> dict:
    """Per-layer metrics; times are scaled by the run's median speed sample."""
    s = tracer.stats
    wall = traced.wall
    overhead = _scaled_total(traced, speed) / _scaled_total(untraced, speed) - 1.0
    usba, get_s, train = s["allocation.usba"], s["allocation.get_s"], s["fl.train"]
    evaluated = get_s.extra.get("evaluated", 0)
    rounds = train.extra.get("rounds", 0)
    metrics = {
        "dataset.load_ms": (statistics.median(load_s) * 1e3, "ms"),
        "dataset.partition_ms": (s["dataset.partition"].median_ms(), "ms"),
        "topology.generate_ms": (s["topology.generate"].median_ms(), "ms"),
        "topology.generate_calls": (s["topology.generate"].count, "count"),
        "config.validate_calls": (s["config.validate"].count, "count"),
        "channel.vlc_sinr_calls": (s["channel.vlc_sinr"].count, "count"),
        "channel.vlc_sinr_ms": (s["channel.vlc_sinr"].median_ms(), "ms"),
        "channel.rf_rate_calls": (s["channel.rf_rate"].count, "count"),
        "compute.cost_breakdown_calls": (s["compute.cost_breakdown"].count, "count"),
        "compute.cost_breakdown_ms": (s["compute.cost_breakdown"].median_ms(), "ms"),
        "allocation.usba_ms": (usba.median_ms(), "ms"),
        "allocation.usba_calls": (usba.count, "count"),
        "allocation.usba_iterations": (int(usba.extra.get("iterations", 0)), "count"),
        "allocation.usba_nonconverged": (int(usba.extra.get("nonconverged", 0)), "count"),
        "allocation.get_s_calls": (get_s.count, "count"),
        "allocation.get_s_ms": (get_s.median_ms(), "ms"),
        "allocation.get_s_us_per_user": (get_s.total / evaluated * 1e6 if evaluated else 0.0, "us"),
        "allocation.is_feasible_calls": (s["allocation.is_feasible"].count, "count"),
        "allocation.oracle_ms": (s["allocation.oracle"].median_ms(), "ms"),
        "allocation.admit_ratio": (get_s.extra.get("admitted", 0) / evaluated if evaluated else 0.0, "ratio"),
        "fl.train_ms": (train.median_ms(), "ms"),
        "fl.round_ms": (train.median_ms() / rounds if rounds else 0.0, "ms"),
        "fl.local_train_calls": (s["fl.local_train"].count, "count"),
        "fl.local_train_ms": (s["fl.local_train"].median_ms(), "ms"),
        "fl.aggregate_ms": (s["fl.aggregate"].median_ms(), "ms"),
        "runner.emit_ms": (s["runner.emit"].median_ms(), "ms"),
        "runner.emit_bytes": (int(s["runner.emit"].extra.get("bytes", 0)), "bytes"),
        "runner.self_ms": (s["runner.run_experiment"].median_self_ms(), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    factor = calibration.scale(1.0, statistics.median(speed.kernel_s))
    for name, (value, unit) in metrics.items():
        if unit in ("ms", "us"):
            metrics[name] = (value * factor, unit)
    for layer, own in tracer.layer_self(wall).items():
        metrics[f"{layer}.self_frac"] = (own / wall, "ratio")
    for layer, incl in tracer.layer_incl.items():
        if layer != "bench":
            metrics[f"{layer}.incl_frac"] = (incl / wall, "ratio")
    units = {"selected_mean.hybrid": "users", "selected_mean.rf_only": "users", "selection_gain": "ratio"}
    for name, value in outcome.items():
        layer = "allocation" if name.startswith("select") else "fl"
        metrics[f"{layer}.{name}"] = (value, units.get(name, "R2"))
    return metrics


def record_times(workload, run: Run, speed) -> list[float]:
    """Median scaled time of each record of the pass over its repetitions."""
    reps = [[] for _ in workload.keys]
    for index, seconds, start, end in run.samples:
        reps[index].append(calibration.scale(seconds, speed.during(start, end)))
    return [statistics.median(r) for r in reps]


def end_to_end(times: list[float], setup) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "record_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "records_per_s": (len(times) / math.fsum(times), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def _declared(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench(args) -> dict:
    if not (SRC / "vlcfed" / "__init__.py").is_file():
        raise BenchError(f"no vlcfed package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vlcfed
    from vlcfed import dataset

    if not _inside_src(vlcfed.__file__):
        raise BenchError(f"imported vlcfed from {vlcfed.__file__}, not {SRC}")
    import spans
    from workloads import WORKLOADS

    declared = _declared(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "environment": environment()}
    load_s = []
    for _ in range(DATASET_LOADS):
        t0 = time.perf_counter()
        data = dataset.load_bundled_dataset()
        load_s.append(time.perf_counter() - t0)
    workload = WORKLOADS[args.workload](args.seed, data)
    workload.warm_up()

    with tempfile.TemporaryDirectory(dir=OUT) as tmp, calibration.Speed() as speed:
        if args.trace:
            tracer = spans.Tracer()
            untraced = timed_run(workload, workload.run, speed, args.seconds, tmp, cycle=False)
            with tracer:
                traced = timed_run(workload, tracer.record(workload.run), speed, args.seconds, tmp, cycle=False)
            runs = [untraced, traced]
        else:
            setup = SetupSampler(speed)
            runs = [timed_run(workload, workload.run, speed, args.seconds, tmp, cycle=True, between=setup)]
        for run in runs:
            check_run(workload, run, tmp)
        results["outcomes"] = outcomes(workload, runs[0].first_pass)
        results["fingerprint"] = workload.fingerprint(runs[0].first_pass, runs[0].finish_state)

    attempted = sum(run.attempted for run in runs)
    problems = [problem for run in runs for problem in run.problems]
    failed = len(problems)
    results["speed_kernel_ms"] = [k * 1e3 for k in speed.kernel_s]
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, speed, load_s, results["outcomes"])
        tracer.write_spans(str(OUT / f"spans-{tag}.csv"))
        results["wall_s"] = {"untraced": untraced.wall, "traced": traced.wall}
    else:
        run = runs[0]
        times = record_times(workload, run, speed)
        metrics = end_to_end(times, setup)
        raw = [seconds for _, seconds, _, _ in run.samples]
        results["wall_s"] = run.wall
        results["setup_s_raw"] = setup.raw
        results["setup_s_scaled"] = setup.scaled
        results["records"] = len(raw)
        results["repetitions"] = len(raw) / len(workload.keys)
        results["record_ms"] = [t * 1e3 for t in times]
        if len(times) >= 100:  # at least ten records beyond p90
            results["record_ms_p90"] = statistics.quantiles(times, n=10)[-1] * 1e3
        results["raw_record_ms_p50"] = statistics.median(raw) * 1e3
        results["raw_records_per_s"] = len(raw) / run.wall
    results["failed_frac"] = failed / attempted
    results["problems"] = problems[:20]

    if sorted(metrics) != sorted(declared):
        raise BenchError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    results["result"] = line
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    for problem in problems[:5]:
        print(problem, file=sys.stderr)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        line = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
