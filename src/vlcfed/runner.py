"""Experiment orchestration: seed sweeps over both modes, CSV reports.

A record is one (seed, mode, n_users) run: selection/bandwidth outcome plus
the federated-training accuracy trace. Hybrid and RF-only runs on the same
seed share the topology, the shard partition, and the test split, so their
metrics are directly paired.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, fields

import numpy as np

from .allocation import MODES, usba
from .config import SimConfig
from .dataset import Dataset, shard_size, split_and_partition
from .fl import required_global_rounds, run_federated_training
from .topology import Topology, generate_topology


class ExperimentError(RuntimeError):
    """A component failure, annotated with the (seed, mode) that hit it."""


@dataclass(frozen=True)
class ExperimentRecord:
    mode: str
    seed: int
    n_users: int
    rf_total_bandwidth_hz: float
    vlc_total_bandwidth_hz: float
    n_selected: int
    n_indoor_selected: int
    n_outdoor_selected: int
    b_up_hz: float
    b_down_hz: float
    b_vlc_hz: float
    usba_iterations: int
    converged: bool
    objective: float
    final_r2: float
    r2_trace: tuple[float, ...]


@dataclass
class ExperimentReport:
    records: list[ExperimentRecord]
    config: SimConfig
    seeds: tuple[int, ...]
    dataset_name: str


def _run_single(
    config: SimConfig, data: Dataset, seed: int, mode: str, train: bool
) -> ExperimentRecord:
    cfg = config.replace(samples_per_user=shard_size(data.n_rows, config.n_users, config.test_size))
    topology = generate_topology(cfg, seed)
    result = usba(topology, cfg, mode=mode)
    if train and result.selection:
        # Only training reads the rows, so selection-only records skip the partition.
        shards, test = split_and_partition(data, cfg.n_users, cfg.test_size, seed)
        report = run_federated_training(result.selection, shards, test, cfg, seed)
        final_r2 = report.final_r2
        trace = tuple(report.r2_per_round)
    else:
        final_r2 = float("nan")
        trace = ()
    return ExperimentRecord(
        mode=mode,
        seed=seed,
        n_users=cfg.n_users,
        rf_total_bandwidth_hz=cfg.rf_total_bandwidth_hz,
        vlc_total_bandwidth_hz=cfg.vlc_total_bandwidth_hz,
        n_selected=result.selection.size,
        n_indoor_selected=len(result.selection.indoor_ids),
        n_outdoor_selected=len(result.selection.outdoor_ids),
        b_up_hz=result.bandwidth.b_up_hz,
        b_down_hz=result.bandwidth.b_down_hz,
        b_vlc_hz=result.bandwidth.b_vlc_hz,
        usba_iterations=result.iterations,
        converged=result.converged,
        objective=result.objective,
        final_r2=final_r2,
        r2_trace=trace,
    )


def run_experiment(
    config: SimConfig,
    seeds: list[int],
    data: Dataset,
    modes: tuple[str, ...] = MODES,
    train: bool = True,
) -> ExperimentReport:
    """One record per (seed, mode), assembled in deterministic order."""
    if not seeds:
        raise ValueError("need at least one seed")
    records = []
    for seed in seeds:
        for mode in modes:
            try:
                records.append(_run_single(config, data, seed, mode, train))
            except Exception as exc:
                raise ExperimentError(f"seed {seed}, mode {mode}: {exc}") from exc
    return ExperimentReport(records, config, tuple(seeds), data.name)


def sweep_users(
    config: SimConfig,
    seeds: list[int],
    data: Dataset,
    n_values: list[int],
    modes: tuple[str, ...] = MODES,
    train: bool = True,
) -> ExperimentReport:
    """Repeat the experiment across total-user counts."""
    records = []
    for n in n_values:
        sub = run_experiment(config.replace(n_users=n), seeds, data, modes, train)
        records.extend(sub.records)
    return ExperimentReport(records, config, tuple(seeds), data.name)


def sweep_bandwidth(
    config: SimConfig,
    seeds: list[int],
    data: Dataset,
    band_pairs: list[tuple[float, float]],
    modes: tuple[str, ...] = MODES,
    train: bool = True,
) -> ExperimentReport:
    """Repeat the experiment across (RF total, VLC total) bandwidth pairs."""
    records = []
    for b_rf, b_vlc in band_pairs:
        sub = run_experiment(
            config.replace(rf_total_bandwidth_hz=b_rf, vlc_total_bandwidth_hz=b_vlc),
            seeds,
            data,
            modes,
            train,
        )
        records.extend(sub.records)
    return ExperimentReport(records, config, tuple(seeds), data.name)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _records_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = [f.name for f in fields(ExperimentRecord)]
    writer.writerow(cols)
    for rec in report.records:
        row = []
        for col in cols:
            value = getattr(rec, col)
            if col == "r2_trace":
                row.append(";".join("%.17g" % v for v in value))
            else:
                row.append(_fmt(value))
        writer.writerow(row)
    return buf.getvalue()


def _summary_csv(report: ExperimentReport) -> str:
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for rec in report.records:
        key = (rec.mode, rec.n_users, rec.rf_total_bandwidth_hz, rec.vlc_total_bandwidth_hz)
        groups.setdefault(key, []).append(rec)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "mode",
            "n_users",
            "rf_total_bandwidth_hz",
            "vlc_total_bandwidth_hz",
            "runs",
            "mean_n_selected",
            "std_n_selected",
            "mean_final_r2",
            "std_final_r2",
        ]
    )
    for key in sorted(groups):
        recs = groups[key]
        n_sel = np.array([r.n_selected for r in recs], dtype=float)
        r2 = np.array([r.final_r2 for r in recs], dtype=float)
        writer.writerow(
            [key[0], str(key[1]), _fmt(key[2]), _fmt(key[3]), str(len(recs))]
            + [_fmt(float(v)) for v in (n_sel.mean(), n_sel.std(), r2.mean(), r2.std())]
        )
    return buf.getvalue()


def _manifest(report: ExperimentReport) -> str:
    lines = ["vlcfed experiment manifest", ""]
    lines.append(f"dataset = {report.dataset_name}")
    lines.append(f"seeds = {','.join(str(s) for s in report.seeds)}")
    lines.append(f"records = {len(report.records)}")
    lines.append(
        f"iteration_budget_bound = {required_global_rounds(report.config.local_accuracy)}"
    )
    lines.append("")
    lines.append("[config]")
    for f in sorted(fields(SimConfig), key=lambda f: f.name):
        value = getattr(report.config, f.name)
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        elif value is None:
            value = "none"
        else:
            value = _fmt(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir: str) -> dict[str, str]:
    """Write records.csv, summary.csv, and manifest.txt; returns the paths.

    Output is a pure function of the report, so re-running the same
    experiment overwrites the files with byte-identical content.
    """
    if not report.records:
        raise ValueError("refusing to emit an empty report")
    os.makedirs(out_dir, exist_ok=True)
    outputs = {
        "records": (os.path.join(out_dir, "records.csv"), _records_csv(report)),
        "summary": (os.path.join(out_dir, "summary.csv"), _summary_csv(report)),
        "manifest": (os.path.join(out_dir, "manifest.txt"), _manifest(report)),
    }
    for path, text in outputs.values():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return {k: p for k, (p, _) in outputs.items()}


def random_instance(rng: np.random.Generator, n_range=(4, 12)) -> tuple[Topology, SimConfig]:
    """Small randomized scenario for property checks and the oracle suite.

    Parameters are drawn wide enough to produce a mix of all-feasible,
    partially feasible, and contended instances.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    cfg = SimConfig(
        n_users=n,
        indoor_fraction=float(rng.uniform(0.0, 1.0)),
        t_round_s=float(rng.uniform(0.2, 3.0)),
        payload_bits=float(rng.uniform(2e5, 2e6)),
        rf_total_bandwidth_hz=float(rng.uniform(2e6, 20e6)),
        vlc_total_bandwidth_hz=float(rng.uniform(5e6, 40e6)),
        uplink_interference_w=float(rng.uniform(0.0, 6e-10)),
        downlink_interference_w=float(rng.uniform(0.0, 6e-10)),
        energy_budget_j=float(rng.uniform(0.005, 2.0)),
        samples_per_user=int(rng.integers(1, 30)),
        max_iterations=50,
    )
    topology = generate_topology(cfg, int(rng.integers(0, 2**31)))
    return topology, cfg
