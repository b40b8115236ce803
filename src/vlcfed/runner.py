"""Experiment orchestration: seeds and modes over a grid of configs, CSV reports.

A record is one (grid point, seed, mode) run: selection/bandwidth outcome
plus the federated-training accuracy trace. Hybrid and RF-only runs on the
same seed share the topology, the shard partition, and the test split, so
their metrics are directly paired.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .allocation import MODES, UsbaResult, _check_mode, usba
from .config import DERIVED_FIELD, ConfigError, SimConfig
from .dataset import Dataset, shard_size, split_and_partition
from .fl import TrainingReport, required_global_rounds, run_federated_training
from .topology import Topology, generate_topology


class ExperimentError(RuntimeError):
    """A component failure, annotated with the grid point, seed and mode that hit it."""


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
    # Not a column: the grid point's index, also of its config in run_configs
    # (an index, so that kept records do not keep a config each).
    point: int = field(compare=False)


_COLUMNS = tuple(f.name for f in fields(ExperimentRecord) if f.name != "point")


@dataclass
class ExperimentReport:
    """Records, the config the caller passed, and in ``run_configs`` the
    config each grid point ran with (its ``samples_per_user`` derived), in run
    order; the manifest states those, or ``config`` if there are none.
    ``dataset_sha256`` is the loaded CSV's hash, None for data built in memory.
    ``varied`` names the grid's fields in axis order.
    """

    records: list[ExperimentRecord]
    config: SimConfig
    seeds: tuple[int, ...]
    dataset_name: str
    run_configs: tuple[SimConfig, ...] = ()
    dataset_sha256: str | None = None
    varied: tuple[str, ...] = ()


def _record(
    cfg: SimConfig, point: int, seed: int, mode: str, result: UsbaResult, report: TrainingReport
) -> ExperimentRecord:
    """One (point, seed, mode) run's record; ``report`` is empty when it did not train."""
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
        final_r2=report.final_r2,
        r2_trace=tuple(report.r2_per_round),
        point=point,
    )


def run_experiment(
    config: SimConfig,
    seeds: list[int],
    data: Dataset,
    modes: tuple[str, ...] = MODES,
    train: bool = True,
    grid: Sequence[tuple[Sequence[str], Sequence[tuple]]] = (),
) -> ExperimentReport:
    """One record per (grid point, seed, mode), in that order.

    An axis of ``grid`` is ``(fields, values)``: the names of fields that move
    together and one tuple of their values per point. The points are the
    product of the axes, the last fastest, and each runs ``config`` with the
    point's values set; with no axis the one point is ``config`` itself.

    A repeated seed, mode or axis value, an axis without values, a varied
    ``DERIVED_FIELD`` or a field varied twice raises ConfigError, and an
    unknown mode raises allocation's ValueError. Each point runs with the
    shard size its user count gives on ``data``. Every point's config, that
    size included, is derived before the first run, and a point the dataset
    cannot serve, or with ``train`` one whose test split is too small for
    R^2 (``test_size`` below 2), raises ConfigError naming its varied values.
    Each seed's one topology draw and one shard partition serve every mode.
    Only training reads the rows, so the first mode that trains makes the
    partition, and selection-only seeds make none. A failure in a run, the
    draw's and the partition's included, raises ExperimentError naming the
    point's varied values, the seed and the mode it hit.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    _check_distinct(seeds, lambda seed: f"seed {seed} is repeated")
    _check_distinct(modes, lambda mode: f"mode {mode!r} is repeated")
    for mode in modes:
        _check_mode(mode)
    points, varied = [{}], ()
    for names, values in grid:
        if not values:
            raise ConfigError(f"the axis of {', '.join(names)} has no values")
        _check_distinct(values, lambda value: _located("repeated in its axis", dict(zip(names, value))))
        points = [{**point, **dict(zip(names, value, strict=True))} for point in points for value in values]
        varied += tuple(names)
    for name in varied:
        if name == DERIVED_FIELD:
            raise ConfigError(f"{DERIVED_FIELD} is set from the dataset's shard size, so it cannot be varied")
        if varied.count(name) > 1:
            raise ConfigError(f"field {name!r} is varied twice")
    run_configs = []
    for point in points:
        base = config.replace(**point) if point else config
        if train and base.test_size < 2:
            raise ConfigError(_located(f"training needs test_size >= 2 to score R^2, got {base.test_size}", point))
        try:
            size = shard_size(data.n_rows, base.n_users, base.test_size)
        except ValueError as exc:
            raise ConfigError(_located(exc, point)) from None
        run_configs.append(base.replace(samples_per_user=size))
    records = []
    for index, cfg in enumerate(run_configs):
        for seed in seeds:
            topology = partition = None
            for mode in modes:
                try:
                    if topology is None:
                        topology = generate_topology(cfg, seed)
                    result = usba(topology, cfg, mode=mode)
                    report = TrainingReport()
                    if train and result.selection:
                        if partition is None:
                            partition = split_and_partition(data, cfg.n_users, cfg.test_size, seed)
                        report = run_federated_training(result.selection, *partition, cfg, seed)
                    records.append(_record(cfg, index, seed, mode, result, report))
                except Exception as exc:
                    raise ExperimentError(_located(exc, points[index], f"seed {seed}", f"mode {mode}")) from exc
    return ExperimentReport(records, config, tuple(seeds), data.name, tuple(run_configs), data.sha256, varied)


def _check_distinct(items: Sequence, message) -> None:
    """Raise ConfigError with ``message(item)`` for the first item that repeats an earlier one."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(message(item))


def _located(exc: Exception | str, point: dict, *where: str) -> str:
    """``exc``'s message after the point's varied values and ``where``."""
    at = [f"{name}={_manifest_value(value)}" for name, value in point.items()] + list(where)
    return f"{', '.join(at)}: {exc}" if at else str(exc)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _records_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    extras = [name for name in report.varied if name not in _COLUMNS]
    at = _COLUMNS.index("vlc_total_bandwidth_hz") + 1
    writer.writerow([*_COLUMNS[:at], *extras, *_COLUMNS[at:]])
    for rec in report.records:
        row = [_fmt(getattr(rec, col)) for col in _COLUMNS[:-1]]
        row.append(";".join("%.17g" % v for v in rec.r2_trace))  # the last column
        row[at:at] = [_manifest_value(getattr(report.run_configs[rec.point], name)) for name in extras]
        writer.writerow(row)
    return buf.getvalue()


def _summary_csv(report: ExperimentReport) -> str:
    # A group is a mode and a grid point. Points that differ in a column
    # differ in the key's first fields, so the point's index only splits, in
    # axis order, points that differ in an extra column alone.
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for rec in report.records:
        key = (rec.mode, rec.n_users, rec.rf_total_bandwidth_hz, rec.vlc_total_bandwidth_hz, rec.point)
        groups.setdefault(key, []).append(rec)
    extras = [name for name in report.varied if name not in _COLUMNS]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "mode",
            "n_users",
            "rf_total_bandwidth_hz",
            "vlc_total_bandwidth_hz",
            *extras,
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
            [key[0], str(key[1]), _fmt(key[2]), _fmt(key[3])]
            + [_manifest_value(getattr(report.run_configs[key[4]], name)) for name in extras]
            + [str(len(recs))]
            + [_fmt(float(v)) for v in (n_sel.mean(), n_sel.std(), r2.mean(), r2.std())]
        )
    return buf.getvalue()


def _manifest(report: ExperimentReport) -> str:
    # A field that varied lists its value in each run config, in run order,
    # so the values of a joint axis stay aligned.
    configs = report.run_configs or (report.config,)
    lines = ["vlcfed experiment manifest", ""]
    lines.append(f"vlcfed_version = {__version__}")
    lines.append(f"dataset = {report.dataset_name}")
    lines.append(f"dataset_sha256 = {_manifest_value(report.dataset_sha256)}")
    # numpy's SIMD loops can differ in the last bit from one dispatch level to
    # another, so two manifests can explain two sets of R² bytes.
    lines.append(f"numpy_version = {np.__version__}")
    lines.append(f"numpy_simd = {','.join(np.show_config(mode='dicts')['SIMD Extensions']['found']) or 'none'}")
    lines.append(f"seeds = {','.join(str(s) for s in report.seeds)}")
    lines.append(f"records = {len(report.records)}")
    bounds = (required_global_rounds(c.local_accuracy) for c in configs)
    lines.append(f"iteration_budget_bound = {_manifest_values(bounds)}")
    lines.append("")
    lines.append("[config]")
    for f in sorted(fields(SimConfig), key=lambda f: f.name):
        lines.append(f"{f.name} = {_manifest_values(getattr(c, f.name) for c in configs)}")
    return "\n".join(lines) + "\n"


def _manifest_values(values) -> str:
    """One value, or each config's value in run order, separated by ``;``."""
    texts = [_manifest_value(v) for v in values]
    return ";".join(texts if len(set(texts)) > 1 else texts[:1])


def _manifest_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if value is None:
        return "none"
    return _fmt(value)


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
