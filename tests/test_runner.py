import codecs
import csv
import dataclasses
import hashlib
import math
import re
import sys
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import vlcfed
from vlcfed import (
    ConfigError,
    SimConfig,
    build_config,
    generate_topology,
    load_bundled_dataset,
    load_dataset,
    usba,
)
from vlcfed import runner
from vlcfed.allocation import MODES, _LinkTable
from vlcfed.config import _SCALAR_RULES, _TUPLE_RULES, DERIVED_FIELD, _Interval, _Shape, read_field
from vlcfed.runner import (
    ExperimentError,
    ExperimentReport,
    emit_report,
    run_experiment,
)
from tests.conftest import make_synthetic, write_dataset


SCALAR_FIELDS = tuple(name for name, _, _ in _SCALAR_RULES)
INT_FIELDS = tuple(name for name, hint in typing.get_type_hints(SimConfig).items() if hint is int)


@pytest.fixture
def small_setup():
    data = make_synthetic(120, seed=0)
    cfg = SimConfig(n_users=8, global_rounds=5, test_size=10)
    return cfg, data


class TestRunRfOnly:
    def test_single_outdoor_user_matches_hybrid(self):
        cfg = SimConfig(n_users=1, indoor_fraction=0.0)
        topo = generate_topology(cfg, seed=2)
        hy = usba(topo, cfg, "hybrid")
        rf = usba(topo, cfg, "rf_only")
        assert hy.selection == rf.selection
        assert hy.bandwidth == rf.bandwidth
        assert hy.converged == rf.converged

    def test_rf_only_never_beats_hybrid_at_defaults(self):
        cfg = SimConfig(n_users=40)
        for seed in range(6):
            topo = generate_topology(cfg, seed)
            assert usba(topo, cfg, "rf_only").selection.size <= usba(topo, cfg).selection.size


class TestRunExperiment:
    def test_record_count_and_order(self, small_setup):
        cfg, data = small_setup
        report = run_experiment(cfg, [3, 1], data, train=False)
        assert len(report.records) == 4
        assert [(r.seed, r.mode) for r in report.records] == [
            (3, "hybrid"),
            (3, "rf_only"),
            (1, "hybrid"),
            (1, "rf_only"),
        ]

    def test_training_populates_r2(self, small_setup):
        cfg, data = small_setup
        report = run_experiment(cfg, [0], data, modes=("hybrid",))
        rec = report.records[0]
        assert len(rec.r2_trace) == cfg.global_rounds
        assert rec.final_r2 == rec.r2_trace[-1]
        assert math.isfinite(rec.final_r2)

    def test_shard_size_follows_partition(self, small_setup):
        cfg, data = small_setup
        report = run_experiment(cfg, [0], data, train=False)
        # 120 rows - 10 test = 110; 110 // 8 = 13 samples/user
        assert report.records[0].objective % 13 == 0

    def test_errors_carry_seed_context(self, small_setup, monkeypatch):
        cfg, data = small_setup

        def broken_usba(*args, **kwargs):
            raise ValueError("no fixed point")

        monkeypatch.setattr(runner, "usba", broken_usba)
        with pytest.raises(ExperimentError, match="^seed 7, mode hybrid: no fixed point$"):
            run_experiment(cfg, [7], data, train=False)

    def test_each_seed_is_drawn_and_built_once(self, monkeypatch):
        # Both modes run on one draw per seed, so they share its link table.
        draws, builds = [], []
        draw, build = runner.generate_topology, _LinkTable.__init__

        def counted_draw(cfg, seed):
            draws.append(seed)
            return draw(cfg, seed)

        def counted_build(table, *args):
            builds.append(args)
            build(table, *args)

        monkeypatch.setattr(runner, "generate_topology", counted_draw)
        monkeypatch.setattr(_LinkTable, "__init__", counted_build)
        report = run_experiment(SimConfig(), [0, 1], load_bundled_dataset(), train=False)
        assert [(r.seed, r.mode) for r in report.records] == [(0, "hybrid"), (0, "rf_only"), (1, "hybrid"), (1, "rf_only")]
        assert draws == [0, 1]
        assert len(builds) == 2

    def test_each_seed_is_partitioned_once(self, monkeypatch):
        # Both modes train on one partition per seed, made by the first of them.
        calls = []
        partition = runner.split_and_partition

        def counted(data, n_users, test_size, seed):
            calls.append(seed)
            return partition(data, n_users, test_size, seed)

        monkeypatch.setattr(runner, "split_and_partition", counted)
        report = run_experiment(SimConfig(global_rounds=2), [0, 1], load_bundled_dataset())
        assert [(r.seed, r.mode) for r in report.records] == [(0, "hybrid"), (0, "rf_only"), (1, "hybrid"), (1, "rf_only")]
        assert all(r.r2_trace for r in report.records)
        assert calls == [0, 1]

    def test_a_failed_partition_names_its_seed_and_first_mode(self, small_setup, monkeypatch):
        cfg, data = small_setup

        def broken_partition(*args):
            raise ValueError("no rows to deal")

        monkeypatch.setattr(runner, "split_and_partition", broken_partition)
        with pytest.raises(ExperimentError, match="seed 2, mode rf_only: no rows to deal"):
            run_experiment(cfg, [2], data, modes=("rf_only", "hybrid"))

    def test_modes_on_a_shared_draw_match_runs_of_one_mode(self, small_setup):
        cfg, data = small_setup
        both = run_experiment(cfg, [3, 1], data)
        alone = {mode: run_experiment(cfg, [3, 1], data, modes=(mode,)).records for mode in MODES}
        for mode in MODES:
            assert [r for r in both.records if r.mode == mode] == alone[mode]

    def test_a_failed_draw_names_its_seed_and_first_mode(self, small_setup, monkeypatch):
        cfg, data = small_setup

        def broken_draw(cfg, seed):
            raise ValueError("no room for the users")

        monkeypatch.setattr(runner, "generate_topology", broken_draw)
        with pytest.raises(ExperimentError, match="seed 4, mode rf_only: no room for the users"):
            run_experiment(cfg, [4], data, modes=("rf_only", "hybrid"))

    def test_requires_seeds(self, small_setup):
        cfg, data = small_setup
        with pytest.raises(ValueError):
            run_experiment(cfg, [], data)

    @pytest.mark.parametrize(
        "seeds, modes, message",
        [
            ([0, 0], MODES, "^seed 0 is repeated$"),
            ([3, 1, 2, 1], MODES, "^seed 1 is repeated$"),
            ([0], ("hybrid", "rf_only", "hybrid"), "^mode 'hybrid' is repeated$"),
        ],
    )
    def test_a_repeated_seed_or_mode_is_rejected_before_any_run(self, small_setup, monkeypatch, seeds, modes, message):
        cfg, data = small_setup
        monkeypatch.setattr(runner, "generate_topology", None)  # no draw may run
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, seeds, data, modes, train=False)

    @pytest.mark.parametrize("modes", [("hybrid", "bogus"), ("bogus",)])
    def test_an_unknown_mode_is_rejected_before_any_run(self, small_setup, monkeypatch, modes):
        cfg, data = small_setup
        monkeypatch.setattr(runner, "generate_topology", None)  # no draw may run
        with pytest.raises(ValueError, match=r"^mode must be one of \('hybrid', 'rf_only'\), got 'bogus'$"):
            run_experiment(cfg, [0], data, modes)

    @pytest.mark.parametrize("test_size", [0, 1])
    def test_a_test_split_too_small_for_r2_is_rejected_before_any_run(self, small_setup, monkeypatch, test_size):
        cfg, data = small_setup
        monkeypatch.setattr(runner, "generate_topology", None)  # no draw may run
        message = rf"training needs test_size >= 2 to score R\^2, got {test_size}$"
        with pytest.raises(ConfigError, match="^" + message):
            run_experiment(cfg.replace(test_size=test_size), [0], data)
        with pytest.raises(ConfigError, match=rf"^n_users=4, test_size={test_size}: {message}"):
            run_experiment(cfg, [0], data, grid=[(("n_users", "test_size"), ((4, 5), (4, test_size)))])

    def test_a_constant_two_row_test_split_fails_in_its_run(self, small_setup):
        cfg, data = small_setup
        flat = vlcfed.Dataset(data.features, np.full(data.n_rows, 3.0), "flat")
        with pytest.raises(ExperimentError, match=r"^seed 0, mode hybrid: R\^2 is undefined"):
            run_experiment(cfg.replace(test_size=2), [0], flat)

    def test_divergence_names_seed_mode_and_round(self, small_setup):
        cfg, data = small_setup
        with np.errstate(all="ignore"):
            with pytest.raises(ExperimentError, match=r"seed 0, mode hybrid: round \d+: training diverged"):
                run_experiment(
                    cfg.replace(learning_rate=1e6, global_rounds=20), [0], data, modes=("hybrid",)
                )


class TestSelectionOnlyRecords:
    """train=False skips the data partition; it must not change any selection field."""

    @pytest.mark.parametrize("n_users", [20, 97, 200])  # 489 rows over 97 users leave 4 over
    def test_match_trained_records(self, n_users):
        cfg = SimConfig(n_users=n_users, global_rounds=1)
        data = load_bundled_dataset()
        lean = run_experiment(cfg, [0, 1], data, train=False).records
        trained = run_experiment(cfg, [0, 1], data, train=True).records
        assert len(lean) == len(trained) == 4
        for a, b in zip(lean, trained):
            assert len(b.r2_trace) == 1
            for f in dataclasses.fields(a):
                if f.name not in ("final_r2", "r2_trace"):
                    assert getattr(a, f.name) == getattr(b, f.name), f.name

    @pytest.mark.parametrize("train", [False, True])
    def test_too_many_users_still_rejected(self, train):
        with pytest.raises(ConfigError, match=r"^need at least test_size \+ n_users = 17 \+ 500 = 517 rows, dataset has 506$"):
            run_experiment(SimConfig(n_users=500), [0], load_bundled_dataset(), train=train)


REFERENCE_RECORDS = Path(__file__).parent / "data" / "reference_records.csv"
# A systematic 1-ulp error in every sigmoid output moves these 60-round R^2
# traces by at most 2.3e-11, so 1e-9 absorbs the last-bit differences that
# numpy's SIMD exp may show on another CPU and still catches any real change.
R2_TOLERANCE = 1e-9


class TestReferenceRun:
    """records.csv of run_experiment(SimConfig(n_users=20, global_rounds=60),
    [0, 1], load_bundled_dataset()), as written by the per-user training code
    before the batched kernel; the file is stored in tests/data."""

    def test_matches_stored_records(self, tmp_path):
        report = run_experiment(SimConfig(n_users=20, global_rounds=60), [0, 1], load_bundled_dataset())
        with open(emit_report(report, str(tmp_path))["records"], newline="") as fh:
            got = list(csv.DictReader(fh))
        with open(REFERENCE_RECORDS, newline="") as fh:
            expected = list(csv.DictReader(fh))
        assert len(got) == len(expected) == 4
        for row, ref in zip(got, expected):
            assert row.keys() == ref.keys()
            for col in ref.keys() - {"final_r2", "r2_trace"}:
                assert row[col] == ref[col], col
            trace = [float(v) for v in row["r2_trace"].split(";")]
            ref_trace = [float(v) for v in ref["r2_trace"].split(";")]
            assert trace == pytest.approx(ref_trace, rel=0, abs=R2_TOLERANCE)
            assert float(row["final_r2"]) == trace[-1]


N_USERS_AXIS = (("n_users",), ((4,), (8,)))
BAND_AXIS = (("rf_total_bandwidth_hz", "vlc_total_bandwidth_hz"), ((10e6, 20e6), (20e6, 40e6)))


class TestGrid:
    def test_an_axis_of_one_field_covers_its_values(self, small_setup):
        cfg, data = small_setup
        report = run_experiment(cfg, [0], data, train=False, grid=[N_USERS_AXIS])
        assert [(r.n_users, r.mode) for r in report.records] == [(n, m) for n in (4, 8) for m in MODES]

    def test_a_joint_axis_moves_its_fields_together(self, small_setup):
        cfg, data = small_setup
        report = run_experiment(cfg, [0], data, train=False, grid=[BAND_AXIS])
        got = [(r.rf_total_bandwidth_hz, r.vlc_total_bandwidth_hz) for r in report.records]
        assert got == [pair for pair in BAND_AXIS[1] for _ in MODES]
        assert report.varied == BAND_AXIS[0]

    def test_a_product_runs_the_last_axis_fastest(self, small_setup):
        cfg, data = small_setup
        report = run_experiment(cfg, [5, 2], data, train=False, grid=[BAND_AXIS, N_USERS_AXIS])
        got = [(r.rf_total_bandwidth_hz, r.n_users, r.seed, r.mode) for r in report.records]
        assert got == [
            (rf, n, seed, mode)
            for rf in (10e6, 20e6)
            for n in (4, 8)
            for seed in (5, 2)
            for mode in MODES
        ]
        assert [r.point for r in report.records] == [p for p in range(4) for _ in range(4)]
        assert [(c.rf_total_bandwidth_hz, c.n_users) for c in report.run_configs] == [
            (rf, n) for rf in (10e6, 20e6) for n in (4, 8)
        ]

    def test_a_point_runs_as_the_config_it_sets(self, small_setup):
        cfg, data = small_setup
        axis = (("t_round_s", "n_users"), ((1.25, 4),))
        varied = run_experiment(cfg, [0, 1], data, grid=[axis])
        alone = run_experiment(cfg.replace(t_round_s=1.25, n_users=4), [0, 1], data)
        assert varied.records == alone.records
        assert varied.run_configs == alone.run_configs

    def test_a_bad_value_is_rejected_before_any_run(self, small_setup, monkeypatch):
        cfg, data = small_setup
        monkeypatch.setattr(runner, "generate_topology", None)  # no draw may run
        with pytest.raises(ConfigError, match="^n_users must be finite and >= 1, got 0$"):
            run_experiment(cfg, [0], data, grid=[(("n_users",), ((4,), (0,)))])

    def test_the_derived_field_cannot_be_varied(self, small_setup):
        cfg, data = small_setup
        with pytest.raises(ConfigError, match="samples_per_user is set from the dataset's shard size"):
            run_experiment(cfg, [0], data, grid=[(("samples_per_user",), ((3,), (30,)))])

    @pytest.mark.parametrize(
        "grid",
        [
            [(("n_users", "n_users"), ((8, 9),))],
            [(("n_users",), ((8,),)), (("t_round_s", "n_users"), ((1.0, 12),))],
        ],
        ids=["within-an-axis", "across-axes"],
    )
    def test_a_field_cannot_be_varied_twice(self, small_setup, grid):
        cfg, data = small_setup
        with pytest.raises(ConfigError, match="^field 'n_users' is varied twice$"):
            run_experiment(cfg, [0], data, train=False, grid=grid)

    @pytest.mark.parametrize(
        "axis, message",
        [
            ((("n_users",), ((10,), (10,))), "n_users=10"),
            ((("t_round_s",), ((1.5,), (1.5,))), "t_round_s=1.5"),
            ((("t_round_s",), ((1,), (2.5,), (1.0,))), "t_round_s=1"),
            (
                (BAND_AXIS[0], ((10e6, 20e6), (20e6, 40e6), (1e7, 2e7))),
                "rf_total_bandwidth_hz=10000000, vlc_total_bandwidth_hz=20000000",
            ),
            ((("ap_ring_radii_m",), ((None,), ((10.0,),), (None,))), "ap_ring_radii_m=none"),
        ],
    )
    def test_a_repeated_value_is_rejected_before_any_run(self, small_setup, monkeypatch, axis, message):
        cfg, data = small_setup
        monkeypatch.setattr(runner, "generate_topology", None)  # no draw may run
        with pytest.raises(ConfigError, match=f"^{message}: repeated in its axis$"):
            run_experiment(cfg, [0], data, train=False, grid=[axis])

    def test_an_axis_needs_a_value(self, small_setup):
        cfg, data = small_setup
        with pytest.raises(ConfigError, match="^the axis of n_users has no values$"):
            run_experiment(cfg, [0], data, train=False, grid=[(("n_users",), ())])

    def test_an_error_names_its_point(self, small_setup):
        cfg, data = small_setup
        axis = (("n_users", "learning_rate"), ((4, 0.4), (8, 1e6)))
        with np.errstate(all="ignore"):
            with pytest.raises(
                ExperimentError, match=r"^n_users=8, learning_rate=1000000, seed 3, mode hybrid: round \d+: training diverged"
            ):
                run_experiment(cfg.replace(global_rounds=20), [3], data, grid=[axis])

    def test_a_point_the_dataset_cannot_serve_fails_before_any_run(self, small_setup, monkeypatch):
        cfg, data = small_setup
        monkeypatch.setattr(runner, "generate_topology", None)  # no draw may run
        axis = (("n_users", "t_round_s"), ((4, 2.5), (200, 1.25)))
        message = r"^n_users=200, t_round_s=1.25: need at least test_size \+ n_users = 10 \+ 200 = 210 rows, dataset has 120$"
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, [3], data, grid=[axis])

    def test_a_field_that_is_not_a_column_splits_summary_rows_in_axis_order(self, small_setup, tmp_path):
        cfg, data = small_setup
        # Axis order is neither numeric (1.25 < 2.5 < 10) nor textual ("1.25" < "10" < "2.5").
        axis = (("t_round_s",), ((10.0,), (2.5,), (1.25,)))
        report = run_experiment(cfg, [0, 1], data, train=False, grid=[axis])
        paths = emit_report(report, str(tmp_path))
        with open(paths["summary"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:6] == ["mode", "n_users", "rf_total_bandwidth_hz", "vlc_total_bandwidth_hz", "t_round_s", "runs"]
        assert [(r["mode"], r["t_round_s"], r["runs"]) for r in rows] == [
            (mode, t, "2") for mode in MODES for t in ("10", "2.5", "1.25")
        ]
        for row in rows:
            selected = [
                rec.n_selected
                for rec in report.records
                if rec.mode == row["mode"] and report.run_configs[rec.point].t_round_s == float(row["t_round_s"])
            ]
            assert float(row["mean_n_selected"]) == pytest.approx(np.mean(selected))
        with open(paths["records"], newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["t_round_s"] for r in records] == [t for t in ("10", "2.5", "1.25") for _ in range(4)]
        assert "t_round_s = 10;2.5;1.25" in Path(paths["manifest"]).read_text().splitlines()


class TestEmitReport:
    def test_files_and_determinism(self, small_setup, tmp_path):
        cfg, data = small_setup
        report = run_experiment(cfg, [0, 1], data)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        paths1 = emit_report(report, str(out1))
        report2 = run_experiment(cfg, [0, 1], data)
        paths2 = emit_report(report2, str(out2))
        for key in ("records", "summary", "manifest"):
            a = open(paths1[key], "rb").read()
            b = open(paths2[key], "rb").read()
            assert a == b
        header = open(paths1["records"]).readline().strip().split(",")
        assert header[:3] == ["mode", "seed", "n_users"]
        lines = open(paths1["records"]).read().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_summary_means(self, small_setup, tmp_path):
        cfg, data = small_setup
        report = run_experiment(cfg, [0, 1], data, train=False)
        paths = emit_report(report, str(tmp_path))
        rows = open(paths["summary"]).read().strip().splitlines()
        header = rows[0].split(",")
        by_mode = {}
        for line in rows[1:]:
            cells = dict(zip(header, line.split(",")))
            by_mode[cells["mode"]] = cells
        raw = {
            mode: np.mean([r.n_selected for r in report.records if r.mode == mode])
            for mode in ("hybrid", "rf_only")
        }
        for mode in raw:
            assert float(by_mode[mode]["mean_n_selected"]) == pytest.approx(raw[mode])
            assert int(by_mode[mode]["runs"]) == 2

    def test_manifest_states_the_values_the_records_ran_with(self, tmp_path):
        data = load_bundled_dataset()
        cfg = SimConfig()
        keys = ("records", "n_users", "samples_per_user", "rf_total_bandwidth_hz", "vlc_total_bandwidth_hz")

        def manifest_lines(report, name):
            with open(emit_report(report, str(tmp_path / name))["manifest"]) as fh:
                return [line for line in fh.read().splitlines() if line.split(" = ")[0] in keys]

        run = run_experiment(cfg.replace(n_users=20), [0, 1], data, train=False)
        assert manifest_lines(run, "run") == [
            "records = 4",
            "n_users = 20",
            "rf_total_bandwidth_hz = 20000000",
            "samples_per_user = 24",
            "vlc_total_bandwidth_hz = 40000000",
        ]
        users = run_experiment(cfg, [0], data, train=False, grid=[(("n_users",), ((20,), (30,)))])
        assert manifest_lines(users, "users") == [
            "records = 4",
            "n_users = 20;30",
            "rf_total_bandwidth_hz = 20000000",
            "samples_per_user = 24;16",
            "vlc_total_bandwidth_hz = 40000000",
        ]
        # The swept pairs stay aligned: a value two pairs share is listed twice.
        pairs = ((10e6, 20e6), (20e6, 20e6), (20e6, 40e6))
        bands = run_experiment(
            cfg, [0], data, train=False, grid=[(("rf_total_bandwidth_hz", "vlc_total_bandwidth_hz"), pairs)]
        )
        assert manifest_lines(bands, "bands") == [
            "records = 6",
            "n_users = 50",
            "rf_total_bandwidth_hz = 10000000;20000000;20000000",
            "samples_per_user = 9",
            "vlc_total_bandwidth_hz = 20000000;20000000;40000000",
        ]
        # A report assembled from its parts states the config it was given.
        assembled = ExperimentReport(users.records, cfg, users.seeds, users.dataset_name)
        assert manifest_lines(assembled, "assembled") == [
            "records = 4",
            "n_users = 50",
            "rf_total_bandwidth_hz = 20000000",
            "samples_per_user = 9",
            "vlc_total_bandwidth_hz = 40000000",
        ]

    def test_manifest_states_version_and_dataset_hash(self, tmp_path):
        built = make_synthetic(80, seed=3)
        path = tmp_path / "data.csv"
        write_dataset(built, path)
        loaded = load_dataset(str(path), name=built.name)
        cfg = SimConfig(n_users=8, global_rounds=2)

        def emitted(data, name):
            paths = emit_report(run_experiment(cfg, [0], data), str(tmp_path / name))
            return {kind: Path(p).read_text() for kind, p in paths.items()}

        from_file, in_memory = emitted(loaded, "file"), emitted(built, "memory")
        head = from_file["manifest"].splitlines()[:5]
        assert head == [
            "vlcfed experiment manifest",
            "",
            f"vlcfed_version = {vlcfed.__version__}",
            f"dataset = {built.name}",
            f"dataset_sha256 = {hashlib.sha256(path.read_bytes()).hexdigest()}",
        ]
        # numpy's version and dispatched SIMD extensions follow the dataset hash.
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        assert from_file["manifest"].splitlines()[5:7] == [
            f"numpy_version = {np.__version__}",
            f"numpy_simd = {','.join(simd) or 'none'}",
        ]
        assert "dataset_sha256 = none" in in_memory["manifest"].splitlines()
        # The hash reaches the manifest only; the CSVs do not depend on it.
        assert from_file["records"] == in_memory["records"]
        assert from_file["summary"] == in_memory["summary"]

    def test_empty_report_rejected(self, small_setup, tmp_path):
        cfg, data = small_setup
        report = run_experiment(cfg, [0], data, train=False)
        report.records = []
        with pytest.raises(ValueError):
            emit_report(report, str(tmp_path))


class TestConfigResolution:
    def test_validation_names_fields(self):
        with pytest.raises(ConfigError, match="optical_power_w"):
            SimConfig(optical_power_w=-2.0).validate()
        with pytest.raises(ConfigError, match="t_round_s"):
            SimConfig(t_round_s=0.0).validate()
        with pytest.raises(ConfigError, match="indoor_fraction"):
            SimConfig(indoor_fraction=1.5).validate()
        with pytest.raises(ConfigError, match="uplink_interference_w"):
            SimConfig(uplink_interference_w=-1e-12).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", SCALAR_FIELDS)
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SimConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "build",
        [
            lambda path: SimConfig(t_round_s=-1.0),
            lambda path: SimConfig().replace(t_round_s=-1.0),
            lambda path: dataclasses.replace(SimConfig(), t_round_s=-1.0),
            lambda path: build_config(path),
        ],
        ids=["constructor", "replace", "dataclasses_replace", "build_config"],
    )
    def test_every_construction_path_validates(self, build, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t_round_s = -1\n")
        with pytest.raises(ConfigError, match="t_round_s must be finite and > 0"):
            build(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ap_ring_radii_m", (math.nan,)),
            ("ap_ring_radii_m", (10.0, math.inf)),
            ("initial_bandwidth", (math.nan, 1e6, 1e6)),
            ("initial_bandwidth", (math.inf, math.inf, math.inf)),
            ("tx_power_range_w", (0.05, math.inf)),
            ("cpu_freq_range_hz", (1e8, math.inf)),
            ("cycles_per_sample_range", (1e7, math.inf)),
            # ints too large to be floats: each lies below inf
            ("tx_power_range_w", (1, 10**400)),
            ("cpu_freq_range_hz", (1e8, 10**400)),
            ("cycles_per_sample_range", (10**400, 10**401)),
            ("ap_ring_radii_m", (10**400,)),
        ],
    )
    def test_non_finite_tuple_entries_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_round_s", "1"),
            ("ap_ring_radii_m", ("a",)),
            ("initial_bandwidth", (1e6, "x", 1e6)),
            ("indoor_fraction", "0.5"),
            ("n_users", True),
        ],
    )
    def test_non_numeric_and_bool_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_integer_fields_hold_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("indoor_fraction", 0.0),
            ("indoor_fraction", 1.0),
            ("fov_half_angle_deg", 90.0),
            ("backhaul_delay_s", 0.0),
            ("test_size", 0),
            ("n_users", 1),
            ("n_users", np.int64(12)),
            ("test_size", np.int64(0)),
            ("t_round_s", Fraction(5, 2)),
            ("local_accuracy", Fraction(1, 3)),
            ("indoor_fraction", Fraction(1)),
            # Compared with the bounds cast to float32, it raised a RuntimeWarning.
            ("t_round_s", np.float32(1.0)),
        ],
    )
    def test_interval_edges_accepted(self, field, value):
        assert getattr(SimConfig(**{field: value}), field) == value

    # One field of each kind: positive, non-negative, bounded on both sides,
    # count, and the count that may be 0.
    KINDS = ("t_round_s", "backhaul_delay_s", "indoor_fraction", "half_intensity_angle_deg", "n_users", "test_size")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("half_intensity_angle_deg", 90.0),
            ("local_accuracy", 0.0),
            ("local_accuracy", 1.0),
            ("n_users", 0),
            ("test_size", -1),
            # Compared with the bounds cast to float32, it built.
            ("t_round_s", np.float32("inf")),
            # Too large for a float, it compares as nan.
            ("t_round_s", Fraction(10**400)),
        ]
        + [(field, bad) for field in KINDS for bad in (math.nan, math.inf, -math.inf, True, "1")],
    )
    def test_interval_edges_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} "):
            SimConfig(**{field: value})

    def test_every_field_has_exactly_one_rule(self):
        scalars = [name for name, interval, _ in _SCALAR_RULES if isinstance(interval, _Interval)]
        tuples = [name for name, shape, _ in _TUPLE_RULES if isinstance(shape, _Shape)]
        assert (len(scalars), len(tuples)) == (35, 5)
        assert sorted(scalars + tuples) == sorted(f.name for f in dataclasses.fields(SimConfig))
        assert sorted(name for name, _, integral in _SCALAR_RULES if integral) == sorted(INT_FIELDS)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("optical_power_w", 0.0, "optical_power_w must be finite and > 0, got 0.0"),
            ("uplink_interference_w", -1.0, "uplink_interference_w must be finite and >= 0, got -1.0"),
            ("n_users", 0, "n_users must be finite and >= 1, got 0"),
            ("test_size", -1, "test_size must be finite and >= 0, got -1"),
            ("indoor_fraction", 1.5, r"indoor_fraction must be finite and in \[0, 1\], got 1.5"),
            ("half_intensity_angle_deg", 90.0, r"half_intensity_angle_deg must be finite and in \(0, 90\), got 90.0"),
            ("fov_half_angle_deg", 91.0, r"fov_half_angle_deg must be finite and in \(0, 90\], got 91.0"),
            ("local_accuracy", 1.0, r"local_accuracy must be finite and in \(0, 1\), got 1.0"),
        ],
    )
    def test_the_interval_words_the_error(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("t_round_s", 10**400), ("n_users", 10**400), ("test_size", 10**400), ("ap_ring_radii_m", (10**400,))]
    )
    def test_an_int_too_large_for_a_float_is_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            SimConfig(**{field: value})

    def test_the_first_bad_scalar_field_in_declaration_order_is_named(self):
        with pytest.raises(ConfigError, match="^n_users "):
            SimConfig(max_iterations=0, indoor_fraction=2.0, t_round_s=0.0, n_users=0)

    def test_numpy_integers_are_integers(self):
        assert SimConfig(n_users=np.int64(12), test_size=np.int32(0)).n_users == 12

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(t_round_s=0.0),
            dict(n_users=2.5),
            dict(indoor_fraction=math.nan),
            dict(learning_rate=True),
            dict(payload_bits="1e6"),
            dict(tx_power_range_w=(1.0, 0.5)),
            dict(initial_bandwidth=(1e6, 1e6)),
            dict(ap_ring_radii_m=()),
            # Several bad fields: the first in declaration order, scalars before tuples.
            dict(max_iterations=0, indoor_fraction=2.0, t_round_s=0.0, n_users=0),
            dict(initial_bandwidth=(0.0, 1.0, 1.0), samples_per_user=0),
            dict(cpu_freq_range_hz=(1.0,), ap_ring_radii_m=(-1.0,)),
        ],
    )
    def test_replace_rejects_what_the_constructor_rejects(self, overrides):
        with pytest.raises(ConfigError) as built:
            SimConfig(**{"global_rounds": 7, **overrides})
        with pytest.raises(ConfigError) as replaced:
            SimConfig(global_rounds=7).replace(**overrides)
        assert str(replaced.value) == str(built.value)

    def test_replace_rejects_an_unknown_field_as_dataclasses_replace_does(self):
        with pytest.raises(TypeError, match="'n_user'"):
            SimConfig().replace(n_user=12)
        with pytest.raises(TypeError, match="'n_user'"):
            dataclasses.replace(SimConfig(), n_user=12)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            dict(samples_per_user=12),
            dict(n_users=np.int64(30), initial_bandwidth=(1e6, 2e6, 3e6), ap_ring_radii_m=None),
            dict(rf_total_bandwidth_hz=5e6, vlc_total_bandwidth_hz=10e6, t_round_s=Fraction(5, 2)),
        ],
    )
    def test_replace_equals_the_constructor(self, fields):
        base = SimConfig(n_users=7, ap_ring_radii_m=(10.0, 20.0))
        built = SimConfig(**{**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}, **fields})
        replaced = base.replace(**fields)
        assert replaced == built and hash(replaced) == hash(built) and repr(replaced) == repr(built)
        assert type(replaced) is SimConfig and replaced == dataclasses.replace(base, **fields)
        assert base == SimConfig(n_users=7, ap_ring_radii_m=(10.0, 20.0))  # the original is untouched

    @pytest.mark.parametrize(
        "field, value", [("t_round_s", -1.0), ("n_users", 0), ("tx_power_range_w", (2.0, 1.0))]
    )
    def test_dataclasses_replace_still_checks_every_field(self, field, value, monkeypatch):
        with pytest.raises(ConfigError, match=f"^{field} "):
            dataclasses.replace(SimConfig(), **{field: value})
        # It builds through the constructor, which checks the fields it keeps too.
        checked = []
        monkeypatch.setattr(SimConfig, "validate", lambda self: checked.append(self))
        dataclasses.replace(SimConfig(), samples_per_user=3)
        assert len(checked) == 2

    def test_non_finite_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("backhaul_delay_s = nan\n")
        with pytest.raises(ConfigError, match="backhaul_delay_s must be finite"):
            build_config(str(path))

    @pytest.mark.parametrize(
        "text, line, field",
        [
            ("n_users = 0\n", 1, "n_users"),
            ("# comment\n\nt_round_s = 1.5\nindoor_fraction = 2\n", 4, "indoor_fraction"),
            ("n_users = 0\nn_users = 5\nlocal_accuracy = 1\n", 1, "n_users"),  # checked as its line is read
            ("tx_power_range_w = 2, 1\nn_users = 0\n", 1, "tx_power_range_w"),  # the first rejected line
        ],
    )
    def test_a_rejected_file_value_names_path_and_line(self, tmp_path, text, line, field):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{line}: {field} must"):
            build_config(str(path))

    def test_table_defaults(self):
        cfg = SimConfig()
        assert cfg.optical_power_w == 9.0
        assert cfg.vlc_total_bandwidth_hz == 40e6
        assert cfg.pd_area_m2 == 1e-4
        assert cfg.half_intensity_angle_deg == 60.0
        assert cfg.filter_gain == 1.0
        assert cfg.fov_half_angle_deg == 90.0
        assert cfg.refractive_index == 1.5
        assert cfg.conversion_efficiency == 0.53
        assert cfg.vlc_noise_psd == 1e-21
        assert cfg.rf_noise_psd == 1e-21
        assert cfg.rf_total_bandwidth_hz == 20e6
        assert cfg.bs_tx_power_w == 1.0
        assert cfg.n_users == 50
        assert cfg.t_round_s == 2.5
        assert cfg.energy_budget_j == 2.0
        assert cfg.capacitance_coeff == 2e-28
        assert cfg.payload_bits == 1e6

    def test_file_and_cli_priority(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "n_users = 12\n"
            "t_round_s = 1.5\n"
            "cycles_per_sample_range = 1e4, 2e4\n"
            "initial_bandwidth = none\n"
        )
        cfg = build_config(str(path))
        assert (cfg.n_users, cfg.t_round_s) == (12, 1.5)  # the file overrides defaults
        assert cfg.cycles_per_sample_range == (1e4, 2e4)
        assert cfg.initial_bandwidth is None
        assert cfg.local_epochs == SimConfig().local_epochs  # defaults fill the rest

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequencyy = 3\n")
        with pytest.raises(ConfigError, match="frequencyy"):
            build_config(str(path))

    @pytest.mark.parametrize(
        "content, line, byte",
        [
            (b"\xff\xfen\x00_\x00u\x00", 1, 0),  # UTF-16 with its byte-order mark
            (b"# ok\nn_users = 12\nt_round_s = 2\xe9\n", 3, 31),  # a Latin-1 byte
            (codecs.BOM_UTF8 + b"# ok\nn_users = 12\nt_round_s = 2\xe9\n", 3, 34),  # the mark is counted
        ],
    )
    def test_a_file_that_is_not_utf8_names_path_line_and_byte(self, tmp_path, content, line, byte):
        path = tmp_path / "bad.cfg"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line {line}: byte {byte}: not UTF-8 "):
            build_config(str(path))

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = b"n_users = 12\nt_round_s = 2\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert build_config(str(marked)) == build_config(str(plain)) == SimConfig(n_users=12, t_round_s=2.0)

    def test_line_numbers_follow_universal_newlines(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"n_users = 12\r\nt_round_s = 2\rbroken\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:3: expected 'key = value'"):
            build_config(str(path))

    def test_non_integral_int_rejected_with_line(self, tmp_path):
        for bad in ("2.7", "inf", "nan"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"n_users = 12\nglobal_rounds = {bad}\n")
            with pytest.raises(ConfigError, match=r"bad.cfg:2: bad value for 'global_rounds'"):
                build_config(str(path))

    def test_integral_float_notation_accepted_for_int(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("global_rounds = 1e1\nlocal_epochs = 3.0\n")
        cfg = build_config(str(path))
        assert (cfg.global_rounds, cfg.local_epochs) == (10, 3)
        assert type(cfg.global_rounds) is type(cfg.local_epochs) is int

    @pytest.mark.parametrize("value", ["1", "1, 2, 3"])
    @pytest.mark.parametrize("field", ["cycles_per_sample_range", "cpu_freq_range_hz", "tx_power_range_w"])
    def test_range_needs_exactly_two_values(self, tmp_path, field, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{field} = {value}\n")
        with pytest.raises(ConfigError, match=f"bad.cfg:1: {field} must hold 2 values"):
            build_config(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_users = 20\nn_users = 30\n", "2: n_users is set twice"),
            # Even when the second line repeats the first one's value.
            ("t_round_s = 2\n# again\nt_round_s = 2\n", "3: t_round_s is set twice"),
            ("initial_bandwidth = none\nn_users = 20\ninitial_bandwidth = 1e6 1e6 1e6\n", "3: initial_bandwidth is set twice"),
        ],
    )
    def test_a_key_set_twice_is_named_at_its_second_line(self, tmp_path, text, message):
        path = tmp_path / "dup.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{message}$"):
            build_config(str(path))

    # Values the four tuple checkers that the shape rule replaced rejected,
    # each still rejected with the field named...
    TUPLE_REJECTED = [
        (field, value)
        for field in ("tx_power_range_w", "cycles_per_sample_range", "cpu_freq_range_hz")
        for value in [
            None, (), (0.5,), (0.1, 0.2, 0.3), "0.1 0.2", np.array([0.1, 0.2]), 0.5,
            (0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1, 0.999), (0.1, math.nan), (math.inf, math.inf),
            (True, 2.0), (0.1, "1"), (0.1, None), (0.1, complex(1, 0)), (0.1, 10**400), (10**400, 10**401),
            (np.float32(0.1), np.float32("inf")),
        ]
    ] + [
        (field, value)
        for field in ("ap_ring_radii_m", "initial_bandwidth")
        for value in [
            (), [], (0.0,) * 3, (-1.0,) * 3, (math.nan,) * 3, (1.0, math.inf, 1.0), (True,) * 3,
            ("1",) * 3, (1.0, None, 1.0), (10**400,) * 3, "1 2 3", np.ones(3), 1.0,
        ]
    ] + [("initial_bandwidth", (1e6, 1e6)), ("initial_bandwidth", (1e6,) * 4)]
    # ...and values they accepted, each still building as given.
    TUPLE_ACCEPTED = [
        (field, value)
        for field in ("tx_power_range_w", "cycles_per_sample_range", "cpu_freq_range_hz")
        for value in [
            (0.2, 0.2), [0.1, 0.9], (1, 3), (np.float64(0.7), 10**300), (Fraction(1, 3), np.int64(2)),
            (5e-324, sys.float_info.max), (np.int32(1), 2.0), (np.float32(0.1), np.float32(0.9)),
        ]
    ] + [
        (field, value)
        for field in ("ap_ring_radii_m", "initial_bandwidth")
        for value in [None, (1.0, 2.0, 3.0), [1, 2, 3], (np.float64(1.5), 2, Fraction(7, 2))]
    ] + [("ap_ring_radii_m", (12.5,)), ("ap_ring_radii_m", (40.0, 10.0, 20.0, 30.0, 5.0))]

    @pytest.mark.parametrize("field, value", TUPLE_REJECTED)
    def test_the_shape_rule_rejects_what_the_tuple_checkers_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must "):
            SimConfig(**{field: value})
        with pytest.raises(ConfigError, match=rf"^{field} must "):
            SimConfig().replace(**{field: value})

    @pytest.mark.parametrize("field, value", TUPLE_ACCEPTED)
    def test_the_shape_rule_accepts_what_the_tuple_checkers_accepted(self, field, value):
        assert getattr(SimConfig(**{field: value}), field) is value
        assert getattr(SimConfig().replace(**{field: value}), field) is value

    @pytest.mark.parametrize("field", ["tx_power_range_w", "cycles_per_sample_range", "cpu_freq_range_hz"])
    def test_a_bound_too_large_for_a_float_beside_a_numpy_bound_names_its_field(self, field):
        # Compared with np.float64, 10**400 raised a bare OverflowError.
        with pytest.raises(ConfigError, match=rf"^{field} must be finite and > 0, got 1000"):
            SimConfig(**{field: (np.float64(0.7), 10**400)})

    @pytest.mark.parametrize(
        "name, text, value",
        [
            ("n_users", "1e1", 10),
            ("t_round_s", " 2.5 ", 2.5),
            ("tx_power_range_w", "0.1, 0.9", (0.1, 0.9)),
            ("cpu_freq_range_hz", "1e8 1e9", (1e8, 1e9)),
            ("ap_ring_radii_m", "10,20 30", (10.0, 20.0, 30.0)),
            ("initial_bandwidth", "none", None),
            ("initial_bandwidth", "", None),
            # 2**53 + 1: a float would read it as 2**53
            ("max_iterations", "9007199254740993", 9007199254740993),
            ("max_iterations", "9.007199254740993e15", 9007199254740993),
        ],
    )
    def test_a_file_line_reads_its_value_as_read_field_does(self, tmp_path, name, text, value):
        path = tmp_path / "one.cfg"
        path.write_text(f"{name} ={text}\n")
        assert read_field(name, text) == getattr(build_config(str(path)), name) == value

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("n_user", "20", "unknown config key 'n_user'"),
            ("n_users", "3.5", "bad value for 'n_users': expected an integer, got '3.5'"),
            # a float reads this as 4.0; it is no integer
            ("n_users", "4.0000000000000001", "bad value for 'n_users': expected an integer, got '4.0000000000000001'"),
            # beyond a float's range; no integer of a billion digits is built
            ("n_users", "1e1000000000", "bad value for 'n_users': expected an integer, got '1e1000000000'"),
            ("t_round_s", "fast", "bad value for 't_round_s': could not convert string to float: 'fast'"),
            ("t_round_s", "-1", "t_round_s must be finite and > 0, got -1.0"),
            ("tx_power_range_w", "0.9 0.1", r"tx_power_range_w must ascend, got \(0.9, 0.1\)"),
            ("samples_per_user", "0", "samples_per_user must be finite and >= 1, got 0"),
        ],
    )
    def test_read_field_names_the_field_it_rejects(self, name, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            read_field(name, text)

    def test_every_field_round_trips_with_its_type(self, tmp_path):
        cfg = SimConfig(n_users=12, ap_ring_radii_m=(10.0, 20.0), learning_rate=0.3)
        lines = []
        for f in dataclasses.fields(SimConfig):
            value = getattr(cfg, f.name)
            if f.name == DERIVED_FIELD:  # the runner sets it; a file that does is rejected
                continue
            if value is None:
                text = "none"
            elif isinstance(value, tuple):
                text = ", ".join(repr(v) for v in value)
            else:
                text = repr(value)
            lines.append(f"{f.name} = {text}\n")
        path = tmp_path / "all.cfg"
        path.write_text("".join(lines))
        loaded = build_config(str(path))
        assert loaded == cfg
        for f in dataclasses.fields(SimConfig):
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name
