import csv
import dataclasses
import math
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vlcfed import (
    ConfigError,
    SimConfig,
    build_config,
    generate_topology,
    load_bundled_dataset,
    load_config_file,
    make_synthetic,
    usba,
)
from vlcfed.config import _SCALAR_RULES, _TUPLE_RULES, _Interval
from vlcfed.runner import (
    ExperimentError,
    emit_report,
    run_experiment,
    sweep_bandwidth,
    sweep_users,
)


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

    def test_errors_carry_seed_context(self, small_setup):
        cfg, data = small_setup
        bad = SimConfig(n_users=200, global_rounds=5)  # more users than rows
        with pytest.raises(ExperimentError, match="seed 7"):
            run_experiment(bad, [7], data, train=False)

    def test_requires_seeds(self, small_setup):
        cfg, data = small_setup
        with pytest.raises(ValueError):
            run_experiment(cfg, [], data)

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
        with pytest.raises(ExperimentError, match=r"need at least test_size \+ n_users = 517 rows"):
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


class TestSweeps:
    def test_sweep_users_covers_grid(self, small_setup):
        cfg, data = small_setup
        report = sweep_users(cfg, [0], data, [4, 8], train=False)
        assert sorted({r.n_users for r in report.records}) == [4, 8]
        assert len(report.records) == 4

    def test_sweep_bandwidth_covers_grid(self, small_setup):
        cfg, data = small_setup
        pairs = [(10e6, 20e6), (20e6, 40e6)]
        report = sweep_bandwidth(cfg, [0], data, pairs, train=False)
        got = sorted({(r.rf_total_bandwidth_hz, r.vlc_total_bandwidth_hz) for r in report.records})
        assert got == sorted(pairs)


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
        ]
        + [(field, bad) for field in KINDS for bad in (math.nan, math.inf, -math.inf, True, "1")],
    )
    def test_interval_edges_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} "):
            SimConfig(**{field: value})

    def test_every_field_has_exactly_one_rule(self):
        scalars = [name for name, interval, _ in _SCALAR_RULES if isinstance(interval, _Interval)]
        tuples = [name for name, check in _TUPLE_RULES if callable(check) and not isinstance(check, _Interval)]
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

    def test_non_finite_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("backhaul_delay_s = nan\n")
        with pytest.raises(ConfigError, match="backhaul_delay_s must be finite"):
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
        overrides = load_config_file(str(path))
        assert overrides["n_users"] == 12
        assert overrides["cycles_per_sample_range"] == (1e4, 2e4)
        assert overrides["initial_bandwidth"] is None
        cfg = build_config(str(path))
        assert (cfg.n_users, cfg.t_round_s) == (12, 1.5)  # the file overrides defaults
        assert cfg.cycles_per_sample_range == (1e4, 2e4)
        assert cfg.local_epochs == SimConfig().local_epochs  # defaults fill the rest

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequencyy = 3\n")
        with pytest.raises(ConfigError, match="frequencyy"):
            load_config_file(str(path))

    def test_non_integral_int_rejected_with_line(self, tmp_path):
        for bad in ("2.7", "inf", "nan"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"n_users = 12\nglobal_rounds = {bad}\n")
            with pytest.raises(ConfigError, match=r"bad.cfg:2: bad value for 'global_rounds'"):
                load_config_file(str(path))

    def test_integral_float_notation_accepted_for_int(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("global_rounds = 1e1\nlocal_epochs = 3.0\n")
        overrides = load_config_file(str(path))
        assert overrides == {"global_rounds": 10, "local_epochs": 3}
        assert all(type(v) is int for v in overrides.values())

    @pytest.mark.parametrize("value", ["1", "1, 2, 3"])
    @pytest.mark.parametrize("field", ["cycles_per_sample_range", "cpu_freq_range_hz", "tx_power_range_w"])
    def test_range_needs_exactly_two_values(self, tmp_path, field, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{field} = {value}\n")
        with pytest.raises(ConfigError, match=f"{field} must hold exactly two values"):
            build_config(str(path))

    def test_every_field_round_trips_with_its_type(self, tmp_path):
        cfg = SimConfig(n_users=12, ap_ring_radii_m=(10.0, 20.0), learning_rate=0.3)
        lines = []
        for f in dataclasses.fields(SimConfig):
            value = getattr(cfg, f.name)
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
