import csv

import pytest

from vlcfed.cli import main


def read_records(out):
    with open(out / "records.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_rf_only_writes_three_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--no-train", "--seeds", "0", "--mode", "rf_only", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "records.csv", "summary.csv"]
    records = read_records(out)
    assert records and all(r["mode"] == "rf_only" for r in records)
    assert "wrote records:" in capsys.readouterr().out


def test_vary_covers_the_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--no-train", "--seeds", "0,1", "--vary", "n_users=8,12", "--out", str(out)]) == 0
    grid = [(r["n_users"], r["seed"], r["mode"]) for r in read_records(out)]
    assert grid == [(n, s, m) for n in ("8", "12") for s in ("0", "1") for m in ("hybrid", "rf_only")]


def test_vary_moves_a_joint_axis_together(tmp_path):
    out = tmp_path / "out"
    axis = "rf_total_bandwidth_hz:vlc_total_bandwidth_hz=10e6:20e6,20e6:40e6"
    assert main(["run", "--no-train", "--seeds", "0", "--vary", axis, "--out", str(out)]) == 0
    grid = [(r["rf_total_bandwidth_hz"], r["vlc_total_bandwidth_hz"], r["mode"]) for r in read_records(out)]
    pairs = [("10000000", "20000000"), ("20000000", "40000000")]
    assert grid == [(*pair, m) for pair in pairs for m in ("hybrid", "rf_only")]


def test_vary_takes_the_product_of_its_axes(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--no-train", "--seeds", "0", "--mode", "rf_only", "--out", str(out)]
    assert main([*argv, "--vary", "t_round_s=1.25,2.5", "--vary", "n_users=8,12"]) == 0
    records = read_records(out)
    assert list(records[0])[3:6] == ["rf_total_bandwidth_hz", "vlc_total_bandwidth_hz", "t_round_s"]
    assert [(r["t_round_s"], r["n_users"]) for r in records] == [(t, n) for t in ("1.25", "2.5") for n in ("8", "12")]


def test_config_file_reaches_records_and_manifest(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text("# eight users\nn_users = 8\n")
    out = tmp_path / "out"
    assert main(["run", "--no-train", "--seeds", "0", "--config", str(config), "--out", str(out)]) == 0
    assert [r["n_users"] for r in read_records(out)] == ["8", "8"]
    assert "n_users = 8" in (out / "manifest.txt").read_text().splitlines()


@pytest.mark.parametrize("command", ["validate", "sweep-users", "sweep-bandwidth"])
def test_removed_subcommands_are_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option, problem",
    [
        (["run", "--seeds", "0,x"], "--seeds", "'x' is not a non-negative integer in '0,x'"),
        (["run", "--seeds", "0,-1"], "--seeds", "'-1' is not a non-negative integer in '0,-1'"),
        (["run", "--seeds", ","], "--seeds", "empty item in ','"),
        (["run", "--vary", "n_user=20"], "--vary", "bad item '20': unknown config key 'n_user' in 'n_user=20'"),
        (["run", "--vary", "n_users"], "--vary", "expected FIELD=v1,v2 or F1:F2=a1:b1,a2:b2, got 'n_users'"),
        (["run", "--vary", "n_users=20,,30"], "--vary", "empty item in 'n_users=20,,30'"),
        (["run", "--vary", "n_users="], "--vary", "empty item in 'n_users='"),
        (
            ["run", "--vary", "rf_total_bandwidth_hz:vlc_total_bandwidth_hz=10e6:20e6,10e6"],
            "--vary",
            "'10e6' does not give one value per field in 'rf_total_bandwidth_hz:vlc_total_bandwidth_hz=10e6:20e6,10e6'",
        ),
        (["run", "--vary", "n_users=20:30"], "--vary", "'20:30' does not give one value per field in 'n_users=20:30'"),
        (
            ["run", "--vary", "n_users=20,3.5"],
            "--vary",
            "bad item '3.5': bad value for 'n_users': expected an integer, got '3.5' in 'n_users=20,3.5'",
        ),
        (
            ["run", "--vary", "n_users=0"],
            "--vary",
            "bad item '0': n_users must be finite and >= 1, got 0 in 'n_users=0'",
        ),
        (
            ["run", "--vary", "tx_power_range_w=0.1 0.9,0.5"],
            "--vary",
            "bad item '0.5': tx_power_range_w must hold 2 values, got (0.5,) in 'tx_power_range_w=0.1 0.9,0.5'",
        ),
    ],
)
def test_bad_list_item_is_a_usage_error(argv, option, problem, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-train", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {option}: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GOOD_ROW = ",".join(["1.0"] * 14)


@pytest.mark.parametrize(
    "argv, files, problem",
    [
        (["run", "--dataset", "{tmp}/missing.csv"], {}, "No such file or directory: '{tmp}/missing.csv'"),
        (["run", "--config", "{tmp}/missing.cfg"], {}, "No such file or directory: '{tmp}/missing.cfg'"),
        (["run", "--config", "{tmp}/zero.cfg"], {"zero.cfg": "n_users = 0\n"}, "n_users must be finite and >= 1, got 0"),
        (
            ["run", "--config", "{tmp}/derived.cfg"],
            {"derived.cfg": "n_users = 20\nsamples_per_user = 30\n"},
            "{tmp}/derived.cfg:2: samples_per_user is set by the runner, not by a config file",
        ),
        (["run", "--dataset", "{tmp}/short.csv"], {"short.csv": "1.0,2.0\n"}, "{tmp}/short.csv: line 1: expected 14 columns"),
        (
            ["run", "--dataset", "{tmp}/word.csv"],
            {"word.csv": GOOD_ROW + "\n" + GOOD_ROW.replace("1.0", "oops", 1) + "\n"},
            "{tmp}/word.csv: line 2: column 1: not a number: 'oops'",
        ),
        (["run", "--config", "{tmp}/late.cfg"], {"late.cfg": "t_round_s = 1.5\nn_users = 0\n"}, "{tmp}/late.cfg:2: n_users"),
        (
            ["run", "--dataset", "{tmp}/utf16.csv"],
            {"utf16.csv": b"\xff\xfe" + GOOD_ROW.encode("utf-16-le")},
            "{tmp}/utf16.csv: line 1: byte 0: not UTF-8",
        ),
        (
            ["run", "--config", "{tmp}/bad.cfg"],
            {"bad.cfg": b"\xff\xfe" + "n_users = 12\n".encode("utf-16-le")},
            "{tmp}/bad.cfg: line 1: byte 0: not UTF-8",
        ),
        (
            ["run", "--vary", "n_users=20,600"],
            {},
            "n_users=600: need at least test_size + n_users = 17 + 600 = 617 rows, dataset has 506",
        ),
        (
            ["run", "--config", "{tmp}/many.cfg"],
            {"many.cfg": "n_users = 600\n"},
            "need at least test_size + n_users = 17 + 600 = 617 rows, dataset has 506",
        ),
        (["run", "--vary", "n_users:n_users=8:8"], {}, "field 'n_users' is varied twice"),
        (["run", "--vary", "n_users=8", "--vary", "t_round_s:n_users=1:12"], {}, "field 'n_users' is varied twice"),
        (
            ["run", "--vary", "samples_per_user=30"],
            {},
            "samples_per_user is set from the dataset's shard size, so it cannot be varied",
        ),
        (
            ["run", "--config", "{tmp}/dup.cfg"],
            {"dup.cfg": "n_users = 20\nn_users = 30\n"},
            "{tmp}/dup.cfg:2: n_users is set twice",
        ),
        # The runner rejects a repeated seed or value, as the library does.
        (["run", "--seeds", "0,1,0"], {}, "seed 0 is repeated"),
        (["run", "--vary", "n_users=20,2e1"], {}, "n_users=20: repeated in its axis"),
        (
            ["run", "--vary", "rf_total_bandwidth_hz:vlc_total_bandwidth_hz=10e6:20e6,1e7:2e7"],
            {},
            "rf_total_bandwidth_hz=10000000, vlc_total_bandwidth_hz=20000000: repeated in its axis",
        ),
    ],
    ids=[
        "missing-dataset", "missing-config", "config-value", "config-derived-field", "dataset-schema", "dataset-cell",
        "config-value-line", "dataset-not-utf8", "config-not-utf8", "grid-point-too-many-users",
        "config-too-many-users", "grid-field-twice-in-an-axis", "grid-field-twice-across-axes", "grid-derived-field",
        "config-key-twice", "seed-repeated", "grid-value-repeated", "grid-joint-value-repeated",
    ],
)
def test_bad_input_is_a_located_usage_error(argv, files, problem, tmp_path, capsys):
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    # The case's own options come last, so its --seeds overrides the default 0.
    assert_usage_error([argv[0], "--no-train", "--seeds", "0", *argv[1:]], problem.format(tmp=tmp_path), tmp_path, capsys)


def assert_usage_error(argv, problem, tmp_path, capsys):
    """``main(argv)`` exits 2 with one ``vlcfed: error:`` line naming
    ``problem``, without a traceback and without writing its output."""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--out", str(tmp_path / "out"), *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum(line.startswith("vlcfed: error: ") for line in err.splitlines()) == 1
    last = err.splitlines()[-1]
    assert last.startswith("vlcfed: error: ") and problem in last
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, files, problem",
    [
        (["--vary", "test_size=1"], {}, "test_size=1: training needs test_size >= 2 to score R^2, got 1"),
        (["--vary", "test_size=0"], {}, "test_size=0: training needs test_size >= 2 to score R^2, got 0"),
        (["--config", "{tmp}/tiny.cfg"], {"tiny.cfg": "test_size = 1\n"}, "training needs test_size >= 2 to score R^2, got 1"),
    ],
    ids=["grid-point", "grid-point-empty", "config"],
)
def test_a_test_split_too_small_to_train_on_is_a_usage_error(argv, files, problem, tmp_path, capsys):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    assert_usage_error(["run", "--seeds", "0", *(arg.format(tmp=tmp_path) for arg in argv)], problem, tmp_path, capsys)


def test_selection_alone_runs_any_test_size(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--no-train", "--seeds", "0", "--vary", "test_size=0,1", "--out", str(out)]) == 0
    assert [r["test_size"] for r in read_records(out)] == ["0", "0", "1", "1"]


def test_other_failures_keep_their_traceback(tmp_path, monkeypatch):
    # Only bad input becomes a usage error; a fault in the program still raises.
    def broken(*args):
        raise ValueError("not an input problem")

    monkeypatch.setattr("vlcfed.cli.run_experiment", broken)
    with pytest.raises(ValueError, match="not an input problem"):
        main(["run", "--no-train", "--seeds", "0", "--out", str(tmp_path / "out")])
