import csv

import pytest

from vlcfed.cli import main


def test_run_rf_only_writes_three_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--no-train", "--seeds", "0", "--mode", "rf_only", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "records.csv", "summary.csv"]
    with open(out / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert records and all(r["mode"] == "rf_only" for r in records)
    assert "wrote records:" in capsys.readouterr().out


def test_validate_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "invalid choice: 'validate'" in capsys.readouterr().err
