import json

import pytest

from audiomlp.ablation import main, run_grid


def test_grid_shape_and_contents():
    table = run_grid(seed=1, clips_per_class=3, probe_epochs=40)
    assert table["task"] == "synthetic-tones"
    assert table["depths"] == [4, 8, 12]
    assert table["algorithms"] == ["mean", "single", "iterative"]
    assert table["classes"] == 4
    assert len(table["results"]) == 9

    cells = {(row["algorithm"], row["depth"]) for row in table["results"]}
    assert cells == {(a, d) for a in table["algorithms"] for d in table["depths"]}
    for row in table["results"]:
        assert 0.0 <= row["accuracy"] <= 1.0


def test_grid_deterministic():
    first = run_grid(seed=3, clips_per_class=2, probe_epochs=25)
    second = run_grid(seed=3, clips_per_class=2, probe_epochs=25)
    assert json.dumps(first) == json.dumps(second)


def test_main_writes_output(tmp_path, capsys):
    out = tmp_path / "table.json"
    rc = main(
        ["--seed", "2", "--clips-per-class", "2", "--probe-epochs", "25",
         "--output", str(out)]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(out.read_text())
    assert printed == on_disk
    assert len(on_disk["results"]) == 9


def test_unwritable_output_exits_1_before_the_grid(tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid ran before the output path was checked")

    monkeypatch.setattr("audiomlp.ablation.run_grid", no_grid)
    out = tmp_path / "missing" / "table.json"
    assert main(["--output", str(out)]) == 1
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "flags",
    [["--seed", "-1"], ["--clips-per-class", "0"], ["--clips-per-class", "-2"],
     ["--probe-epochs", "0"]],
)
def test_out_of_range_flag_exits_1_before_the_grid(flags, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid ran with an out-of-range flag")

    monkeypatch.setattr("audiomlp.ablation.run_grid", no_grid)
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_failed_write_exits_1_and_leaves_no_temp_file(tmp_path, capsys, disk_full):
    out = tmp_path / "table.json"
    rc = main(
        ["--seed", "2", "--clips-per-class", "2", "--probe-epochs", "25",
         "--output", str(out)]
    )
    assert rc == 1
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
