import json
from pathlib import Path

import pytest

from optoperceptron.cli import main

EXPECTED_HEADERS = {
    "dataset.csv": (
        "# schema=optoperceptron.dataset.v1",
        "pattern_id,class,variant,role,x1,x2,x3,x4,x5,x6,x7,x8,x9",
    ),
    "learning_curve.csv": (
        "# schema=optoperceptron.learning_curve.v1",
        "step,pattern_id,class,output,threshold,action,eta,pulses_total",
    ),
    "bars_post.csv": (
        "# schema=optoperceptron.bars.v1",
        "index,pattern_id,class,role,output,threshold,desired_above,correct",
    ),
    "sweep.csv": (
        "# schema=optoperceptron.sweep.v1",
        "seed,converged,steps,epochs,threshold_raises,test_correct,test_total,final_threshold",
    ),
}


def read_lines(path: Path):
    return path.read_text().splitlines()


def test_dataset_mode(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dataset", "--out", str(out)]) == 0
    lines = read_lines(out / "dataset.csv")
    assert tuple(lines[:2]) == EXPECTED_HEADERS["dataset.csv"]
    assert len(lines) == 2 + 27
    summary = json.loads(capsys.readouterr().out)
    assert summary["patterns"] == 27


def test_simulate_mode_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "7", "--out", str(out)]) == 0
    assert (out / "config.resolved.txt").exists()
    assert (out / "summary.json").exists()
    curve = read_lines(out / "learning_curve.csv")
    assert tuple(curve[:2]) == EXPECTED_HEADERS["learning_curve.csv"]
    bars = read_lines(out / "bars_post.csv")
    assert tuple(bars[:2]) == EXPECTED_HEADERS["bars_post.csv"]
    assert len(bars) == 2 + 27  # 24 training + 3 held-out
    pre = read_lines(out / "bars_pre.csv")
    assert len(pre) == 2 + 24
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    trace = json.loads((out / "trace.json").read_text())
    assert trace["summary"]["total_steps"] == summary["total_steps"]


def test_simulate_repeat_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["simulate", "--seed", "7", "--out", str(out2)]) == 0
    for name in ("summary.json", "learning_curve.csv", "bars_pre.csv", "bars_post.csv", "trace.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_emulate_mode_artifacts(tmp_path, config_file=None):
    out = tmp_path / "out"
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("trainer.max_epochs = 2\n")
    assert main(
        ["emulate", "--config", str(cfg), "--seed", "3", "--out", str(out), "--frames", "--verbose"]
    ) == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["read_events"] >= 20
    assert ledger["total_pulses"] > 0
    assert "pulses=" in (out / "ledger.txt").read_text()
    state = json.loads((out / "weight_state.json").read_text())
    assert len(state["weights"]) == 9
    snapshots = json.loads((out / "weight_snapshots.json").read_text())
    assert len(snapshots) >= 1
    site_params = json.loads((out / "site_params.json").read_text())
    assert len(site_params) == 10
    assert {p["site"] for p in site_params} == {f"w{i}" for i in range(1, 10)} | {"b"}
    assert (out / "sample_final.pgm").exists()
    assert (out / "sample_final.pgm.json").exists()


def test_energy_mode(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["energy", "--seed", "1", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert 33.0 <= summary["per_pulse_spot_small_pj"] <= 96.0
    assert 33.0 <= summary["per_pulse_spot_large_pj"] <= 96.0
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["read_energy_j"] == ledger["read_events"] * ledger["per_read_j"]
    assert "per-pulse energy" in (out / "energy.txt").read_text()


def test_sweep_mode(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--seeds", "5", "--seed", "100", "--out", str(out)]) == 0
    lines = read_lines(out / "sweep.csv")
    assert tuple(lines[:2]) == EXPECTED_HEADERS["sweep.csv"]
    assert len(lines) == 2 + 5
    assert lines[2].startswith("100,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == 5


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("trainer.eta_max = -1\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_sensor_clipping_at_dark_level_exit_code(tmp_path, capsys):
    # 8 bits: full well 255, below the default dark offset of 600
    cfg = tmp_path / "clip.cfg"
    cfg.write_text("camera.bit_depth = 8\n")
    out = tmp_path / "o"
    assert main(["emulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "full well" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 1\n")
    assert main(["dataset", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")]) == 3


def test_unconverged_run_still_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("trainer.max_epochs = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is False
