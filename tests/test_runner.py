"""Call contract of the run orchestration: one dataset per CLI call, one
run and one training per seed, and the evaluations each run's artifacts
need: a sweep seed judges its held-out patterns alone, a single run also
the training patterns before and after training (its bars). The
benchmark's trace counts these calls through the same module-level names,
so routing around them must fail here."""

import json
from collections import Counter

import pytest

from optoperceptron import runner
from optoperceptron.cli import main


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for name in ("build_dataset", "train", "evaluate_patterns", "simulate_run", "emulate_run"):
        original = getattr(runner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    return counts


@pytest.mark.parametrize("mode", ["simulate", "emulate"])
def test_sweep_builds_one_dataset_and_trains_once_per_seed(tmp_path, capsys, calls, mode):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"sweep.mode = {mode}\nsweep.seeds = 5\ntrainer.max_epochs = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == {"build_dataset": 1, "train": 5, "evaluate_patterns": 5, f"{mode}_run": 5}


@pytest.mark.parametrize("mode", ["simulate", "emulate", "energy"])
def test_single_run_builds_one_dataset(tmp_path, capsys, calls, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trainer.max_epochs = 1\n")
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    run = "simulate_run" if mode == "simulate" else "emulate_run"
    assert calls == {"build_dataset": 1, "train": 1, "evaluate_patterns": 3, run: 1}


SWEEP_COLUMNS = {
    "converged": "converged",
    "steps": "total_steps",
    "epochs": "epochs",
    "threshold_raises": "threshold_raises",
    "test_correct": "test_correct",
    "test_total": "test_total",
    "final_threshold": "final_threshold",
}


@pytest.mark.parametrize("mode", ["simulate", "emulate"])
def test_sweep_rows_equal_single_runs_at_the_same_seeds(tmp_path, capsys, mode):
    """A sweep seed skips the bars, yet its row is the single run's summary."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"sweep.mode = {mode}\nsweep.seeds = 3\n")
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [row["seed"] for row in rows] == ["7", "8", "9"]
    for row in rows:
        out = tmp_path / f"{mode}-{row['seed']}"
        assert main([mode, "--seed", row["seed"], "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {c: row[c] for c in SWEEP_COLUMNS} == {
            c: json.dumps(summary[key]) for c, key in SWEEP_COLUMNS.items()
        }
