"""Call contract of the run orchestration: one dataset per CLI call, one
run and one training per seed, and the evaluations each run's artifacts
need: a sweep seed judges its held-out patterns alone, a single run also
the training patterns before and after training (its bars). The
benchmark's trace counts these calls through the same module-level names,
so routing around them must fail here."""

import json
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from cli_runs import artifacts, csv_rows, run_cli

from optoperceptron import runner, trainer
from optoperceptron.cli import MODE_RUNNERS
from optoperceptron.config import load_config
from optoperceptron.patterns import build_dataset


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
    config_text = f"sweep.mode = {mode}\nsweep.seeds = 5\ntrainer.max_epochs = 1\n"
    assert run_cli(tmp_path / "o", "sweep", config=config_text) == 0
    assert calls == {"build_dataset": 1, "train": 5, "evaluate_patterns": 5, f"{mode}_run": 5}


@pytest.mark.parametrize("mode", ["simulate", "emulate", "energy"])
def test_single_run_builds_one_dataset(tmp_path, capsys, calls, mode):
    assert run_cli(tmp_path / "o", mode, config="trainer.max_epochs = 1\n") == 0
    run = "simulate_run" if mode == "simulate" else "emulate_run"
    # energy writes no bars, so only its held-out patterns are evaluated
    evaluations = 1 if mode == "energy" else 3
    assert calls == {"build_dataset": 1, "train": 1, "evaluate_patterns": evaluations, run: 1}


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
def test_sweep_rows_equal_single_runs_at_the_same_seeds(files_of, mode):
    """A sweep seed skips the bars, yet its row is the single run's summary."""
    rows = csv_rows(files_of("sweep", "--seed", "7", config=f"sweep.mode = {mode}\nsweep.seeds = 3\n")["sweep.csv"])
    assert [row["seed"] for row in rows] == ["7", "8", "9"]
    for row in rows:
        summary = json.loads(files_of(mode, "--seed", row["seed"])["summary.json"])
        assert {c: row[c] for c in SWEEP_COLUMNS} == {
            c: json.dumps(summary[key]) for c, key in SWEEP_COLUMNS.items()
        }


def test_sweep_median_steps_is_the_midpoint_of_an_even_count(files_of):
    """Four converged seeds whose two middle step counts differ: the summary's
    median is their mean, as numpy's median of the sweep.csv column gives."""
    files = files_of("sweep", "--seed", "7", config="sweep.mode = simulate\nsweep.seeds = 4\n")
    steps = sorted(int(row["steps"]) for row in csv_rows(files["sweep.csv"]) if row["converged"] == "true")
    assert len(steps) == 4 and steps[1] != steps[2]
    summary = json.loads(files["summary.json"])
    assert summary["median_steps"] == float(np.median(steps)) == (steps[1] + steps[2]) / 2


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60))
def test_sweep_median_equals_the_statistics_median(steps):
    assert runner.median(steps) == float(statistics.median(steps))
    assert type(runner.median(steps)) is float


def test_simulate_sweep_builds_no_step_record(tmp_path, capsys, monkeypatch):
    """A sweep row reads its run summary, and a single run's artifacts read
    the step rows, so no run builds a record."""
    built = Counter()
    original = trainer.StepRecord

    def counted(*args):
        built["records"] += 1
        return original(*args)

    monkeypatch.setattr(trainer, "StepRecord", counted)
    assert run_cli(tmp_path / "s", "sweep", config="sweep.mode = simulate\nsweep.seeds = 4\n") == 0
    assert built["records"] == 0
    for mode in ("simulate", "emulate"):
        out = tmp_path / mode
        assert run_cli(out, mode, "--seed", "7") == 0
        assert (out / "trace.json").exists() and (out / "learning_curve.csv").exists()
    assert built["records"] == 0


@pytest.mark.parametrize("run", [runner.simulate_run, runner.emulate_run])
def test_trace_steps_equal_its_rows_field_for_field(run):
    cfg = load_config()
    trace = run(cfg, 7, build_dataset(cfg.bitmaps), bars=False).trace
    fields = list(trainer.StepRecord._fields)
    assert trace.total_steps == len(trace.rows) == len(trace.steps) > 0
    for record, row in zip(trace.steps, trace.rows, strict=True):
        assert len(row) == len(fields)
        assert {f: getattr(record, f) for f in fields} == dict(zip(fields, row))
    assert any(record.action != "accept" for record in trace.steps)


@pytest.mark.parametrize("mode, extra", [
    ("simulate", {}),
    ("emulate", {"run.trace_verbosity": "2", "run.dump_frames": "true"}),
    ("dataset", {}),
    ("energy", {}),
    ("sweep", {"sweep.mode": "simulate"}),
    ("sweep", {"sweep.mode": "emulate"}),
], ids=["simulate", "emulate", "dataset", "energy", "sweep-simulate", "sweep-emulate"])
def test_each_mode_replays_from_its_echo(tmp_path, mode, extra):
    """A runner seeds from the config it echoes, so rerunning from the echo
    alone rewrites every file of the first run byte for byte."""
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = load_config(overrides={"run.seed": "11", "trainer.max_epochs": "3", "sweep.seeds": "2", **extra})
    MODE_RUNNERS[mode](cfg, a)
    MODE_RUNNERS[mode](load_config(a / "config.resolved.txt"), b)
    assert artifacts(a) == artifacts(b)
    assert "run.seed = 11\n" in (a / "config.resolved.txt").read_text()
    summary = json.loads((a / "summary.json").read_text())
    if mode != "dataset":  # the dataset draws nothing, and its summary names no seed
        assert summary["base_seed" if mode == "sweep" else "seed"] == 11
