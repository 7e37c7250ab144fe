"""Call contract of the run orchestration: one dataset per CLI call, one
training run per seed. The benchmark's trace counts these calls through the
same module-level names, so routing around them must fail here."""

from collections import Counter

import pytest

from optoperceptron import runner
from optoperceptron.cli import main


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for name in ("build_dataset", "train"):
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
    assert calls == {"build_dataset": 1, "train": 5}


@pytest.mark.parametrize("mode", ["simulate", "emulate", "energy"])
def test_single_run_builds_one_dataset(tmp_path, capsys, calls, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trainer.max_epochs = 1\n")
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == {"build_dataset": 1, "train": 1}
