"""Golden sha256 digests of every artifact of a fixed set of CLI runs.

Criterion 9 compares two runs of the same code; these digests pin the bytes
across refactors. Regenerate them only together with a CHANGES.md entry that
says why the output changed:

    PYTHONPATH=src python tests/test_golden.py

Before overwriting, it names each case/file whose digest changed on stderr.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from optoperceptron.cli import main

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

# case -> (CLI arguments, config file text or None)
CASES = {
    "simulate": (["simulate", "--seed", "7"], None),
    "emulate": (["emulate", "--seed", "7"], None),
    "emulate-verbose-frames": (["emulate", "--seed", "7", "--verbose", "--frames"], None),
    "emulate-max-epochs-3": (["emulate", "--seed", "7"], "trainer.max_epochs = 3\n"),
    # The readout and shutter fast paths branch on these; each keeps
    # trainer.max_epochs = 3 so the case stays cheap.
    "emulate-jitter-time": (
        ["emulate", "--seed", "7"],
        "trainer.max_epochs = 3\nshutter.jitter_mode = time\n",
    ),
    "emulate-jitter-off": (
        ["emulate", "--seed", "7"],
        "trainer.max_epochs = 3\nshutter.jitter_enabled = false\n",
    ),
    "emulate-read-noise-0": (
        ["emulate", "--seed", "7"],
        "trainer.max_epochs = 3\ncamera.read_noise = 0\n",
    ),
    # Saturated spots clip at 0 counts.
    "emulate-dark-offset-0": (
        ["emulate", "--seed", "7"],
        "trainer.max_epochs = 3\ncamera.dark_offset = 0\n",
    ),
    # Default simulate never raises the threshold; this one raises it 28
    # times with a fixed learning rate and stops unconverged at max_epochs.
    "simulate-raises": (
        ["simulate", "--seed", "7"],
        "trainer.initial_weight = 0.05\ntrainer.initial_threshold = 0.2\n"
        "trainer.eta_fixed = 0.3\ntrainer.max_epochs = 30\n",
    ),
    "simulate-target-z": (["simulate", "--seed", "7"], "trainer.target_class = z\n"),
    "dataset": (["dataset", "--seed", "7"], None),
    "energy": (["energy", "--seed", "7"], None),
    "sweep": (["sweep", "--seed", "7"], None),
    "sweep-eta-fixed": (
        ["sweep", "--seed", "7"], "sweep.seeds = 5\ntrainer.eta_fixed = 0.05\n"
    ),
    "sweep-emulate":(["sweep", "--seed", "7"], "sweep.mode = emulate\nsweep.seeds = 3\n"),
}


def run_case(name: str, work: Path) -> dict[str, str]:
    """sha256 of every file the case writes, keyed by its relative path."""
    argv, config_text = CASES[name]
    out = work / "out"
    argv = argv + ["--out", str(out)]
    if config_text is not None:
        config = work / "case.cfg"
        config.write_text(config_text)
        argv += ["--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


def test_energy_ledger_is_the_emulate_ledger():
    # energy writes the ledger of the emulate run at the same (config, seed)
    golden = json.loads(GOLDEN.read_text())
    assert golden["energy"]["ledger.json"] == golden["emulate"]["ledger.json"]


if __name__ == "__main__":
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            digests[case] = run_case(case, Path(work))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for case in sorted(set(old) | set(digests)):
        before, after = old.get(case, {}), digests.get(case, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                print(f"changed: {case}/{name}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}", file=sys.stderr)
