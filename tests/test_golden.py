"""Golden sha256 digests of every artifact of a fixed set of CLI runs.

Criterion 9 compares two runs of the same code; these digests pin the bytes
across refactors. Regenerate them only together with a CHANGES.md entry that
says why the output changed:

    PYTHONPATH=src python tests/test_golden.py
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
    "dataset": (["dataset", "--seed", "7"], None),
    "energy": (["energy", "--seed", "7"], None),
    "sweep": (["sweep", "--seed", "7"], None),
    "sweep-emulate": (["sweep", "--seed", "7"], "sweep.mode = emulate\nsweep.seeds = 3\n"),
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


if __name__ == "__main__":
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            digests[case] = run_case(case, Path(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}", file=sys.stderr)
