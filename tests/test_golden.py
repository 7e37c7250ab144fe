"""Golden sha256 digests of every artifact of a fixed set of CLI runs, and of
the rig's bench sequence (Rig.events) of one short run. The cases that load
no numpy are also run in fresh processes of each interpreter listed in
OPTOPERCEPTRON_PYTHONS (see PYTHONS below).

Criterion 9 compares two runs of the same code; these digests pin the bytes
across refactors. Regenerate them only together with a CHANGES.md entry that
says why the output changed:

    PYTHONPATH=src python tests/test_golden.py

Before overwriting, it names each case/file whose digest changed on stderr.
"""

import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from cli_runs import artifacts, run_cli

from optoperceptron.config import load_config
from optoperceptron.patterns import build_dataset
from optoperceptron.runner import build_rig, make_streams
from optoperceptron.trainer import LOWER_OUTPUT, RAISE_OUTPUT

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


def draws_from_numpy(name: str) -> bool:
    argv, config_text = CASES[name]
    return argv[0] in ("emulate", "energy") or "sweep.mode = emulate" in (config_text or "")


def run_case(name: str, work: Path) -> dict[str, str]:
    """sha256 of every file the case writes, keyed by its relative path."""
    argv, config_text = CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(work / "out", *argv, config=config_text) == 0
    return {path: hashlib.sha256(data).hexdigest() for path, data in artifacts(work / "out").items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


# The interpreters that run the numpy-free cases in fresh processes: the
# executables listed in OPTOPERCEPTRON_PYTHONS, colon-separated, or this
# interpreter alone when it is unset. Every Python that pyproject.toml admits
# must print each float and string of these artifacts alike. With pyenv:
#   OPTOPERCEPTRON_PYTHONS=$(pyenv root)/versions/3.10.13/bin/python:$(pyenv root)/versions/3.12.1/bin/python:$(pyenv root)/versions/3.13.0/bin/python
# pyenv's python3.12 shims do not dispatch to these, so name the executables.
PYTHONS = os.environ.get("OPTOPERCEPTRON_PYTHONS", sys.executable).split(os.pathsep)
SRC = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("python", PYTHONS)
def test_numpy_free_cases_match_golden_digests_under_each_interpreter(python, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    mismatched = []
    for name in sorted(CASES):
        if draws_from_numpy(name):
            continue
        argv, config_text = CASES[name]
        out = tmp_path / name
        args = [*argv, "--out", str(out)]
        if config_text is not None:
            (tmp_path / f"{name}.cfg").write_text(config_text)
            args += ["--config", str(tmp_path / f"{name}.cfg")]
        subprocess.run([python, "-m", "optoperceptron.cli", *args], env={**os.environ, "PYTHONPATH": str(SRC)},
                       capture_output=True, check=True)
        digests = {path: hashlib.sha256(data).hexdigest() for path, data in artifacts(out).items()}
        if digests != golden[name]:
            mismatched.append(name)
    assert mismatched == []


# The rig sequence's digest is keyed by the file it was first recorded in, one
# event per line, from the rig that appended one tuple per event as it ran.
RIG_EVENTS = ("rig-events-seed7", "rig_events_seed7.json")


def seed7_rig():
    """The rig of seed 7 at the default config after its initialization and two learning updates."""
    cfg = load_config()
    rig = build_rig(cfg, make_streams(7))
    rig.initialize_network()
    training = build_dataset(cfg.bitmaps).training
    rig.apply_update(training[0], RAISE_OUTPUT)
    rig.apply_update(training[9], LOWER_OUTPUT)
    return rig


def events_digest(events) -> str:
    """sha256 of the events in the layout of the recording: one JSON list per line."""
    text = "[\n" + ",\n".join(json.dumps(list(e)) for e in events) + "\n]\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_rig_events_match_the_golden_digest():
    rig = seed7_rig()
    events = rig.events
    shutter = [(e[1], e[3]) for e in events if e[0] == "shutter"]
    assert [(site, pulses) for site, pulses, _ in rig.ledger.write_events] == shutter
    assert rig.ledger.read_events == sum(1 for e in events if e[0] == "read")
    case, name = RIG_EVENTS
    kinds = collections.Counter(e[0] for e in events)
    assert events_digest(events) == json.loads(GOLDEN.read_text())[case][name], (
        f"{len(events)} events by kind: {dict(sorted(kinds.items()))}"
    )


def test_energy_ledger_is_the_emulate_ledger():
    # energy writes the ledger of the emulate run at the same (config, seed)
    golden = json.loads(GOLDEN.read_text())
    assert golden["energy"]["ledger.json"] == golden["emulate"]["ledger.json"]


# The first two draws of each Generator method the rig calls, from children
# 1-3 of a SeedSequence (runner.make_streams' shutter, camera and site
# streams), as float hex, recorded with numpy 2.4.6. NEP 19 keeps the bit
# streams stable but lets a release change how a method turns bits into values.
NUMPY_DRAWS = {
    (1, "standard_normal"): ("0x1.66e394e80b81bp+0", "0x1.b4f3826dea40dp-1"),
    (1, "uniform"): ("-0x1.3e24f89464020p-5", "-0x1.c30778fe67652p-1"),
    (1, "random"): ("0x1.ec1db076b9bfep-2", "0x1.e7c4380cc4d70p-5"),
    (2, "standard_normal"): ("0x1.437614d289c65p-5", "0x1.1b9c6182b42f4p+0"),
    (2, "uniform"): ("0x1.0e6d354b2c4fcp-2", "-0x1.b13fe29b776c0p-6"),
    (2, "random"): ("0x1.439b4d52cb13fp-1", "0x1.f27600eb2444ap-2"),
    (3, "standard_normal"): ("-0x1.0409002692a7cp+0", "-0x1.d2e052b1be8fbp-1"),
    (3, "uniform"): ("0x1.ede60725eb0bcp-1", "-0x1.c195f862b3eb8p-1"),
    (3, "random"): ("0x1.f6f30392f585ep-1", "0x1.f3503cea60a40p-5"),
}
DRAW_ARGS = {"standard_normal": (), "uniform": (-1.0, 1.0), "random": ()}


def test_numpy_draws_the_values_the_digests_were_recorded_with():
    children = np.random.SeedSequence(7).spawn(4)
    drawn = {
        (child, method): tuple(
            float(value).hex()
            for value in getattr(np.random.default_rng(children[child]), method)(*DRAW_ARGS[method], size=2)
        )
        for child, method in NUMPY_DRAWS
    }
    numpy_cases = [name for name in CASES if draws_from_numpy(name)]
    numpy_cases.append(RIG_EVENTS[0])
    assert drawn == NUMPY_DRAWS, (
        f"numpy {np.__version__} draws other values from these streams than numpy 2.4.6, which recorded "
        f"the golden digests; the {len(numpy_cases)} pins that draw from them will fail: {', '.join(numpy_cases)}"
    )


if __name__ == "__main__":
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            digests[case] = run_case(case, Path(work))
    case, name = RIG_EVENTS
    digests[case] = {name: events_digest(seed7_rig().events)}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for case in sorted(set(old) | set(digests)):
        before, after = old.get(case, {}), digests.get(case, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                print(f"changed: {case}/{name}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(CASES)} cases and {RIG_EVENTS[0]} to {GOLDEN}", file=sys.stderr)
