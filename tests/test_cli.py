import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from cli_runs import csv_rows, run_cli
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optoperceptron import config
from optoperceptron.runner import atomic_write, write_artifacts
from optoperceptron.patterns import DEFAULT_BITMAPS

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


def test_dataset_mode(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(out, "dataset") == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    assert tuple(lines[:2]) == EXPECTED_HEADERS["dataset.csv"]
    assert len(lines) == 2 + 27
    summary = json.loads(capsys.readouterr().out)
    assert summary["patterns"] == 27


def test_simulate_mode_artifacts(files_of):
    files = files_of("simulate", "--seed", "7")
    assert "config.resolved.txt" in files
    for name in ("learning_curve.csv", "bars_post.csv"):
        assert tuple(files[name].decode().splitlines()[:2]) == EXPECTED_HEADERS[name]
    assert len(csv_rows(files["bars_post.csv"])) == 27  # 24 training + 3 held-out
    assert len(csv_rows(files["bars_pre.csv"])) == 24
    summary = json.loads(files["summary.json"])
    assert summary["converged"] is True
    trace = json.loads(files["trace.json"])
    assert trace["summary"]["total_steps"] == summary["total_steps"]


def test_emulate_mode_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run_cli(out, "emulate", "--seed", "3", "--frames", "--verbose", config="trainer.max_epochs = 2\n") == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["read_events"] >= 20
    assert ledger["total_pulses"] > 0
    assert "pulses=" in (out / "ledger.txt").read_text()
    state = json.loads((out / "weight_state.json").read_text())
    assert len(state["weights"]) == 9
    snapshots = json.loads((out / "weight_snapshots.json").read_text())
    steps = json.loads((out / "trace.json").read_text())["steps"]
    updates = sum(1 for s in steps if s["action"] != "accept")
    assert len(snapshots) == updates + 1  # initialization, then one per update
    assert snapshots[-1] == state
    site_params = json.loads((out / "site_params.json").read_text())
    assert len(site_params) == 10
    assert {p["site"] for p in site_params} == {f"w{i}" for i in range(1, 10)} | {"b"}
    assert (out / "sample_final.pgm").exists()
    assert (out / "sample_final.pgm.json").exists()


def test_energy_mode(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(out, "energy", "--seed", "1") == 0
    summary = json.loads(capsys.readouterr().out)
    assert 33.0 <= summary["per_pulse_spot_small_pj"] <= 96.0
    assert 33.0 <= summary["per_pulse_spot_large_pj"] <= 96.0
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["read_energy_j"] == ledger["read_events"] * ledger["per_read_j"]
    assert "per-pulse energy" in (out / "energy.txt").read_text()


def test_sweep_mode(files_of):
    files = files_of("sweep", "--seeds", "5", "--seed", "100")
    assert tuple(files["sweep.csv"].decode().splitlines()[:2]) == EXPECTED_HEADERS["sweep.csv"]
    assert [row["seed"] for row in csv_rows(files["sweep.csv"])] == ["100", "101", "102", "103", "104"]
    summary = json.loads(files["summary.json"])
    assert summary["seeds"] == 5


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header: str) -> list[list[str]]:
    """The stripped cells of each row of the README table under that header row."""
    table = README.read_text(encoding="utf-8").split(f"{header}\n")[1].split("\n\n")[0]
    return [[cell.strip() for cell in line.strip("|").split(" | ", header.count(" | "))]
            for line in table.splitlines()[1:]]


def readme_lists(modes: str, mode: str, flags: tuple, cfg: config.RunConfig) -> bool:
    """Whether a modes cell ("all", "emulate, energy", "emulate `--frames`",
    "simulate, emulate when `run.trace_verbosity` ≥ 1") covers a run of that
    mode with those flags, whose resolved config is cfg."""
    modes, _, condition = modes.partition(" when ")
    if condition:
        key, op, bound = condition.split()
        assert op == "≥", condition
        if cfg[key.strip("`")] < int(bound):
            return False
    if modes == "all":
        return True
    for entry in modes.split(", "):
        name, *needed = entry.split()
        if name == mode and {flag.strip("`") for flag in needed} <= set(flags):
            return True
    return False


@pytest.mark.parametrize(
    "mode, flags",
    [("simulate", ()), ("emulate", ()), ("emulate", ("--verbose", "--frames")),
     ("dataset", ()), ("energy", ()), ("sweep", ()),
     # a "key = value" entry is a line of the run's config file, not a flag
     ("simulate", ("run.trace_verbosity = 0",)), ("emulate", ("run.trace_verbosity = 0",))],
)
def test_each_mode_writes_the_files_the_readme_lists(tmp_path, capsys, mode, flags):
    out = tmp_path / "out"
    lines = "".join(f"{flag}\n" for flag in flags if " = " in flag)
    cli_flags = [flag for flag in flags if " = " not in flag]
    config_text = "trainer.max_epochs = 2\nsweep.seeds = 2\n" + lines
    assert run_cli(out, mode, "--seed", "7", *cli_flags, config=config_text) == 0
    cfg = config.load_config(out / "config.resolved.txt")
    listed = {
        name for files, modes, _ in readme_table("| file | modes | content |")
        if readme_lists(modes, mode, flags, cfg) for name in re.findall(r"`([^`]+)`", files)
    }
    assert sorted(path.name for path in out.iterdir()) == sorted(listed)


def test_readme_key_table_defaults_are_the_key_table_defaults():
    # each cell goes through its key's own parser: 600 stands for 600.0, none for None
    rows = readme_table("| key | default | meaning |")
    assert rows
    for key, default, _ in rows:
        spec = config.KEY_TABLE[key.strip("`")]
        assert spec.parse(default) == spec.default, key


@pytest.mark.parametrize(
    "mode, flags, config_text",
    [
        ("simulate", ("--seed", "8"), "run.seed = 8\n"),
        ("emulate", ("--frames", "--verbose"), "run.dump_frames = true\nrun.trace_verbosity = 2\n"),
        ("sweep", ("--seeds", "3"), "sweep.seeds = 3\n"),
    ],
    ids=["seed", "frames-verbose", "seeds"],
)
def test_each_flag_is_its_config_key(files_of, mode, flags, config_text):
    # a flag sets the key it names, so the two runs are one run, echo included
    base = "trainer.max_epochs = 3\n"
    flag_run, key_run = files_of(mode, *flags, config=base), files_of(mode, config=base + config_text)
    assert "config.resolved.txt" in flag_run
    assert flag_run == key_run


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--seed", "-1"], "override: run.seed: -1 is below the minimum 0"),
        (["sweep", "--seeds", "0"], "override: sweep.seeds: 0 is below the minimum 1"),
        (["sweep", "--seeds", "100001"], "override: sweep.seeds: 100001 is above the maximum 100000"),
    ],
)
def test_flag_value_out_of_its_key_bounds_exit_code(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run_cli(out, *argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_module_entry_point_exits_with_the_code_main_returns(tmp_path):
    src = str(Path(config.__file__).parents[1])
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "optoperceptron.cli", "sweep", "--seeds", "100001", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr == "configuration error: override: sweep.seeds: 100001 is above the maximum 100000\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--verbose", "--frames"])
@pytest.mark.parametrize("mode", ["simulate", "dataset", "energy", "sweep"])
def test_emulate_only_flags_rejected_by_other_modes(mode, flag, tmp_path, capsys):
    # only emulate writes PGM frames and weight snapshots
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(out, mode, flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


# Each config that a run refuses with exit 2 before it writes a file, by
# case: the mode, the config text, and the message after "configuration error: ".
REFUSALS = {
    "config-error": ("simulate", "trainer.eta_max = -1\n", "line 1: trainer.eta_max: -1.0 must be above 0.0"),
    # 8 bits: full well 255, below the default dark offset of 600
    "sensor-clipping-at-dark-level": (
        "emulate", "camera.bit_depth = 8\n",
        "camera.dark_offset 600.0 reaches the 8-bit full well 255: every read would clip",
    ),
    "unknown-key": ("dataset", "nope = 1\n", "line 1: unknown key 'nope'"),
    # a learning rate is eta_max * (1 - u) with 1 - u down to 2**-53: at
    # 5e-324 that product rounds to 0.0 on about half the draws
    "eta-max-whose-smallest-rate-underflows": (
        "simulate", "trainer.eta_max = 5e-324\ntrainer.max_epochs = 3\n",
        "trainer.eta_max 5e-324 is too small: the smallest learning rate, eta_max * 2**-53, rounds to 0",
    ),
    # the pulse energy is the write power over the rate: at 5e-324 Hz it is
    # Infinity, which summary.json and ledger.json cannot hold as JSON
    "repetition-rate-below-one-hertz": (
        "energy", "shutter.repetition_rate_hz = 5e-324\n",
        "line 1: shutter.repetition_rate_hz: 5e-324 is below the minimum 1.0",
    ),
    # A 0.01 um spot holds no pixel center of the readout window, so every
    # weight read would be background noise alone.
    "spot-covering-no-pixel": (
        "emulate", "rig.spot_diameter_um = 0.01\n",
        "a 0.01 um spot covers no pixel center of the 17x16 readout window at 1.0 um per pixel, "
        "so no read could see a weight; increase rig.spot_diameter_um",
    ),
    # 100 x 1.0476 < 110 x 0.9524, so the spread check passes, yet at seed 7
    # one site's dead zone and saturation each round to 105 pulses
    "site-whose-rounded-dead-zone-meets-its-saturation": (
        "emulate", "synapse.dead_zone_pulses = 100\nsynapse.saturation_pulses = 110\nsynapse.site_spread = 0.0476\n",
        "site index 0 rounds to dead zone 105 and saturation 105 pulses, which leaves no response span; "
        "lower synapse.site_spread 0.0476",
    ),
    # No light on a noiseless camera: the threshold site's written sum equals
    # its background sum, so the threshold reads 0.0 and no pattern could
    # ever be judged against it.
    "threshold-reading-zero": (
        "emulate", "optics.intensity_in = 1e-6\ncamera.read_noise = 0\n",
        "the threshold reads 0.0 after initialization: its background sum 163200.0 minus its written sum 163200.0",
    ),
    "file-value-run.dump_frames": (
        "simulate", "run.dump_frames = maybe\n", "line 1: run.dump_frames: expected a boolean, got 'maybe'",
    ),
    "file-value-run.trace_verbosity": (
        "simulate", "run.trace_verbosity = 3\n", "line 1: run.trace_verbosity: 3 is above the maximum 2",
    ),
    # every pixel at full well: the background sums would all read 65535 x ROI
    "degenerate-clipped": (
        "emulate", "camera.gain = 1e6\n", "background read of site w1 clipped at the 16-bit full well 65535",
    ),
    # noiseless, no dark level, almost no light: every background sums to 0
    "degenerate-dead": (
        "emulate", "camera.dark_offset = 0\ncamera.read_noise = 0\noptics.intensity_in = 1e-3\n",
        "background read of site w1: background sum must be positive, got 0",
    ),
    # no light at all: every read would be the dark level plus noise
    "degenerate-zero-exposure": (
        "emulate", "camera.exposure_ms = 0\n", "line 1: camera.exposure_ms: 0.0 must be above 0.0",
    ),
    # the 3x3 grid reaches x = 186.5 um on a 166 um wide sensor
    "degenerate-off-sensor": (
        "emulate", "rig.site_spacing_um = 100\n",
        "site w3 at (186.5, 15.5) um is outside the sensor field of view; reduce rig.site_spacing_um",
    ),
}
# every bound comparison with NaN is false, so NaN must be refused by name
REFUSALS |= {
    f"nan-{key}": ("emulate", f"{key} = nan\n", f"line 1: {key}: expected a number, got 'nan'")
    for key in (
        "camera.read_noise",  # NaN > 0 is false: a silently noiseless run
        "trainer.eta_max",
        "trainer.initial_weight",
        "trainer.initial_threshold",
        "energy.write_power_uw",  # NaN in summary.json, which is not JSON
        "synapse.site_spread",
        "camera.gain",
        "optics.intensity_in",
    )
}
# each removed key was deleted with the code it reached, so the parser rejects it
REFUSALS |= {
    f"removed-{key}": ("energy", f"{key} = {value}\n", f"line 1: unknown key {key!r}")
    for key, value in (
        ("optics.wavelength_nm", "800"), ("energy.repetition_rate_hz", "1000"), ("energy.profile", "gaussian"),
        ("energy.flattop_order", "5"), ("energy.threshold_fluence_j_cm2", "0.05"), ("optics.gamma", "0.01"),
        ("rig.write_polarization", "left"), ("rig.reread_threshold", "true"),
        ("trainer.reset_weights_on_raise", "true"), ("energy.include_initialization", "true"),
    )
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refused_config_exit_code(tmp_path, capsys, case):
    mode, config_text, message = REFUSALS[case]
    out = tmp_path / "o"
    assert run_cli(out, mode, "--seed", "7", config=config_text) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_missing_config_file_is_io_error(tmp_path):
    assert run_cli(tmp_path / "o", "simulate", "--config", str(tmp_path / "absent.cfg")) == 3


def test_output_path_that_is_a_file_is_io_error(tmp_path, capsys):
    # the config loads; the artifact writer then cannot create the directory
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli(out, "dataset") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ")
    assert out.read_text() == "not a directory\n"


def test_artifact_path_that_is_a_directory_leaves_no_temp_file(tmp_path, capsys):
    # the temp file is written, then os.replace cannot move it over a directory
    (tmp_path / "o" / "dataset.csv").mkdir(parents=True)
    with pytest.raises(OSError):
        atomic_write(tmp_path / "o" / "dataset.csv", "pattern_id\n")
    assert not (tmp_path / "o" / "dataset.csv.tmp").exists()
    assert run_cli(tmp_path / "o", "dataset") == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(path.name for path in (tmp_path / "o").iterdir()) == ["config.resolved.txt", "dataset.csv"]


def test_the_writer_writes_each_file_before_the_next_is_rendered(tmp_path):
    # run_files renders each payload only when asked for it, so no two large
    # payloads are held at once; a writer that listed files first would hold all
    names = [f"f{k}.txt" for k in range(4)]

    def files():
        for k, name in enumerate(names):
            on_disk = sorted(path.name for path in tmp_path.iterdir())
            assert on_disk == sorted(["config.resolved.txt", *names[:k]])
            yield name, f"{k}\n"

    summary = write_artifacts(tmp_path, config.load_config(), {"mode": "test"}, files())
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["config.resolved.txt", "summary.json", *names])
    assert json.loads((tmp_path / "summary.json").read_text()) == summary


def test_pieces_that_fail_halfway_leave_the_target_as_it_was(tmp_path):
    target = tmp_path / "trace.json"
    target.write_text("{}\n")

    def pieces():
        yield "{\n"
        yield '  "steps": ['
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        atomic_write(target, pieces())
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trace.json"]
    assert target.read_bytes() == b"{}\n"


def test_non_utf8_config_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\u00e9\nrun.seed = 1\n".encode("latin-1"))
    out = tmp_path / "o"
    assert run_cli(out, "dataset", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}: not UTF-8 text (")
    assert "at byte 5)" in err
    assert not out.exists()


def test_non_utf8_bitmap_file_exit_code(tmp_path, capsys):
    bitmaps = tmp_path / "glyphs.txt"
    bitmaps.write_bytes(b"\xff00\n000\n000\n")
    out = tmp_path / "o"
    assert run_cli(out, "dataset", config=f"dataset.bitmaps_file = {bitmaps}\n") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {bitmaps}: not UTF-8 text (")
    assert not out.exists()


def test_relative_bitmaps_file_replays_from_another_directory(tmp_path, capsys, monkeypatch):
    """The echo names the bitmap file the run read, so a replay from a
    directory that holds another bank of the same name reads the first."""
    banks = {"first": "\n\n".join("\n".join(rows) for rows in DEFAULT_BITMAPS.values()),
             "second": "111\n000\n111\n\n101\n101\n010\n\n010\n101\n101\n"}
    for name, text in banks.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "glyphs.txt").write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset.bitmaps_file = glyphs.txt\n")
    runs = {}
    for name, where, config_file in [("first", "first", cfg), ("second", "second", cfg),
                                     ("replay", "second", tmp_path / "first-out" / "config.resolved.txt")]:
        monkeypatch.chdir(tmp_path / where)
        out = tmp_path / f"{name}-out"
        assert run_cli(out, "dataset", "--config", str(config_file)) == 0
        runs[name] = (out / "dataset.csv").read_bytes()
    assert runs["replay"] == runs["first"] != runs["second"]


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfrun.seed = 1\n")
    out = tmp_path / "o"
    assert run_cli(out, "dataset", "--config", str(cfg)) == 0
    assert "run.seed = 1" in (out / "config.resolved.txt").read_text().splitlines()


def test_bitmap_file_with_byte_order_mark(tmp_path, capsys):
    bitmaps = tmp_path / "glyphs.txt"
    bitmaps.write_bytes(b"\xef\xbb\xbf111\n000\n111\n\n100\n100\n100\n\n001\n001\n001\n")
    out = tmp_path / "o"
    assert run_cli(out, "dataset", config=f"dataset.bitmaps_file = {bitmaps}\n") == 0
    assert (out / "dataset.csv").read_text().splitlines()[2] == "z0,z,0,train,1,1,1,0,0,0,1,1,1"


def test_non_utf8_byte_offset_counts_the_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom-latin1.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + "# caf\u00e9\n".encode("latin-1"))
    assert run_cli(tmp_path / "o", "dataset", "--config", str(cfg)) == 2
    assert "at byte 8)" in capsys.readouterr().err


def test_unconverged_run_still_exits_zero(tmp_path, capsys):
    assert run_cli(tmp_path / "out", "simulate", config="trainer.max_epochs = 1\n") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is False


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_energy_ledger_reconciles_with_the_emulate_run(files_of, seed):
    # energy's ledger bills exactly the packets and reads of the emulate run
    energy, emulate = (files_of(mode, "--seed", str(seed)) for mode in ("energy", "emulate"))
    ledger = json.loads(energy["ledger.json"])
    summary = json.loads(energy["summary.json"])
    resolved = dict(line.split(" = ") for line in energy["config.resolved.txt"].decode().splitlines()[1:])
    trace = json.loads(emulate["trace.json"])
    curve = csv_rows(emulate["learning_curve.csv"])

    updates = [s["pulses"] for s in trace["steps"] if s["pulses"]]
    assert summary["training_steps"] == len(trace["steps"])
    assert ledger["read_events"] == summary["read_events"] == 20 + sum(map(len, updates))
    n_init = 9 * int(resolved["rig.init_weight_packets"]) + int(resolved["rig.init_threshold_packets"])
    learning = int(resolved["rig.learning_packets"]) * sum(map(len, updates))
    assert len(ledger["write_events"]) == n_init + learning
    init_pulses = sum(e["pulses"] for e in ledger["write_events"][:n_init])
    training_pulses = sum(int(row["pulses_total"]) for row in curve if row["pulses_total"])
    assert ledger["total_pulses"] == summary["total_pulses"] == init_pulses + training_pulses


def test_shutter_repetition_rate_sets_pulse_energy(tmp_path, capsys):
    # one write laser: the shutter's repetition rate divides the calibrated power
    assert run_cli(tmp_path / "a", "energy") == 0
    base = json.loads(capsys.readouterr().out)
    assert run_cli(tmp_path / "b", "energy", config="shutter.repetition_rate_hz = 2000\n") == 0
    doubled = json.loads(capsys.readouterr().out)
    assert doubled["per_pulse_network_spot_pj"] == base["per_pulse_network_spot_pj"] / 2


@pytest.mark.parametrize(
    "mode, config_text, code",
    [
        ("dataset", "", 0),
        ("emulate", "", 0),
        ("energy", "", 0),
        ("sweep", "sweep.mode = emulate\nsweep.seeds = 2\n", 0),
        ("simulate", "trainer.eta_fixed = 0.01\n", 0),  # a fixed rate samples none
        ("simulate", "", 2),
        ("sweep", "sweep.seeds = 2\n", 2),
    ],
    ids=["dataset", "emulate", "energy", "emulate-sweep", "simulate-fixed-eta", "simulate", "simulate-sweep"],
)
def test_eta_max_is_judged_only_where_learning_rates_are_sampled(tmp_path, capsys, mode, config_text, code):
    # only a simulate run without trainer.eta_fixed draws rates from eta_max
    config_text += "trainer.eta_max = 5e-324\ntrainer.max_epochs = 3\n"
    assert run_cli(tmp_path / "o", mode, "--seed", "7", config=config_text) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"configuration error: {REFUSALS['eta-max-whose-smallest-rate-underflows'][2]}\n"
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""


def test_repetition_rate_floor_at_full_write_power_reports_finite_energies(tmp_path, capsys):
    out = tmp_path / "o"
    config_text = "shutter.repetition_rate_hz = 1\nenergy.write_power_uw = 1e9\n"
    assert run_cli(out, "energy", "--seed", "7", config=config_text) == 0
    capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    json.loads((out / "ledger.json").read_text(), parse_constant=refuse)
    assert summary["per_pulse_spot_large_pj"] == pytest.approx(1e15 * (40.0 / 100.0) ** 2)
    assert summary["write_energy_nj"] > 0


MODES = [("simulate", ""), ("dataset", ""), ("sweep", "simulate"), ("emulate", ""), ("energy", ""), ("sweep", "emulate")]
RIG_MODES = MODES[3:]

# One config per relation between keys, the refusal it gets, and the modes
# that read its keys: each relation is judged only by a run that reads it.
RELATIONS = {
    "saturation": (
        "synapse.dead_zone_pulses = 700\n",
        "synapse.saturation_pulses must exceed synapse.dead_zone_pulses",
        RIG_MODES,
    ),
    "shutter-window": (
        "shutter.open_time_min_ms = 30\n",
        "shutter.open_time_min_ms must be <= open_time_max_ms",
        RIG_MODES,
    ),
    "spread-knee": (
        "synapse.site_spread = 0.5\n",
        "synapse.site_spread 0.5 lets a dead zone reach the saturation knee",
        RIG_MODES,
    ),
    "pixel-area": (
        "camera.pixel_scale_um = 1e-200\n",
        "camera.pixel_scale_um 1e-200 is too small: its area rounds to 0",
        RIG_MODES,
    ),
    "roi-vs-sensor": ("rig.roi_width_um = 500\n", "the readout window exceeds the sensor size", RIG_MODES),
    "read-block": (  # a 16000 x 16000 sensor at 0.01 um per pixel holds a 1650 x 1550 px window
        "camera.pixel_scale_um = 0.01\ncamera.width_px = 16000\ncamera.height_px = 16000\n",
        "a read of 10 sites x 10 frames (rig.frames_per_read) of the 1650x1550 px window "
        "(rig.roi_*_um / camera.pixel_scale_um) needs 2455200000 B, over the 134217728 B budget",
        RIG_MODES,
    ),
    "dumped-frame": (  # only emulate renders the full frame
        "camera.width_px = 4000\ncamera.height_px = 4000\nrun.dump_frames = true\n",
        "the run.dump_frames render of the 4000x4000 px sensor (camera.width_px x camera.height_px) "
        "needs 512000000 B, over the 134217728 B budget",
        [("emulate", "")],
    ),
    "dark-offset": (
        "camera.dark_offset = 70000\n",
        "camera.dark_offset 70000.0 reaches the 16-bit full well 65535: every read would clip",
        RIG_MODES,
    ),
    "reference-spots": (  # only energy prices the two reference spots
        "energy.spot_small_um = 50\n",
        "energy.spot_small_um must be <= energy.spot_large_um",
        [("energy", "")],
    ),
    "reference-spot-vs-waist": (
        "energy.spot_large_um = 150\n",
        "energy.spot_large_um 150.0 exceeds energy.waist_um 100.0",
        [("energy", "")],
    ),
    "spot-vs-waist": (
        "rig.spot_diameter_um = 200\n",
        "rig.spot_diameter_um 200.0 exceeds energy.waist_um 100.0",
        RIG_MODES,
    ),
}


def relation_cases(modes, reads: bool):
    """(mode, sweep mode, relation) of each of the given modes that reads, or
    does not read, each relation's keys."""
    return [
        (mode, sweep_mode, relation)
        for relation, (_, _, readers) in sorted(RELATIONS.items())
        for mode, sweep_mode in modes
        if ((mode, sweep_mode) in readers) == reads
    ]


def sweep_text(sweep_mode):
    return f"sweep.mode = {sweep_mode}\nsweep.seeds = 2\n" if sweep_mode else ""


@pytest.mark.parametrize("mode, sweep_mode, relation", relation_cases(MODES[:3], reads=False))
def test_rig_only_relation_leaves_a_mode_without_a_rig_running(tmp_path, capsys, mode, sweep_mode, relation):
    # none of these modes reads a rig key, so none is refused for one
    config_text = RELATIONS[relation][0] + sweep_text(sweep_mode)
    assert run_cli(tmp_path / "o", mode, "--seed", "7", config=config_text) == 0
    assert (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("mode, sweep_mode, relation", relation_cases(RIG_MODES, reads=False))
def test_unread_relation_changes_no_artifact(files_of, mode, sweep_mode, relation):
    # the mode builds a rig but reads none of the relation's keys: the run is
    # the same run as without them, but for the config echo
    argv = (mode, "--seed", "7", *(("--verbose", "--frames") if mode == "emulate" else ()))
    config_text = "trainer.max_epochs = 3\n" + sweep_text(sweep_mode)
    with_key = files_of(*argv, config=config_text + RELATIONS[relation][0])
    without_key = files_of(*argv, config=config_text)
    assert with_key.pop("config.resolved.txt") != without_key.pop("config.resolved.txt")
    assert with_key == without_key


@pytest.mark.parametrize("mode, sweep_mode, relation", relation_cases(MODES, reads=True))
def test_rig_only_relation_refuses_a_mode_that_builds_a_rig(tmp_path, capsys, mode, sweep_mode, relation):
    # the check runs where the relation's keys are read, before any draw or output
    config_text, message, _ = RELATIONS[relation]
    assert run_cli(tmp_path / "o", mode, "--seed", "7", config=config_text + sweep_text(sweep_mode)) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


OVERLAPPING_BITMAPS = [
    # z's held-out variant flips its second input: 100 -> 110, which is v's ideal
    (
        "100\n000\n000\n\n110\n000\n000\n\n010\n101\n101\n",
        "held-out pattern z1 equals training pattern v0",
    ),
    # z and v share one glyph: every training input vector carries both labels
    (
        "110\n010\n011\n\n110\n010\n011\n\n010\n101\n101\n",
        "training pattern v0 equals training pattern z0",
    ),
]


@pytest.mark.parametrize("bitmap_text, message", OVERLAPPING_BITMAPS, ids=["z1-equals-v0", "v0-equals-z0"])
@pytest.mark.parametrize("mode", ["dataset", "simulate", "sweep"])
def test_held_out_variant_repeating_a_training_pattern_exit_code(tmp_path, capsys, mode, bitmap_text, message):
    bitmaps = tmp_path / "overlap.txt"
    bitmaps.write_text(bitmap_text)
    out = tmp_path / "o"
    assert run_cli(out, mode, config=f"dataset.bitmaps_file = {bitmaps}\n") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert not out.exists()


# -- exit-code fuzz -------------------------------------------------------------

# Sub-ranges of the parser bounds, which keep each fuzzed run short: one
# epoch, at most two sweep seeds, few packets, and a small sensor (which
# bounds the readout window) read over few frames.
FUZZ_SUB_RANGES = {
    "trainer.max_epochs": (1, 1),
    "sweep.seeds": (1, 2),
    "rig.init_weight_packets": (0, 200),
    "rig.init_threshold_packets": (0, 1000),
    "rig.learning_packets": (1, 20),
    "camera.width_px": (1, 256),
    "camera.height_px": (1, 256),
    "rig.frames_per_read": (1, 20),
}


def values_within_the_parser_bounds(key, parse):
    """Config values of one key drawn from its own parser's bounds, read
    from the closure that config's _number/_choice/_optional build."""
    cells = parse.__closure__ or ()
    bound = dict(zip(parse.__code__.co_freevars, (c.cell_contents for c in cells)))
    if parse is config._bool:
        return st.sampled_from(["true", "false"])
    if "options" in bound:
        return st.sampled_from(bound["options"])
    if "inner" in bound:
        return st.just("none") | values_within_the_parser_bounds(key, bound["inner"])
    if bound.get("kind") is float:
        return st.floats(bound["lo"], bound["hi"], exclude_min=bound["lo_open"]).map(repr)
    if bound.get("kind") is int:
        hi = 2**64 if bound["hi"] is None else bound["hi"]
        lo_sub, hi_sub = FUZZ_SUB_RANGES.get(key, (bound["lo"], hi))
        assert bound["lo"] <= lo_sub <= hi_sub <= hi
        return st.integers(lo_sub, hi_sub).map(str)
    return st.just(config.KEY_TABLE[key].default)  # dataset.bitmaps_file: the builtin bank


fuzzed_configs = st.lists(
    st.sampled_from(sorted(config.KEY_TABLE)).flatmap(
        lambda key: st.tuples(st.just(key), values_within_the_parser_bounds(key, config.KEY_TABLE[key].parse))
    ),
    max_size=8,
    unique_by=lambda entry: entry[0],
).map(lambda entries: dict([("trainer.max_epochs", "1"), ("sweep.seeds", "2"), *entries]))


# Every length at its smallest float: the 1-px window holds the spot and the
# sites fit the sensor, but the pixel area rounds to 0 and a render divided
# by it (ZeroDivisionError, exit 1) before the config refused it.
UNDERFLOWING_PIXEL = {
    key: "5e-324"
    for key in ("camera.pixel_scale_um", "rig.roi_width_um", "rig.roi_height_um",
                "rig.spot_diameter_um", "rig.site_spacing_um")
}


@pytest.mark.parametrize("mode", ["simulate", "emulate", "dataset", "energy", "sweep"])
@settings(max_examples=25, deadline=None)
@given(values=fuzzed_configs)
@example(values={"trainer.max_epochs": "1", **UNDERFLOWING_PIXEL})
@example(values={"trainer.max_epochs": "1", "trainer.eta_max": "5e-324"})
def test_any_config_within_the_key_bounds_exits_zero_or_two(mode, values):
    # the config and the runs' own refusals are the one boundary: whatever
    # the parsers admit either runs or exits 2, never another exception. A
    # mode without a rig reads only trainer.* and dataset.* (and sweep.*), and
    # dataset only dataset.*, so with those at their defaults (and the one
    # fuzzed epoch) it always runs.
    with tempfile.TemporaryDirectory() as work:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(Path(work) / "o", mode, config=values)
    assert code in (0, 2), err.getvalue()
    without_rig = mode in ("simulate", "dataset") or (mode == "sweep" and values.get("sweep.mode") != "emulate")
    drawn_sections = {key.split(".")[0] for key in values if key != "trainer.max_epochs"}
    read_sections = {"dataset"} if mode == "dataset" else {"trainer", "dataset"}
    if without_rig and not drawn_sections & read_sections:
        assert code == 0, err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("configuration error: ")
    else:
        json.loads(out.getvalue())
