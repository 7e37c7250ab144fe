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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optoperceptron import config
from optoperceptron.cli import main
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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_artifact_rows():
    """(file names, modes cell) of each row of README's artifact table."""
    table = README.read_text(encoding="utf-8").split("| file | modes | content |\n")[1].split("\n\n")[0]
    for line in table.splitlines()[1:]:
        files, modes, _ = line.strip("|").split(" | ", 2)
        yield re.findall(r"`([^`]+)`", files), modes.strip()


def readme_lists(modes: str, mode: str, flags: tuple) -> bool:
    """Whether a modes cell ("all", "emulate, energy", "emulate `--frames`") covers a run."""
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
     ("dataset", ()), ("energy", ()), ("sweep", ())],
)
def test_each_mode_writes_the_files_the_readme_lists(tmp_path, capsys, mode, flags):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("trainer.max_epochs = 2\nsweep.seeds = 2\n")
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--seed", "7", "--out", str(out), *flags]) == 0
    rows = readme_artifact_rows()
    listed = {name for names, modes in rows if readme_lists(modes, mode, flags) for name in names}
    assert sorted(path.name for path in out.iterdir()) == sorted(listed)


@pytest.mark.parametrize(
    "mode, flags, config_text",
    [
        ("simulate", ("--seed", "8"), "run.seed = 8\n"),
        ("emulate", ("--frames", "--verbose"), "run.dump_frames = true\nrun.trace_verbosity = 2\n"),
        ("sweep", ("--seeds", "3"), "sweep.seeds = 3\n"),
    ],
    ids=["seed", "frames-verbose", "seeds"],
)
def test_each_flag_is_its_config_key(tmp_path, capsys, mode, flags, config_text):
    # a flag sets the key it names, so the two runs are one run, echo included
    base = "trainer.max_epochs = 3\n"
    runs = {"flag": (base, flags), "key": (base + config_text, ())}
    for out, (text, argv) in runs.items():
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(text)
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / out), *argv]) == 0
    flag_run, key_run = artifact_bytes(tmp_path / "flag"), artifact_bytes(tmp_path / "key")
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
    assert main([*argv, "--out", str(out)]) == 2
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


@pytest.mark.parametrize("mode", ["simulate", "dataset", "energy", "sweep"])
def test_emulate_only_flags_rejected_by_other_modes(mode, tmp_path, capsys):
    # only emulate writes PGM frames and weight snapshots
    out = tmp_path / "out"
    for flag in ("--verbose", "--frames"):
        with pytest.raises(SystemExit) as exc:
            main([mode, flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


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


def test_output_path_that_is_a_file_is_io_error(tmp_path, capsys):
    # the config loads; the artifact writer then cannot create the directory
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["dataset", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "key",
    [
        "camera.read_noise",  # NaN > 0 is false: a silently noiseless run
        "trainer.eta_max",
        "trainer.initial_weight",
        "trainer.initial_threshold",
        "energy.write_power_uw",  # NaN in summary.json, which is not JSON
        "synapse.site_spread",
        "camera.gain",
        "optics.intensity_in",
    ],
)
def test_nan_float_value_exit_code(tmp_path, capsys, key):
    # every bound comparison with NaN is false, so NaN must be refused by name
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"{key} = nan\n")
    out = tmp_path / "o"
    assert main(["emulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line 1: {key}: expected a number, got 'nan'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("run.dump_frames = maybe", "line 1: run.dump_frames: expected a boolean, got 'maybe'"),
        ("run.trace_verbosity = 3", "line 1: run.trace_verbosity: 3 is above the maximum 2"),
    ],
)
def test_config_file_value_its_key_parser_refuses_exit_code(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_non_utf8_config_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\u00e9\nrun.seed = 1\n".encode("latin-1"))
    out = tmp_path / "o"
    assert main(["dataset", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}: not UTF-8 text (")
    assert "at byte 5)" in err
    assert not out.exists()


def test_non_utf8_bitmap_file_exit_code(tmp_path, capsys):
    bitmaps = tmp_path / "glyphs.txt"
    bitmaps.write_bytes(b"\xff00\n000\n000\n")
    cfg = tmp_path / "glyphs.cfg"
    cfg.write_text(f"dataset.bitmaps_file = {bitmaps}\n")
    out = tmp_path / "o"
    assert main(["dataset", "--config", str(cfg), "--out", str(out)]) == 2
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
        assert main(["dataset", "--config", str(config_file), "--out", str(out)]) == 0
        runs[name] = (out / "dataset.csv").read_bytes()
    assert runs["replay"] == runs["first"] != runs["second"]


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfrun.seed = 1\n")
    out = tmp_path / "o"
    assert main(["dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert "run.seed = 1" in read_lines(out / "config.resolved.txt")


def test_bitmap_file_with_byte_order_mark(tmp_path, capsys):
    bitmaps = tmp_path / "glyphs.txt"
    bitmaps.write_bytes(b"\xef\xbb\xbf111\n000\n111\n\n100\n100\n100\n\n001\n001\n001\n")
    cfg = tmp_path / "glyphs.cfg"
    cfg.write_text(f"dataset.bitmaps_file = {bitmaps}\n")
    out = tmp_path / "o"
    assert main(["dataset", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_lines(out / "dataset.csv")[2:]
    assert rows[0] == "z0,z,0,train,1,1,1,0,0,0,1,1,1"


def test_non_utf8_byte_offset_counts_the_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom-latin1.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + "# caf\u00e9\n".encode("latin-1"))
    assert main(["dataset", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "at byte 8)" in capsys.readouterr().err


def test_unconverged_run_still_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("trainer.max_epochs = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is False


@pytest.mark.parametrize(
    "line",
    [
        "optics.wavelength_nm = 800",
        "energy.repetition_rate_hz = 1000",
        "energy.profile = gaussian",
        "energy.flattop_order = 5",
        "energy.threshold_fluence_j_cm2 = 0.05",
        "optics.gamma = 0.01",
        "rig.write_polarization = left",
        "rig.reread_threshold = true",
        "trainer.reset_weights_on_raise = true",
        "energy.include_initialization = true",
    ],
    ids=lambda line: line.split(" =")[0],
)
def test_removed_keys_are_unknown(tmp_path, capsys, line):
    # each was deleted with the code it reached, so the parser rejects it
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert main(["energy", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_energy_ledger_reconciles_with_the_emulate_run(tmp_path, capsys, seed):
    # energy's ledger bills exactly the packets and reads of the emulate run
    assert main(["energy", "--seed", str(seed), "--out", str(tmp_path / "energy")]) == 0
    assert main(["emulate", "--seed", str(seed), "--out", str(tmp_path / "emulate")]) == 0
    ledger = json.loads((tmp_path / "energy" / "ledger.json").read_text())
    summary = json.loads((tmp_path / "energy" / "summary.json").read_text())
    resolved = dict(
        line.split(" = ")
        for line in read_lines(tmp_path / "energy" / "config.resolved.txt")[1:]
    )
    trace = json.loads((tmp_path / "emulate" / "trace.json").read_text())
    curve = read_lines(tmp_path / "emulate" / "learning_curve.csv")[2:]

    updates = [s["pulses"] for s in trace["steps"] if s["pulses"]]
    assert summary["training_steps"] == len(trace["steps"])
    assert ledger["read_events"] == summary["read_events"] == 20 + sum(map(len, updates))
    n_init = 9 * int(resolved["rig.init_weight_packets"]) + int(resolved["rig.init_threshold_packets"])
    learning = int(resolved["rig.learning_packets"]) * sum(map(len, updates))
    assert len(ledger["write_events"]) == n_init + learning
    init_pulses = sum(e["pulses"] for e in ledger["write_events"][:n_init])
    training_pulses = sum(int(row.split(",")[-1]) for row in curve if row.split(",")[-1])
    assert ledger["total_pulses"] == summary["total_pulses"] == init_pulses + training_pulses


def test_shutter_repetition_rate_sets_pulse_energy(tmp_path, capsys):
    # one write laser: the shutter's repetition rate divides the calibrated power
    assert main(["energy", "--out", str(tmp_path / "a")]) == 0
    base = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("shutter.repetition_rate_hz = 2000\n")
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    doubled = json.loads(capsys.readouterr().out)
    assert doubled["per_pulse_network_spot_pj"] == base["per_pulse_network_spot_pj"] / 2


def test_eta_max_whose_smallest_rate_underflows_exit_code(tmp_path, capsys):
    # a learning rate is eta_max * (1 - u) with 1 - u down to 2**-53: at
    # 5e-324 that product rounds to 0.0 on about half the draws
    cfg = tmp_path / "eta.cfg"
    cfg.write_text("trainer.eta_max = 5e-324\ntrainer.max_epochs = 3\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    assert "trainer.eta_max 5e-324 is too small" in capsys.readouterr().err
    assert not out.exists()


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
    assert run_cli(tmp_path, mode, config_text) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            "configuration error: trainer.eta_max 5e-324 is too small: "
            "the smallest learning rate, eta_max * 2**-53, rounds to 0\n"
        )
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""


def test_repetition_rate_below_one_hertz_exit_code(tmp_path, capsys):
    # the pulse energy is the write power over the rate: at 5e-324 Hz it is
    # Infinity, which summary.json and ledger.json cannot hold as JSON
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("shutter.repetition_rate_hz = 5e-324\n")
    out = tmp_path / "o"
    assert main(["energy", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "shutter.repetition_rate_hz: 5e-324 is below the minimum 1.0" in err
    assert not out.exists()


def test_repetition_rate_floor_at_full_write_power_reports_finite_energies(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("shutter.repetition_rate_hz = 1\nenergy.write_power_uw = 1e9\n")
    out = tmp_path / "o"
    assert main(["energy", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    json.loads((out / "ledger.json").read_text(), parse_constant=refuse)
    assert summary["per_pulse_spot_large_pj"] == pytest.approx(1e15 * (40.0 / 100.0) ** 2)
    assert summary["write_energy_nj"] > 0


@pytest.mark.parametrize(
    "config_text, message",
    [
        # every pixel at full well: the background sums would all read 65535 x ROI
        ("camera.gain = 1e6\n", "clipped at the 16-bit full well"),
        # noiseless, no dark level, almost no light: every background sums to 0
        (
            "camera.dark_offset = 0\ncamera.read_noise = 0\noptics.intensity_in = 1e-3\n",
            "background sum must be positive",
        ),
        # no light at all: every read would be the dark level plus noise
        ("camera.exposure_ms = 0\n", "camera.exposure_ms"),
        # the 3x3 grid reaches x = 186.5 um on a 166 um wide sensor
        ("rig.site_spacing_um = 100\n", "outside the sensor"),
    ],
    ids=["clipped", "dead", "zero-exposure", "off-sensor"],
)
def test_degenerate_background_exit_code(tmp_path, capsys, config_text, message):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "o"
    assert main(["emulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_spot_covering_no_pixel_exit_code(tmp_path, capsys):
    # A 0.01 um spot holds no pixel center of the readout window, so every
    # weight read would be background noise alone.
    cfg = tmp_path / "tiny_spot.cfg"
    cfg.write_text("rig.spot_diameter_um = 0.01\n")
    out = tmp_path / "o"
    assert main(["emulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    assert "covers no pixel center" in capsys.readouterr().err
    assert not out.exists()


def test_site_whose_rounded_dead_zone_meets_its_saturation_exit_code(tmp_path, capsys):
    # 100 x 1.0476 < 110 x 0.9524, so the spread check passes, yet at seed 7
    # one site's dead zone and saturation each round to 105 pulses
    cfg = tmp_path / "collide.cfg"
    cfg.write_text(
        "synapse.dead_zone_pulses = 100\n"
        "synapse.saturation_pulses = 110\n"
        "synapse.site_spread = 0.0476\n"
    )
    out = tmp_path / "o"
    assert main(["emulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "site index 0 rounds to dead zone 105 and saturation 105 pulses" in err
    assert "synapse.site_spread 0.0476" in err
    assert not out.exists()


def test_threshold_reading_zero_exit_code(tmp_path, capsys):
    # No light on a noiseless camera: the threshold site's written sum equals
    # its background sum, so the threshold reads 0.0 and no pattern could
    # ever be judged against it.
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("optics.intensity_in = 1e-6\ncamera.read_noise = 0\n")
    out = tmp_path / "o"
    assert main(["emulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the threshold reads 0.0 after initialization" in err
    assert "background sum 163200.0 minus its written sum 163200.0" in err
    assert not out.exists()


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
    "read-block": (
        "camera.pixel_scale_um = 0.01\ncamera.width_px = 16000\ncamera.height_px = 16000\n",
        "a read of 10 sites x 10 frames (rig.frames_per_read) of the 1650x1550 px window "
        "(rig.roi_*_um / camera.pixel_scale_um) needs 2455200000 B, over the 134217728 B budget",
        RIG_MODES,
    ),
    "dumped-frame": (  # only emulate renders the full frame
        "camera.width_px = 4000\ncamera.height_px = 4000\nrun.dump_frames = true\n",
        "the run.dump_frames render of the 4000x4000 px sensor (camera.width_px x camera.height_px) "
        "needs 1024000000 B, over the 134217728 B budget",
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


def run_cli(tmp_path, mode, config_text, *flags, out="o"):
    """main(mode) on a config file of the given text, into tmp_path/out."""
    cfg = tmp_path / f"{out}.cfg"
    cfg.write_text(config_text)
    return main([mode, "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / out), *flags])


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every file of a run's output directory, by name."""
    return {path.name: path.read_bytes() for path in out.iterdir()}


def sweep_text(sweep_mode):
    return f"sweep.mode = {sweep_mode}\nsweep.seeds = 2\n" if sweep_mode else ""


@pytest.mark.parametrize("mode, sweep_mode, relation", relation_cases(MODES[:3], reads=False))
def test_rig_only_relation_leaves_a_mode_without_a_rig_running(tmp_path, capsys, mode, sweep_mode, relation):
    # none of these modes reads a rig key, so none is refused for one
    config_text = RELATIONS[relation][0] + sweep_text(sweep_mode)
    assert run_cli(tmp_path, mode, config_text) == 0
    assert (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("mode, sweep_mode, relation", relation_cases(RIG_MODES, reads=False))
def test_unread_relation_changes_no_artifact(tmp_path, capsys, mode, sweep_mode, relation):
    # the mode builds a rig but reads none of the relation's keys: the run is
    # the same run as without them, but for the config echo
    flags = ("--verbose", "--frames") if mode == "emulate" else ()
    config_text = "trainer.max_epochs = 3\n" + sweep_text(sweep_mode)
    assert run_cli(tmp_path, mode, config_text + RELATIONS[relation][0], *flags, out="with") == 0
    assert run_cli(tmp_path, mode, config_text, *flags, out="without") == 0
    with_key, without_key = artifact_bytes(tmp_path / "with"), artifact_bytes(tmp_path / "without")
    assert with_key.pop("config.resolved.txt") != without_key.pop("config.resolved.txt")
    assert with_key == without_key


@pytest.mark.parametrize("mode, sweep_mode, relation", relation_cases(MODES, reads=True))
def test_rig_only_relation_refuses_a_mode_that_builds_a_rig(tmp_path, capsys, mode, sweep_mode, relation):
    # the check runs where the relation's keys are read, before any draw or output
    config_text, message, _ = RELATIONS[relation]
    assert run_cli(tmp_path, mode, config_text + sweep_text(sweep_mode)) == 2
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


@pytest.mark.parametrize("mode", ["dataset", "simulate", "sweep"])
def test_held_out_variant_repeating_a_training_pattern_exit_code(tmp_path, capsys, mode):
    for i, (bitmap_text, message) in enumerate(OVERLAPPING_BITMAPS):
        bitmaps = tmp_path / f"overlap{i}.txt"
        bitmaps.write_text(bitmap_text)
        cfg = tmp_path / f"overlap{i}.cfg"
        cfg.write_text(f"dataset.bitmaps_file = {bitmaps}\n")
        out = tmp_path / f"o{i}"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
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
    from the closure that config's _int/_float/_choice/_optional build."""
    cells = parse.__closure__ or ()
    bound = dict(zip(parse.__code__.co_freevars, (c.cell_contents for c in cells)))
    if parse is config._bool:
        return st.sampled_from(["true", "false"])
    if "options" in bound:
        return st.sampled_from(bound["options"])
    if "inner" in bound:
        return st.just("none") | values_within_the_parser_bounds(key, bound["inner"])
    if "lo_open" in bound:
        return st.floats(bound["lo"], bound["hi"], exclude_min=bound["lo_open"]).map(repr)
    if "lo" in bound:
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
        cfg = Path(work) / "fuzz.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([mode, "--config", str(cfg), "--out", str(Path(work) / "o")])
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
