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
