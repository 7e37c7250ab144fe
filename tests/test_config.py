import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import optoperceptron
from optoperceptron.cli import main
from optoperceptron.config import KEY_TABLE, load_config, parse_config_text
from optoperceptron.errors import ConfigurationError
from optoperceptron.optics import CameraConfig, OpticalConstants
from optoperceptron.patterns import DEFAULT_BITMAPS
from optoperceptron.rig import EnergyLedger, Rig, RigConfig, ShutterModel
from optoperceptron.synapse import InhomogeneityParams
from optoperceptron.trainer import TrainerConfig

PACKAGE = Path(optoperceptron.__file__).parent


def test_defaults_load():
    cfg = load_config()
    assert cfg["trainer.initial_weight"] == 0.5
    assert cfg["trainer.initial_threshold"] == 2.5
    assert cfg["trainer.eta_max"] == 0.014
    assert cfg["camera.dark_offset"] == 600.0
    assert cfg.bitmaps == DEFAULT_BITMAPS


@pytest.mark.parametrize(
    "accessor, typed",
    [
        ("trainer_config", TrainerConfig),
        ("nominal_site_params", InhomogeneityParams),
        ("optical_constants", OpticalConstants),
        ("camera_config", CameraConfig),
        ("shutter_model", ShutterModel),
        ("rig_config", RigConfig),
    ],
)
def test_typed_config_only_from_accessor(accessor, typed):
    # KEY_TABLE and _cross_validate own every default and bound: a typed
    # config is a plain field bundle, and only its RunConfig accessor builds
    # one (dataclasses.replace of a built one is fine).
    missing = dataclasses.MISSING
    assert [
        f.name for f in dataclasses.fields(typed)
        if f.default is not missing or f.default_factory is not missing
    ] == []
    assert "__post_init__" not in vars(typed)
    assert constructions(typed.__name__) == [("config", f"RunConfig.{accessor}")]
    assert isinstance(getattr(load_config(), accessor)(), typed)


def constructions(name: str) -> list[tuple[str, str]]:
    """(module, enclosing Class.function or <module>) of each call to the
    given name anywhere in the package source."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == name:
                    found.append((module, scope))
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def test_rig_and_ledger_take_their_energy_prices_from_the_config():
    # energy.read_nj and the pulse price reach the rig through RunConfig only
    params = inspect.signature(Rig.__init__).parameters
    for name in ("per_pulse_write_j", "per_read_j"):
        assert params[name].default is inspect.Parameter.empty, name
    ledger_read = next(f for f in dataclasses.fields(EnergyLedger) if f.name == "per_read_j")
    assert ledger_read.default is dataclasses.MISSING


def test_file_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "trainer.eta_max = 0.01\n"
        "\n"
        "camera.read_noise = 0\n"
        "run.dump_frames = true\n"
    )
    cfg = load_config(path)
    assert cfg["trainer.eta_max"] == 0.01
    assert cfg["camera.read_noise"] == 0.0
    assert cfg["run.dump_frames"] is True


def test_unknown_key_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trainer.eta_max = 0.01\ntrainer.typo = 1\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(path)


def test_bad_value_reports_line_and_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n\ntrainer.eta_max = -3\n")
    with pytest.raises(ConfigurationError, match="line 3.*eta_max"):
        load_config(path)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config_text("run.seed = 1\nrun.seed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config_text("run.seed 1\n")


def test_override_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(overrides={"nope.nope": "1"})


def test_cross_validation_dead_zone_vs_saturation():
    with pytest.raises(ConfigurationError, match="saturation"):
        load_config(
            overrides={"synapse.dead_zone_pulses": "700", "synapse.saturation_pulses": "600"}
        )


def test_cross_validation_roi_vs_sensor():
    with pytest.raises(ConfigurationError, match="sensor"):
        load_config(overrides={"rig.roi_width_um": "500"})


def test_cross_validation_shutter_window():
    with pytest.raises(ConfigurationError, match="open_time"):
        load_config(
            overrides={"shutter.open_time_min_ms": "30", "shutter.open_time_max_ms": "20"}
        )


def test_cross_validation_dark_offset_vs_full_well():
    # 10 bits: full well 1023
    with pytest.raises(ConfigurationError, match="full well"):
        load_config(overrides={"camera.bit_depth": "10", "camera.dark_offset": "1023"})
    cfg = load_config(overrides={"camera.bit_depth": "10", "camera.dark_offset": "1022"})
    assert cfg["camera.dark_offset"] == 1022.0


def test_cross_validation_spot_vs_waist():
    # the area fraction (d / waist)^2 would bill more than the whole pulse
    with pytest.raises(ConfigurationError, match="rig.spot_diameter_um 300.0 exceeds"):
        load_config(overrides={"rig.spot_diameter_um": "300"})
    with pytest.raises(ConfigurationError, match="energy.spot_large_um 200.0 exceeds"):
        load_config(overrides={"energy.spot_large_um": "200"})
    cfg = load_config(overrides={"rig.spot_diameter_um": "100", "energy.spot_large_um": "100"})
    assert cfg["rig.spot_diameter_um"] == cfg["energy.waist_um"]


@pytest.mark.parametrize("diameter", ["0", "-1"])
def test_spot_without_area_refused(diameter):
    # the open lower bound is the only check that a written spot has an area
    with pytest.raises(ConfigurationError, match=r"rig\.spot_diameter_um: -?[01]\.0 must be above"):
        load_config(overrides={"rig.spot_diameter_um": diameter})


def test_open_lower_bound_says_the_value_must_be_above_it():
    # the bound itself is refused, so "below the minimum" would misstate it
    with pytest.raises(ConfigurationError) as exc:
        load_config(overrides={"camera.gain": "0"})
    assert str(exc.value).endswith("camera.gain: 0.0 must be above 0.0")


def test_closed_lower_bound_says_the_value_is_below_the_minimum():
    with pytest.raises(ConfigurationError) as exc:
        load_config(overrides={"camera.read_noise": "-1"})
    assert str(exc.value).endswith("camera.read_noise: -1.0 is below the minimum 0.0")
    assert load_config(overrides={"camera.read_noise": "0"})["camera.read_noise"] == 0.0


def test_bitmaps_file_loading(tmp_path):
    path = tmp_path / "glyphs.txt"
    path.write_text("111\n000\n111\n\n100\n100\n100\n\n001\n001\n001\n")
    cfg = load_config(overrides={"dataset.bitmaps_file": str(path)})
    assert cfg.bitmaps["z"] == ("111", "000", "111")
    assert cfg.bitmaps["n"] == ("001", "001", "001")


def test_bitmaps_file_missing():
    with pytest.raises(ConfigurationError, match="no such file"):
        load_config(overrides={"dataset.bitmaps_file": "/nonexistent/x.txt"})


def test_echo_roundtrip(tmp_path):
    cfg = load_config(overrides={"trainer.eta_max": "0.01", "run.seed": "9"})
    echoed = tmp_path / "echo.cfg"
    echoed.write_text(cfg.to_text())
    cfg2 = load_config(echoed)
    assert cfg2.values == cfg.values


def test_optional_keys_accept_none():
    cfg = load_config(overrides={"trainer.eta_fixed": "none", "synapse.margin_pulses": "auto"})
    assert cfg["trainer.eta_fixed"] is None
    assert cfg["synapse.margin_pulses"] is None


def test_every_key_documented():
    for key, spec in KEY_TABLE.items():
        assert spec.doc, f"{key} lacks documentation"


# -- every key changes an artifact --------------------------------------------

# Set in the config file: the --seed, --verbose and --frames flags would
# override the key under test.
BASE_CONFIG = {
    "run.seed": "7",
    "run.trace_verbosity": "2",
    "run.dump_frames": "true",
    "trainer.max_epochs": "2",
    "sweep.seeds": "2",
}
ALT_GLYPHS = "111\n000\n111\n\n101\n101\n010\n\n010\n101\n101\n"
# A run that raises the threshold: simulate at seed 7 first raises after step 96.
RAISING = {
    "trainer.initial_threshold": "0.5",
    "trainer.eta_fixed": "0.1",
    "trainer.max_epochs": "10",
}
TIMED_SHUTTER = {"shutter.jitter_mode": "time"}

# key -> (alternate value, CLI mode, companion overrides for both runs)
KEY_CASES = {
    "run.seed": ("8", "simulate", {}),
    "run.trace_verbosity": ("0", "simulate", {}),
    "run.dump_frames": ("false", "emulate", {}),
    "trainer.initial_weight": ("0.4", "simulate", {}),
    "trainer.initial_threshold": ("2.0", "simulate", {}),
    "trainer.eta_max": ("0.02", "simulate", {}),
    "trainer.eta_fixed": ("0.01", "simulate", {}),
    "trainer.max_epochs": ("1", "simulate", {}),
    "trainer.target_class": ("z", "simulate", {}),
    "trainer.threshold_raise": ("0.1", "simulate", RAISING),
    "dataset.bitmaps_file": (ALT_GLYPHS, "dataset", {}),
    "synapse.dead_zone_pulses": ("200", "emulate", {}),
    "synapse.saturation_pulses": ("700", "emulate", {}),
    "synapse.curve": ("linear", "emulate", {}),
    "synapse.margin_pulses": ("0", "emulate", {}),
    "synapse.site_spread": ("0.1", "emulate", {}),
    "shutter.open_time_min_ms": ("20", "emulate", TIMED_SHUTTER),
    "shutter.open_time_max_ms": ("20", "emulate", TIMED_SHUTTER),
    "shutter.repetition_rate_hz": ("2000", "energy", {}),
    "shutter.nominal_packet_pulses": ("40", "emulate", {}),
    "shutter.jitter_mode": ("time", "emulate", {}),
    "shutter.jitter_enabled": ("false", "emulate", {}),
    "rig.init_weight_packets": ("40", "emulate", {}),
    "rig.init_threshold_packets": ("200", "emulate", {}),
    "rig.learning_packets": ("3", "emulate", {}),
    "rig.frames_per_read": ("5", "emulate", {}),
    "rig.roi_width_um": ("20", "emulate", {}),
    "rig.roi_height_um": ("20", "emulate", {}),
    "rig.spot_diameter_um": ("8", "emulate", {}),
    "rig.site_spacing_um": ("40", "emulate", {}),
    "optics.delta_rad": ("0.12", "emulate", {}),
    "optics.intensity_in": ("3e6", "emulate", {}),
    "camera.width_px": ("160", "emulate", {}),
    "camera.height_px": ("120", "emulate", {}),
    "camera.pixel_scale_um": ("0.9", "emulate", {}),
    "camera.exposure_ms": ("9", "emulate", {}),
    "camera.gain": ("90", "emulate", {}),
    "camera.dark_offset": ("500", "emulate", {}),
    "camera.read_noise": ("40", "emulate", {}),
    "camera.bit_depth": ("17", "emulate", {}),
    "energy.write_power_uw": ("0.6", "energy", {}),
    "energy.waist_um": ("90", "energy", {}),
    "energy.spot_small_um": ("20", "energy", {}),
    "energy.spot_large_um": ("45", "energy", {}),
    "energy.read_nj": ("0.5", "energy", {}),
    "sweep.seeds": ("3", "sweep", {}),
    "sweep.mode": ("emulate", "sweep", {}),
}


def run_artifacts(work, mode: str, values: dict[str, str]) -> dict[str, bytes]:
    """Every artifact of one CLI run except the config echo."""
    work.mkdir()
    config = work / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    out = work / "out"
    assert main([mode, "--config", str(config), "--out", str(out)]) == 0
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "config.resolved.txt"
    }


def test_key_cases_cover_the_key_table():
    assert set(KEY_CASES) == set(KEY_TABLE)


@pytest.mark.parametrize("key", sorted(KEY_CASES))
def test_every_key_changes_an_artifact(key, tmp_path):
    value, mode, companions = KEY_CASES[key]
    if key == "dataset.bitmaps_file":
        glyphs = tmp_path / "glyphs.txt"
        glyphs.write_text(value)
        value = str(glyphs)
    base = {**BASE_CONFIG, **companions}
    before = run_artifacts(tmp_path / "base", mode, base)
    after = run_artifacts(tmp_path / "alt", mode, {**base, key: value})
    assert before != after, f"{key} = {value} changed no artifact of {mode}"
