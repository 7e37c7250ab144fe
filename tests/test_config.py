import ast
import inspect
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import fuzzed_configs

import optoperceptron
from optoperceptron import config, runner
from optoperceptron.config import KEY_TABLE, load_config, nanojoules, parse_config_text
from optoperceptron.errors import ConfigurationError
from optoperceptron.optics import CameraConfig, OpticalConstants, pgm_image
from optoperceptron.patterns import DEFAULT_BITMAPS
from optoperceptron.rig import EnergyLedger, Rig, RigConfig, ShutterModel
from optoperceptron.runner import build_rig, make_streams
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
    # KEY_TABLE owns every default and bound, and the runs judge every
    # relation: a typed config is a plain field bundle, and only its RunConfig
    # accessor builds one (._replace of a built one is fine). A NamedTuple
    # class may define no __new__ or __init__ of its own, so one built
    # straight on tuple checks nothing.
    assert typed._fields and typed._field_defaults == {}
    assert typed.__bases__ == (tuple,)
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
    assert inspect.signature(Rig.__init__).parameters["ledger"].default is inspect.Parameter.empty
    prices = {name: p.default for name, p in inspect.signature(EnergyLedger.__init__).parameters.items()}
    assert prices == {"self": inspect.Parameter.empty, "per_read_j": inspect.Parameter.empty,
                      "per_pulse_j": inspect.Parameter.empty}


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


def load_rig_config(overrides):
    """load_config, then the checks that runner.build_rig runs before it draws."""
    cfg = load_config(overrides=overrides)
    cfg.check_rig()
    return cfg


def test_cross_validation_dark_offset_vs_full_well():
    # 10 bits: full well 1023
    with pytest.raises(ConfigurationError, match="full well"):
        load_rig_config({"camera.bit_depth": "10", "camera.dark_offset": "1023"})
    cfg = load_rig_config({"camera.bit_depth": "10", "camera.dark_offset": "1022"})
    assert cfg["camera.dark_offset"] == 1022.0


class Admitted(Exception):
    """Raised by the stand-in for emulate_run that a runner's checks reached."""


def admitted_by(monkeypatch, run_mode, overrides) -> bool:
    """Whether runner.run_<mode> admits the config: its own checks pass and
    it reaches emulate_run, which is stubbed out, so nothing is drawn."""
    def reached(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(runner, "emulate_run", reached)
    with pytest.raises(Admitted):
        getattr(runner, f"run_{run_mode}")(load_config(overrides=overrides), Path("unwritten"))
    return True


def test_cross_validation_spot_vs_waist(monkeypatch):
    # the area fraction (d / waist)^2 would bill more than the whole pulse
    with pytest.raises(ConfigurationError, match="rig.spot_diameter_um 300.0 exceeds"):
        load_config(overrides={"rig.spot_diameter_um": "300"}).per_pulse_j("rig.spot_diameter_um")
    with pytest.raises(ConfigurationError, match="energy.spot_large_um 200.0 exceeds"):
        admitted_by(monkeypatch, "energy", {"energy.spot_large_um": "200"})
    cfg = load_rig_config({"rig.spot_diameter_um": "100"})
    assert cfg["rig.spot_diameter_um"] == cfg["energy.waist_um"]
    assert cfg.per_pulse_j("rig.spot_diameter_um") == cfg["energy.write_power_uw"] * 1e-6 / cfg["shutter.repetition_rate_hz"]
    assert admitted_by(monkeypatch, "energy", {"energy.spot_large_um": "100"})


@pytest.mark.parametrize("diameter", ["0", "-1"])
def test_spot_without_area_refused(diameter):
    # the open lower bound is the only check that a written spot has an area
    with pytest.raises(ConfigurationError, match=r"rig\.spot_diameter_um: -?[01]\.0 must be above"):
        load_config(overrides={"rig.spot_diameter_um": diameter})


# -- memory budget: the refusal tests only check the config, so none allocates a block

def test_memory_budget_admits_the_last_read_block_under_it():
    # a 160 x 128 px window reads (10 x frames + 20) x 20480 px x 8 B
    window = {"rig.roi_width_um": "160", "rig.roi_height_um": "128"}
    assert load_rig_config({**window, "rig.frames_per_read": "79"})
    with pytest.raises(ConfigurationError, match="needs 134348800 B, over the 134217728 B budget"):
        load_rig_config({**window, "rig.frames_per_read": "80"})
    assert (10 * 1000 + 20) * 17 * 16 * 8 <= config.MEMORY_BUDGET_BYTES  # 1000 frames, default window


def test_full_frame_render_over_the_budget_is_refused_only_when_dumped(monkeypatch):
    # 32 B per sensor pixel: 2048 x 2048 px is exactly the budget
    assert admitted_by(monkeypatch, "emulate", {
        "camera.width_px": "2048", "camera.height_px": "2048", "run.dump_frames": "true",
    })
    big = {"camera.width_px": "2048", "camera.height_px": "2049"}
    assert admitted_by(monkeypatch, "emulate", big)
    with pytest.raises(ConfigurationError) as exc:
        admitted_by(monkeypatch, "emulate", {**big, "run.dump_frames": "true"})
    assert str(exc.value) == (
        "the run.dump_frames render of the 2048x2049 px sensor (camera.width_px x camera.height_px) "
        "needs 134283264 B, over the 134217728 B budget"
    )


def test_memory_budget_keeps_every_roi_sum_exact():
    # an admitted read holds at most budget / 240 B window pixels, each
    # at most the 32-bit full well: integrate_roi's int64 sums stay below
    # 2**53, so they neither wrap nor round when WeightState takes them as floats
    largest_window_px = config.MEMORY_BUDGET_BYTES // ((10 * 1 + 20) * 8)  # 1 frame a read
    assert largest_window_px * (2**32 - 1) < 2**53 < 2**63


@pytest.mark.parametrize("width, height", [(166, 128), (500, 400), (200, 700), (900, 130)])
def test_full_frame_render_allocates_at_most_its_stated_bytes_per_pixel(width, height):
    # the budget charges a full frame FULL_FRAME_BYTES_PER_PX per sensor
    # pixel: the default sensor, a larger one, a tall one and a wide one
    cfg = load_config(overrides={"camera.width_px": str(width), "camera.height_px": str(height)})
    rig = build_rig(cfg, make_streams(7))
    tracemalloc.start()
    try:
        pgm_image(*rig.full_frame(), rig.sensor_camera)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= config.FULL_FRAME_BYTES_PER_PX * width * height


@pytest.mark.parametrize("frames", [1, 10])
def test_site_read_allocates_at_most_its_charge(monkeypatch, frames):
    # a read holds the ten sites' float64 frame block, then average_frames'
    # float64 sum and int64 copy of one frame per site; 4 KiB covers the
    # read's small Python objects. A zero budget makes the config name its charge.
    overrides = {"rig.frames_per_read": str(frames)}
    with monkeypatch.context() as patched:
        patched.setattr(config, "MEMORY_BUDGET_BYTES", 0)
        with pytest.raises(ConfigurationError, match="a read of 10 sites") as exc:
            load_rig_config(overrides)
    charge = int(str(exc.value).split(" needs ")[1].split(" B,")[0])
    rig = build_rig(load_config(overrides=overrides), make_streams(7))
    tracemalloc.start()
    try:
        rig._read(range(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charge + 4096


def test_pixel_area_that_rounds_to_zero_is_refused():
    with pytest.raises(ConfigurationError, match="camera.pixel_scale_um 1e-200 is too small"):
        load_rig_config({"camera.pixel_scale_um": "1e-200", "rig.roi_width_um": "1e-200",
                         "rig.roi_height_um": "1e-200"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("run.seed", "-1"),  # Pcg64 and SeedSequence take seeds >= 0
        ("trainer.eta_fixed", "0"),  # VectorBackend.apply_update moves by a positive eta
        ("rig.frames_per_read", "0"),  # expose_frames renders at least one frame
        ("rig.learning_packets", "0"),
        ("shutter.nominal_packet_pulses", "0"),  # shutter_pulses' counts
        ("shutter.repetition_rate_hz", "0.5"),
        ("energy.write_power_uw", "-1"),  # the ledger bills energies >= 0
        ("energy.read_nj", "-1"),
    ],
)
def test_key_bounds_that_the_runs_rely_on(key, value):
    with pytest.raises(ConfigurationError, match=f"override: {key}: "):
        load_config(overrides={key: value})


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


@settings(max_examples=50, deadline=None)
@given(values=fuzzed_configs)
@example(values={"trainer.eta_max": "0.01", "run.seed": "9"})
@example(values={"run.seed": str(10**400)})  # unbounded above, and beyond any float
def test_echo_reads_back_every_key(values):
    # each key at its parser's bounds, none and subnormal floats included
    cfg = load_config(overrides=values)
    text = runner.config_text(cfg)
    with tempfile.TemporaryDirectory() as work:
        echoed = Path(work) / "echo.cfg"
        echoed.write_text(text)
        replayed = load_config(echoed)
    assert replayed.values == cfg.values
    assert runner.config_text(replayed) == text


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


def test_key_cases_cover_the_key_table():
    assert set(KEY_CASES) == set(KEY_TABLE)


@pytest.mark.parametrize("key", sorted(KEY_CASES))
def test_every_key_changes_an_artifact(key, tmp_path, files_of):
    value, mode, companions = KEY_CASES[key]
    if key == "dataset.bitmaps_file":
        glyphs = tmp_path / "glyphs.txt"
        glyphs.write_text(value)
        value = str(glyphs)
    base = {**BASE_CONFIG, **companions}
    before, after = files_of(mode, config=base), files_of(mode, config={**base, key: value})
    assert before.pop("config.resolved.txt") != after.pop("config.resolved.txt")
    assert before != after, f"{key} = {value} changed no artifact of {mode}"


@example(0.0)
@example(5e-324)
@example(1e-5)
@example(0.4)
@example(1e22)
@example(1.7976931348623157e308)
@given(st.one_of(
    st.floats(0.0, 1e9),  # the range energy.read_nj admits
    st.floats(-300.0, 9.0).map(lambda e: 10.0**e),
    st.floats(allow_nan=False, allow_infinity=False),
))
def test_nanojoules_is_the_exact_decimal_rescale(value):
    # Decimal's scaleb is the exact shift of the literal by -9 that
    # nanojoules makes on its exponent; both parse to the nearest double.
    assert nanojoules(value) == float(Decimal(repr(value)).scaleb(-9))
