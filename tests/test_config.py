import pytest

from optoperceptron.config import KEY_TABLE, load_config, parse_config_text
from optoperceptron.errors import ConfigurationError
from optoperceptron.patterns import DEFAULT_BITMAPS


def test_defaults_load():
    cfg = load_config()
    assert cfg["trainer.initial_weight"] == 0.5
    assert cfg["trainer.initial_threshold"] == 2.5
    assert cfg["trainer.eta_max"] == 0.014
    assert cfg["camera.dark_offset"] == 600.0
    assert cfg.bitmaps == DEFAULT_BITMAPS


def test_file_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "trainer.eta_max = 0.01\n"
        "\n"
        "camera.read_noise = 0\n"
        "rig.reread_threshold = true\n"
    )
    cfg = load_config(path)
    assert cfg["trainer.eta_max"] == 0.01
    assert cfg["camera.read_noise"] == 0.0
    assert cfg["rig.reread_threshold"] is True


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
